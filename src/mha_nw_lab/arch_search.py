"""Budget-constrained architecture sweep: allocate D = H * d_k.

Every allocation uses constructively orthogonal key frames sliced from one
shared p x D orthonormal frame, so the covariance terms vanish by design
and the sweep isolates the bias/variance allocation trade-off.  Each
allocation spends the whole budget, so the budget must lie in 1 <= D <= p
and then every divisor allocation is feasible.  Every head's value vector
is the task's unit linear skeleton, so a task with none (quadratic and
radial, under either input law) is rejected before any draw: its heads
would all estimate 0 and every allocation would tie.  Each sweep reports
its measured rows, its argmin and whether the curve is flat within noise.
The scaling-trend driver runs the sweep at every size of a sample-size
grid, all in one replicate-engine call, and reports directional verdicts
(argmin head dimension non-decreasing and sublinear in n) rather than any
exact exponent, which is not identifiable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import _reports, noise_floor
from .errors import EmptySweep, ShapeMismatch, UnsupportedFamily
from .mha import make_weights
from .nw_attention import HeadConfig
from .synthetic import RegressionTask, derive_seed
from .tensor_core import qr_orthonormalize

__all__ = [
    "ArchRow",
    "ArchSweepResult",
    "ScalingTrendResult",
    "enumerate_allocations",
    "scaling_trend",
]


def enumerate_allocations(D: int) -> list[tuple[int, int]]:
    """All (H, d_k) with H * d_k = D, ascending in d_k."""
    if D < 1:
        raise ShapeMismatch(f"budget_D must be >= 1, got {D}")
    return [(D // d_k, d_k) for d_k in range(1, D + 1) if D % d_k == 0]


@dataclass(frozen=True)
class ArchRow:
    H: int
    d_k: int
    mse: float
    stderr: float
    bias_sq: float
    var_term: float
    cov_term: float


@dataclass(frozen=True)
class ArchSweepResult:
    rows: list[ArchRow]
    argmin_H: int
    argmin_dk: int
    flat: bool


def _sweeps(task: RegressionTask, D: int, n_grid: list[int], R: int, Q: int,
            seed: int, query_gain: float) -> dict[int, ArchSweepResult]:
    """One budget sweep per sample size from a single replicate-engine call.

    The allocations are built once; every (allocation, n) pair is one head set,
    so each n sees the same datasets at every allocation.  The budget and the
    task's linear skeleton are checked before the frame is drawn.
    """
    if D > task.p:
        raise EmptySweep(f"no feasible allocation for budget_D = {D}: "
                         f"H * d_k = D exceeds the input dimension p = {task.p}")
    allocations = enumerate_allocations(D)
    wv = task.linear_skeleton()
    norm = np.linalg.norm(wv)
    if norm < 1e-12:
        raise UnsupportedFamily(
            f"task.family and task.input_law give a task with no linear component "
            f"({task.family} under the {task.input_law} law), so every sweep head would "
            "have value vector 0 and every allocation would tie: no sweep can tell them apart")
    wv = wv / norm
    rng = np.random.default_rng(derive_seed(seed, "frame"))
    frame = qr_orthonormalize(rng.standard_normal((task.p, D)))
    points = []   # (heads, uniform alphas) per allocation
    for H, d_k in allocations:
        heads = []
        for h in range(H):
            wk = frame[:, h * d_k:(h + 1) * d_k]
            heads.append(HeadConfig(wq=query_gain * wk, wk=wk, wv=wv))
        points.append((tuple(heads), make_weights("uniform", H)))
    reports = _reports(task, [(n, heads, [alphas]) for n in n_grid for heads, alphas in points],
                       R, Q, seed)
    A = len(points)
    return {n: _summarise(points, reports[i * A:(i + 1) * A])
            for i, n in enumerate(n_grid)}


def _summarise(points, reports) -> ArchSweepResult:
    """Rows, argmin and flatness of one sample size's sweep."""
    rows = [
        ArchRow(H=len(heads), d_k=heads[0].d_k, mse=report.mse_direct,
                stderr=report.stderr["mse_direct"], bias_sq=report.ensemble_bias_sq,
                var_term=report.variance_term, cov_term=report.covariance_term)
        for (heads, _), report in zip(points, reports)
    ]
    best = min(rows, key=lambda row: (row.mse, -row.H))
    mses = np.array([row.mse for row in rows])
    flat = bool(mses.max() - mses.min() <= noise_floor(mses.max()))
    return ArchSweepResult(rows=rows, argmin_H=best.H, argmin_dk=best.d_k, flat=flat)


@dataclass(frozen=True)
class ScalingTrendResult:
    rows: list[tuple[int, int, int, bool]]   # (n, d_k*, H*, flat)
    nondecreasing: bool
    sublinear: bool
    log_slope: float
    sweeps: dict


def scaling_trend(
    task: RegressionTask,
    D: int,
    n_grid,
    R: int,
    Q: int,
    seed: int,
    query_gain: float = 9.0,
) -> ScalingTrendResult:
    """Sweep the budget at each sample size and report how d_k* moves.

    Each allocation slices H mutually orthogonal d_k-frames from one common
    p x D orthonormal frame and runs the Monte-Carlo decomposition with
    uniform weights.  Every (allocation, n) pair runs in one replicate-engine
    call, so all allocations see the same datasets; replicate r draws one
    dataset at the largest n, and each smaller n reads its first n inputs,
    those a single sweep at that n would draw.  Each sweep's argmin breaks
    exact ties toward larger H (many small heads).  A grid of fewer than 3
    sizes or not strictly ascending, or a budget below 1, raises
    ``ShapeMismatch``, a budget above p ``EmptySweep``, and a task whose
    linear skeleton is zero ``UnsupportedFamily``, all before the frame is
    drawn.  Verdicts are directional: the argmin head dimension
    should be non-decreasing in n and grow strictly slower than n itself.
    The slope of d_k* against log n is emitted as data, not asserted.  It
    is the closed form (x . y) / (x . x) with x = log n and y = d_k*, each
    centred, so a d_k* that does not move gives exactly 0.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 3:
        raise ShapeMismatch(f"n_grid needs >= 3 sample sizes, got {len(n_grid)}")
    if any(n_grid[i] >= n_grid[i + 1] for i in range(len(n_grid) - 1)):
        raise ShapeMismatch(f"n_grid must be strictly ascending, got {n_grid}")

    sweeps = _sweeps(task, D, n_grid, R, Q, seed, query_gain)
    rows = [(n, sweep.argmin_dk, sweep.argmin_H, sweep.flat) for n, sweep in sweeps.items()]

    dks = np.array([row[1] for row in rows], dtype=np.float64)
    ns = np.array(n_grid, dtype=np.float64)
    nondecreasing = bool(np.all(np.diff(dks) >= 0))
    sublinear = bool((dks[-1] / dks[0]) < (ns[-1] / ns[0]))
    x = np.log(ns) - np.log(ns).mean()
    y = dks - dks.mean()
    return ScalingTrendResult(
        rows=rows, nondecreasing=nondecreasing,
        sublinear=sublinear, log_slope=float(x @ y / (x @ x)), sweeps=sweeps,
    )
