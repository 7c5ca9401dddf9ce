"""Monte-Carlo bias-variance-covariance decomposition of head ensembles.

Estimator conventions
---------------------
For R replicate datasets and Q fixed quadrature queries, let E[r, h, q] be
head h's estimate on replicate r at query q, Ec = E - mean_r E, m the true
mean at the queries and Y = sum_h alpha_h E the weighted ensemble.  Each
term is the replicate mean of one per-replicate statistic t[r], and its
standard error is the spread of that same statistic, std_r(t) / sqrt(R):

    pair[r, h, g]     = mean_q Ec[r, h, q] Ec[r, g, q] * R / (R - 1)
    cross_cov         from pair[r]; per_head_var is its diagonal
    per_head_bias     from mean_q (E[r, h] - m)
    per_head_mse      from mean_q (E[r, h] - m)^2
    variance_term     from sum_h alpha_h^2 pair[r, h, h]
    covariance_term   from alpha^T pair[r] alpha - sum_h alpha_h^2 pair[r, h, h]
    mse_direct        from mean_q (Y[r] - m)^2

The R / (R - 1) factor makes the mean of pair the unbiased (R - 1
denominator) sample covariance, averaged over the queries.  The one plug-in
is the squared ensemble bias, debiased by the Monte-Carlo variance of the
replicate mean Ybar:

    ensemble_bias_sq  = mean_q (Ybar - m)^2 - mean_r alpha^T pair[r] alpha / R

and its standard error is that of its influence statistic
2 mean_q (Y[r] - Ybar)(Ybar - m).  With these forms the identity

    mse_direct = ensemble_bias_sq + variance_term + covariance_term

holds exactly in the estimates (not merely in expectation), so the reported
identity residual is pure floating-point noise; its standard error is
propagated conservatively as the quadrature sum of the four terms' errors.

``mc_decompose`` and every sweep hand ``_reports`` their ``(n, heads,
alpha_sets)`` sets and get one ``DecompositionReport`` per weight vector, in
input order.  Behind it, ``_head_tensor`` is the one replicate-major engine:
each replicate draws its inputs once, at the call's largest n = N, and
nothing else (heads read no responses, so the true mean is evaluated only at
the queries); ``kernel_operands`` projects the queries once per distinct head
and each replicate's inputs by one product for all heads.  In batches of
B = max(1, BATCH_BYTES // (Q N 8)) replicates, so that a (B, Q, N) logit
block fits BATCH_BYTES, each distinct head runs in one ``attend_many`` pass
over every n it is held at (a smaller n reads a prefix of the inputs),
writing the estimates into every set's tensor that holds the (n, head) pair;
``_decompose_tensor`` reduces each tensor once for all the set's weight
vectors.  The replicates run as contiguous blocks, one per worker process
(MHA_NW_LAB_THREADS caps them, 0 = auto): the caller runs the first block and
forked children the others, writing into tensors in shared memory; a child
leaves once the caller dies, at its next draw.  Rows are indexed by
replicate, so the outputs are bit-identical for every worker count.  They
are the one channel a failure takes: once every block is done, ``_reports``
scans and reduces one set's tensor at a time, so the caller holds its own
rows of every set and one whole set; the first non-finite estimate (by
replicate, then set, head and query) raises ReplicateFailure, so a run whose
estimates overflow finishes all its replicates before it fails.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import signal
import sys
import threading
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

from .diversity import hdi as hdi_indices
from .diversity import make_projection_family
from .errors import ConfigError, LabError, NeedsTwoHeads, ReplicateFailure, ShapeMismatch
from .mha import make_weights, weight_vector
from .nw_attention import DEGENERATE_ENTROPY_NATS, HeadConfig, attend_many, kernel_operands
from .synthetic import RegressionTask, derive_seed, sample_dataset, sample_queries

__all__ = [
    "FamilySpec",
    "ExperimentPlan",
    "DecompositionReport",
    "mc_decompose",
    "hdi_sweep",
    "HdiSweepResult",
    "weighting_compare",
    "WeightingCompareResult",
    "spearman",
]


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
#: bytes a (B, Q, N) logit block may take: the engine batches B >= 1 replicates per kernel call
BATCH_BYTES = 1 << 20


def noise_floor(x: float) -> float:
    """Float-noise floor at magnitude ``x``: differences below it are rounding."""
    return 1e-12 * max(1.0, abs(x))


def worker_count() -> int:
    """Replicate worker processes from MHA_NW_LAB_THREADS (0 or unset = auto:
    the CPUs this process may run on, at most 8)."""
    raw = os.environ.get("MHA_NW_LAB_THREADS") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise ConfigError(f"MHA_NW_LAB_THREADS must be a nonnegative integer, got {raw!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return int(raw) or min(8, cpus or 1)


@dataclass(frozen=True)
class FamilySpec:
    """A plain recipe: ``make_projection_family``'s arguments but the seed, which
    the plan derives from its master seed."""

    p: int
    d_k: int
    H: int
    mix: float = 1.0
    query_gain: float = 1.0
    noise_scales: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExperimentPlan:
    """Fully seeded specification of one decomposition experiment."""

    task: RegressionTask
    projection: FamilySpec
    weights: np.ndarray                  # (H,), held as ``weight_vector`` returns it
    n: int
    R: int
    Q: int
    master_seed: int

    def __post_init__(self):
        _check_sizes(self.n, self.R, self.Q)
        proj_p = self.projection.p
        if proj_p != self.task.p:
            raise ShapeMismatch(
                f"projection dimension p = {proj_p} != task dimension {self.task.p}"
            )
        object.__setattr__(self, "weights", weight_vector(self.weights, self.projection.H))

    def resolve_projection(self, mix: float | None = None) -> tuple[HeadConfig, ...]:
        """The heads of the plan's family, with ``mix`` in place of the spec's when given."""
        spec = self.projection
        return make_projection_family(
            p=spec.p, d_k=spec.d_k, H=spec.H, mix=spec.mix if mix is None else mix,
            seed=derive_seed(self.master_seed, "proj"), query_gain=spec.query_gain,
            noise_scales=spec.noise_scales,
        )


def _check_sizes(n: int, R: int, Q: int) -> None:
    if R < 2:
        raise ShapeMismatch(f"covariance estimation needs R >= 2 replicates, got {R}")
    if Q < 1:
        raise ShapeMismatch(f"need Q >= 1 quadrature queries, got {Q}")
    if n < 1:
        raise ShapeMismatch(f"need n >= 1 data points, got {n}")


@dataclass(frozen=True)
class DecompositionReport:
    """Integrated decomposition estimates with per-head detail."""

    per_head_bias: np.ndarray            # (H,) integrated
    per_head_var: np.ndarray             # (H,)
    per_head_mse: np.ndarray             # (H,)
    cross_cov: np.ndarray                # (H, H), diagonal = per_head_var
    ensemble_bias_sq: float
    variance_term: float
    covariance_term: float
    mse_direct: float
    identity_residual: float
    mse_replicates: np.ndarray           # (R,)
    stderr: dict                          # statistic name -> stderr
    cov_stderr: np.ndarray               # (H, H) pairwise stderrs
    degenerate_weights: int


def _head_tensor(task, head_sets, R, Q, master_seed):
    """The shared quadrature queries, and one (E[r, h, q], degenerate count
    per head) per ``(n, heads)`` set, by the engine of the module doc: heads
    with equal wq, wk and wv run once per batch of replicates, in one pass over
    every n they are held at, on ``kernel_operands`` of the batch's datasets.
    Unscanned: the caller has mapped only the rows its own block wrote."""
    queries = sample_queries(task, Q, derive_seed(master_seed, "query"))
    slots = {}   # head bytes -> (head, {n: [(set, index in set), ...]})
    for s, (n, heads) in enumerate(head_sets):
        for h, head in enumerate(heads):
            key = (head.wq.shape, head.wq.tobytes(), head.wk.tobytes(), head.wv.tobytes())
            slots.setdefault(key, (head, {}))[1].setdefault(n, []).append((s, h))
    N = max(n for n, _ in head_sets)
    Es = [_shared((R, len(heads), Q), np.float64) for _, heads in head_sets]
    degenerate = [_shared((R, len(heads)), np.int64) for _, heads in head_sets]
    B = max(1, BATCH_BYTES // (Q * N * 8))

    def run_replicates(block) -> None:
        block = iter(block)
        project = kernel_operands([head for head, _ in slots.values()], queries, N, min(B, R))
        while batch := list(itertools.islice(block, B)):
            datasets = [sample_dataset(task, N, derive_seed(master_seed, "data", r)) for r in batch]
            rs = slice(batch[0], batch[-1] + 1)
            for (head, by_n), projected in zip(slots.values(), project(datasets)):
                sizes = sorted(by_n)
                est, counts = attend_many(head, queries, datasets[-1], sizes, projected=projected)
                for j, n in enumerate(sizes):
                    for s, h in by_n[n]:
                        Es[s][rs, h] = est[:, j]
                        degenerate[s][rs, h] = counts[:, j]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _run_in_blocks(run_replicates, R)
    return queries, [(E, d.sum(axis=0)) for E, d in zip(Es, degenerate)]


def _shared(shape, dtype) -> np.ndarray:
    """A zeroed array in anonymous shared memory, so a forked worker's writes
    reach the process that forked it; LabError, naming the shape, if it
    cannot be mapped."""
    try:
        buffer = mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize)
    except (OSError, OverflowError) as exc:
        raise LabError(f"out of memory: cannot map a shared array of shape {shape}: "
                       f"{getattr(exc, 'strerror', None) or exc}") from exc
    return np.frombuffer(buffer, dtype).reshape(shape)


def _run_in_blocks(run, R: int) -> None:
    """``run(block)`` over contiguous blocks of ``range(R)``, one per worker:
    this process runs the first block and a forked child each later one.
    Serial where ``os.fork`` is missing or another Python thread is running.
    Children are reaped before this returns or raises; a child that exits
    nonzero or dies of a signal raises LabError naming its block.  No other
    failure ends a block early: ``run`` reports through what it writes."""
    workers = min(worker_count(), R)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    blocks = [range(R * b // workers, R * (b + 1) // workers) for b in range(workers)]
    pids, statuses = [], []   # children not yet reaped, and reaped ones' wait statuses
    parent = os.getpid()
    try:
        for block in blocks[1:]:
            pid = os.fork()
            if pid == 0:
                _worker(run, block, parent)
            pids.append(pid)
        run(blocks[0])
        while pids:
            statuses.append(os.waitpid(pids[0], 0)[1])
            pids.pop(0)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
    for block, status in zip(blocks[1:], statuses):
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = (f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                   else f"exited with code {code}")
            raise LabError(f"the worker process for replicates {block.start} to "
                           f"{block.stop - 1} {how}")


def _worker(run, block: range, parent: int):
    """A forked child's whole life: run its block and leave by ``os._exit``
    (no inherited buffers are flushed and no exit handlers run) with 0, or with
    1 after writing a traceback to stderr, also before any replicate once
    ``parent`` has died, however it died: an orphan's parent pid changes."""
    code = 1
    try:
        run(_while_alive(block, parent))
        code = 0
    except Exception:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _while_alive(block: range, parent: int):
    for r in block:
        if os.getppid() != parent:
            os._exit(1)
        yield r


def _mean_se(t: np.ndarray):
    """Replicate mean of the per-replicate statistic ``t`` (replicates on axis
    0) and the stderr of that mean."""
    return t.mean(axis=0), t.std(axis=0, ddof=1) / np.sqrt(t.shape[0])


def _decompose_tensor(E: np.ndarray, degenerate: np.ndarray, m_q: np.ndarray,
                      alpha_sets) -> list[DecompositionReport]:
    """One report per weight vector in ``alpha_sets``, all reweighting ``E``;
    the statistics that do not depend on the weights are formed once."""
    R, _, Q = E.shape
    err = E - m_q   # the one (R, H, Q) temporary: E - m, then its square, then Ec
    per_head_bias, bias_se = _mean_se(err.mean(axis=2))
    per_head_mse, mse_se = _mean_se(np.square(err, out=err).mean(axis=2))
    Ec = np.subtract(E, E.mean(axis=0), out=err)
    pair_t = np.einsum("rhq,rgq->rhg", Ec, Ec) / Q * (R / (R - 1))   # (R, H, H)
    cross_cov, cov_stderr = _mean_se(pair_t)
    per_head = dict(per_head_bias=per_head_bias, per_head_var=np.diag(cross_cov),
                    per_head_mse=per_head_mse, cross_cov=cross_cov, cov_stderr=cov_stderr,
                    degenerate_weights=int(degenerate.sum()))

    reports = []
    for alphas in alpha_sets:
        Y = np.einsum("h,rhq->rq", alphas, E)
        mse_replicates = ((Y - m_q) ** 2).mean(axis=1)
        t_var = np.einsum("h,rhh->r", alphas**2, pair_t)
        t_s2y = np.einsum("h,rhg,g->r", alphas, pair_t, alphas)
        terms = {"mse_direct": _mean_se(mse_replicates),
                 "variance_term": _mean_se(t_var),
                 "covariance_term": _mean_se(t_s2y - t_var)}
        # the one plug-in: the squared bias of the replicate mean, less that
        # mean's Monte-Carlo variance; its stderr is its influence statistic's
        Ybar = Y.mean(axis=0)
        bias_ens_q = Ybar - m_q
        terms["ensemble_bias_sq"] = (
            np.mean(bias_ens_q**2) - t_s2y.mean() / R,
            _mean_se(2.0 * ((Y - Ybar) * bias_ens_q).mean(axis=1))[1])
        est = {name: float(mean) for name, (mean, _) in terms.items()}
        se = {name: float(stderr) for name, (_, stderr) in terms.items()}
        se["identity_residual"] = float(np.sqrt(sum(s**2 for s in se.values())))
        se.update(per_head_bias=bias_se, per_head_mse=mse_se)
        residual = abs(est["mse_direct"] - (
            est["ensemble_bias_sq"] + est["variance_term"] + est["covariance_term"]))
        reports.append(DecompositionReport(**est, identity_residual=residual,
                                           mse_replicates=mse_replicates, stderr=se, **per_head))
    return reports


def _outside_stacklevel() -> int:
    """``stacklevel`` that attributes a warning issued by this function's
    caller to the first frame outside the package (walked by hand: Python
    before 3.12 has no ``skip_file_prefixes``)."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def _reports(task, sets, R, Q, master_seed) -> list[DecompositionReport]:
    """One report per weight vector of each ``(n, heads, alpha_sets)`` set,
    in input order, all on the same replicates.

    Each set is one engine tensor, taken in turn and released before the
    next: it is scanned for a non-finite estimate and, while none is found,
    reduced once for all its weight vectors.  Then the lowest failing
    (replicate, set, head, query) raises ReplicateFailure, or each set with
    degenerate softmax rows warns once.
    """
    for n, _, _ in sets:
        _check_sizes(n, R, Q)
    queries, tensors = _head_tensor(task, [(n, heads) for n, heads, _ in sets],
                                    R, Q, master_seed)
    m_q = task.mean(queries)
    reports, held, bad = [], [], []   # held: warnings issued only if no set fails
    for s, (n, heads, alpha_sets) in enumerate(sets, 1):
        E, degenerate = tensors.pop(0)   # the previous set's tensor is released here
        bad += [(r, s, h, q) for r, h, q in np.argwhere(~np.isfinite(E))[:1].tolist()]
        if not bad:
            reports += _decompose_tensor(E, degenerate, m_q, alpha_sets)
            if degenerate.any():
                held.append(f"{degenerate.sum()} softmax weight vectors were degenerate "
                            f"(entropy < {DEGENERATE_ENTROPY_NATS} nats) in head set {s} of "
                            f"{len(sets)} ({R} replicates) at n={n}, H={len(heads)}, "
                            f"d_k={heads[0].d_k}; per head {degenerate.tolist()}")
    if bad:
        r, _, h, q = min(bad)
        raise ReplicateFailure(f"non-finite head estimate at replicate {r}, head {h}, query {q}",
                               replicate=r, head=h, query=q)
    for message in held:
        warnings.warn(message, RuntimeWarning, stacklevel=_outside_stacklevel())
    return reports


def mc_decompose(plan: ExperimentPlan) -> DecompositionReport:
    """Monte-Carlo decomposition of the plan's ensemble.

    Each replicate draws independent inputs (seed domain "data"),
    evaluates every head at the shared quadrature queries (domain "query"),
    and the cross-replicate moments estimate bias against the known mean
    function, per-head variances and the cross-head covariance matrix.
    """
    [report] = _reports(plan.task, [(plan.n, plan.resolve_projection(), [plan.weights])],
                        plan.R, plan.Q, plan.master_seed)
    return report


# ---------------------------------------------------------------------------
# sweep drivers


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks on ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise ShapeMismatch(f"spearman needs two equal-length vectors, got {x.shape} and {y.shape}")

    def ranks(a: np.ndarray) -> np.ndarray:
        # a tie of c values ending at rank k shares their mean rank k - (c - 1) / 2
        _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2)[inverse]

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        return float("nan")
    return float((rx * ry).sum() / denom)


def _paired(a: DecompositionReport, b: DecompositionReport) -> tuple[float, float]:
    """Mean and stderr of the per-replicate MSE contrast ``a - b`` (shared replicates)."""
    mean, stderr = _mean_se(a.mse_replicates - b.mse_replicates)
    return float(mean), float(stderr)


@dataclass(frozen=True)
class HdiSweepResult:
    """Diversity sweep rows plus the monotonicity statistics."""

    rows: list                           # (mix, hdi, hdi_normalized, mse, stderr)
    spearman: float
    endpoint_diff: float                 # mse(mix=0) - mse(mix=1)
    endpoint_diff_stderr: float


def hdi_sweep(plan: ExperimentPlan, mix_grid) -> HdiSweepResult:
    """Run the decomposition across a mix grid with common random numbers.

    Every mix shares the replicate and query seeds, so differences between
    rows reflect the projection geometry rather than sampling noise; the
    paired endpoint contrast uses the per-replicate MSE difference.
    """
    mix_grid = [float(m) for m in mix_grid]
    if len(mix_grid) < 2:
        raise ShapeMismatch(f"mix_grid needs >= 2 mixes, got {mix_grid}")
    if any(not 0.0 <= m <= 1.0 for m in mix_grid):
        raise ShapeMismatch(f"mix_grid must lie in [0, 1], got {mix_grid}")
    # a repeated mix ties the rank gate; the endpoint contrast pairs mix 0 with mix 1
    if len(set(mix_grid)) < len(mix_grid):
        raise ShapeMismatch(f"mix_grid repeats a mix, got {mix_grid}")
    if not {0.0, 1.0} <= set(mix_grid):
        raise ShapeMismatch(f"mix_grid must hold 0.0 and 1.0, got {mix_grid}")
    if plan.projection.H < 2:
        raise NeedsTwoHeads(f"hdi_sweep needs H >= 2 heads, got {plan.projection.H}")

    head_sets = [plan.resolve_projection(mix=mix) for mix in mix_grid]
    reports = _reports(plan.task, [(plan.n, heads, [plan.weights]) for heads in head_sets],
                       plan.R, plan.Q, plan.master_seed)
    rows = [(mix, *hdi_indices(heads), report.mse_direct, report.stderr["mse_direct"])
            for mix, heads, report in zip(mix_grid, head_sets, reports)]
    rho = spearman([r[2] for r in rows], [r[3] for r in rows])
    by_mix = dict(zip(mix_grid, reports))
    diff, diff_se = _paired(by_mix[0.0], by_mix[1.0])
    return HdiSweepResult(rows=rows, spearman=rho, endpoint_diff=diff,
                          endpoint_diff_stderr=diff_se)


#: paired standard errors by which a geometric scheme must beat uniform
WEIGHTING_SIGMA = 2.0


@dataclass(frozen=True)
class WeightingCompareResult:
    """Scheme comparison rows plus the dominance verdict."""

    rows: list            # (scheme, rho, mse, stderr, diff_vs_uniform, diff_stderr)
    head_order: np.ndarray
    variance_spread: float
    best_scheme: str
    best_rho: float | None
    geometric_beats_uniform: bool
    best_margin_sigmas: float


def weighting_compare(plan: ExperimentPlan, rho_grid) -> WeightingCompareResult:
    """Uniform vs Fibonacci vs geometric weighting under shared randomness.

    Heads are pre-ordered best first by per-head integrated MSE from a
    pilot run on an independent seed domain; every scheme then reweights
    the same head-estimate tensor, so scheme contrasts are paired; geometric
    beats uniform by more than ``WEIGHTING_SIGMA`` paired standard errors or not.
    """
    rho_grid = [float(r) for r in rho_grid]
    if not rho_grid:
        raise ShapeMismatch("rho_grid needs >= 1 rho, got []")
    if any(not 0.0 < r <= 1.0 for r in rho_grid):
        raise ShapeMismatch(f"rho_grid must lie in (0, 1], got {rho_grid}")
    if min(rho_grid) == 1.0:   # geometric weights at rho = 1 are the uniform ones
        raise ShapeMismatch(f"rho_grid needs a rho < 1, got {rho_grid}")
    if len(set(rho_grid)) < len(rho_grid):   # a repeated rho writes its row twice
        raise ShapeMismatch(f"rho_grid repeats a rho, got {rho_grid}")
    if plan.projection.H < 2:
        raise NeedsTwoHeads(f"weighting_compare needs H >= 2 heads, got {plan.projection.H}")
    heads = plan.resolve_projection()
    H = len(heads)
    uniform = make_weights("uniform", H)

    [pilot] = _reports(plan.task, [(plan.n, heads, [uniform])], max(2, plan.R // 2),
                       plan.Q, derive_seed(plan.master_seed, "pilot"))
    order = np.argsort(pilot.per_head_mse, kind="stable")
    heads = tuple(heads[h] for h in order)

    schemes = [("uniform", None, uniform), ("fibonacci", None, make_weights("fibonacci", H))]
    schemes += [("geometric", rho, make_weights("geometric", H, rho=rho)) for rho in rho_grid]
    reports = _reports(plan.task, [(plan.n, heads, [alphas for _, _, alphas in schemes])],
                       plan.R, plan.Q, plan.master_seed)

    base = reports[0]
    floor = noise_floor(base.mse_direct)
    rows = []
    best = ("uniform", None, base.mse_direct)
    beats = False
    margin = 0.0
    for (name, rho, _), report in zip(schemes, reports):
        mse = report.mse_direct
        diff, diff_se = _paired(report, base)
        rows.append((name, rho, mse, report.stderr["mse_direct"], diff, diff_se))
        if mse < best[2] - floor:
            best = (name, rho, mse)
        if name == "geometric" and diff < -max(WEIGHTING_SIGMA * diff_se, floor):
            beats = True
            margin = max(margin, -diff / diff_se if diff_se > 0.0 else float("inf"))
    spread = float(base.per_head_var.max() - base.per_head_var.min())
    return WeightingCompareResult(
        rows=rows, head_order=order, variance_spread=spread,
        best_scheme=best[0], best_rho=best[1],
        geometric_beats_uniform=beats, best_margin_sigmas=margin,
    )
