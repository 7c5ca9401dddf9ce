"""Spectral geometry of head projections.

Pairwise overlap between key-projection subspaces is measured through the
cross-Gram matrix G = wk_h^T wk_h' / d_k and through the principal angles
between Range(wk_h) and Range(wk_h'): the arccos of the singular values of
U_h^T U_h', with U the sign-fixed QR frame of each wk (Bjorck & Golub, 1973).
Two diversity indices are exposed:

  * ``hdi``            - literal index 1 - mean_pairs ||G||_F^2 (scaled
                         pairwise Gram mass subtracted from one);
  * ``hdi_normalized`` - 1 - mean_pairs ||U_h^T U_h'||_F^2 / d_k on
                         orthonormalized bases, which is exactly 0 for
                         identical subspaces and 1 for orthogonal ones.

The literal index does not reach 0 for identical heads when d_k > 1
(identical orthonormal frames give ||G||_F^2 = 1/d_k), so reports always
carry both values.  ``make_diversity_report`` is the one pass over head
pairs: it orthonormalizes each key frame once and forms each pair's G and
U_h^T U_h' once; ``hdi`` returns its two indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (Infeasible, LabError, NeedsTwoHeads, OptimizationStalled, ShapeMismatch,
                     WeightFileError)
from .nw_attention import HeadConfig
from .tensor_core import qr_orthonormalize

__all__ = [
    "DiversityReport",
    "hdi",
    "make_diversity_report",
    "make_projection_family",
    "projection_objective",
    "projection_gradient",
    "optimize_projections",
    "load_weight_file",
]


@dataclass(frozen=True)
class DiversityReport:
    """Pairwise Gram masses, angle spectra and both diversity indices."""

    gram_frobsq: np.ndarray          # H x H, ||G_hh'||_F^2, diagonal zero
    principal_angles: dict           # (h, h2) with h < h2 -> ascending angles
    hdi: float
    hdi_normalized: float


def make_diversity_report(heads: tuple[HeadConfig, ...]) -> DiversityReport:
    """Gram masses, principal angles and both indices in one pass over h < h2;
    both divide by one d_k, so every head's wk must have head 0's shape."""
    H = len(heads)
    if H < 2:
        raise NeedsTwoHeads(f"diversity report needs H >= 2 heads, got {H}")
    wks = [head.wk for head in heads]
    p, d_k = wks[0].shape
    for h, wk in enumerate(wks):
        if wk.shape != (p, d_k):
            raise ShapeMismatch(f"head {h} has shape {wk.shape[0]}x{wk.shape[1]}, "
                                f"expected {p}x{d_k}")
    frames = [qr_orthonormalize(wk) for wk in wks]
    gram = np.zeros((H, H))
    angles = {}
    literal_mass = 0.0
    normalized_mass = 0.0
    for h in range(H):
        for h2 in range(h + 1, H):
            g = (wks[h].T @ wks[h2]) / d_k
            m = frames[h].T @ frames[h2]
            gram_sq = float((g * g).sum())
            gram[h, h2] = gram[h2, h] = gram_sq
            literal_mass += gram_sq
            normalized_mass += float((m * m).sum()) / d_k
            # clipped, as roundoff can put a singular value just above one
            cosines = np.linalg.svd(m, compute_uv=False)
            angles[(h, h2)] = np.sort(np.arccos(np.clip(cosines, -1.0, 1.0)))
    n_pairs = len(angles)
    return DiversityReport(
        gram_frobsq=gram, principal_angles=angles,
        hdi=1.0 - literal_mass / n_pairs,
        hdi_normalized=min(1.0, max(0.0, 1.0 - normalized_mass / n_pairs)),
    )


def hdi(heads: tuple[HeadConfig, ...]) -> tuple[float, float]:
    """(literal index, normalized index) of the head set."""
    report = make_diversity_report(heads)
    return report.hdi, report.hdi_normalized


# ---------------------------------------------------------------------------
# constructive projection families


def derive_child(seed: int) -> int:
    # separate stream for spare-direction draws, keeps the frame/wv draws
    # identical whether or not heterogeneity is requested
    return (int(seed) ^ 0x9E3779B97F4A7C15) & ((1 << 63) - 1)


def _check_heads(p: int, d_k: int, H: int) -> None:
    if H < 1 or d_k < 1:
        raise ShapeMismatch(f"need H >= 1 and d_k >= 1, got H={H}, d_k={d_k}")
    if H * d_k > p:
        raise Infeasible(f"orthogonal construction needs H*d_k <= p, got {H}*{d_k} > {p}")


def make_projection_family(
    p: int,
    d_k: int,
    H: int,
    mix: float,
    seed: int,
    query_gain: float = 1.0,
    noise_scales: tuple[float, ...] | None = None,
) -> tuple[HeadConfig, ...]:
    """Family of H heads whose key subspaces interpolate shared -> orthogonal.

    mix = 0 gives identical heads on one shared orthonormal frame; mix = 1
    gives mutually orthogonal block frames; intermediate values blend each
    head linearly between the two and re-orthonormalize, which makes the
    normalized diversity index strictly increasing in mix.

    Every mix blends the same H orthogonal blocks, so it needs H * d_k <= p
    (else Infeasible).  The shared frame is the blocks' balanced combination
    and the value vector carries equal mass in every block, so the family's
    endpoints are symmetric across heads.
    ``query_gain`` scales wq relative to wk (query_gain = 1 ties wq = wk);
    larger gains sharpen the softmax without touching the key geometry.

    ``noise_scales`` (one entry per head) builds a heterogeneous-quality
    ensemble: head h's value vector gains scale_h times a unit direction
    orthogonal to every key subspace, which inflates that head's variance
    without moving its bias.  Requires p >= H * d_k + H spare dimensions,
    unless every scale is 0: those heads are the unset ones, drawn alike.
    """
    if not (0.0 <= mix <= 1.0):
        raise ShapeMismatch(f"mix must lie in [0, 1], got {mix}")
    _check_heads(p, d_k, H)
    if noise_scales is not None and len(noise_scales) != H:
        raise ShapeMismatch(
            f"noise_scales has {len(noise_scales)} entries for H = {H} heads"
        )
    rng = np.random.default_rng(int(seed))
    frame = qr_orthonormalize(rng.standard_normal((p, H * d_k)))
    blocks = [frame[:, h * d_k:(h + 1) * d_k] for h in range(H)]
    shared = sum(blocks) / np.sqrt(H)
    coeff = rng.standard_normal(d_k)
    coeff /= np.linalg.norm(coeff)
    wv = sum(block @ coeff for block in blocks) / np.sqrt(H)

    extras = [np.zeros(p)] * H
    if noise_scales is not None and any(noise_scales):
        if p < H * d_k + H:
            raise Infeasible(
                f"noise_scales needs p >= H*d_k + H = {H * d_k + H}, got p = {p}"
            )
        # spare directions: orthonormal complement of the key frame
        residual = np.eye(p) - frame @ frame.T
        draw = np.random.default_rng(derive_child(seed)).standard_normal((p, H))
        spare = qr_orthonormalize(residual @ qr_orthonormalize(draw))
        extras = [float(noise_scales[h]) * spare[:, h] for h in range(H)]

    heads = []
    for h in range(H):
        blend = (1.0 - mix) * shared + mix * blocks[h]
        wk = qr_orthonormalize(blend)
        heads.append(HeadConfig(wq=query_gain * wk, wk=wk, wv=wv + extras[h]))
    return tuple(heads)


# ---------------------------------------------------------------------------
# orthogonality optimizer: minimize the pairwise Gram mass on the
# product of Frobenius spheres ||wk_h||_F = 1


def projection_objective(wks: list[np.ndarray], d_k: int) -> float:
    """J = sum_{h<h'} ||wk_h^T wk_h'||_F^2 / d_k^2."""
    total = 0.0
    for h in range(len(wks)):
        for h2 in range(h + 1, len(wks)):
            m = wks[h].T @ wks[h2]
            total += float((m * m).sum())
    return total / d_k**2


def projection_gradient(wks: list[np.ndarray], d_k: int) -> list[np.ndarray]:
    """Analytic gradient of ``projection_objective`` in each wk_h."""
    grads = []
    for h in range(len(wks)):
        g = np.zeros_like(wks[h])
        for h2 in range(len(wks)):
            if h2 == h:
                continue
            g += wks[h2] @ (wks[h2].T @ wks[h])
        grads.append((2.0 / d_k**2) * g)
    return grads


#: step budget, first step size, and the objective at which the descent stops
OPTIMIZER_STEPS = 5000
OPTIMIZER_STEP_SIZE = 1.0
OPTIMIZER_TOL = 1e-12


def optimize_projections(
    p: int,
    d_k: int,
    H: int,
    seed: int,
) -> tuple[tuple[HeadConfig, ...], list[float]]:
    """Projected gradient descent toward mutually orthogonal key frames.

    Each accepted step moves along the sphere-tangent component of the
    analytic gradient and renormalizes to unit Frobenius norm; rejected
    steps halve the step size.  The descent stops after ``OPTIMIZER_STEPS``
    steps or once the objective is at most ``OPTIMIZER_TOL``.  The returned
    trace is the accepted-step objective sequence (non-increasing).  Ten
    consecutive rejections with the objective still above 1e-10 raise
    OptimizationStalled.
    """
    _check_heads(p, d_k, H)
    rng = np.random.default_rng(int(seed))
    wks = []
    for _ in range(H):
        w = rng.standard_normal((p, d_k))
        wks.append(w / np.linalg.norm(w))

    trace = [projection_objective(wks, d_k)]
    lr = OPTIMIZER_STEP_SIZE
    consecutive_rejects = 0
    for _ in range(OPTIMIZER_STEPS):
        current = trace[-1]
        if current <= OPTIMIZER_TOL:
            break
        grads = projection_gradient(wks, d_k)
        candidate = []
        for w, g in zip(wks, grads):
            tangent = g - float(np.vdot(g, w)) * w
            moved = w - lr * tangent
            candidate.append(moved / np.linalg.norm(moved))
        value = projection_objective(candidate, d_k)
        if value <= current:
            wks = candidate
            trace.append(value)
            lr *= 1.1
            consecutive_rejects = 0
        else:
            lr *= 0.5
            consecutive_rejects += 1
            if consecutive_rejects >= 10:
                if current > 1e-10:
                    raise OptimizationStalled(
                        f"objective stuck at {current:.3e} after 10 consecutive "
                        f"step rejections", trace=trace,
                    )
                break

    wv = rng.standard_normal(p)
    wv /= np.linalg.norm(wv)
    return tuple(HeadConfig(wq=w, wk=w, wv=wv) for w in wks), trace


# ---------------------------------------------------------------------------
# weight-file import for HDI diagnostics of externally trained projections


def load_weight_file(path) -> tuple[HeadConfig, ...]:
    """Read a JSON head-weight document and return its heads.

    Expected form: {"heads": [{"p": int, "d_k": int, "data": [flat
    row-major numbers]}, ...]}.  Every failure is a WeightFileError naming the
    file and the head: of the document's structure, of the head's entries
    (finite), of its frame (full column rank, d_k <= p) or of its shape (that
    of head 0).  Parse errors carry the byte offset.  The imported heads tie
    wq = wk and use a zero value vector, which is all the diversity
    diagnostics need.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise WeightFileError(
            f"weight file {path}: parse error at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise WeightFileError(f"weight file {path}: {exc}") from exc

    if not isinstance(doc, dict) or "heads" not in doc:
        raise WeightFileError(f"weight file {path}: missing top-level 'heads' array")
    entries = doc["heads"]
    if not isinstance(entries, list) or len(entries) < 1:
        raise WeightFileError(f"weight file {path}: 'heads' must be a nonempty array")

    heads = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise WeightFileError(f"weight file {path}: head {i} is not an object")
        missing = {"p", "d_k", "data"} - set(entry)
        if missing:
            raise WeightFileError(
                f"weight file {path}: head {i} is missing fields {sorted(missing)}"
            )
        p, d_k, data = entry["p"], entry["d_k"], entry["data"]
        # type() rather than isinstance(): JSON true/false load as bools
        if not (type(p) is int and type(d_k) is int and p >= 1 and d_k >= 1):
            raise WeightFileError(
                f"weight file {path}: head {i} has invalid shape fields p={p!r}, d_k={d_k!r}"
            )
        if heads and (p, d_k) != (heads[0].p, heads[0].d_k):
            raise WeightFileError(f"weight file {path}: head {i} has shape {p}x{d_k}, "
                                  f"expected {heads[0].p}x{heads[0].d_k}")
        if not (isinstance(data, list) and all(type(x) in (int, float) for x in data)):
            raise WeightFileError(
                f"weight file {path}: head {i} 'data' must be a flat array of numbers"
            )
        if len(data) != p * d_k:
            raise WeightFileError(
                f"weight file {path}: head {i} declares {p}x{d_k} = {p * d_k} "
                f"entries but carries {len(data)}"
            )
        try:
            wk = np.array(data, dtype=np.float64).reshape(p, d_k)
            heads.append(HeadConfig(wq=wk, wk=wk, wv=np.zeros(p)))
            qr_orthonormalize(wk)
        except (LabError, OverflowError) as exc:
            raise WeightFileError(f"weight file {path}: head {i}: {exc}") from exc
    return tuple(heads)
