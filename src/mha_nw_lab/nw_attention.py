"""Single-head softmax attention as a Nadaraya-Watson kernel regressor.

A head projects the query and the data points into a d_k-dimensional key
space and kernel-averages the projected values:

    q = wq^T x,   k_i = wk^T x_i,   v_i = wv . x_i
    estimate = sum_i e_i v_i / sum_i e_i,   e_i = exp(q . k_i / sqrt(d_k))

a Nadaraya-Watson estimator whose kernel is the exponential of a scaled dot
product: an exponential tilt toward large keys, not a local window, so
1/sqrt(d_k) scales the logits and is not the kernel's effective bandwidth.
``attend_many`` runs one head on every prefix xs[:n] of a dataset in one pass
over the column segments between sizes, merged by the online-softmax rescale
(Milakov & Gimelshein, 2018; Dao et al., 2022), or by plain sums where neither
side was shifted; a caller holding the projections can pass them.  A logit
row is shifted by its max only where exp could overflow or underflow.  A
d_k = 1 row's max is q times the largest key if q >= 0, else times the smallest,
so it reads the ends of the keys, not the row.  One product e @ [v, 1] gives e.v
and the row sum s as its two columns, so after exp the block is read once.  The
largest weight is e^-gap, gap = log s + shift - max; if it is 1 - d, the entropy
is at least h_b(d), h_b the binary entropy, so only rows whose gap is below the
tau with h_b(1 - e^-tau) = 2 DEGENERATE_ENTROPY_NATS get -w log w summed.
``nw_reference``, the unstabilised textbook form, is the oracle for ``attend``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernel, ShapeMismatch
from .synthetic import Dataset
from .tensor_core import Matrix

__all__ = ["HeadConfig", "AttentionOutput", "attend", "attend_many", "nw_reference"]

#: softmax weight vectors with entropy below this many nats count as degenerate
DEGENERATE_ENTROPY_NATS = 1e-6
#: logit rows whose max m has |m| up to this are exponentiated unshifted:
#: e^m is then a normal float and n e^m cannot overflow
_RAW_LOGIT_MAX = 600.0


def _entropy_gap(h: float) -> float:
    """The gap tau at which h_b(1 - e^-tau), the binary entropy in nats of a
    largest weight e^-tau, reaches ``h``: bisection, as it rises up to tau = log 2."""
    lo, hi = 0.0, math.log(2.0)
    for _ in range(64):
        mid = (lo + hi) / 2
        d = -math.expm1(-mid)
        lo, hi = (mid, hi) if mid * math.exp(-mid) - d * math.log(d) < h else (lo, mid)
    return hi


#: rows whose gap log s + shift - max is below this get their entropy summed;
#: any other row's entropy is at least 2 DEGENERATE_ENTROPY_NATS
_SCREEN_GAP = _entropy_gap(2.0 * DEGENERATE_ENTROPY_NATS)


@dataclass(frozen=True)
class HeadConfig:
    """Projection triple of one attention head.

    wq and wk are p x d_k; wv is a length-p vector producing scalar values
    v_i = wv . x_i.
    """

    wq: Matrix
    wk: Matrix
    wv: np.ndarray

    def __post_init__(self):
        wv = np.array(self.wv, dtype=np.float64, copy=True).reshape(-1)
        if not np.all(np.isfinite(wv)):
            raise ShapeMismatch("HeadConfig: wv entries must be finite")
        wv.flags.writeable = False
        object.__setattr__(self, "wv", wv)
        if self.wq.shape != self.wk.shape:
            raise ShapeMismatch(
                f"HeadConfig: wq {self.wq.shape} and wk {self.wk.shape} must agree"
            )
        if wv.shape[0] != self.wk.rows:
            raise ShapeMismatch(
                f"HeadConfig: wv length {wv.shape[0]} != p = {self.wk.rows}"
            )

    @property
    def p(self) -> int:
        return self.wk.rows

    @property
    def d_k(self) -> int:
        return self.wk.cols


@dataclass(frozen=True)
class AttentionOutput:
    """Estimate plus the softmax weights that produced it."""

    estimate: float
    weights: np.ndarray


def attend_many(head: HeadConfig, queries: np.ndarray, data: Dataset, sizes=None,
                return_weights: bool = False, *, projected=None):
    """Estimates of one head at Q query points on each prefix ``data.xs[:n]``,
    n in the ascending ``sizes``, fused as in the module doc (per segment: the
    logit block, its row max unless d_k = 1, exp in place, and one product with
    [v, 1] for e.v and the row sum): the (len(sizes), Q) estimates and per-size
    counts of rows with entropy below DEGENERATE_ENTROPY_NATS.  Without ``sizes``
    (n = data.n), the (Q,) estimates and an int, then the Q x n weights e / s if
    ``return_weights`` (for ``attend``).  ``projected`` = (q, keys, values) are
    the Q x d_k queries wq^T x / sqrt(d_k), the data.n x d_k keys and the
    data.n x 2 operand [v, 1]; without it each segment's keys and values are
    projected here, so a first prefix rounds as a one-size call does.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != head.p or data.p != head.p:
        raise ShapeMismatch(
            f"attend: head expects R^{head.p}, got query dim {queries.shape[1]} "
            f"and data dim {data.p}"
        )
    if return_weights and sizes is not None:
        raise ShapeMismatch(f"attend: return_weights needs a one-size call, got sizes {sizes}")
    bounds = [data.n] if sizes is None else [int(n) for n in sizes]
    if bounds != sorted(set(bounds)) or not 1 <= bounds[0] <= bounds[-1] <= data.n:
        raise ShapeMismatch(f"attend: sizes must ascend within 1..{data.n}, got {bounds}")
    if projected is None:
        q = (queries @ head.wq.a) / np.sqrt(head.d_k)  # Q x d_k, 1/sqrt(d_k) folded in
        # a segment's values fill column 0 of [v, 1], so e @ [v, 1] is (e.v, s) at once
        k, vs = np.empty((bounds[-1], head.d_k)), np.ones((bounds[-1], 2), order="F")
    else:
        q, k, vs = projected
        if (q.shape, k.shape, vs.shape) != ((len(queries), head.d_k), (data.n, head.d_k), (data.n, 2)):
            raise ShapeMismatch(f"attend: projected shapes {q.shape}, {k.shape}, {vs.shape} do not "
                                f"fit Q = {len(queries)}, d_k = {head.d_k} and n = {data.n}")
    estimates, degenerate = np.empty((len(bounds), q.shape[0])), np.zeros(len(bounds), int)
    for j, (start, stop) in enumerate(zip([0] + bounds, bounds)):
        if projected is None:
            np.matmul(data.xs[start:stop], head.wk.a, out=k[start:stop])
            np.matmul(data.xs[start:stop], head.wv, out=vs[start:stop, 0])
        k_j = k[start:stop]
        if head.d_k == 1:
            # BLAS with inner dimension 1 is ~6x slower than broadcasting; rounding
            # is monotone, so a row's max is q times the key at the matching end
            e = q * k_j.T
            top_j = np.where(q[:, 0] >= 0.0, q[:, 0] * k_j.max(), q[:, 0] * k_j.min())
        else:
            e = q @ k_j.T
            top_j = e.max(axis=1)
        far = np.abs(top_j) > _RAW_LOGIT_MAX
        shift_j = 0.0
        if far.any():
            shift_j = np.where(far, top_j, 0.0)
            e[far] -= top_j[far, None]
        np.exp(e, out=e)
        ev_j, s_j = (e @ vs[start:stop]).T
        if j == 0:
            shift, s, ev, top = shift_j, s_j, ev_j, top_j
        elif np.isscalar(shift) and np.isscalar(shift_j):   # neither side shifted
            s, ev, top = s + s_j, ev + ev_j, np.maximum(top, top_j)
        else:   # rescale to the larger shift
            new = np.maximum(shift, shift_j)
            old, add = np.exp(shift - new), np.exp(shift_j - new)
            shift, s, ev = new, s * old + s_j * add, ev * old + ev_j * add
            top = np.maximum(top, top_j)
        estimates[j] = ev / s
        sharp = np.flatnonzero(np.log(s) - top < _SCREEN_GAP - shift)
        if sharp.size:   # exact entropy over the prefix, only for the screened rows
            w = q[sharp] * k[:stop].T if head.d_k == 1 else q[sharp] @ k[:stop].T
            w = np.exp(w - w.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            entropy = -(w * np.log(np.maximum(w, 1e-300))).sum(axis=1)
            degenerate[j] = np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS)
    if sizes is None:
        return (estimates[0], int(degenerate[0])) + ((e / s[:, None],) if return_weights else ())
    return estimates, degenerate


def attend(head: HeadConfig, query_x: np.ndarray, data: Dataset) -> AttentionOutput:
    """Softmax attention at a single query point.

    The weights are nonnegative and sum to one, so the estimate is a convex
    combination of the projected values.
    """
    query_x = np.asarray(query_x, dtype=np.float64).reshape(1, -1)
    estimates, _, weights = attend_many(head, query_x, data, return_weights=True)
    return AttentionOutput(estimate=float(estimates[0]), weights=weights[0])


def nw_reference(kernel_logits: np.ndarray, values: np.ndarray) -> float:
    """Unstabilised Nadaraya-Watson estimate sum K_i v_i / sum K_i.

    K_i = exp(logit_i) computed raw, so large negative logits can underflow;
    if every kernel value vanishes the estimator is undefined and
    DegenerateKernel is raised.  This is the independent oracle against
    which ``attend`` is verified.
    """
    logits = np.asarray(kernel_logits, dtype=np.float64).reshape(-1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if logits.shape != values.shape:
        raise ShapeMismatch(
            f"nw_reference: {logits.shape[0]} logits vs {values.shape[0]} values"
        )
    if not (np.all(np.isfinite(logits)) and np.all(np.isfinite(values))):
        raise ShapeMismatch("nw_reference: inputs must be finite")
    kernel = np.exp(logits)
    total = kernel.sum()
    if total == 0.0 or not np.isfinite(total):
        raise DegenerateKernel(
            f"nw_reference: kernel mass {total} is unusable (min logit {logits.min():.3g})"
        )
    return float((kernel @ values) / total)
