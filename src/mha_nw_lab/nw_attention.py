"""Single-head softmax attention as a Nadaraya-Watson kernel regressor.

A head projects the query and the data points into a d_k-dimensional key
space and kernel-averages the projected values:

    q = wq^T x,   k_i = wk^T x_i,   v_i = wv . x_i
    estimate = sum_i e_i v_i / sum_i e_i,   e_i = exp(q . k_i / sqrt(d_k))

a Nadaraya-Watson estimator whose kernel is the exponential of a scaled dot
product: an exponential tilt toward large keys, not a local window, so
1/sqrt(d_k) scales the logits and is not the kernel's effective bandwidth.
``kernel_operands`` builds each head's queries wq^T x / sqrt(d_k), keys and
[v, 1] from one product per dataset for all heads.  ``attend_many`` reads only
those, stacked over leading replicate axes, and runs a head on every prefix
xs[:n] in one pass over the segments between sizes, merged by the
online-softmax rescale (Milakov & Gimelshein, 2018; Dao et al., 2022), whose
factors are exactly 1 where neither side was shifted.  A logit row is shifted
by its max only where exp could overflow or underflow.  One product e @ [v, 1]
gives e.v and the row sum s as its two columns, so after exp the block is read
once.  The largest weight is e^-gap, gap = log s + (shift - max), exact at any
max since shift - max is 0 for a shifted row.  If it is 1 - d, grouping the
other n - 1 weights into one gives h_b(d) <= entropy <= h_b(d) + d log(n - 1),
h_b the binary entropy: the rest adds d times its own entropy, at most
log(n - 1).  A row whose gap is at least the tau with h_b(1 - e^-tau) =
2 DEGENERATE_ENTROPY_NATS is not degenerate.  Below tau, a row counts as
degenerate when its upper bound is under the threshold by a relative 1e-3 and
not when its lower bound is over it by as much.  The gap rounds by a few ulps
of the max (|max| <= 600 unshifted) and of log s, which moves a bound near the
threshold, where d is about 5e-8, by about 1e-5 relative at most, so a decided
row falls on the side a full w log w pass puts it; only the rows left between
get -w log w summed, and the counts are those of that full pass.
``nw_reference``, the unstabilised textbook form, is the oracle for ``attend``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernel, ShapeMismatch
from .synthetic import Dataset
from .tensor_core import Matrix

__all__ = ["HeadConfig", "AttentionOutput", "attend", "attend_many", "kernel_operands",
           "nw_reference"]

#: softmax weight vectors with entropy below this many nats count as degenerate
DEGENERATE_ENTROPY_NATS = 1e-6
#: logit rows whose max m has |m| up to this are exponentiated unshifted:
#: e^m is then a normal float and n e^m cannot overflow
_RAW_LOGIT_MAX = 600.0


def _binary_entropy(gap):
    """(h_b(d), d) for d = max(0, 1 - e^-gap): the binary entropy in nats of a
    largest weight e^-gap against the rest merged into one, and that rest."""
    gap = np.maximum(gap, 0.0)
    d = -np.expm1(-gap)
    return gap * np.exp(-gap) - d * np.log(np.where(d > 0.0, d, 1.0)), d


def _entropy_gap(h: float) -> float:
    """The gap tau at which h_b(1 - e^-tau) reaches ``h``: bisection, as it
    rises up to tau = log 2."""
    lo, hi = 0.0, math.log(2.0)
    for _ in range(64):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _binary_entropy(mid)[0] < h else (lo, mid)
    return hi


#: rows whose gap log s + (shift - max) is below this get their entropy bounded;
#: any other row's entropy is at least 2 DEGENERATE_ENTROPY_NATS
_SCREEN_GAP = _entropy_gap(2.0 * DEGENERATE_ENTROPY_NATS)
#: relative room each entropy bound leaves for the rounding of its gap
_BOUND_MARGIN = 1e-3


@dataclass(frozen=True, eq=False)
class HeadConfig:
    """Projection triple of one attention head.

    wq and wk are p x d_k; wv is a length-p vector producing scalar values
    v_i = wv . x_i.  Each is held as the read-only, finite float64 copy that
    ``Matrix`` makes (wv as a 1 x p row).  Heads compare by identity: equal
    arrays do not make two heads equal.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray

    def __post_init__(self):
        wq, wk, wv = Matrix(self.wq), Matrix(self.wk), Matrix(np.reshape(self.wv, (1, -1)))[0]
        if wq.shape != wk.shape:
            raise ShapeMismatch(f"HeadConfig: wq {wq.shape} and wk {wk.shape} must agree")
        if wv.shape[0] != wk.shape[0]:
            raise ShapeMismatch(f"HeadConfig: wv length {wv.shape[0]} != p = {wk.shape[0]}")
        for name, value in (("wq", wq), ("wk", wk), ("wv", wv)):
            object.__setattr__(self, name, value)

    @property
    def p(self) -> int:
        return self.wk.shape[0]

    @property
    def d_k(self) -> int:
        return self.wk.shape[1]


def _logits(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """q k^T per leading index of k, broadcast at d_k = 1, where BLAS is ~6x slower."""
    kt = k.swapaxes(-1, -2)
    return q * kt if q.shape[1] == 1 else q @ kt


@dataclass(frozen=True)
class AttentionOutput:
    """Estimate plus the softmax weights that produced it."""

    estimate: float
    weights: np.ndarray


def kernel_operands(heads, queries: np.ndarray, n: int, replicates: int = 1):
    """``project(datasets)``: each head's (q, keys, values) for ``attend_many`` on
    up to ``replicates`` datasets of n points, the queries wq^T x / sqrt(d_k) and
    (len(datasets), n, ...) keys and [v, 1] from one product per dataset,
    ``weights @ data.xs.T``, whose rows are every distinct key column, then each
    distinct value vector beside a zero row whose product row is set to 1s.
    [v, 1], and keys whose columns are adjacent, are views of that product, one
    buffer that each call overwrites.  ShapeMismatch, naming the sizes, for what
    it cannot lay out."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    p, dims = queries.shape[1], sorted({head.p for head in heads})
    if dims != [p] or n < 1 or replicates < 1:
        raise ShapeMismatch(f"kernel_operands needs n >= 1, replicates >= 1 and heads in the "
                            f"space of the queries in R^{p}, got {len(heads)} heads in "
                            f"R^{dims}, n = {n}, replicates = {replicates}")
    columns = {w.tobytes(): w for head in heads for w in head.wk.T}
    ones = slice(len(columns) + 1, None, 2)
    columns.update({(head.wv.tobytes(), i): head.wv * (1 - i) for head in heads for i in (0, 1)})
    at = {key: c for c, key in enumerate(columns)}
    weights = np.array(list(columns.values()))
    layout = []   # each head's queries, its key columns and its [v, 1] columns
    for head in heads:
        k, v = [at[w.tobytes()] for w in head.wk.T], at[head.wv.tobytes(), 0]
        keys = slice(k[0], k[0] + len(k)) if k == list(range(k[0], k[0] + len(k))) else k
        layout.append(((queries @ head.wq) / np.sqrt(head.d_k), keys, slice(v, v + 2)))
    product = np.empty((replicates, len(weights), n))

    def project(datasets):
        shapes = sorted({data.xs.shape for data in datasets})
        if not 1 <= len(datasets) <= replicates or shapes != [(n, p)]:
            raise ShapeMismatch(f"kernel_operands: room for 1 to {replicates} datasets of n = {n} "
                                f"in R^{p}, got {len(datasets)}, data dims {shapes}")
        for b, data in enumerate(datasets):
            np.matmul(weights, data.xs.T, out=product[b])
        xw = product[:len(datasets)].swapaxes(1, 2)   # datasets x n x columns
        xw[..., ones] = 1.0
        return [(q, xw[..., keys], xw[..., values]) for q, keys, values in layout]

    return project


def attend_many(head: HeadConfig, queries: np.ndarray, data: Dataset, sizes=None,
                return_weights: bool = False, *, projected):
    """Estimates of one head at Q query points on each prefix xs[:n] of its data,
    n in the ascending ``sizes`` (data.n without them), fused as in the module
    doc, from its ``projected`` operands (q, keys, values) as ``kernel_operands``
    gives them, whose leading axes are replicates that each get the bits of their
    own call: the (..., len(sizes), Q) estimates and (..., len(sizes)) counts of
    rows with entropy below DEGENERATE_ENTROPY_NATS, then, if ``return_weights``
    on a one-size call, the (..., Q, n) weights e / s.  ``queries`` and ``data``
    give only the Q and n that the shapes are checked against."""
    Q = len(np.atleast_2d(queries))
    if return_weights and sizes is not None:
        raise ShapeMismatch(f"attend: return_weights needs a one-size call, got sizes {sizes}")
    bounds = [data.n] if sizes is None else [int(n) for n in sizes]
    if bounds != sorted(set(bounds)) or not 1 <= bounds[0] <= bounds[-1] <= data.n:
        raise ShapeMismatch(f"attend: sizes must ascend within 1..{data.n}, got {bounds}")
    q, k, vs = projected
    if (q.shape, k.shape[-2:], vs.shape) != ((Q, head.d_k), (data.n, head.d_k),
                                               k.shape[:-2] + (data.n, 2)):
        raise ShapeMismatch(f"attend: projected shapes {q.shape}, {k.shape}, {vs.shape} do not "
                            f"fit Q = {Q}, d_k = {head.d_k} and n = {data.n}")
    estimates = np.empty(k.shape[:-2] + (len(bounds), Q))   # leading axes: replicates
    degenerate = np.zeros(estimates.shape[:-1], int)
    for j, (start, stop) in enumerate(zip([0] + bounds, bounds)):
        e = _logits(q, k[..., start:stop, :])
        top_j = e.max(axis=-1)
        far = np.abs(top_j) > _RAW_LOGIT_MAX
        shift_j = np.where(far, top_j, 0.0)
        if far.any():
            e[far] -= top_j[far, None]
        np.exp(e, out=e)
        evs = e @ vs[..., start:stop, :]
        ev_j, s_j = evs[..., 0], evs[..., 1]
        if j == 0:
            shift, s, ev, top = shift_j, s_j, ev_j, top_j
        else:   # rescale to the larger shift: exp(0) = 1 where neither side shifted
            new = np.maximum(shift, shift_j)
            old, add = np.exp(shift - new), np.exp(shift_j - new)
            shift, s, ev = new, s * old + s_j * add, ev * old + ev_j * add
            top = np.maximum(top, top_j)
        estimates[..., j, :] = ev / s
        gap = np.log(s) + (shift - top)
        screened = gap < _SCREEN_GAP
        if not screened.any():
            continue
        # h_b(d) <= entropy <= h_b(d) + d log(n - 1) settles most screened rows
        low, d = _binary_entropy(gap[screened])
        high = low + d * math.log(max(stop - 1, 1))
        sure, unsure = np.zeros_like(screened), np.zeros_like(screened)
        sure[screened] = high * (1.0 + _BOUND_MARGIN) < DEGENERATE_ENTROPY_NATS
        unsure[screened] = low * (1.0 - _BOUND_MARGIN) < DEGENERATE_ENTROPY_NATS
        unsure &= ~sure
        degenerate[..., j] = np.count_nonzero(sure, axis=-1)
        unsure = unsure.reshape(-1, Q)
        # exact entropy over the prefix, for each replicate with rows left open
        for b in unsure.any(axis=1).nonzero()[0].tolist():
            i = np.unravel_index(b, estimates.shape[:-2])
            w = _logits(q[unsure[b]], k[i][:stop])
            w -= w.max(axis=1, keepdims=True)
            np.exp(w, out=w)
            w /= w.sum(axis=1, keepdims=True)
            entropy = np.maximum(w, 1e-300)
            np.log(entropy, out=entropy)
            entropy *= w
            degenerate[i + (j,)] += np.count_nonzero(-entropy.sum(axis=1)
                                                     < DEGENERATE_ENTROPY_NATS)
    return (estimates, degenerate) + ((e / s[..., None],) if return_weights else ())


def attend(head: HeadConfig, query_x: np.ndarray, data: Dataset) -> AttentionOutput:
    """Softmax attention at a single query point, as one ``attend_many`` call.

    The weights are nonnegative and sum to one, so the estimate is a convex
    combination of the projected values.
    """
    [projected] = kernel_operands([head], query_x, data.n)([data])
    estimates, _, weights = attend_many(head, query_x, data, return_weights=True,
                                        projected=projected)
    return AttentionOutput(estimate=float(estimates[0, 0, 0]), weights=weights[0, 0])


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
