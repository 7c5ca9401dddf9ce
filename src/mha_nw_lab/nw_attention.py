"""Single-head softmax attention as a Nadaraya-Watson kernel regressor.

A head projects the query and the data points into a d_k-dimensional key
space and kernel-averages the projected values:

    q = wq^T x,   k_i = wk^T x_i,   v_i = wv . x_i
    estimate = sum_i e_i v_i / sum_i e_i,   e_i = exp(q . k_i / sqrt(d_k))

the Nadaraya-Watson estimator with bandwidth 1/sqrt(d_k): larger d_k, sharper
kernel.  ``attend_many`` shifts each logit row by its max, exponentiates in
place and divides e . v by s = sum_i e_i (Milakov & Gimelshein, 2018).  As
max e = 1, a row's entropy is at least log s, so the degenerate screen sums
-w log w only over rows with log s below twice DEGENERATE_ENTROPY_NATS, and
not at all when no row is that sharp.
``nw_reference``, the unstabilised textbook form, is the oracle for ``attend``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernel, ShapeMismatch
from .synthetic import Dataset
from .tensor_core import Matrix

__all__ = ["HeadConfig", "AttentionOutput", "attend", "attend_many", "nw_reference"]

#: softmax weight vectors with entropy below this many nats count as degenerate
DEGENERATE_ENTROPY_NATS = 1e-6
#: rows with softmax mass s below this have log s < 2 DEGENERATE_ENTROPY_NATS
_SHARP_MASS = np.exp(2.0 * DEGENERATE_ENTROPY_NATS)


@dataclass(frozen=True)
class HeadConfig:
    """Projection triple of one attention head.

    wq and wk are p x d_k; wv is a length-p vector producing scalar values
    v_i = wv . x_i.  The kernel bandwidth 1/sqrt(d_k) is derived, read-only.
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

    @property
    def bandwidth(self) -> float:
        """Kernel bandwidth h = 1 / sqrt(d_k)."""
        return 1.0 / np.sqrt(self.d_k)


@dataclass(frozen=True)
class AttentionOutput:
    """Estimate plus the softmax weights that produced it."""

    estimate: float
    weights: np.ndarray


def attend_many(head: HeadConfig, queries: np.ndarray, data: Dataset,
                return_weights: bool = False):
    """Estimates of one head at Q query points, fused as in the module doc.

    Returns ``(estimates, degenerate)``: the (Q,) estimates and the count of
    rows with entropy below DEGENERATE_ENTROPY_NATS, then the Q x n weights
    e / s when ``return_weights`` is set (``attend`` reads them from here).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != head.p or data.p != head.p:
        raise ShapeMismatch(
            f"attend: head expects R^{head.p}, got query dim {queries.shape[1]} "
            f"and data dim {data.p}"
        )
    q = (queries @ head.wq.a) / np.sqrt(head.d_k)  # Q x d_k, bandwidth folded in
    k = data.xs @ head.wk.a                        # n x d_k
    v = data.xs @ head.wv                          # n
    # Q x n logits; BLAS with inner dimension 1 is ~6x slower than broadcasting
    e = q * k.T if head.d_k == 1 else q @ k.T
    # max-subtraction keeps exp() in range for |logits| beyond ~700
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    s = e.sum(axis=1)
    estimates = (e @ v) / s
    sharp = s < _SHARP_MASS   # entropy >= log s, see above
    degenerate = 0
    if sharp.any():
        w = e[sharp] / s[sharp, None]
        entropy = -(w * np.log(np.maximum(w, 1e-300))).sum(axis=1)
        degenerate = int(np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS))
    if return_weights:
        return estimates, degenerate, e / s[:, None]
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
