"""Multi-head attention as a weighted ensemble of single-head regressors.

The ensemble output is sum_h alpha_h m_h(x) with positive weights summing
to one; ``decomposition`` forms it over the Monte-Carlo head tensor.
Weight schemes: uniform, geometric alpha_h ~ rho^(h-1), Fibonacci
alpha_h ~ F_h (F_1 = F_2 = 1), or a validated custom vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .nw_attention import HeadConfig

__all__ = ["ProjectionSet", "WeightScheme", "make_weights"]

_WEIGHT_KINDS = ("uniform", "geometric", "fibonacci", "custom")


@dataclass(frozen=True)
class ProjectionSet:
    """Heads of one multi-head ensemble, all sharing (p, d_k)."""

    heads: tuple[HeadConfig, ...]

    def __post_init__(self):
        if len(self.heads) < 1:
            raise ShapeMismatch("ProjectionSet needs at least one head")
        object.__setattr__(self, "heads", tuple(self.heads))
        p, d_k = self.heads[0].p, self.heads[0].d_k
        for i, head in enumerate(self.heads):
            if head.p != p or head.d_k != d_k:
                raise ShapeMismatch(
                    f"ProjectionSet: head {i} has shape {head.p}x{head.d_k}, "
                    f"expected {p}x{d_k}"
                )

    @property
    def H(self) -> int:
        return len(self.heads)

    @property
    def p(self) -> int:
        return self.heads[0].p

    @property
    def d_k(self) -> int:
        return self.heads[0].d_k


@dataclass(frozen=True)
class WeightScheme:
    """Materialised aggregation weights for one ensemble."""

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=np.float64, copy=True).reshape(-1)
        if np.any(alphas <= 0.0) or not np.all(np.isfinite(alphas)):
            raise ShapeMismatch("WeightScheme: weights must be positive and finite")
        if abs(alphas.sum() - 1.0) > 1e-12:
            raise ShapeMismatch(
                f"WeightScheme: weights sum to {alphas.sum()!r}, expected 1"
            )
        alphas.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)

    @property
    def H(self) -> int:
        return self.alphas.shape[0]


def _fibonacci(H: int) -> np.ndarray:
    fib = [1.0, 1.0]
    while len(fib) < H:
        fib.append(fib[-1] + fib[-2])
    return np.asarray(fib[:H])


def make_weights(kind: str, H: int, rho: float | None = None,
                 custom: np.ndarray | None = None) -> WeightScheme:
    """Build a normalized weight scheme of the given kind for H heads."""
    if H < 1:
        raise ShapeMismatch(f"make_weights needs H >= 1, got {H}")
    if kind not in _WEIGHT_KINDS:
        raise ShapeMismatch(f"unknown weight kind {kind!r}; expected one of {_WEIGHT_KINDS}")
    if kind == "uniform":
        raw = np.ones(H)
    elif kind == "geometric":
        if rho is None or not (0.0 < rho <= 1.0):
            raise ShapeMismatch(f"geometric weights need rho in (0, 1], got {rho!r}")
        raw = np.power(float(rho), np.arange(H))
    elif kind == "fibonacci":
        raw = _fibonacci(H)
    else:
        if custom is None:
            raise ShapeMismatch("custom weights require an explicit weight vector")
        raw = np.array(custom, dtype=np.float64).reshape(-1)
        if raw.shape[0] != H:
            raise ShapeMismatch(f"custom weights have length {raw.shape[0]}, expected H = {H}")
        if np.any(raw <= 0.0):
            raise ShapeMismatch("custom weights must be strictly positive")
        if abs(raw.sum() - 1.0) > 1e-9:
            raise ShapeMismatch(f"custom weights sum to {raw.sum()!r}, expected 1")
    alphas = raw / raw.sum()
    return WeightScheme(alphas=alphas)

