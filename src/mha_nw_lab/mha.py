"""Multi-head attention as a weighted ensemble of single-head regressors.

The ensemble output is sum_h alpha_h m_h(x) with positive weights summing
to one; ``decomposition`` forms it over the Monte-Carlo head tensor.
The weights alpha are a plain vector: ``make_weights`` returns uniform,
geometric alpha_h ~ rho^(h-1), Fibonacci alpha_h ~ F_h (F_1 = F_2 = 1) or
custom weights, checked by ``weight_vector`` and never renormalised.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

__all__ = ["WEIGHT_KINDS", "make_weights", "weight_vector"]

WEIGHT_KINDS = ("uniform", "geometric", "fibonacci", "custom")


def weight_vector(alphas, H: int) -> np.ndarray:
    """A read-only float64 copy of ``alphas``, which must hold H positive,
    finite weights summing to one (else ShapeMismatch)."""
    alphas = np.array(alphas, dtype=np.float64)
    if alphas.shape != (H,):
        raise ShapeMismatch(f"weights of shape {alphas.shape} for H = {H} heads")
    if np.any(alphas <= 0.0) or not np.all(np.isfinite(alphas)):
        raise ShapeMismatch("weights must be positive and finite")
    if abs(alphas.sum() - 1.0) > 1e-12:
        raise ShapeMismatch(f"weights sum to {float(alphas.sum())!r}, expected 1")
    alphas.flags.writeable = False
    return alphas


def _fibonacci(H: int) -> np.ndarray:
    fib = [1.0, 1.0]
    while len(fib) < H:
        fib.append(fib[-1] + fib[-2])
    return np.asarray(fib[:H])


def make_weights(kind: str, H: int, rho: float | None = None, custom=None) -> np.ndarray:
    """The normalized weight vector of the given kind for H heads, read-only."""
    if H < 1:
        raise ShapeMismatch(f"make_weights needs H >= 1, got {H}")
    if kind not in WEIGHT_KINDS:
        raise ShapeMismatch(f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}")
    if kind == "uniform":
        raw = np.ones(H)
    elif kind == "geometric":
        if rho is None or not (0.0 < rho <= 1.0):
            raise ShapeMismatch(f"geometric weights need rho in (0, 1], got {rho}")
        raw = np.power(float(rho), np.arange(H))
    elif kind == "fibonacci":
        raw = _fibonacci(H)
    else:
        if custom is None:
            raise ShapeMismatch("custom weights require an explicit weight vector")
        return weight_vector(custom, H)
    return weight_vector(raw / raw.sum(), H)
