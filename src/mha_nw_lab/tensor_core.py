"""The lab's matrix value type and its one QR factorisation.

``Matrix`` is a validated float64 2-D array, immutable after construction;
heads hold their projections as ``Matrix`` so a malformed or non-finite
frame fails where it is built.  ``qr_orthonormalize`` is the sign-fixed
QR that every orthonormal frame in the lab comes from: random frames,
projection families, spare value directions and the principal-angle bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, ShapeMismatch

__all__ = ["Matrix", "qr_orthonormalize"]

#: relative threshold on R's diagonal below which a column is rank deficient
RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Matrix:
    """A dense real matrix with validated shape and finite entries."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.array(self.a, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ShapeMismatch(f"Matrix requires 2-D data, got ndim={arr.ndim}")
        if arr.size == 0:
            raise ShapeMismatch(f"Matrix requires nonempty data, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeMismatch("Matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Matrix({self.rows}x{self.cols})"


def qr_orthonormalize(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q of Range(a) from the reduced QR a = QR, diag(R) >= 0.

    The sign convention makes the factorisation unique for full-rank input,
    so an already-orthonormal matrix maps to itself (up to roundoff) rather
    than to a sign-flipped copy.  Raises RankDeficient, carrying the detected
    rank, when a diagonal entry of R falls below RANK_TOL times the largest.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ShapeMismatch(f"qr_orthonormalize requires rows >= cols, got shape {a.shape}")
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    magnitude = np.abs(diag)
    threshold = RANK_TOL * max(magnitude.max(), np.finfo(np.float64).tiny)
    detected = int(np.sum(magnitude > threshold))
    if detected < a.shape[1]:
        raise RankDeficient(
            f"qr_orthonormalize: rank {detected} < {a.shape[1]} columns "
            f"(diagonal floor {threshold:.3e})",
            detected_rank=detected,
        )
    return q * np.where(diag < 0.0, -1.0, 1.0)
