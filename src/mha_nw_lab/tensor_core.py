"""The lab's head-projection check and its one QR factorisation.

``Matrix`` returns a validated copy of a head projection: a read-only, finite,
nonempty 2-D float64 array, so a malformed or non-finite frame fails where
its head is built.  ``qr_orthonormalize`` is the sign-fixed QR that every
orthonormal frame in the lab comes from: random frames, projection families,
spare value directions and the principal-angle bases.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficient, ShapeMismatch

__all__ = ["Matrix", "qr_orthonormalize"]

#: relative threshold on R's diagonal below which a column is rank deficient
RANK_TOL = 1e-12


def Matrix(a) -> np.ndarray:
    """A read-only C-ordered float64 copy of ``a``, which must be 2-D,
    nonempty and finite (else ShapeMismatch)."""
    arr = np.array(a, dtype=np.float64, order="C", copy=True)
    if arr.ndim != 2:
        raise ShapeMismatch(f"Matrix requires 2-D data, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeMismatch(f"Matrix requires nonempty data, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeMismatch("Matrix entries must be finite")
    arr.flags.writeable = False
    return arr


def qr_orthonormalize(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q of Range(a) from the reduced QR a = QR, diag(R) >= 0.

    The sign convention makes the factorisation unique for full-rank input,
    so an already-orthonormal matrix maps to itself (up to roundoff) rather
    than to a sign-flipped copy.  Raises ShapeMismatch when Q is not finite,
    and RankDeficient, carrying the detected rank, when a diagonal entry of R
    falls below RANK_TOL times the largest.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ShapeMismatch(f"qr_orthonormalize requires rows >= cols, got shape {a.shape}")
    q, r = np.linalg.qr(a)
    if not np.all(np.isfinite(q)):   # a frame near the float ceiling can overflow
        raise ShapeMismatch(f"qr_orthonormalize: the factor of a {a.shape} frame is not finite")
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
