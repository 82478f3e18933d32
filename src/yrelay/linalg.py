"""Complex dense linear algebra for zero-forcing relay beamforming.

Right and left Moore-Penrose pseudo-inverses in Gram-matrix form, scaled to
unit Frobenius norm so that pre/post-coding turns every uplink and downlink
channel into a scaled identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficient

# Conditioning / tolerance constants (shared by the test suite).
RANK_TOL = 1e-10          # reject when sigma_min/sigma_max falls below this
GRAM_COND_LIMIT = 1e8     # switch to the SVD route when cond(Gram) exceeds this
DIAG_RTOL = 1e-9          # relative residual allowed in H @ H_R = alpha * I
TRACE_TOL = 1e-12         # absolute tolerance on the unit-trace normalization


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def well_conditioned(s) -> bool:
    """True iff nonincreasing singular values `s` have sigma_min/sigma_max >= RANK_TOL."""
    return s[0] > 0 and s[-1] / s[0] >= RANK_TOL


def _check_conditioning(m: np.ndarray, side: str) -> np.ndarray:
    """Singular values of `m`, raising RankDeficient below the rank threshold."""
    s = np.linalg.svd(m, compute_uv=False)
    if not well_conditioned(s):
        raise RankDeficient(
            f"{side} inverse needs a well-conditioned matrix: "
            f"sigma_min/sigma_max = {0.0 if s[0] == 0 else s[-1] / s[0]:.3e}"
        )
    return s


def right_pseudo_inverse(h) -> np.ndarray:
    """Minimum-norm right inverse G of a wide matrix: H @ G = I.

    Computed as H^H (H H^H)^{-1}; falls back to the SVD route when the Gram
    matrix H H^H is too ill-conditioned to invert reliably.

    Parameters
    ----------
    h : array_like, shape (N, M) with N <= M
        Full row rank complex matrix.

    Raises
    ------
    DimensionError : if N > M.
    RankDeficient : if sigma_min/sigma_max < RANK_TOL.
    """
    h = as_complex_matrix(h)
    n, m = h.shape
    if n > m:
        raise DimensionError(f"right inverse needs rows <= cols, got {n}x{m}")
    s = _check_conditioning(h, "right")
    if (s[0] / s[-1]) ** 2 > GRAM_COND_LIMIT:
        return np.linalg.pinv(h)
    gram = h @ h.conj().T
    return h.conj().T @ np.linalg.inv(gram)


def left_pseudo_inverse(d) -> np.ndarray:
    """Minimum-norm left inverse G of a tall matrix: G @ D = I.

    Computed as (D^H D)^{-1} D^H, with the same SVD fallback and conditioning
    guard as `right_pseudo_inverse`.
    """
    d = as_complex_matrix(d)
    m, n = d.shape
    if n > m:
        raise DimensionError(f"left inverse needs cols <= rows, got {m}x{n}")
    s = _check_conditioning(d, "left")
    if (s[0] / s[-1]) ** 2 > GRAM_COND_LIMIT:
        return np.linalg.pinv(d)
    gram = d.conj().T @ d
    return np.linalg.inv(gram) @ d.conj().T


@dataclass(frozen=True)
class NormalizedRightMppi:
    """Unit-Frobenius-norm right inverse: H @ matrix = alpha * I_N."""

    matrix: np.ndarray  # M x N
    alpha: float


@dataclass(frozen=True)
class NormalizedLeftMppi:
    """Unit-Frobenius-norm left inverse: matrix @ D = beta * I_N."""

    matrix: np.ndarray  # N x M
    beta: float


def normalized_right_mppi(h) -> NormalizedRightMppi:
    """Right pseudo-inverse rescaled to unit Frobenius norm.

    With G = right_pseudo_inverse(H) and alpha^{-2} = tr(G^H G), the returned
    matrix is alpha * G, so H @ matrix = alpha * I_N and tr(matrix^H matrix) = 1.
    A white input with per-component variance s^2 then produces a transmit
    vector of expected total power s^2.
    """
    g = right_pseudo_inverse(h)
    alpha = 1.0 / math.sqrt(float(np.sum(np.abs(g) ** 2)))
    return NormalizedRightMppi(matrix=alpha * g, alpha=alpha)


def normalized_left_mppi(d) -> NormalizedLeftMppi:
    """Left pseudo-inverse rescaled to unit Frobenius norm.

    Mirror of `normalized_right_mppi`: matrix @ D = beta * I_N with
    tr(matrix^H matrix) = 1.
    """
    g = left_pseudo_inverse(d)
    beta = 1.0 / math.sqrt(float(np.sum(np.abs(g) ** 2)))
    return NormalizedLeftMppi(matrix=beta * g, beta=beta)
