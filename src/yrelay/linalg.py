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


def _unit_pinv(a, right: bool, sv=None) -> tuple[np.ndarray, float]:
    """Minimum-norm pseudo-inverse G of `a` scaled to unit Frobenius norm: (c * G, c).

    With `right`, `a` is wide and G = A^H (A A^H)^{-1} (A @ G = I); otherwise
    `a` is tall and G = (A^H A)^{-1} A^H (G @ A = I). A Gram matrix too
    ill-conditioned to invert reliably falls back to the SVD route. The side
    is explicit: a square `a` fits both, and there the formulas differ in the
    last bits. c^{-2} = tr(G^H G). `sv`, when given, holds the singular values
    of `a` as `np.linalg.svd(a, compute_uv=False)` returns them; a sampled
    channel draw passes the ones its conditioning check computed.
    """
    a = as_complex_matrix(a)
    side, (n, m) = ("right", a.shape) if right else ("left", a.shape[::-1])
    if n > m:
        want = "wide" if right else "tall"
        raise DimensionError(f"{side} inverse needs a {want} matrix, got {a.shape[0]}x{a.shape[1]}")
    s = np.linalg.svd(a, compute_uv=False) if sv is None else sv
    if not well_conditioned(s):
        ratio = 0.0 if s[0] == 0 else s[-1] / s[0]
        raise RankDeficient(
            f"{side} inverse needs a well-conditioned matrix: sigma_min/sigma_max = {ratio:.3e}")
    ah = a.conj().T
    if (s[0] / s[-1]) ** 2 > GRAM_COND_LIMIT:
        g = np.linalg.pinv(a)
    else:
        gram_inv = np.linalg.inv(a @ ah if right else ah @ a)
        g = ah @ gram_inv if right else gram_inv @ ah
    c = 1.0 / math.sqrt(float(np.sum(np.abs(g) ** 2)))
    return c * g, c


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
    """Right pseudo-inverse of a wide H at unit Frobenius norm.

    H @ matrix = alpha * I_N, so a white input with per-component variance s^2
    is sent at expected total power s^2.
    """
    return NormalizedRightMppi(*_unit_pinv(h, right=True))


def normalized_left_mppi(d) -> NormalizedLeftMppi:
    """Left pseudo-inverse of a tall D at unit Frobenius norm: matrix @ D = beta * I_N."""
    return NormalizedLeftMppi(*_unit_pinv(d, right=False))
