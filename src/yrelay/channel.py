"""System configuration, random block-constant channels, and noisy propagation.

A `ChannelSet` is one block-constant draw: it computes its per-user
precoders once, on first use, and every round over it reuses them.

All randomness comes from the Philox counter-based generator keyed with
(seed, stream id), so any seed reproduces the exact same realization and
independent streams never overlap. Stream ids used in this package:

    1  channel matrices      (sample_channels)
    2  receiver noise        (transceiver.run_round, uplink then downlink)
    3  codeword symbols      (transceiver.sample_stream_symbols)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, GenerationFailed
from .linalg import as_complex_matrix, normalized_left_mppi, normalized_right_mppi, well_conditioned

STREAM_CHANNEL = 1
STREAM_NOISE = 2
STREAM_SYMBOLS = 3

POWER_CHECK_SLACK = 1e-9  # relative slack in check_power
_MAX_RESAMPLE = 100

_MASK64 = (1 << 64) - 1


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Philox generator addressed by (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=[seed & _MASK64, stream & _MASK64]))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian, unit variance per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


@dataclass(frozen=True)
class SystemConfig:
    """Network dimensions and power budget.

    K users with M antennas each exchange unicast messages through a relay
    with N antennas; every node transmits with power at most P (linear scale).
    Noise is unit variance per receive antenna.
    """

    K: int
    M: int
    N: int
    P: float

    def __post_init__(self):
        if self.K < 3:
            raise ValueError(f"need at least 3 users, got K={self.K}")
        if not (1 <= self.N <= self.M):
            raise ValueError(f"need 1 <= N <= M, got N={self.N}, M={self.M}")
        if self.P <= 0:
            raise ValueError(f"power must be positive, got P={self.P}")


@dataclass(frozen=True)
class ChannelSet:
    """One block-constant realization: uplink H_j (N x M), downlink D_j (M x N)."""

    uplink: tuple
    downlink: tuple

    @property
    def K(self) -> int:
        return len(self.uplink)

    @cached_property
    def precoders(self):
        """(right, left): per-user normalized right inverses of the uplink
        matrices and left inverses of the downlink matrices."""
        right = tuple(normalized_right_mppi(h) for h in self.uplink)
        left = tuple(normalized_left_mppi(d) for d in self.downlink)
        return right, left


def sample_channels(cfg: SystemConfig, seed: int) -> ChannelSet:
    """Draw K uplink (N x M) and K downlink (M x N) matrices, i.i.d. CN(0,1).

    Deterministic per seed. A matrix failing the conditioning check is
    redrawn; continuous entries make that a probability-zero event, so the
    retry budget exists only to guard degenerate misuse.
    """
    rng = rng_for(seed, STREAM_CHANNEL)

    def draw(shape):
        for _ in range(_MAX_RESAMPLE):
            m = complex_normal(rng, shape)
            if well_conditioned(np.linalg.svd(m, compute_uv=False)):
                return m
        raise GenerationFailed(f"no full-rank {shape} draw in {_MAX_RESAMPLE} tries")

    uplink = tuple(draw((cfg.N, cfg.M)) for _ in range(cfg.K))
    downlink = tuple(draw((cfg.M, cfg.N)) for _ in range(cfg.K))
    return ChannelSet(uplink=uplink, downlink=downlink)


def uplink_propagate(ch: ChannelSet, x, noise=None) -> np.ndarray:
    """Relay observation: sum_j H_j x_j plus noise (zero vector if absent)."""
    if len(x) != ch.K:
        raise DimensionError(f"expected {ch.K} transmit vectors, got {len(x)}")
    n = ch.uplink[0].shape[0]
    y = np.zeros(n, dtype=np.complex128)
    for h, xj in zip(ch.uplink, x):
        xj = np.asarray(xj, dtype=np.complex128)
        if xj.shape != (h.shape[1],):
            raise DimensionError(f"transmit vector shape {xj.shape} != ({h.shape[1]},)")
        y += h @ xj
    if noise is not None:
        noise = np.asarray(noise, dtype=np.complex128)
        if noise.shape != (n,):
            raise DimensionError(f"noise shape {noise.shape} != ({n},)")
        y += noise
    return y


def downlink_propagate(d_k, x_r, noise=None) -> np.ndarray:
    """User observation: D_k x_r plus noise (zero vector if absent)."""
    d_k = as_complex_matrix(d_k)
    x_r = np.asarray(x_r, dtype=np.complex128)
    if x_r.shape != (d_k.shape[1],):
        raise DimensionError(f"relay vector shape {x_r.shape} != ({d_k.shape[1]},)")
    y = d_k @ x_r
    if noise is not None:
        noise = np.asarray(noise, dtype=np.complex128)
        if noise.shape != (d_k.shape[0],):
            raise DimensionError(f"noise shape {noise.shape} != ({d_k.shape[0]},)")
        y += noise
    return y


def check_power(x, p: float) -> bool:
    """True iff ||x||^2 <= P up to a relative slack of 1e-9."""
    energy = float(np.sum(np.abs(np.asarray(x, dtype=np.complex128)) ** 2))
    return energy <= p * (1.0 + POWER_CHECK_SLACK)
