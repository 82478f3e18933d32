"""System configuration, random block-constant channels, and noisy propagation.

A `ChannelSet` is one block-constant draw. `sample_channels` draws all 2K
matrices with one standard-normal call and checks each link direction's
conditioning with one stacked SVD; the draw computes its per-user precoders
once, on first use, as one stacked pseudo-inverse per direction, from the
singular values its check computed, and every round over it reuses them.

All randomness comes from the Philox counter-based generator keyed with
(seed, stream id), so any seed reproduces the exact same realization. Streams
of different keys are independent, but two seeds can share a key: numpy
reads the key `[seed, stream]` through a float64 array when seed >= 2^63,
which rounds the seed to a multiple of 2^11, so 2^63 + 5 and 2^63 + 6 (for
example) draw the same streams. Stream ids used in this package:

    1  channel matrices      (sample_channels)
    2  receiver noise        (transceiver.transmit_round, uplink then downlink)
    3  codeword symbols      (transceiver.transmit_round)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, GenerationFailed
from .linalg import NormalizedLeftMppi, NormalizedRightMppi, _unit_pinv, well_conditioned

STREAM_CHANNEL = 1
STREAM_NOISE = 2
STREAM_SYMBOLS = 3

POWER_CHECK_SLACK = 1e-9  # relative slack in check_power
_MAX_RESAMPLE = 100

_MASK64 = (1 << 64) - 1
_ZERO4 = np.zeros(4, dtype=np.uint64)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Philox generator addressed by (seed, stream)."""
    return reset_rng(np.random.Generator(np.random.Philox(key=0)), seed, stream)


def reset_rng(rng: np.random.Generator, seed: int, stream: int) -> np.random.Generator:
    """Re-key the Philox generator `rng` to the start of stream (seed, stream)
    and return it: the state `Philox(key=[seed, stream])` starts in.

    A round re-keys one generator per draw it takes, which costs a quarter of
    building a new one. The key goes through `np.asarray(key).astype(np.uint64)`,
    the conversion `Philox(key=...)` applies to a list.
    """
    key = np.asarray([seed & _MASK64, stream & _MASK64]).astype(np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": key},
        "buffer": _ZERO4,
        "buffer_pos": 4,  # empty buffer: the next draw starts at counter 0
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _complex(re, im) -> np.ndarray:
    """Unit-variance complex normals from standard-normal real and imaginary parts."""
    return (re + 1j * im) / math.sqrt(2.0)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian, unit variance per entry:
    all real parts are drawn first, then all imaginary parts."""
    re = rng.standard_normal(shape)
    return _complex(re, rng.standard_normal(shape))


def normal_block_index(sizes) -> np.ndarray:
    """Where consecutive `complex_normal(rng, n)` calls, one per n in `sizes`,
    take their real parts (row 0) and imaginary parts (row 1) from a single
    `rng.standard_normal` draw: each call draws all its real parts first."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(sizes.size), sizes)
    real = starts[block] + np.arange(block.size)
    return np.stack([real, real + sizes[block]])


def complex_normal_blocks(normals: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The blocks that `index` (from `normal_block_index`) describes, taken
    from `normals`, one `rng.standard_normal(index.size)` draw per row along
    the last axis: bit for bit the concatenation of the `complex_normal`
    calls, for every row at once."""
    z = normals[..., index]
    return _complex(z[..., 0, :], z[..., 1, :])


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
    # The singular values (uplink (K, N), downlink (K, N)), set only by
    # `sample_channels`; `dataclasses.replace` does not carry them over.
    _singular_values: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def K(self) -> int:
        return len(self.uplink)

    @cached_property
    def inverses(self):
        """(right, alpha, left, beta): the normalized right inverses of the
        uplink matrices (K, M, N) with their alpha_j (K,), and the left
        inverses of the downlink matrices (K, N, M) with their beta_k (K,)."""
        s_up, s_down = self._singular_values or (None, None)
        right, alpha = _unit_pinv(np.array(self.uplink, dtype=np.complex128), True, s_up)
        left, beta = _unit_pinv(np.array(self.downlink, dtype=np.complex128), False, s_down)
        return right, alpha, left, beta

    @cached_property
    def precoders(self):
        """(right, left): per-user normalized right inverses of the uplink
        matrices and left inverses of the downlink matrices, one object each."""
        right, alpha, left, beta = self.inverses
        return (tuple(NormalizedRightMppi(g, c) for g, c in zip(right, alpha.tolist())),
                tuple(NormalizedLeftMppi(g, c) for g, c in zip(left, beta.tolist())))


def sample_channels(cfg: SystemConfig, seed: int) -> ChannelSet:
    """Draw K uplink (N x M) and K downlink (M x N) matrices, i.i.d. CN(0,1).

    Deterministic per seed. The 2K matrices come from one standard-normal
    draw, bit for bit the consecutive `complex_normal` calls of a draw
    matrix by matrix (both shapes hold N*M entries), and each link
    direction gets one stacked SVD. A matrix failing the conditioning check
    is redrawn from where that stream goes on: its block is dropped, the
    blocks after it move up one matrix, and one more block is drawn.
    Continuous entries make that a probability-zero event, so the retry
    budget exists only to guard degenerate misuse.
    """
    k, n, m = cfg.K, cfg.N, cfg.M
    rng = rng_for(seed, STREAM_CHANNEL)
    blocks = rng.standard_normal((2 * k, 2, n * m))  # per matrix: real parts, then imaginary parts
    mats = np.empty((2 * k, n * m), dtype=np.complex128)
    svals = np.empty((2 * k, n))
    ok = np.empty(2 * k, dtype=bool)
    start = tries = 0  # matrices before `start` are accepted
    while True:
        mats[start:] = _complex(blocks[start:, 0], blocks[start:, 1])
        for lo, shape in ((0, (n, m)), (k, (m, n))):
            first = max(start, lo)
            if first < lo + k:
                svals[first : lo + k] = np.linalg.svd(mats[first : lo + k].reshape(-1, *shape), compute_uv=False)
                ok[first : lo + k] = well_conditioned(svals[first : lo + k])
        if ok[start:].all():
            break
        failed = start + int(np.argmin(ok[start:]))
        tries = tries + 1 if failed == start else 1
        if tries == _MAX_RESAMPLE:
            shape = (n, m) if failed < k else (m, n)
            raise GenerationFailed(f"no full-rank {shape} draw in {_MAX_RESAMPLE} tries")
        blocks = np.concatenate((blocks[:failed], blocks[failed + 1 :], rng.standard_normal((1, 2, n * m))))
        start = failed
    ch = ChannelSet(uplink=tuple(mats[:k].reshape(k, n, m)), downlink=tuple(mats[k:].reshape(k, m, n)))
    object.__setattr__(ch, "_singular_values", (svals[:k], svals[k:]))
    return ch


def uplink_propagate(ch: ChannelSet, x, noise=None) -> np.ndarray:
    """Relay observation: sum_j H_j x_j plus noise (zero vector if absent).

    x[j] is user j's transmit vector (M,), or a stack (..., M) of them, one
    per channel use; the observation then has the same leading shape.
    """
    if len(x) != ch.K:
        raise DimensionError(f"expected {ch.K} transmit vectors, got {len(x)}")
    shape = np.shape(x[0])[:-1] + (ch.uplink[0].shape[0],)
    y = np.zeros(shape, dtype=np.complex128)
    for h, xj in zip(ch.uplink, x):
        xj = np.asarray(xj, dtype=np.complex128)
        if xj.shape != shape[:-1] + (h.shape[1],):
            raise DimensionError(f"transmit vector shape {xj.shape} != {shape[:-1] + (h.shape[1],)}")
        y += (h @ xj[..., None])[..., 0]
    if noise is not None:
        noise = np.asarray(noise, dtype=np.complex128)
        if noise.shape != shape:
            raise DimensionError(f"noise shape {noise.shape} != {shape}")
        y += noise
    return y


def downlink_propagate(d, x_r, noise=None) -> np.ndarray:
    """User observation: D x_r plus noise (zero vector if absent).

    `d` is one downlink matrix (M x N) or a stack (..., M, N) of them, and
    `x_r` one relay vector (N,) or a stack (..., N); the products broadcast
    over the leading axes.
    """
    d = np.asarray(d, dtype=np.complex128)
    x_r = np.asarray(x_r, dtype=np.complex128)
    if d.ndim < 2 or x_r.shape[-1:] != d.shape[-1:]:
        raise DimensionError(f"relay vector shape {x_r.shape} does not fit downlink shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("downlink matrix has non-finite entries")
    y = (d @ x_r[..., None])[..., 0]
    if noise is not None:
        noise = np.asarray(noise, dtype=np.complex128)
        if noise.shape != y.shape:
            raise DimensionError(f"noise shape {noise.shape} != {y.shape}")
        y += noise
    return y


def check_power(x, p):
    """True iff every vector along the last axis of x has ||x||^2 <= P, up to
    a relative slack of 1e-9. With a 1-D array of budgets, the leading axis
    of x runs over them, and one verdict per budget comes back."""
    p = np.asarray(p, dtype=np.float64)
    energy = (np.abs(np.asarray(x, dtype=np.complex128)) ** 2).sum(axis=-1)
    ok = energy.reshape(p.shape + (-1,)).max(axis=-1) <= p * (1.0 + POWER_CHECK_SLACK)
    return ok if p.ndim else bool(ok)
