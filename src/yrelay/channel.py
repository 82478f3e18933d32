"""System configuration, random block-constant channels, and noisy propagation.

A `ChannelSet` is one block-constant draw. `sample_channel_block` draws a
block of them, each draw's 2K matrices with one standard-normal call, and
runs one stacked SVD per link direction for the conditioning check of the
whole block and one stacked pseudo-inverse per direction for its per-user
precoders, from those singular values; every round over a draw reuses them.
`sample_channels` is the block of one.

All randomness comes from the Philox counter-based generator keyed with
(seed, stream id), so any seed reproduces the exact same realization. Streams
of different keys are independent, but two seeds can share a key: numpy
reads the key `[seed, stream]` through a float64 array when seed >= 2^63,
which rounds the seed to a multiple of 2^11, so 2^63 + 5 and 2^63 + 6 (for
example) draw the same streams, and `reset_rng` keys its streams the same
way (a seed that rounds up to 2^64 is keyed as 0). Stream ids used in this
package:

    1  channel matrices      (sample_channel_block)
    2  receiver noise        (transceiver.transmit_round, uplink then downlink)
    3  codeword symbols      (transceiver.transmit_round)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    building a new one. The key follows `Philox(key=[seed, stream])`: numpy
    reads a list holding a value >= 2^63 as float64, so both entries are
    then rounded to doubles. A value that rounds up to 2^64 has no uint64 of
    its own (numpy's cast of it depends on the platform); this package's
    fixed rule wraps it to 0, as the x86-64 cast does, so every platform
    draws the same bytes. The key is built from Python ints, with no cast
    and so no cast warning.
    """
    key = [seed & _MASK64, stream & _MASK64]
    if max(key) >> 63:
        key = [int(float(v)) & _MASK64 for v in key]
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

    @property
    def K(self) -> int:
        return len(self.uplink)

    @cached_property
    def inverses(self):
        """(right, alpha, left, beta): the normalized right inverses of the
        uplink matrices (K, M, N) with their alpha_j (K,), and the left
        inverses of the downlink matrices (K, N, M) with their beta_k (K,)."""
        right, alpha = _unit_pinv(np.array(self.uplink, dtype=np.complex128), True)
        left, beta = _unit_pinv(np.array(self.downlink, dtype=np.complex128), False)
        return right, alpha, left, beta

    @cached_property
    def precoders(self):
        """(right, left): per-user normalized right inverses of the uplink
        matrices and left inverses of the downlink matrices, one object each."""
        right, alpha, left, beta = self.inverses
        return (tuple(NormalizedRightMppi(g, c) for g, c in zip(right, alpha.tolist())),
                tuple(NormalizedLeftMppi(g, c) for g, c in zip(left, beta.tolist())))


def sample_channels(cfg: SystemConfig, seed: int) -> ChannelSet:
    """Draw K uplink (N x M) and K downlink (M x N) matrices, i.i.d. CN(0,1):
    the block-of-one case of `sample_channel_block`."""
    return sample_channel_block(cfg, [seed])[0]


def sample_channel_block(cfg: SystemConfig, seeds) -> tuple:
    """One channel draw per seed, each deterministic per its seed, with its
    inverses computed.

    Each draw's 2K matrices come from one standard-normal draw, bit for bit
    the consecutive `complex_normal` calls of a draw matrix by matrix (both
    shapes hold N*M entries), on one generator re-keyed per seed. The whole
    block gets one stacked SVD per link direction for the conditioning check
    and one stacked pseudo-inverse per direction, from those singular values.
    A matrix failing the check is redrawn on its own stream from where that
    stream goes on: its block is dropped, the blocks after it move up one
    matrix, and one more block is drawn. Continuous entries make that a
    probability-zero event, so the retry budget exists only to guard
    degenerate misuse.
    """
    k, n, m = cfg.K, cfg.N, cfg.M
    draws = len(seeds)
    rng = rng_for(0, STREAM_CHANNEL)
    blocks = np.empty((draws, 2 * k, 2, n * m))  # per matrix: real parts, then imaginary parts
    for row, seed in zip(blocks, seeds):
        reset_rng(rng, seed, STREAM_CHANNEL).standard_normal(out=row)
    mats = _complex(blocks[:, :, 0], blocks[:, :, 1])
    svals = np.empty((draws, 2 * k, n))
    for lo, shape in ((0, (n, m)), (k, (m, n))):
        stack = mats[:, lo : lo + k].reshape(-1, *shape)
        svals[:, lo : lo + k] = np.linalg.svd(stack, compute_uv=False).reshape(-1, k, n)
    ok = well_conditioned(svals)
    for b in np.flatnonzero(~ok.all(axis=1)).tolist():
        reset_rng(rng, seeds[b], STREAM_CHANNEL).standard_normal(blocks[b].shape)  # past the first draw
        _redraw(rng, blocks[b], mats[b], svals[b], ok[b], cfg)
    up, down = mats[:, :k].reshape(draws * k, n, m), mats[:, k:].reshape(draws * k, m, n)
    right, alpha = _unit_pinv(up, True, svals[:, :k].reshape(-1, n))
    left, beta = _unit_pinv(down, False, svals[:, k:].reshape(-1, n))
    out = []
    for b in range(draws):
        mine = slice(b * k, (b + 1) * k)
        ch = ChannelSet(uplink=tuple(up[mine]), downlink=tuple(down[mine]))
        ch.__dict__["inverses"] = (right[mine], alpha[mine], left[mine], beta[mine])
        out.append(ch)
    return tuple(out)


def _redraw(rng, blocks, mats, svals, ok, cfg) -> None:
    """Redraw the rejected matrices of one draw in place: `blocks` holds its
    normals, `mats`, `svals` and `ok` the matrices, singular values and
    verdicts of its first check, and `rng` stands where its stream goes on."""
    k, n, m = cfg.K, cfg.N, cfg.M
    start = tries = 0  # matrices before `start` are accepted
    while not ok[start:].all():
        failed = start + int(np.argmin(ok[start:]))
        tries = tries + 1 if failed == start else 1
        if tries == _MAX_RESAMPLE:
            shape = (n, m) if failed < k else (m, n)
            raise GenerationFailed(f"no full-rank {shape} draw in {_MAX_RESAMPLE} tries")
        blocks = np.concatenate((blocks[:failed], blocks[failed + 1 :], rng.standard_normal((1, 2, n * m))))
        start = failed
        mats[start:] = _complex(blocks[start:, 0], blocks[start:, 1])
        for lo, shape in ((0, (n, m)), (k, (m, n))):
            first = max(start, lo)
            if first < lo + k:
                svals[first : lo + k] = np.linalg.svd(mats[first : lo + k].reshape(-1, *shape), compute_uv=False)
                ok[first : lo + k] = well_conditioned(svals[first : lo + k])


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
    a relative slack of 1e-9. With an array of budgets, the leading axes of
    x run over them, and one verdict per budget comes back."""
    p = np.asarray(p, dtype=np.float64)
    energy = (np.abs(np.asarray(x, dtype=np.complex128)) ** 2).sum(axis=-1)
    ok = energy.reshape(p.shape + (-1,)).max(axis=-1) <= p * (1.0 + POWER_CHECK_SLACK)
    return ok if p.ndim else bool(ok)
