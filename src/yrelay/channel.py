"""System configuration, random block-constant channels, and seeded noise.

A `ChannelBlock` holds D block-constant draws as stacked arrays, with the
normalized inverses that diagonalize them (the precoders and receive
filters with their constants alpha_j and beta_k), both link directions'
N x N Gram matrices inverted in one call. `sample_channel_block` draws a
block, each draw's 2K matrices with one standard-normal call; the inverses
are the conditioning check (an SVD only for a matrix past their bound).
Rounds read the block's arrays as is; signals cross its matrices only in
`transceiver.transmit_round`.

All randomness comes from `seeded_normals`, the one routine here that keys
a Philox counter-based generator: row i is the start of the stream keyed
(seeds[i], stream id), so any seed reproduces the exact same realization.
A Philox stream is a pure function of (key, counter), so every row is drawn
on one generator per thread, re-keyed per row; a key whose seed and stream
are both below 2^63 is used as it stands. Streams of different keys
are independent, but two seeds can share a key: numpy reads the key
`[seed, stream]` through a float64 array when seed >= 2^63, which rounds
the seed to a multiple of 2^11, so 2^63 + 5 and 2^63 + 6 (for example) draw
the same streams, and `_philox_key` keys its streams the same way (a seed
that rounds up to 2^64 is keyed as 0). Stream ids used in this package:

    1  channel matrices      (sample_channel_block)
    2  receiver noise        (transceiver.transmit_round, uplink then downlink)
    3  codeword symbols      (transceiver.transmit_round)
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficient, ScalarUnderflow
from .linalg import _unit_pinv

STREAM_CHANNEL = 1
STREAM_NOISE = 2
STREAM_SYMBOLS = 3

POWER_CHECK_SLACK = 1e-9  # relative slack in check_power

_MASK64 = (1 << 64) - 1
_TOP = 1 << 63  # a key entry below it is exact as numpy reads the key
_ZERO4 = (0, 0, 0, 0)


def _philox_key(seed: int, stream: int) -> list:
    """The key of `Philox(key=[seed, stream])`: numpy reads a list holding a
    value >= 2^63 as float64, so both entries are then rounded to doubles.
    A value that rounds up to 2^64 has no uint64 of its own (numpy's cast of
    it depends on the platform); this package's fixed rule wraps it to 0, as
    the x86-64 cast does, so every platform draws the same bytes. The key is
    built from Python ints, with no cast and so no cast warning."""
    key = [seed & _MASK64, stream & _MASK64]
    if max(key) >> 63:
        key = [int(float(v)) & _MASK64 for v in key]
    return key


_thread = threading.local()  # .rng: the calling thread's generator for seeded_normals


def seeded_normals(seeds, stream: int, size: int) -> np.ndarray:
    """Row i: `size` standard normals from the start of stream (seeds[i],
    stream), those of a fresh `Philox(key=[seeds[i], stream])` generator.
    A Philox stream is a pure function of its key and counter, so every row
    is drawn on the calling thread's one generator (built on the thread's
    first call), re-keyed per row by a state dict of this call's own, with
    the counter at zero and the buffer empty: whatever the generator drew
    before, the row starts at the stream's start. A key whose entries are
    both in [0, 2^63) is `[seed, stream]` as it stands; only the others go
    through `_philox_key`."""
    rng = getattr(_thread, "rng", None)
    if rng is None:
        rng = _thread.rng = np.random.Generator(np.random.Philox(key=0))
    bits, draw = rng.bit_generator, rng.standard_normal
    inner = {"counter": _ZERO4}
    state = {"bit_generator": "Philox", "state": inner, "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    top = _TOP if 0 <= stream < _TOP else 0  # a stream id past 2^63 sends every key through _philox_key
    out = np.empty((len(seeds), size))
    for row, seed in zip(out, seeds):
        inner["key"] = [seed, stream] if 0 <= seed < top else _philox_key(seed, stream)
        bits.state = state
        draw(out=row)
    return out


def _complex(re, im) -> np.ndarray:
    """Unit-variance complex normals from standard-normal real and imaginary parts."""
    return (re + 1j * im) / math.sqrt(2.0)


def normal_block_index(sizes) -> np.ndarray:
    """Where consecutive blocks of complex normals, one of n entries per n
    in `sizes`, take their real parts (row 0) and imaginary parts (row 1)
    from a single `rng.standard_normal` draw: each block takes all its real
    parts first."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(sizes.size), sizes)
    real = starts[block] + np.arange(block.size)
    return np.stack([real, real + sizes[block]])


def complex_normal_blocks(normals: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The blocks that `index` (from `normal_block_index`) describes, taken
    from `normals`, one `rng.standard_normal(index.size)` draw per row along
    the last axis: bit for bit the blocks drawn one after the other, for
    every row at once."""
    z = normals.take(index, axis=-1)
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
        if not (0 < self.P < math.inf):
            raise ValueError(f"power must be positive and finite, got P={self.P}")


class ChannelBlock:
    """D block-constant channel draws of K users, stacked: `uplink` H (D, K,
    N, M), `downlink` D (D, K, M, N), and the normalized inverses that
    diagonalize them, computed here with one Gram inversion for both
    directions: `right` (D, K, M, N) with alpha (D, K), `left` (D, K, N, M)
    with beta (D, K). Building it checks conditioning (RankDeficient): for
    each Gram matrix G (H H^H, D^H D) and its inverse X, which the precoders
    need anyway, cond_2(G) = ||G||_2 ||G^{-1}||_2 <= ||G||_F ||X||_F up to
    X's rounding, so a matrix whose bound is within 1e6 needs no SVD. The
    error, or ScalarUnderflow for an alpha or beta whose square has no
    float (the SNR model squares them), names the matrix's draw (its
    `index`), link and user; an uplink error is raised before any downlink
    one. A plain class:
    other matrices make a new block, with their own inverses.
    """

    def __init__(self, uplink, downlink):
        self.uplink = np.ascontiguousarray(uplink, dtype=np.complex128)
        self.downlink = np.ascontiguousarray(downlink, dtype=np.complex128)
        up, down = self.uplink.shape, self.downlink.shape
        if len(up) != 4 or down != (*up[:2], up[3], up[2]):
            raise DimensionError(f"uplink {up} and downlink {down} are not (draws, K, N, M) and (draws, K, M, N)")
        d, k = up[:2]
        try:
            right, alpha, left, beta = _unit_pinv(
                self.uplink.reshape(d * k, *up[2:]), True, self.downlink.reshape(d * k, *down[2:]), False)
        except (RankDeficient, ScalarUnderflow) as exc:
            link, place = divmod(exc.index, d * k)
            draw, user = divmod(place, k)
            raise type(exc)(f"draw {draw}, {('uplink', 'downlink')[link]} of user {user}: {exc}", draw) from None
        self.right, self.left = right.reshape(down), left.reshape(up)
        self.alpha, self.beta = alpha.reshape(d, k), beta.reshape(d, k)


def sample_channel_block(cfg: SystemConfig, seeds) -> ChannelBlock:
    """One channel draw per seed, each deterministic per its seed, as one
    ChannelBlock: K uplink (N x M) and K downlink (M x N) matrices, i.i.d.
    CN(0,1).

    Each draw's 2K matrices come from one standard-normal draw, bit for bit
    the consecutive complex-normal blocks of a draw matrix by matrix (both
    shapes hold N*M entries), by `seeded_normals`. A refused
    matrix (sigma_min/sigma_max < 1e-10, a probability-zero event for
    continuous entries) raises RankDeficient naming its draw's seed, its
    link and its user.
    """
    k, n, m = cfg.K, cfg.N, cfg.M
    draws = len(seeds)
    blocks = seeded_normals(seeds, STREAM_CHANNEL, 4 * k * n * m)
    blocks = blocks.reshape(draws, 2 * k, 2, n * m)  # per matrix: real parts, then imaginary parts
    mats = _complex(blocks[:, :, 0], blocks[:, :, 1])
    try:
        return ChannelBlock(mats[:, :k].reshape(draws, k, n, m), mats[:, k:].reshape(draws, k, m, n))
    except (RankDeficient, ScalarUnderflow) as exc:
        raise type(exc)(f"seed {seeds[exc.index]}: {exc}", exc.index) from None


def check_power(x, p):
    """Per budget in p, whether every vector along the last axis of x under
    it has ||x||^2 <= P, up to a relative slack of 1e-9: the leading axes of
    x run over the budgets, and the verdicts come back as a bool array of
    p's shape (a numpy bool for one scalar budget)."""
    p = np.asarray(p, dtype=np.float64)
    energy = (np.abs(np.asarray(x, dtype=np.complex128)) ** 2).sum(axis=-1)
    return energy.reshape(p.shape + (-1,)).max(axis=-1) <= p * (1.0 + POWER_CHECK_SLACK)
