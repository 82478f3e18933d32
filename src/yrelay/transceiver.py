"""End-to-end transmission rounds over the diagonalized Y-channel.

The channel is block-constant, and a sweep runs every power point on each
channel draw, so the work splits two ways:

- a `RoundLayout`, built once per stream plan and antenna count M (for
  sweeps, kept in a bounded per-process memo, `plan_layout`), holds the
  plan-only indices: where the flat symbol vector enters the users' words
  and where each symbol lies in the words they receive (off the plan's
  blocks), the layout of a round's random draws, the order in which users
  recover their estimates, the directions grouped by span length for the
  error norms, and the block components of the analytic SNR;
- a `ChannelBlock` holds what its draws fix (channel matrices, precoders,
  the diagonalization constants alpha_j and beta_k), and `transmit_round`
  runs the rounds of every draw and power point of a block under a layout
  in one stacked computation, with (draw, point) axes that its result
  arrays keep: only the symbols, the noise and the power budget P change
  from point to point. Sweeps sum those arrays, and `simulate` prints the
  entry of one draw at one point (`RoundBatch.to_dict`).

Each round gets the bits it would get alone: every sum whose order reaches a
report keeps its order (users are added one at a time, rates and errors left
to right), error norms run one BLAS dot per row as `ndarray.dot` does, and
log2 runs per component through `math.log2`.

`transmit_round` is the one implementation of every stage of a round:

Uplink: every user precodes its word with the unit-norm right inverse of
its channel, so the relay observes the componentwise sum of all users' words,
each scaled only by the user's diagonalization constant alpha_j, plus noise.
Pair blocks then carry the two-way network-coded combination
alpha_j*u_jk + alpha_k*u_kj.

Relay: the genie relay decodes that combination exactly; the raw relay
forwards its observation with the padding tail zeroed. Either rescales its
word to the power budget and broadcasts it.

Downlink: each user observes the relay word through its downlink channel
plus noise, applies the unit-norm left inverse, recovers the word up to the
scalar gamma*beta_k, and cancels its own contribution from every block it
participates in.

Symbol extension T > 1 is handled by treating the length-T*N word as T
consecutive channel uses of the same block-constant channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .alignment import DofVector, StreamPlan, build_stream_plan
from .channel import (
    STREAM_NOISE,
    STREAM_SYMBOLS,
    ChannelBlock,
    check_power,
    complex_normal_blocks,
    normal_block_index,
    seeded_normals,
)
from .errors import DimensionError, ModeUnavailable, ScalarUnderflow
from .linalg import _norms, left_sum

SCALE_UNDERFLOW = 1e-300

GENIE = "genie"
RAW = "raw"


def _length_groups(spans):
    """Spans (start, stop) grouped by length: per length, the positions of
    its spans in `spans` and a (spans, length) index of their elements."""
    groups = {}
    for pos, (a, b) in enumerate(spans):
        groups.setdefault(b - a, []).append(pos)
    starts = np.array([a for a, _ in spans], dtype=np.intp)
    return [(np.array(pos), starts[pos, None] + np.arange(length)) for length, pos in groups.items()]


class RoundLayout:
    """What a stream plan and the users' antenna count M fix for every round,
    whatever the channel draw. `plan_layout` builds one per (DoF vector, N,
    M) for the sweeps and single rounds of a process.

    Symbols travel as one flat vector laid out by `plan.symbol_spans`; a
    block direction j->k puts v_jk at the block's offset in the words of j
    and k. A layout holds no generator and its arrays are read-only, so one
    layout serves any number of sweeps, in any number of threads, at once.
    """

    def __init__(self, plan: StreamPlan, m: int):
        k_users, n, t_ext = plan.K, plan.N, plan.T
        self.plan, self.M = plan, m
        spans, length = plan.symbol_spans, plan.word_length
        sizes = [b - a for a, b in spans.values()]
        # word_index: row j-1 gathers user j's word from the flat symbols
        # followed by one zero (index -1); receive_index: where each symbol
        # lies in the K stacked words the users receive (v_jk in user k's
        # word, in the block that carries j->k).
        self.word_index = np.full((k_users, length), -1, dtype=np.intp)
        self.receive_index = np.empty(sum(sizes), dtype=np.intp)
        for block in plan.blocks:
            for (j, k), size in block.directions():
                a, off = spans[(j, k)][0], block.offset
                self.word_index[j - 1, off : off + size] = np.arange(a, a + size)
                self.receive_index[a : a + size] = (k - 1) * length + off + np.arange(size)
        self.symbol_index = normal_block_index(sizes)
        self.noise_index = normal_block_index([n] * t_ext + [m] * (k_users * t_ext))
        self.sender = np.repeat([j - 1 for j, _ in spans], sizes)  # user index of each symbol
        # Estimates in the order user k recovers them (k, then partner j); a
        # sweep averages their errors in this order.
        self.estimate_order = tuple(
            (j, k) for k in range(1, k_users + 1) for j in range(1, k_users + 1) if j != k
        )
        self.pair_users = np.array(self.estimate_order).T - 1  # rows: j - 1, k - 1
        self.error_keys = tuple(key for key in self.estimate_order if spans[key][1] > spans[key][0])
        self.error_groups = _length_groups([spans[key] for key in self.error_keys])
        # effective_snr: the active directions, their senders and lengths,
        # and per flat symbol (one block component each) the users j, k and
        # its row q mod N of Dl_k, read off the symbol placement.
        self.snr_keys = tuple(key for key, (a, b) in spans.items() if b > a)
        self.snr_senders = np.array([j - 1 for j, _ in self.snr_keys], dtype=np.intp)
        self.snr_sizes = np.array([spans[key][1] - spans[key][0] for key in self.snr_keys], dtype=np.intp)
        self.snr_components = np.stack((self.sender, self.receive_index // length, self.receive_index % length % n))
        self.snr_groups = _length_groups([spans[key] for key in self.snr_keys])
        for a in (self.word_index, self.receive_index, self.symbol_index, self.noise_index, self.sender,
                  self.pair_users, self.snr_senders, self.snr_sizes, self.snr_components,
                  *(a for group in self.error_groups + self.snr_groups for a in group)):
            a.flags.writeable = False


LAYOUT_MEMO_SIZE = 64  # (DoF vector, N, M) keys whose layouts a process keeps


@functools.lru_cache(maxsize=LAYOUT_MEMO_SIZE)
def plan_layout(dof: DofVector, n: int, m: int) -> RoundLayout:
    """The layout of `build_stream_plan(dof, n)` (its plan is `.plan`) for M
    user antennas, from a per-process memo of the last LAYOUT_MEMO_SIZE keys
    (DoF vector, N, M); a vector hashes by its ints. A layout enters the memo
    whole and is shared read-only by every caller. `Infeasible` and the
    other plan errors are raised on every call, before any work, as
    `build_stream_plan` raises them."""
    return RoundLayout(build_stream_plan(dof, n), m)


@dataclass(frozen=True)
class SnrBatch:
    """Analytic SNRs at several power points over a block's draws: axes
    (draw, point, direction), the active directions in the layout's
    `snr_keys` order. `rates` is each direction's per-channel-use rate
    proxy, the sum over its block components of log2(1 + effective SNR)
    divided by T, and `rate_proxy` their sum over the directions."""

    uplink: np.ndarray
    downlink: np.ndarray
    effective: np.ndarray
    rates: np.ndarray
    rate_proxy: np.ndarray  # (draw, point)


def effective_snr(block: ChannelBlock, layout: RoundLayout, powers, mode: str = GENIE) -> SnrBatch:
    """Analytic per-subchannel SNRs of the parallel two-way streams at each
    power P in `powers`, on every draw of the block, under the layout of its
    stream plan.

    Uplink: the relay sees alpha_j * v plus unit-variance noise, so direction
    j->k runs at alpha_j^2 per component. Downlink: the relay forwards with
    the deterministic scale gamma = sqrt(P / E||w||^2); after left-inverse
    filtering, word component q carries gamma^2 beta_k^2 alpha_j^2 of signal
    against the filtered noise power ||row q mod N of Dl_k||^2.

    The rate proxy counts log2(1 + SNR) per component: downlink-only SNR in
    genie mode (the relay decode is ideal), min(uplink, downlink) in raw mode.
    A layout whose K, N or M differs from the block's raises DimensionError,
    and an unknown mode ModeUnavailable, before any work.
    """
    plan = layout.plan
    _, k_users, n, m = block.uplink.shape
    if (plan.K, plan.N, layout.M) != (k_users, n, m):
        raise DimensionError(
            f"layout for K={plan.K}, N={plan.N}, M={layout.M} does not fit channels with K={k_users}, N={n}, M={m}")
    if mode not in (GENIE, RAW):
        raise ModeUnavailable(f"unknown mode {mode!r}")
    # E||w||^2 of unit-variance symbols (alpha_j^2 times the direction's
    # length, the active directions added left to right), and per block
    # component alpha_j^2, beta_k^2 and the filtered noise power of its row
    # of Dl_k. Squares are Python floats, as per-component code had them.
    a2, b2 = (np.array([x**2 for x in c.ravel().tolist()]).reshape(c.shape) for c in (block.alpha, block.beta))
    word_power = left_sum(a2[:, layout.snr_senders] * layout.snr_sizes, axis=-1)[:, None]
    j, k, row = layout.snr_components
    snr_a2 = a2[:, None, j]
    powers = np.asarray(powers, dtype=np.float64)
    shape = (len(word_power), len(powers))
    gamma_sq = np.divide(powers, word_power, out=np.zeros(shape), where=word_power > 0)
    down = gamma_sq[..., None] * b2[:, None, k] * snr_a2 / np.sum(np.abs(block.left) ** 2, axis=-1)[:, None, k, row]
    eff = down if mode == GENIE else np.minimum(snr_a2, down)
    # math.log2: np.log2 rounds some values differently
    logs = np.array(list(map(math.log2, (1.0 + eff).ravel().tolist()))).reshape(eff.shape)
    snr_down, rates = np.empty((2, *shape, len(layout.snr_keys)))
    for where, index in layout.snr_groups:
        snr_down[..., where] = down[..., index].min(axis=-1)
        rates[..., where] = left_sum(logs[..., index].transpose(3, 0, 1, 2)) / plan.T
    uplink = a2[:, None, layout.snr_senders].repeat(len(powers), axis=1)
    effective = snr_down if mode == GENIE else np.minimum(uplink, snr_down)
    rate_proxy = left_sum(rates, axis=-1)
    return SnrBatch(uplink, snr_down, effective, rates, rate_proxy)


@dataclass(frozen=True)
class RoundBatch:
    """Rounds at several power points over a block's draws; every array
    leads with the (draw, point) axes.

    `estimates` holds each round's symbol estimates (user k's estimate of
    v_jk) in the flat layout of `plan.symbol_spans`, `rel_errors` the
    relative L2 error of each active direction in `layout.error_keys`
    order, `gamma` the relay's forwarding scale (0 for a zero relay word,
    which is not forwarded), `power_ok` that every transmit vector of the
    round passed the power check, and `snr` the analytic SNRs of the
    round's mode.
    """

    layout: RoundLayout
    mode: str
    noisy: bool
    estimates: np.ndarray
    rel_errors: np.ndarray
    gamma: np.ndarray
    power_ok: np.ndarray
    snr: SnrBatch

    def to_dict(self, d: int, i: int) -> dict:
        """Draw d at point i as `simulate` prints it, keyed "j-k" in the
        layout's estimate, error and SNR orders."""
        layout, snr, est = self.layout, self.snr, self.estimates[d, i]
        name = {key: "%d-%d" % key for key in layout.estimate_order}
        pairs = np.stack((est.real, est.imag), axis=-1).tolist()
        gamma = float(self.gamma[d, i])
        rows = zip(layout.snr_keys, *(a[d, i].tolist() for a in (snr.uplink, snr.downlink, snr.effective, snr.rates)))
        return {
            "mode": self.mode,
            "noisy": self.noisy,
            "gamma": gamma,
            "zero_word": gamma == 0.0,
            "power_ok": bool(self.power_ok[d, i]),
            "rel_errors": {name[key]: e for key, e in zip(layout.error_keys, self.rel_errors[d, i].tolist())},
            "estimates": {name[key]: pairs[slice(*layout.plan.symbol_spans[key])] for key in layout.estimate_order},
            "snr": {
                "rate_proxy": float(snr.rate_proxy[d, i]),
                "streams": {
                    name[key]: dict(zip(("snr_uplink", "snr_downlink", "snr_effective", "rate"), values))
                    for key, *values in rows
                },
            },
        }


def transmit_round(
    block: ChannelBlock,
    layout: RoundLayout,
    powers,
    seeds,
    symbols=None,
    mode: str = GENIE,
    noise: bool = True,
) -> RoundBatch:
    """Full uplink + downlink rounds over a block of channel draws under the
    layout of its stream plan, one per draw and power point, in one stacked
    computation with leading (draw, point) axes.

    Point i runs at power budget powers[i]. `seeds` holds one seed per
    round, in the order of the batch rows: the points of each draw in turn.
    A round's symbols are drawn from (its seed, symbol stream) unless
    supplied as one flat complex vector in `plan.symbol_spans` order, which
    serves every round; its noise comes from (its seed, noise stream): each
    stream in one draw, uplink noise of every channel use before the
    downlink noise of every user and use (`seeded_normals`, on the
    thread's one generator).
    """
    snr = effective_snr(block, layout, powers, mode)  # raises DimensionError and ModeUnavailable before any draw
    plan, k_users, m = layout.plan, layout.plan.K, layout.M
    t_ext, n, length = plan.T, plan.N, plan.word_length
    powers = np.asarray(powers, dtype=np.float64)
    shape = (len(block.uplink), len(powers))
    budgets = powers[None].repeat(shape[0], axis=0)
    if len(seeds) != budgets.size:
        raise ValueError(f"{shape[0]} draws x {shape[1]} power points but {len(seeds)} seeds")
    size = len(layout.sender)
    if symbols is None:
        normals = seeded_normals(seeds, STREAM_SYMBOLS, layout.symbol_index.size)
        v = complex_normal_blocks(normals, layout.symbol_index).reshape(*shape, size)
    else:
        symbols = np.asarray(symbols, dtype=np.complex128)
        if symbols.shape != (size,):
            raise DimensionError(f"symbols of shape {symbols.shape}, plan wants ({size},)")
        v = np.broadcast_to(symbols, (*shape, size))
    pad = np.zeros((*shape, 1), dtype=np.complex128)
    words = np.concatenate((v, pad), axis=-1)[..., layout.word_index]  # words[d, i, j]: user j's word
    if noise:
        normals = seeded_normals(seeds, STREAM_NOISE, layout.noise_index.size)
        z = complex_normal_blocks(normals, layout.noise_index).reshape(*shape, -1)
        z_up = z[..., : t_ext * n].reshape(*shape, t_ext, n, 1)
        z_down = z[..., t_ext * n :].reshape(*shape, k_users, t_ext, m, 1)

    # A matrix or constant per draw and user takes the axes (draw, point, user,
    # channel use), broadcast over points and channel uses.
    alpha, beta = block.alpha, block.beta
    # Uplink: x[d, i, j, t] is user j's transmit vector in channel use t, a column.
    x = block.right[:, None, :, None] @ words.reshape(*shape, k_users, t_ext, n, 1)
    power_ok = check_power(x[..., 0], budgets)
    scaled = alpha[:, None, :, None] * words  # alpha_j * u_j
    # Relay, users added one at a time. Genie decodes the network-coded word
    # sum_j alpha_j u_j exactly; raw forwards its observation
    # sum_j H_j x_j + z with the padding tail zeroed.
    zeros = np.zeros((*shape, length), dtype=np.complex128)
    if mode == GENIE:
        w_hat = left_sum(scaled.transpose(2, 0, 1, 3), zeros)
    else:
        w_hat = left_sum((block.uplink[:, None, :, None] @ x).transpose(2, 0, 1, 3, 4, 5),
                         zeros.reshape(*shape, t_ext, n, 1))
        if noise:
            w_hat += z_up
        w_hat = w_hat.reshape(*shape, length)
        w_hat[..., length - plan.padding :] = 0.0
    # Forward x_r = gamma * w at the power budget, gamma = sqrt(P)/||w||; a
    # zero word gets gamma = 0, forwards nothing, and its estimates are zero.
    norm = _norms(w_hat)
    gamma = np.divide(np.sqrt(powers), norm, out=np.zeros_like(norm), where=norm != 0.0)
    live = gamma != 0.0
    x_word = (gamma[..., None] * w_hat).reshape(*shape, 1, t_ext, n, 1)
    power_ok &= check_power(x_word[..., 0], budgets)

    j, k = layout.pair_users
    denom = gamma[..., None] * beta[:, None, k] * alpha[:, None, j]
    under = (np.abs(denom) < SCALE_UNDERFLOW) & live[..., None]
    if under.any():
        d, i, e = np.argwhere(under)[0]
        j, k = layout.estimate_order[e]
        raise ScalarUnderflow(f"recovery scale gamma*beta*alpha = {denom[d, i, e]:.3e} for pair ({j},{k})")
    # Downlink: y[d, i, k, t] is user k's observation D_k x_r + z in channel use t.
    y = block.downlink[:, None, :, None] @ x_word
    if noise:
        y += z_down
    filtered = (block.left[:, None, :, None] @ y).reshape(*shape, k_users, length)
    # Undo gamma*beta_k, cancel the user's own contribution, and divide
    # each partner's block by the partner's alpha_j.
    cleaned = filtered / (np.where(live, gamma, 1.0)[..., None, None] * beta[:, None, :, None]) - scaled
    est = cleaned.reshape(*shape, k_users * length)[..., layout.receive_index] / alpha[:, None, layout.sender]
    est[~live] = 0.0

    errors = est - v
    rel_errors = np.empty((*shape, len(layout.error_keys)))
    overflow = np.zeros(rel_errors.shape, dtype=bool)
    with np.errstate(over="ignore"):  # an overflowing error norm is raised below
        norms = [_norms(errors[..., index]) for _, index in layout.error_groups]
    for (where, index), e in zip(layout.error_groups, norms):
        ref = _norms(v[..., index])
        overflow[..., where] = np.isinf(e)
        rel_errors[..., where] = np.divide(e, ref, out=np.where(e == 0, 0.0, np.inf), where=ref > 0)
    if overflow.any():  # noise divided by a scale above SCALE_UNDERFLOW, squared past the float range
        d, i, c = np.argwhere(overflow)[0]
        j, k = layout.error_keys[c]
        scale = denom[d, i, layout.estimate_order.index((j, k))]
        raise ScalarUnderflow(f"recovery scale gamma*beta*alpha = {scale:.3e} for pair ({j},{k}): error norm overflows")

    return RoundBatch(layout, mode, noise, est, rel_errors, gamma, power_ok, snr)
