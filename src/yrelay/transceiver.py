"""End-to-end transmission rounds over the diagonalized Y-channel.

The channel is block-constant, and a sweep runs every power point on each
channel draw, so the work splits three ways:

- a `RoundLayout`, built once per stream plan and antenna count M (for
  sweeps, kept in a bounded per-process memo, `plan_layout`), holds the
  plan-only indices: the layout of a round's random draws, the order in which users
  recover their estimates, the directions grouped by span length for the
  error norms, and the slot components of the analytic SNR;
- a `RoundContext`, built once per block of channel draws, holds what the
  draws fix: the stacked precoders and channel matrices, the
  diagonalization constants alpha_j and beta_k, and the coefficients of the
  analytic SNR;
- `transmit_round` runs the rounds of every draw and power point over a
  context in one stacked computation, with leading (draw, point) axes: only
  the symbols, the noise and the power budget P change from point to point.
  `run_round` is the one-draw, one-point case.

Each round gets the bits it would get alone: every sum whose order reaches a
report keeps its order (users are added one at a time, rates and errors left
to right), error norms run one BLAS dot per row as `ndarray.dot` does, and
log2 runs per component through `math.log2`.

Uplink: every user precodes its slot word with the unit-norm right inverse of
its channel, so the relay observes the componentwise sum of all users' words,
each scaled only by the user's diagonalization constant alpha_j. Pair slots
then carry the two-way network-coded combination alpha_j*u_jk + alpha_k*u_kj.

Downlink: the relay rescales its (decoded) word to the power budget and
broadcasts; each user applies the unit-norm left inverse of its downlink
channel, recovers the word up to the scalar gamma*beta_k, and cancels its own
contribution from every slot it participates in.

Symbol extension T > 1 is handled by treating the length-T*N word as T
consecutive channel uses of the same block-constant channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .alignment import DofVector, StreamPlan, StreamSymbols, build_stream_plan, ordered_pairs
from .channel import (
    STREAM_NOISE,
    STREAM_SYMBOLS,
    ChannelSet,
    SystemConfig,
    check_power,
    complex_normal_blocks,
    downlink_propagate,
    normal_block_index,
    reset_rng,
    rng_for,
    uplink_propagate,
)
from .errors import DimensionError, ModeUnavailable, ScalarUnderflow
from .linalg import left_sum

SCALE_UNDERFLOW = 1e-300

GENIE = "genie"
RAW = "raw"


def _row_dots(x: np.ndarray) -> np.ndarray:
    """x . x along the last axis of a real array: one BLAS dot per row, the
    call `ndarray.dot` makes for one row (`np.sum` adds in another order)."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of a complex array, each by the
    formula np.linalg.norm uses for one vector."""
    return np.sqrt(_row_dots(x.real) + _row_dots(x.imag))


def _length_groups(spans):
    """Spans (start, stop) grouped by length: per length, the positions of
    its spans in `spans` and a (spans, length) index of their elements."""
    groups = {}
    for pos, (a, b) in enumerate(spans):
        groups.setdefault(b - a, []).append(pos)
    starts = np.array([a for a, _ in spans], dtype=np.intp)
    return [(np.array(pos), starts[pos, None] + np.arange(length)) for length, pos in groups.items()]


def _draws(rng: np.random.Generator, seeds, stream: int, size: int) -> np.ndarray:
    """Row i: `size` standard normals from the start of stream (seeds[i], stream)."""
    out = np.empty((len(seeds), size))
    for row, seed in zip(out, seeds):
        reset_rng(rng, seed, stream).standard_normal(out=row)
    return out


class RoundLayout:
    """What a stream plan and the users' antenna count M fix for every round,
    whatever the channel draw. `plan_layout` builds one per (DoF vector, N,
    M) for the sweeps of a process; `run_round`, a single round, builds its
    own.

    Symbols travel as one flat vector laid out by `plan.symbol_spans`. A
    layout holds no generator and its arrays are read-only, so one layout
    serves any number of sweeps, in any number of threads, at once.
    """

    def __init__(self, plan: StreamPlan, m: int):
        k_users, n, t_ext = plan.K, plan.N, plan.T
        self.plan, self.M = plan, m
        spans = plan.symbol_spans
        sizes = [b - a for a, b in spans.values()]
        self.word_index, self.receive_index = plan.word_index, plan.receive_index
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

        # effective_snr: per active direction its slot components and its
        # sender, and per component the users j, k and its row q mod N of Dl_k.
        snr_keys, components, component_spans = [], [], []
        for (j, k), size in plan.stream_lengths.items():
            if size == 0:
                continue
            off, _ = plan.slot(j, k)
            snr_keys.append((j, k))
            component_spans.append((len(components), len(components) + size))
            components += [(j - 1, k - 1, (off + i) % n) for i in range(size)]
        self.snr_keys = tuple(snr_keys)
        self.snr_senders = np.array([j - 1 for j, _ in snr_keys], dtype=np.intp)
        self.snr_components = np.array(components, dtype=np.intp).reshape(-1, 3).T
        self.snr_groups = _length_groups(component_spans)
        for a in (self.word_index, self.receive_index, self.symbol_index, self.noise_index, self.sender,
                  self.pair_users, self.snr_senders, self.snr_components,
                  *(a for group in self.error_groups + self.snr_groups for a in group)):
            a.flags.writeable = False


LAYOUT_MEMO_SIZE = 64  # (K, DoF vector, N, M) keys whose layouts a process keeps


def plan_layout(dof: DofVector, n: int, m: int) -> RoundLayout:
    """The layout of `build_stream_plan(dof, n)` (its plan is `.plan`) for M
    user antennas, from a per-process memo of the last LAYOUT_MEMO_SIZE keys
    (K, `dof.as_tuple()`, N, M). A layout enters the memo whole, its plan's
    cached indices included, and is shared read-only by every caller.
    `Infeasible` and the other plan errors are raised on every call, before
    any work, as `build_stream_plan` raises them."""
    return _memo_layout(dof.K, dof.as_tuple(), n, m)


@functools.lru_cache(maxsize=LAYOUT_MEMO_SIZE)
def _memo_layout(k_users: int, entries: tuple, n: int, m: int) -> RoundLayout:
    return RoundLayout(build_stream_plan(DofVector(k_users, dict(zip(ordered_pairs(k_users), entries))), n), m)


class RoundContext:
    """What a block of channel draws fixes for every round over it, under the
    layout of its stream plan. `channels` is a sequence of ChannelSets, one
    draw each; every array leads with the draws axis, and those a round
    reads next with a points axis of length 1."""

    def __init__(self, channels, layout: RoundLayout):
        channels = tuple(channels)
        plan = layout.plan
        for ch in channels:
            n, m = ch.uplink[0].shape
            if (plan.K, plan.N, layout.M) != (ch.K, n, m):
                raise DimensionError(
                    f"layout for K={plan.K}, N={plan.N}, M={layout.M} does not fit channels with K={ch.K}, N={n}, M={m}")
        right, alpha, left, beta = (np.stack(a) for a in zip(*(ch.inverses for ch in channels)))
        self.channels, self.layout = channels, layout
        # Axes (draw, point, user, channel use): a matrix per draw and user,
        # broadcast over points and channel uses.
        self.right, self.left = right[:, None, :, None], left[:, None, :, None]
        self.downlink = np.array([ch.downlink for ch in channels], dtype=np.complex128)[:, None, :, None]
        self.alpha_rows, self.beta_rows = alpha[:, None, :, None], beta[:, None, :, None]
        self.receive_scale = alpha[:, None, layout.sender]
        j, k = layout.pair_users
        self.pair_beta, self.pair_alpha = beta[:, None, k], alpha[:, None, j]

        # effective_snr: E||w||^2 of unit-variance symbols, and per slot
        # component alpha_j^2, beta_k^2 and the filtered noise power of its
        # row of Dl_k. Squares are Python floats, as per-component code had them.
        a2 = np.array([a**2 for a in alpha.ravel().tolist()]).reshape(alpha.shape)
        b2 = np.array([b**2 for b in beta.ravel().tolist()]).reshape(beta.shape)
        self.word_power = left_sum(a2[:, j - 1] * size for (j, _), size in plan.stream_lengths.items())
        j, k, row = layout.snr_components
        self.snr_a2, self.snr_b2 = a2[:, None, j], b2[:, None, k]
        self.snr_rows = np.sum(np.abs(left) ** 2, axis=-1)[:, k, row][:, None]
        self.snr_uplink = a2[:, None, layout.snr_senders]


def relay_decode(y_word, plan: StreamPlan, mode: str, true_word=None) -> np.ndarray:
    """Relay's estimate of the network-coded word, or of a stack of words
    (one per round along the leading axes).

    genie: returns a copy of the supplied ground-truth word (ideal lattice
           decoding); the observation is not read and may be None.
    raw:   passes the observation through, zeroing the padding tail.
    """
    if y_word is not None or mode == RAW:
        y_word = np.asarray(y_word, dtype=np.complex128)
        if y_word.shape[-1:] != (plan.word_length,):
            raise DimensionError(f"observation shape {y_word.shape} != (..., {plan.word_length})")
    if mode == GENIE:
        if true_word is None:
            raise ModeUnavailable("genie decoding needs the ground-truth relay word")
        return np.array(true_word, dtype=np.complex128)
    if mode == RAW:
        w_hat = y_word.copy()
        if plan.padding:
            w_hat[..., plan.word_length - plan.padding :] = 0.0
        return w_hat
    raise ModeUnavailable(f"unknown relay decode mode {mode!r}")


def relay_transmit(w_hat, p):
    """Scale each decoded word (along the last axis) to its power budget:
    x_r = sqrt(P)/||w|| * w.

    Returns (x_r, gamma), gamma with the words' leading shape (a float for
    one word). A zero word cannot be normalized; it is forwarded as zeros
    with gamma = 0 (callers see the flag through gamma).
    """
    w_hat = np.asarray(w_hat, dtype=np.complex128)
    norm = _norms(w_hat)
    live = norm != 0.0
    gamma = np.divide(np.sqrt(p), norm, out=np.zeros_like(norm), where=live)
    x_r = gamma[..., None] * w_hat
    if not live.all():
        x_r[~live] = 0.0
    return x_r, (gamma if gamma.ndim else float(gamma))


@dataclass(frozen=True)
class StreamSnr:
    """Analytic per-direction SNRs: uplink slot, downlink slot, and the
    mode-effective value used by the rate proxy."""

    uplink: float
    downlink: float
    effective: float


@dataclass(frozen=True)
class SnrReport:
    """Per-direction SNR pairs plus the bottleneck rate proxy.

    `rates[(j,k)]` is the per-channel-use rate proxy of direction j->k:
    sum over its slot components of log2(1 + effective SNR), divided by T.
    `rate_proxy` is the sum over all active directions.
    """

    streams: dict
    rates: dict
    rate_proxy: float

    def to_dict(self) -> dict:
        return {
            "rate_proxy": self.rate_proxy,
            "streams": {
                f"{j}-{k}": {
                    "snr_uplink": s.uplink,
                    "snr_downlink": s.downlink,
                    "snr_effective": s.effective,
                    "rate": self.rates[(j, k)],
                }
                for (j, k), s in sorted(self.streams.items())
            },
        }


@dataclass(frozen=True)
class SnrBatch:
    """Analytic SNRs at several power points over a context's draws. Rows
    are the rounds, the points of each draw in turn (row d * points + i is
    draw d at point i), columns the active directions in
    `ctx.layout.snr_keys` order; `report(r)` is row r as an SnrReport."""

    ctx: RoundContext
    uplink: np.ndarray
    downlink: np.ndarray
    effective: np.ndarray
    rates: np.ndarray
    rate_proxy: np.ndarray  # per round

    def report(self, r: int) -> SnrReport:
        keys = self.ctx.layout.snr_keys
        rows = zip(keys, self.uplink[r].tolist(), self.downlink[r].tolist(), self.effective[r].tolist())
        return SnrReport(
            streams={key: StreamSnr(uplink=up, downlink=down, effective=eff) for key, up, down, eff in rows},
            rates=dict(zip(keys, self.rates[r].tolist())),
            rate_proxy=float(self.rate_proxy[r]),
        )


def _rounds(a: np.ndarray) -> np.ndarray:
    """Merge the leading (draw, point) axes of `a` into one rounds axis."""
    return a.reshape(a.shape[0] * a.shape[1], *a.shape[2:])


def effective_snr(ctx: RoundContext, powers, mode: str = GENIE) -> SnrBatch:
    """Analytic per-subchannel SNRs of the parallel two-way streams at each
    power P in `powers`, on every draw of the context.

    Uplink: the relay sees alpha_j * v plus unit-variance noise, so direction
    j->k runs at alpha_j^2 per component. Downlink: the relay forwards with
    the deterministic scale gamma = sqrt(P / E||w||^2); after left-inverse
    filtering, word component q carries gamma^2 beta_k^2 alpha_j^2 of signal
    against the filtered noise power ||row q mod N of Dl_k||^2.

    The rate proxy counts log2(1 + SNR) per component: downlink-only SNR in
    genie mode (the relay decode is ideal), min(uplink, downlink) in raw mode.
    Everything but P comes from the context.
    """
    if mode not in (GENIE, RAW):
        raise ModeUnavailable(f"unknown mode {mode!r}")
    layout = ctx.layout
    powers = np.asarray(powers, dtype=np.float64)
    word_power = ctx.word_power[:, None]
    shape = (len(word_power), len(powers))
    gamma_sq = np.divide(powers, word_power, out=np.zeros(shape), where=word_power > 0)
    down = gamma_sq[..., None] * ctx.snr_b2 * ctx.snr_a2 / ctx.snr_rows
    eff = down if mode == GENIE else np.minimum(ctx.snr_a2, down)
    # math.log2: np.log2 rounds some values differently
    logs = np.array(list(map(math.log2, (1.0 + eff).ravel().tolist()))).reshape(eff.shape)
    snr_down, rates = np.empty((2, *shape, len(layout.snr_keys)))
    for where, index in layout.snr_groups:
        snr_down[..., where] = down[..., index].min(axis=-1)
        rates[..., where] = left_sum(np.moveaxis(logs[..., index], -1, 0)) / layout.plan.T
    uplink = np.broadcast_to(ctx.snr_uplink, snr_down.shape)
    effective = snr_down if mode == GENIE else np.minimum(uplink, snr_down)
    rate_proxy = left_sum(np.moveaxis(rates, -1, 0), np.zeros(shape))
    return SnrBatch(ctx, *map(_rounds, (uplink, snr_down, effective, rates, rate_proxy)))


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one transmission round.

    `estimates[(j,k)]` is user k's estimate of v_jk; `rel_errors` the
    corresponding relative L2 errors; `snr` the analytic report for the
    round's mode. `power_ok` records that every emitted transmit vector
    passed the power check.
    """

    estimates: dict
    rel_errors: dict
    snr: SnrReport
    gamma: float
    zero_word: bool
    power_ok: bool
    mode: str
    noisy: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "noisy": self.noisy,
            "gamma": self.gamma,
            "zero_word": self.zero_word,
            "power_ok": self.power_ok,
            "rel_errors": {f"{j}-{k}": e for (j, k), e in sorted(self.rel_errors.items())},
            "estimates": {
                f"{j}-{k}": [[float(z.real), float(z.imag)] for z in v]
                for (j, k), v in sorted(self.estimates.items())
            },
            "snr": self.snr.to_dict(),
        }


@dataclass(frozen=True)
class RoundBatch:
    """Rounds at several power points over a context's draws; every array
    leads with the rounds axis, the points of each draw in turn (row
    d * points + i is draw d at point i).

    `estimates` holds each round's symbol estimates in the flat layout of
    `plan.symbol_spans`, `rel_errors` the relative L2 error of each active
    direction in `ctx.layout.error_keys` order, and `gamma` 0 for a zero
    relay word. `round(r)` is row r as a RoundResult.
    """

    ctx: RoundContext
    mode: str
    noisy: bool
    estimates: np.ndarray
    rel_errors: np.ndarray
    gamma: np.ndarray
    power_ok: np.ndarray
    snr: SnrBatch

    def round(self, r: int) -> RoundResult:
        layout = self.ctx.layout
        spans = layout.plan.symbol_spans
        gamma = float(self.gamma[r])
        return RoundResult(
            estimates={key: self.estimates[r, slice(*spans[key])] for key in layout.estimate_order},
            rel_errors=dict(zip(layout.error_keys, self.rel_errors[r].tolist())),
            snr=self.snr.report(r),
            gamma=gamma,
            zero_word=gamma == 0.0,
            power_ok=bool(self.power_ok[r]),
            mode=self.mode,
            noisy=self.noisy,
        )


def transmit_round(
    ctx: RoundContext,
    powers,
    seeds,
    symbols: StreamSymbols | None = None,
    mode: str = GENIE,
    noise: bool = True,
) -> RoundBatch:
    """Full uplink + downlink rounds over a context, one per draw and power
    point, in one stacked computation with leading (draw, point) axes.

    Point i runs at power budget powers[i]. `seeds` holds one seed per
    round, in the order of the batch rows: the points of each draw in turn.
    A round's symbols are drawn from (its seed, symbol stream) unless
    supplied (supplied symbols serve every round), its noise from (its
    seed, noise stream): each stream in one draw, uplink noise of every
    channel use before the downlink noise of every user and use. One
    generator, made for the call, is re-keyed for every draw.
    """
    if mode not in (GENIE, RAW):
        raise ModeUnavailable(f"unknown mode {mode!r}")
    layout = ctx.layout
    plan, k_users, m = layout.plan, layout.plan.K, layout.M
    t_ext, n, length = plan.T, plan.N, plan.word_length
    powers = np.asarray(powers, dtype=np.float64)
    shape = (len(ctx.channels), len(powers))
    budgets = np.broadcast_to(powers, shape)
    if len(seeds) != budgets.size:
        raise ValueError(f"{shape[0]} draws x {shape[1]} power points but {len(seeds)} seeds")
    rng = rng_for(0, STREAM_SYMBOLS)
    if symbols is None:
        normals = _draws(rng, seeds, STREAM_SYMBOLS, layout.symbol_index.size)
        v = complex_normal_blocks(normals, layout.symbol_index).reshape(*shape, len(layout.sender))
    else:
        symbols.check_plan(plan)
        v = np.tile(np.concatenate([symbols.get(j, k) for j, k in plan.symbol_spans]), (*shape, 1))
    pad = np.zeros((*shape, 1), dtype=np.complex128)
    words = np.concatenate((v, pad), axis=-1)[..., layout.word_index]  # words[d, i, j]: user j's slot word
    z_up = z_down = None
    if noise:
        normals = _draws(rng, seeds, STREAM_NOISE, layout.noise_index.size)
        z = complex_normal_blocks(normals, layout.noise_index).reshape(*shape, -1)
        z_up = z[..., : t_ext * n].reshape(*shape, t_ext, n)
        z_down = z[..., t_ext * n :].reshape(*shape, k_users, t_ext, m)

    # Uplink: x[d, i, j, t] is user j's transmit vector in channel use t.
    x = (ctx.right @ words.reshape(*shape, k_users, t_ext, n, 1))[..., 0]
    power_ok = check_power(x, budgets)
    scaled = ctx.alpha_rows * words  # alpha_j * u_j
    truth = y_word = None
    if mode == GENIE:  # users added one at a time
        truth = left_sum(np.moveaxis(scaled, 2, 0), np.zeros((*shape, length), dtype=np.complex128))
    else:  # only the raw relay reads its observation, one draw at a time
        noises = z_up if noise else [None] * shape[0]
        y_word = np.stack([uplink_propagate(ch, xd.swapaxes(0, 1), zd)
                           for ch, xd, zd in zip(ctx.channels, x, noises)]).reshape(*shape, length)

    w_hat = relay_decode(y_word, plan, mode, true_word=truth)
    x_word, gamma = relay_transmit(w_hat, powers)
    live = gamma != 0.0  # a zero word forwards nothing; its estimates are zero
    power_ok &= check_power(x_word.reshape(*shape, t_ext, n), budgets)

    denom = gamma[..., None] * ctx.pair_beta * ctx.pair_alpha
    under = (np.abs(denom) < SCALE_UNDERFLOW) & live[..., None]
    if under.any():
        d, i, e = np.argwhere(under)[0]
        j, k = layout.estimate_order[e]
        raise ScalarUnderflow(f"recovery scale gamma*beta*alpha = {denom[d, i, e]:.3e} for pair ({j},{k})")
    y = downlink_propagate(ctx.downlink, x_word.reshape(*shape, 1, t_ext, n), z_down)
    filtered = (ctx.left @ y[..., None]).reshape(*shape, k_users, length)
    # Undo gamma*beta_k, cancel the user's own contribution, and divide
    # each partner's slot by the partner's alpha_j.
    cleaned = filtered / (np.where(live, gamma, 1.0)[..., None, None] * ctx.beta_rows) - scaled
    est = cleaned.reshape(*shape, k_users * length)[..., layout.receive_index] / ctx.receive_scale
    est[~live] = 0.0

    symbols_and_errors = np.stack((v, est - v))
    rel_errors = np.empty((*shape, len(layout.error_keys)))
    for where, index in layout.error_groups:
        ref, e = _norms(symbols_and_errors[..., index])
        rel_errors[..., where] = np.divide(e, ref, out=np.where(e == 0, 0.0, np.inf), where=ref > 0)

    return RoundBatch(ctx, mode, noise, *map(_rounds, (est, rel_errors, gamma, power_ok)),
                      effective_snr(ctx, powers, mode))


def run_round(
    cfg: SystemConfig,
    ch: ChannelSet,
    plan: StreamPlan,
    symbols: StreamSymbols | None = None,
    seed: int = 0,
    mode: str = GENIE,
    noise: bool = True,
) -> RoundResult:
    """One round over the stream plan `plan` at power cfg.P: the one-draw,
    one-point case of `transmit_round`."""
    if (plan.K, plan.N) != (cfg.K, cfg.N):
        raise DimensionError(f"plan for K={plan.K}, N={plan.N} does not fit K={cfg.K}, N={cfg.N}")
    ctx = RoundContext([ch], RoundLayout(plan, cfg.M))
    return transmit_round(ctx, [cfg.P], [seed], symbols, mode, noise).round(0)
