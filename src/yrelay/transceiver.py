"""End-to-end transmission rounds over the diagonalized Y-channel.

The channel is block-constant, and a sweep runs every power point on each
channel draw, so the work splits three ways:

- a `RoundLayout`, built once per stream plan and antenna count M, holds the
  plan-only indices: the layout of a round's random draws, the order in
  which users recover their estimates, the directions grouped by span length
  for the error norms, and the slot components of the analytic SNR;
- a `RoundContext`, built once per channel draw, holds what the draw fixes:
  the stacked precoders and channel matrices, the diagonalization constants
  alpha_j and beta_k, and the coefficients of the analytic SNR;
- `transmit_round` runs the rounds of every power point over a context in
  one stacked computation, with a leading points axis: only the symbols, the
  noise and the power budget P change from point to point. `run_round` is
  the one-point case.

Each point gets the bits it would get alone: every sum whose order reaches a
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

import math
from dataclasses import dataclass

import numpy as np

from .alignment import StreamPlan, StreamSymbols
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
    whatever the channel draw. A sweep builds one and passes it to the
    `RoundContext` of every draw.

    Symbols travel as one flat vector laid out by `plan.symbol_spans`. `rng`
    is re-keyed by every draw a round takes, so a layout serves one
    `transmit_round` call at a time.
    """

    def __init__(self, plan: StreamPlan, m: int):
        k_users, n, t_ext = plan.K, plan.N, plan.T
        self.plan, self.M = plan, m
        spans = plan.symbol_spans
        sizes = [b - a for a, b in spans.values()]
        self.symbol_index = normal_block_index(sizes)
        self.noise_index = normal_block_index([n] * t_ext + [m] * (k_users * t_ext))
        self.sender = np.repeat([j - 1 for j, _ in spans], sizes)  # user index of each symbol
        # Estimates in the order user k recovers them (k, then partner j); a
        # sweep averages their errors in this order.
        self.estimate_order = [
            (j, k) for k in range(1, k_users + 1) for j in range(1, k_users + 1) if j != k
        ]
        self.pair_users = np.array(self.estimate_order).T - 1  # rows: j - 1, k - 1
        self.error_keys = [key for key in self.estimate_order if spans[key][1] > spans[key][0]]
        self.error_groups = _length_groups([spans[key] for key in self.error_keys])

        # effective_snr: per active direction its slot components, and per
        # component the users j, k and its row q mod N of Dl_k.
        self.snr_keys, components, component_spans = [], [], []
        for (j, k), size in plan.stream_lengths.items():
            if size == 0:
                continue
            off, _ = plan.slot(j, k)
            self.snr_keys.append((j, k))
            component_spans.append((len(components), len(components) + size))
            components += [(j - 1, k - 1, (off + i) % n) for i in range(size)]
        self.snr_components = np.array(components, dtype=np.intp).reshape(-1, 3).T
        self.snr_groups = _length_groups(component_spans)
        self.rng = rng_for(0, STREAM_NOISE)


class RoundContext:
    """What one channel draw fixes for every round over it, under the
    layout of its stream plan."""

    def __init__(self, ch: ChannelSet, layout: RoundLayout):
        n, m = ch.uplink[0].shape
        plan = layout.plan
        if (plan.K, plan.N, layout.M) != (ch.K, n, m):
            raise DimensionError(
                f"layout for K={plan.K}, N={plan.N}, M={layout.M} does not fit channels with K={ch.K}, N={n}, M={m}")
        right, alpha, left, beta = ch.inverses
        self.ch, self.layout = ch, layout
        # Leading (K, 1) axes: one matrix per user, broadcast over channel uses.
        self.right, self.left = right[:, None], left[:, None]
        self.downlink = np.array(ch.downlink, dtype=np.complex128)[:, None]
        self.alpha_rows, self.beta_rows = alpha[:, None], beta[:, None]
        self.receive_scale = alpha[layout.sender]
        j, k = layout.pair_users
        self.pair_beta, self.pair_alpha = beta[k], alpha[j]

        # effective_snr: E||w||^2 of unit-variance symbols, and per slot
        # component alpha_j^2, beta_k^2 and the filtered noise power of its
        # row of Dl_k. Squares are Python floats, as per-component code had them.
        a2 = [a**2 for a in alpha.tolist()]
        b2 = [b**2 for b in beta.tolist()]
        self.word_power = left_sum(a2[j - 1] * size for (j, _), size in plan.stream_lengths.items())
        j, k, row = layout.snr_components
        self.snr_a2, self.snr_b2 = np.array(a2)[j], np.array(b2)[k]
        self.snr_rows = np.sum(np.abs(left) ** 2, axis=-1)[k, row]
        self.snr_uplink = np.array([a2[j - 1] for j, _ in layout.snr_keys])


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
    """Analytic SNRs at several power points over one context. Rows are the
    points, columns the active directions in `ctx.layout.snr_keys` order;
    `report(i)` is point i as an SnrReport."""

    ctx: RoundContext
    downlink: np.ndarray
    effective: np.ndarray
    rates: np.ndarray
    rate_proxy: np.ndarray  # per point

    def report(self, i: int) -> SnrReport:
        keys = self.ctx.layout.snr_keys
        rows = zip(keys, self.ctx.snr_uplink.tolist(), self.downlink[i].tolist(), self.effective[i].tolist())
        return SnrReport(
            streams={key: StreamSnr(uplink=up, downlink=down, effective=eff) for key, up, down, eff in rows},
            rates=dict(zip(keys, self.rates[i].tolist())),
            rate_proxy=float(self.rate_proxy[i]),
        )


def effective_snr(ctx: RoundContext, powers, mode: str = GENIE) -> SnrBatch:
    """Analytic per-subchannel SNRs of the parallel two-way streams at each
    power P in `powers`.

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
    gamma_sq = powers / ctx.word_power if ctx.word_power > 0 else np.zeros_like(powers)
    down = gamma_sq[:, None] * ctx.snr_b2 * ctx.snr_a2 / ctx.snr_rows
    eff = down if mode == GENIE else np.minimum(ctx.snr_a2, down)
    # math.log2: np.log2 rounds some values differently
    logs = np.array(list(map(math.log2, (1.0 + eff).ravel().tolist()))).reshape(eff.shape)
    shape = (len(powers), len(layout.snr_keys))
    snr_down, rates = np.empty(shape), np.empty(shape)
    for where, index in layout.snr_groups:
        snr_down[:, where] = down[:, index].min(axis=-1)
        rates[:, where] = left_sum(logs[:, index].transpose(2, 0, 1)) / layout.plan.T
    effective = snr_down if mode == GENIE else np.minimum(ctx.snr_uplink, snr_down)
    return SnrBatch(ctx, snr_down, effective, rates, left_sum(rates.T, np.zeros(len(powers))))


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
    """Rounds at several power points over one context; every array leads
    with the points axis.

    `estimates` holds each point's symbol estimates in the flat layout of
    `plan.symbol_spans`, `rel_errors` the relative L2 error of each active
    direction in `ctx.layout.error_keys` order, and `gamma` 0 for a zero
    relay word. `round(i)` is point i as a RoundResult.
    """

    ctx: RoundContext
    mode: str
    noisy: bool
    estimates: np.ndarray
    rel_errors: np.ndarray
    gamma: np.ndarray
    power_ok: np.ndarray
    snr: SnrBatch

    def round(self, i: int) -> RoundResult:
        layout = self.ctx.layout
        spans = layout.plan.symbol_spans
        gamma = float(self.gamma[i])
        return RoundResult(
            estimates={key: self.estimates[i, slice(*spans[key])] for key in layout.estimate_order},
            rel_errors=dict(zip(layout.error_keys, self.rel_errors[i].tolist())),
            snr=self.snr.report(i),
            gamma=gamma,
            zero_word=gamma == 0.0,
            power_ok=bool(self.power_ok[i]),
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
    """Full uplink + downlink rounds over a context, one per power point, in
    one stacked computation.

    Point i runs at power budget powers[i]. Its symbols are drawn from
    (seeds[i], symbol stream) unless supplied (supplied symbols serve every
    point), its noise from (seeds[i], noise stream): each stream in one draw,
    uplink noise of every channel use before the downlink noise of every
    user and use.
    """
    if mode not in (GENIE, RAW):
        raise ModeUnavailable(f"unknown mode {mode!r}")
    layout = ctx.layout
    plan, k_users, m = layout.plan, layout.plan.K, layout.M
    t_ext, n, length = plan.T, plan.N, plan.word_length
    powers = np.asarray(powers, dtype=np.float64)
    points = len(powers)
    if len(seeds) != points:
        raise ValueError(f"{points} power points but {len(seeds)} seeds")
    if symbols is None:
        normals = _draws(layout.rng, seeds, STREAM_SYMBOLS, layout.symbol_index.size)
        v = complex_normal_blocks(normals, layout.symbol_index)
    else:
        symbols.check_plan(plan)
        v = np.tile(np.concatenate([symbols.get(j, k) for j, k in plan.symbol_spans]), (points, 1))
    pad = np.zeros((points, 1), dtype=np.complex128)
    words = np.concatenate((v, pad), axis=1)[:, plan.word_index]  # words[i, j]: user j's slot word
    z_up = z_down = None
    if noise:
        normals = _draws(layout.rng, seeds, STREAM_NOISE, layout.noise_index.size)
        z = complex_normal_blocks(normals, layout.noise_index)
        z_up = z[:, : t_ext * n].reshape(points, t_ext, n)
        z_down = z[:, t_ext * n :].reshape(points, k_users, t_ext, m)

    # Uplink: x[i, j, t] is user j's transmit vector in channel use t.
    x = (ctx.right @ words.reshape(points, k_users, t_ext, n, 1))[..., 0]
    power_ok = check_power(x, powers)
    scaled = ctx.alpha_rows * words  # alpha_j * u_j
    truth = y_word = None
    if mode == GENIE:  # users added one at a time
        truth = left_sum(scaled.swapaxes(0, 1), np.zeros((points, length), dtype=np.complex128))
    else:  # only the raw relay reads its observation
        y_word = uplink_propagate(ctx.ch, x.swapaxes(0, 1), z_up).reshape(points, length)

    w_hat = relay_decode(y_word, plan, mode, true_word=truth)
    x_word, gamma = relay_transmit(w_hat, powers)
    live = gamma != 0.0  # a zero word forwards nothing; its estimates are zero
    power_ok &= check_power(x_word.reshape(points, t_ext, n), powers)

    denom = gamma[:, None] * ctx.pair_beta * ctx.pair_alpha
    under = (np.abs(denom) < SCALE_UNDERFLOW) & live[:, None]
    if under.any():
        i, e = np.argwhere(under)[0]
        j, k = layout.estimate_order[e]
        raise ScalarUnderflow(f"recovery scale gamma*beta*alpha = {denom[i, e]:.3e} for pair ({j},{k})")
    y = downlink_propagate(ctx.downlink, x_word.reshape(points, 1, t_ext, n), z_down)
    filtered = (ctx.left @ y[..., None]).reshape(points, k_users, length)
    # Undo gamma*beta_k, cancel the user's own contribution, and divide
    # each partner's slot by the partner's alpha_j.
    cleaned = filtered / (np.where(live, gamma, 1.0)[:, None, None] * ctx.beta_rows) - scaled
    est = cleaned.reshape(points, -1)[:, plan.receive_index] / ctx.receive_scale
    est[~live] = 0.0

    symbols_and_errors = np.stack((v, est - v))
    rel_errors = np.empty((points, len(layout.error_keys)))
    for where, index in layout.error_groups:
        ref, e = _norms(symbols_and_errors[:, :, index])
        rel_errors[:, where] = np.divide(e, ref, out=np.where(e == 0, 0.0, np.inf), where=ref > 0)

    return RoundBatch(ctx, mode, noise, est, rel_errors, gamma, power_ok, effective_snr(ctx, powers, mode))


def run_round(
    cfg: SystemConfig,
    ch: ChannelSet,
    plan: StreamPlan,
    symbols: StreamSymbols | None = None,
    seed: int = 0,
    mode: str = GENIE,
    noise: bool = True,
) -> RoundResult:
    """One round over the stream plan `plan` at power cfg.P: the one-point
    case of `transmit_round`."""
    if (plan.K, plan.N) != (cfg.K, cfg.N):
        raise DimensionError(f"plan for K={plan.K}, N={plan.N} does not fit K={cfg.K}, N={cfg.N}")
    ctx = RoundContext(ch, RoundLayout(plan, cfg.M))
    return transmit_round(ctx, [cfg.P], [seed], symbols, mode, noise).round(0)
