"""End-to-end transmission rounds over the diagonalized Y-channel.

The channel is block-constant, so a `RoundContext` computes once per
(channel draw, stream plan) everything the rounds over that draw share: the
stacked precoders and channel matrices, the diagonalization constants
alpha_j and beta_k, the gather indices that place symbols into slot words and
take estimates out of filtered words, the layout of the round's random draws,
and the coefficient table of the analytic SNR. `transmit_round` is the one
round implementation; only the symbols, the noise and the power budget P
change from round to round. `run_round` builds a context for a single round,
and a sweep builds one per draw and reuses it for every power point.

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

SCALE_UNDERFLOW = 1e-300

GENIE = "genie"
RAW = "raw"

_PAD = np.zeros(1, dtype=np.complex128)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a complex vector, by the formula np.linalg.norm uses."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


class RoundContext:
    """What one channel draw and one stream plan fix for every round over them.

    Symbols travel as one flat vector laid out by `plan.symbol_spans`. `rng`
    is re-keyed by every round, so a context serves one round at a time.
    """

    def __init__(self, ch: ChannelSet, plan: StreamPlan):
        n, m = ch.uplink[0].shape
        if (plan.K, plan.N) != (ch.K, n):
            raise DimensionError(
                f"plan for K={plan.K}, N={plan.N} does not fit channels with K={ch.K}, N={n}")
        right, left = ch.precoders
        k_users, t_ext = plan.K, plan.T
        self.ch, self.plan, self.M = ch, plan, m
        self.alphas = [hr.alpha for hr in right]
        self.betas = [dl.beta for dl in left]
        # Leading (K, 1) axes: one matrix per user, broadcast over channel uses.
        self.right = np.array([hr.matrix for hr in right])[:, None]
        self.left = np.array([dl.matrix for dl in left])[:, None]
        self.downlink = np.array(ch.downlink, dtype=np.complex128)[:, None]
        self.alpha_rows = np.array(self.alphas)[:, None]
        self.beta_rows = np.array(self.betas)[:, None]

        sizes = [plan.stream_lengths[p] for p in plan.symbol_spans]
        self.symbol_index = normal_block_index(sizes)
        self.noise_index = normal_block_index([n] * t_ext + [m] * (k_users * t_ext))
        self.receive_scale = np.repeat([self.alphas[j - 1] for j, _ in plan.symbol_spans], sizes)
        # Estimates in the order user k recovers them (k, then partner j); a
        # sweep averages their errors in this order.
        self.estimate_order = [
            (j, k) for k in range(1, k_users + 1) for j in range(1, k_users + 1) if j != k
        ]

        # effective_snr: E||w||^2 of unit-variance symbols, and per active
        # direction alpha_j^2, beta_k^2 and the filtered noise power of each
        # slot component (row q mod N of Dl_k).
        noise_rows = [np.sum(np.abs(dl.matrix) ** 2, axis=1) for dl in left]
        self.word_power = 0.0
        for (j, k), size in plan.stream_lengths.items():
            self.word_power += (self.alphas[j - 1] ** 2) * size
        self.snr_table = []
        for (j, k), size in plan.stream_lengths.items():
            if size == 0:
                continue
            off, _ = plan.slot(j, k)
            rows = [float(noise_rows[k - 1][(off + i) % n]) for i in range(size)]
            self.snr_table.append(((j, k), self.alphas[j - 1] ** 2, self.betas[k - 1] ** 2, rows))
        self.rng = rng_for(0, STREAM_NOISE)


def relay_decode(y_word, plan: StreamPlan, mode: str, true_word=None) -> np.ndarray:
    """Relay's estimate of the network-coded word.

    genie: returns a copy of the supplied ground-truth word (ideal lattice
           decoding); the observation is not read and may be None.
    raw:   passes the observation through, zeroing the padding tail.
    """
    if y_word is not None or mode == RAW:
        y_word = np.asarray(y_word, dtype=np.complex128)
        if y_word.shape != (plan.word_length,):
            raise DimensionError(f"observation shape {y_word.shape} != ({plan.word_length},)")
    if mode == GENIE:
        if true_word is None:
            raise ModeUnavailable("genie decoding needs the ground-truth relay word")
        return np.array(true_word, dtype=np.complex128)
    if mode == RAW:
        w_hat = y_word.copy()
        if plan.padding:
            w_hat[plan.word_length - plan.padding :] = 0.0
        return w_hat
    raise ModeUnavailable(f"unknown relay decode mode {mode!r}")


def relay_transmit(w_hat, p: float):
    """Scale the decoded word to the power budget: x_r = sqrt(P)/||w|| * w.

    Returns (x_r, gamma). A zero word cannot be normalized; it is forwarded
    as-is with gamma = 0 (callers see the flag through gamma).
    """
    w_hat = np.asarray(w_hat, dtype=np.complex128)
    norm = _norm(w_hat)
    if norm == 0.0:
        return np.zeros_like(w_hat), 0.0
    gamma = math.sqrt(p) / norm
    return gamma * w_hat, gamma


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


def effective_snr(ctx: RoundContext, p: float, mode: str = GENIE) -> SnrReport:
    """Analytic per-subchannel SNRs of the parallel two-way streams at power P.

    Uplink: the relay sees alpha_j * v plus unit-variance noise, so direction
    j->k runs at alpha_j^2 per component. Downlink: the relay forwards with
    the deterministic scale gamma = sqrt(P / E||w||^2); after left-inverse
    filtering, word component q carries gamma^2 beta_k^2 alpha_j^2 of signal
    against the filtered noise power ||row q mod N of Dl_k||^2.

    The rate proxy counts log2(1 + SNR) per component: downlink-only SNR in
    genie mode (the relay decode is ideal), min(uplink, downlink) in raw mode.
    Everything but P comes from the context's table.
    """
    if mode not in (GENIE, RAW):
        raise ModeUnavailable(f"unknown mode {mode!r}")
    gamma_sq = p / ctx.word_power if ctx.word_power > 0 else 0.0
    streams, rates = {}, {}
    total_rate = 0.0
    for key, a2, b2, rows in ctx.snr_table:
        down = [gamma_sq * b2 * a2 / row for row in rows]
        rate = 0.0
        for snr_dl in down:
            rate += math.log2(1.0 + (snr_dl if mode == GENIE else min(a2, snr_dl)))
        rate /= ctx.plan.T
        snr_down = min(down)
        effective = snr_down if mode == GENIE else min(a2, snr_down)
        streams[key] = StreamSnr(uplink=a2, downlink=snr_down, effective=effective)
        rates[key] = rate
        total_rate += rate
    return SnrReport(streams=streams, rates=rates, rate_proxy=total_rate)


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


def transmit_round(
    ctx: RoundContext,
    p: float,
    symbols: StreamSymbols | None = None,
    seed: int = 0,
    mode: str = GENIE,
    noise: bool = True,
) -> RoundResult:
    """One full uplink + downlink round at power budget P over a context.

    Symbols are drawn from (seed, symbol stream) when not supplied, noise
    from (seed, noise stream): each stream in one draw, uplink noise of every
    channel use before the downlink noise of every user and use.
    """
    if mode not in (GENIE, RAW):
        raise ModeUnavailable(f"unknown mode {mode!r}")
    plan, k_users, m = ctx.plan, ctx.plan.K, ctx.M
    t_ext, n, length = plan.T, plan.N, plan.word_length
    if symbols is None:
        v = complex_normal_blocks(reset_rng(ctx.rng, seed, STREAM_SYMBOLS), ctx.symbol_index)
    else:
        symbols.check_plan(plan)
        v = np.concatenate([symbols.get(j, k) for j, k in plan.symbol_spans])
    words = np.concatenate((v, _PAD))[plan.word_index]  # row j: user j's slot word
    z_up = z_down = None
    if noise:
        z = complex_normal_blocks(reset_rng(ctx.rng, seed, STREAM_NOISE), ctx.noise_index)
        z_up, z_down = z[: t_ext * n].reshape(t_ext, n), z[t_ext * n :].reshape(k_users, t_ext, m)

    # Uplink: x[j, t] is user j's transmit vector in channel use t.
    x = (ctx.right @ words.reshape(k_users, t_ext, n, 1))[..., 0]
    power_ok = check_power(x, p)
    scaled = ctx.alpha_rows * words  # alpha_j * u_j
    truth = y_word = None
    if mode == GENIE:
        truth = np.zeros(length, dtype=np.complex128)
        for row in scaled:
            truth += row
    else:  # only the raw relay reads its observation
        y_word = uplink_propagate(ctx.ch, x, z_up).reshape(length)

    w_hat = relay_decode(y_word, plan, mode, true_word=truth)
    x_word, gamma = relay_transmit(w_hat, p)
    zero_word = gamma == 0.0
    power_ok = power_ok and check_power(x_word.reshape(t_ext, n), p)

    if zero_word:  # nothing was forwarded; every estimate is zero
        est = np.zeros_like(v)
    else:
        for j, k in ctx.estimate_order:
            denom = gamma * ctx.betas[k - 1] * ctx.alphas[j - 1]
            if abs(denom) < SCALE_UNDERFLOW:
                raise ScalarUnderflow(f"recovery scale gamma*beta*alpha = {denom:.3e} for pair ({j},{k})")
        y = downlink_propagate(ctx.downlink, x_word.reshape(t_ext, n), z_down)
        filtered = (ctx.left @ y[..., None]).reshape(k_users, length)
        # Undo gamma*beta_k, cancel the user's own contribution, and divide
        # each partner's slot by the partner's alpha_j.
        cleaned = filtered / (gamma * ctx.beta_rows) - scaled
        est = cleaned.reshape(-1)[plan.receive_index] / ctx.receive_scale

    err = est - v
    estimates, rel_errors = {}, {}
    for key in ctx.estimate_order:
        a, b = plan.symbol_spans[key]
        estimates[key] = est[a:b]
        if a == b:
            continue
        ref, e = _norm(v[a:b]), _norm(err[a:b])
        rel_errors[key] = e / ref if ref > 0 else (0.0 if e == 0 else math.inf)

    return RoundResult(
        estimates=estimates,
        rel_errors=rel_errors,
        snr=effective_snr(ctx, p, mode),
        gamma=gamma,
        zero_word=zero_word,
        power_ok=power_ok,
        mode=mode,
        noisy=noise,
    )


def run_round(
    cfg: SystemConfig,
    ch: ChannelSet,
    plan: StreamPlan,
    symbols: StreamSymbols | None = None,
    seed: int = 0,
    mode: str = GENIE,
    noise: bool = True,
) -> RoundResult:
    """One round over the stream plan `plan` at power cfg.P: builds the
    channel draw's context and runs `transmit_round` on it."""
    if (plan.K, plan.N) != (cfg.K, cfg.N):
        raise DimensionError(f"plan for K={plan.K}, N={plan.N} does not fit K={cfg.K}, N={cfg.N}")
    return transmit_round(RoundContext(ch, plan), cfg.P, symbols, seed, mode, noise)
