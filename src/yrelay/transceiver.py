"""End-to-end transmission rounds over the diagonalized Y-channel.

A round is one pipeline over a block-constant channel: the caller's stream
plan and the channel draw's cached precoders go in; each user assembles its
slot word once; `relay_observe` forms the relay observation of every channel
use; the relay decodes and transmits; every user post-codes and recovers.

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

from .alignment import (
    StreamPlan,
    StreamSymbols,
    assemble_uplink_symbol,
    extract_pair_slot,
    ordered_pairs,
)
from .channel import (
    STREAM_NOISE,
    STREAM_SYMBOLS,
    ChannelSet,
    SystemConfig,
    check_power,
    complex_normal,
    downlink_propagate,
    rng_for,
    uplink_propagate,
)
from .errors import DimensionError, ModeUnavailable, ScalarUnderflow
from .linalg import NormalizedLeftMppi, NormalizedRightMppi

SCALE_UNDERFLOW = 1e-300

GENIE = "genie"
RAW = "raw"


def sample_stream_symbols(plan: StreamPlan, seed: int) -> StreamSymbols:
    """Unit-variance complex Gaussian codeword symbols for every direction."""
    rng = rng_for(seed, STREAM_SYMBOLS)
    vectors = {}
    for pair in ordered_pairs(plan.K):
        length = plan.stream_lengths[pair]
        vectors[pair] = complex_normal(rng, length)
    return StreamSymbols(plan.K, vectors)


def uplink_precode(u_j, hr: NormalizedRightMppi) -> np.ndarray:
    """Transmit vector x_j = Hr @ u_j (length M) for one channel use."""
    u_j = np.asarray(u_j, dtype=np.complex128)
    if u_j.shape != (hr.matrix.shape[1],):
        raise DimensionError(f"slot word shape {u_j.shape} != ({hr.matrix.shape[1]},)")
    return hr.matrix @ u_j


def relay_observe(cfg: SystemConfig, ch: ChannelSet, us, noise=None):
    """Relay observation for one channel use: sum_j alpha_j u_j plus noise.

    Each user precodes its length-N chunk `us[j-1]` with the channel draw's
    right inverse. Returns (y, power_ok), where power_ok says that every
    user's transmit vector passed `check_power` against cfg.P.
    """
    if len(us) != cfg.K:
        raise DimensionError(f"expected {cfg.K} user words, got {len(us)}")
    xs = [uplink_precode(u, hr) for u, hr in zip(us, ch.precoders[0])]
    power_ok = all(check_power(x, cfg.P) for x in xs)
    return uplink_propagate(ch, xs, noise), power_ok


def network_coded_word(words, alphas) -> np.ndarray:
    """Ground-truth relay word w = sum_j alpha_j * (user j's slot word).

    Slot {j,k} holds alpha_j*u_jk + alpha_k*u_kj; the padding tail is zero.
    """
    word = np.zeros(words[0].shape[0], dtype=np.complex128)
    for alpha, w in zip(alphas, words):
        word += alpha * w
    return word


def relay_decode(y_word, plan: StreamPlan, mode: str, true_word=None) -> np.ndarray:
    """Relay's estimate of the network-coded word.

    genie: returns the supplied ground-truth word (ideal lattice decoding).
    raw:   passes the observation through, zeroing the padding tail.
    """
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
    norm = float(np.linalg.norm(w_hat))
    if norm == 0.0:
        return np.zeros_like(w_hat), 0.0
    gamma = math.sqrt(p) / norm
    return gamma * w_hat, gamma


def user_postcode(y_k, dl: NormalizedLeftMppi) -> np.ndarray:
    """Left-inverse filtering of one received chunk: Dl @ y_k."""
    y_k = np.asarray(y_k, dtype=np.complex128)
    if y_k.shape != (dl.matrix.shape[1],):
        raise DimensionError(f"received shape {y_k.shape} != ({dl.matrix.shape[1]},)")
    return dl.matrix @ y_k


def user_recover(filtered, k: int, own_word, plan: StreamPlan, alphas, gamma: float, beta_k: float):
    """Estimates v_jk for all partners j != k from user k's filtered word.

    Undo the relay scale gamma and the downlink constant beta_k, subtract
    user k's own contribution alpha_k * own_word (its assembled slot word),
    then per pair slot divide by the partner's alpha_j and keep the first
    T*d_jk symbol positions.
    """
    filtered = np.asarray(filtered, dtype=np.complex128)
    if filtered.shape != (plan.word_length,) or np.shape(own_word) != filtered.shape:
        raise DimensionError(
            f"filtered {filtered.shape} and own word {np.shape(own_word)} != ({plan.word_length},)"
        )
    partners = [j for j in range(1, plan.K + 1) if j != k]
    for j in partners:
        denom = gamma * beta_k * alphas[j - 1]
        if abs(denom) < SCALE_UNDERFLOW:
            raise ScalarUnderflow(f"recovery scale gamma*beta*alpha = {denom:.3e} for pair ({j},{k})")
    cleaned = filtered / (gamma * beta_k) - alphas[k - 1] * own_word
    estimates = {}
    for j in partners:
        slot = extract_pair_slot(cleaned, (j, k), plan)
        estimates[(j, k)] = slot[: plan.stream_lengths[(j, k)]] / alphas[j - 1]
    return estimates


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


def expected_word_power(plan: StreamPlan, alphas) -> float:
    """E||w||^2 for unit-variance symbols: each direction adds alpha^2 per symbol."""
    total = 0.0
    for (j, k), length in plan.stream_lengths.items():
        total += (alphas[j - 1] ** 2) * length
    return total


def effective_snr(cfg: SystemConfig, ch: ChannelSet, plan: StreamPlan, mode: str = GENIE) -> SnrReport:
    """Analytic per-subchannel SNRs of the parallel two-way streams.

    Uplink: the relay sees alpha_j * v plus unit-variance noise, so direction
    j->k runs at alpha_j^2 per component. Downlink: the relay forwards with
    the deterministic scale gamma = sqrt(P / E||w||^2); after left-inverse
    filtering, word component q carries gamma^2 beta_k^2 alpha_j^2 of signal
    against the filtered noise power ||row q mod N of Dl_k||^2.

    The rate proxy counts log2(1 + SNR) per component: downlink-only SNR in
    genie mode (the relay decode is ideal), min(uplink, downlink) in raw mode.
    """
    if mode not in (GENIE, RAW):
        raise ModeUnavailable(f"unknown mode {mode!r}")
    right, left = ch.precoders
    alphas = [hr.alpha for hr in right]
    word_power = expected_word_power(plan, alphas)
    gamma_sq = cfg.P / word_power if word_power > 0 else 0.0

    noise_rows = [np.sum(np.abs(dl.matrix) ** 2, axis=1) for dl in left]  # per-user, length N

    streams, rates = {}, {}
    total_rate = 0.0
    for (j, k), length in plan.stream_lengths.items():
        if length == 0:
            continue
        off, _ = plan.slot(j, k)
        snr_up = alphas[j - 1] ** 2
        beta_k = left[k - 1].beta
        down = []
        rate = 0.0
        for i in range(length):
            row = (off + i) % cfg.N
            snr_dl = float(gamma_sq * (beta_k**2) * (alphas[j - 1] ** 2) / noise_rows[k - 1][row])
            down.append(snr_dl)
            eff = snr_dl if mode == GENIE else min(snr_up, snr_dl)
            rate += math.log2(1.0 + eff)
        rate /= plan.T
        snr_down = min(down)
        effective = snr_down if mode == GENIE else min(snr_up, snr_down)
        streams[(j, k)] = StreamSnr(uplink=snr_up, downlink=snr_down, effective=effective)
        rates[(j, k)] = rate
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


def _chunks(word: np.ndarray, n: int):
    return [word[t * n : (t + 1) * n] for t in range(word.shape[0] // n)]


def run_round(
    cfg: SystemConfig,
    ch: ChannelSet,
    plan: StreamPlan,
    symbols: StreamSymbols | None = None,
    seed: int = 0,
    mode: str = GENIE,
    noise: bool = True,
) -> RoundResult:
    """Execute one full uplink + downlink round over the stream plan `plan`.

    Symbols are sampled from (seed, symbol stream) when not supplied; noise
    from (seed, noise stream). The precoders come from `ch.precoders`.
    """
    if (plan.K, plan.N) != (cfg.K, cfg.N):
        raise DimensionError(f"plan for K={plan.K}, N={plan.N} does not fit K={cfg.K}, N={cfg.N}")
    right, left = ch.precoders
    alphas = [hr.alpha for hr in right]
    if symbols is None:
        symbols = sample_stream_symbols(plan, seed)
    symbols.check_plan(plan)
    noise_rng = rng_for(seed, STREAM_NOISE) if noise else None

    words = [assemble_uplink_symbol(j, symbols, plan) for j in range(1, cfg.K + 1)]
    truth = network_coded_word(words, alphas)

    power_ok = True
    y_parts = []
    for chunk_set in zip(*(_chunks(w, cfg.N) for w in words)):
        z = complex_normal(noise_rng, cfg.N) if noise else None
        y, use_ok = relay_observe(cfg, ch, chunk_set, z)
        power_ok = power_ok and use_ok
        y_parts.append(y)
    y_word = np.concatenate(y_parts)

    w_hat = relay_decode(y_word, plan, mode, true_word=truth)
    x_word, gamma = relay_transmit(w_hat, cfg.P)
    zero_word = gamma == 0.0
    power_ok = power_ok and all(check_power(xc, cfg.P) for xc in _chunks(x_word, cfg.N))

    estimates, rel_errors = {}, {}
    for k in range(1, cfg.K + 1):
        filt_parts = []
        for x_chunk in _chunks(x_word, cfg.N):
            z = complex_normal(noise_rng, cfg.M) if noise else None
            y_k = downlink_propagate(ch.downlink[k - 1], x_chunk, z)
            filt_parts.append(user_postcode(y_k, left[k - 1]))
        filtered = np.concatenate(filt_parts)
        if zero_word:
            # Nothing was forwarded; report zero estimates for this user.
            for j in range(1, cfg.K + 1):
                if j != k:
                    estimates[(j, k)] = np.zeros(plan.stream_lengths[(j, k)], dtype=np.complex128)
        else:
            estimates.update(
                user_recover(filtered, k, words[k - 1], plan, alphas, gamma, left[k - 1].beta)
            )

    for (j, k), v_hat in estimates.items():
        v = symbols.get(j, k)
        if v.shape[0] == 0:
            continue
        ref = float(np.linalg.norm(v))
        err = float(np.linalg.norm(v_hat - v))
        rel_errors[(j, k)] = err / ref if ref > 0 else (0.0 if err == 0 else math.inf)

    report = effective_snr(cfg, ch, plan, mode)
    return RoundResult(
        estimates=estimates,
        rel_errors=rel_errors,
        snr=report,
        gamma=gamma,
        zero_word=zero_word,
        power_ok=power_ok,
        mode=mode,
        noisy=noise,
    )
