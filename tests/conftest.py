"""Shared test helpers, the brute-force region oracles that the subset-DP
and cutting-plane tools in `yrelay.dofregion` are checked against, the
matrix-by-matrix channel draw and pseudo-inverse that
`yrelay.channel.sample_channels` and `yrelay.linalg._unit_pinv` are checked
against, the numpy key conversion that `yrelay.channel.reset_rng` is checked
against, the reference round that `yrelay.transceiver.transmit_round` is
checked against, and the trial-by-trial sweep that
`yrelay.harness.run_sweep` is checked against."""

import functools
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from yrelay import __version__
from yrelay.alignment import (
    DofVector,
    build_stream_plan,
    StreamSymbols,
    assemble_uplink_symbol,
    extract_pair_slot,
    ordered_pairs,
    user_pairs,
)
import yrelay.channel
from yrelay.channel import (
    POWER_CHECK_SLACK,
    STREAM_CHANNEL,
    STREAM_NOISE,
    STREAM_SYMBOLS,
    complex_normal,
    rng_for,
)
from yrelay.dofregion import MembershipVerdict, construction_feasible, permutation_constraint
from yrelay.errors import DimensionError, GenerationFailed, ModeUnavailable, RankDeficient, ScalarUnderflow
from yrelay.harness import SUBSEED_CHANNEL, SUBSEED_ROUND, SweepReport, SweepRow, db_to_linear, derive_seed, fit_slope
from yrelay.linalg import GRAM_COND_LIMIT, RANK_TOL, as_complex_matrix, left_sum
from yrelay.simplex import solve_max, verify_certificate
from yrelay.transceiver import (
    GENIE,
    RAW,
    SCALE_UNDERFLOW,
    RoundContext,
    RoundLayout,
    RoundResult,
    SnrReport,
    StreamSnr,
    transmit_round,
)


@pytest.fixture
def relabel():
    """Apply a user permutation sigma (a mapping 1..K -> 1..K) to both
    indices of every entry of a DoF vector."""

    def apply(d: DofVector, sigma) -> DofVector:
        return DofVector(d.K, {(sigma[j], sigma[k]): v for (j, k), v in d.items()})

    return apply


def _brute_membership(d, spec) -> MembershipVerdict:
    """Walk all K! orderings in lexicographic order: the first violating one
    is the witness; for a member, collect the tight ones."""
    bound = Fraction(spec.N)
    tight = []
    best = Fraction(0)
    for p in itertools.permutations(range(1, spec.K + 1)):
        value = permutation_constraint(d, p)
        best = max(best, value)
        if value > bound:
            return MembershipVerdict(member=False, witness=(p, value), tight=(), max_value=value)
        if value == bound:
            tight.append(p)
    return MembershipVerdict(member=True, witness=None, tight=tuple(tight), max_value=best)


def _all_ordering_rows(k_users):
    """0/1 constraint matrix: one row per permutation, columns in `ordered_pairs` order."""
    index = {pair: i for i, pair in enumerate(ordered_pairs(k_users))}
    rows = []
    for p in itertools.permutations(range(1, k_users + 1)):
        row = [Fraction(0)] * len(index)
        for a in range(k_users):
            for b in range(a + 1, k_users):
                row[index[(p[a], p[b])]] = Fraction(1)
        rows.append(row)
    return rows


@functools.cache
def _full_row_lp(objective: tuple, k_users: int, n_relay: int):
    """Exact max of objective . d over all K! ordering rows, certificate
    verified; (value, maximizer)."""
    rows = _all_ordering_rows(k_users)
    rhs = [Fraction(n_relay)] * len(rows)
    res = solve_max(list(objective), rows, rhs)
    verify_certificate(list(objective), rows, rhs, res)
    return res.value, DofVector(k_users, dict(zip(ordered_pairs(k_users), res.x)))


def _full_row_gap(spec):
    """The gap probe with every LP over all K! rows: the maximizer of the
    first direction selection (in `itertools.product` order) whose optimum
    exceeds N, or None."""
    pairs = user_pairs(spec.K)
    index = {pair: i for i, pair in enumerate(ordered_pairs(spec.K))}
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        objective = [Fraction(0)] * len(index)
        for (j, k), rev in zip(pairs, bits):
            objective[index[(k, j) if rev else (j, k)]] = Fraction(1)
        value, witness = _full_row_lp(tuple(objective), spec.K, spec.N)
        if value > spec.N:
            assert not construction_feasible(witness, spec.N)[0]
            assert _brute_membership(witness, spec).member
            return witness
    return None


@pytest.fixture(scope="session")
def brute_membership():
    """is_member by enumeration of all K! orderings."""
    return _brute_membership


@pytest.fixture(scope="session")
def full_row_lp():
    """(objective, K, N) -> (value, maximizer) of the LP over all K! rows."""
    return lambda objective, k_users, n_relay: _full_row_lp(tuple(objective), k_users, n_relay)


@pytest.fixture(scope="session")
def full_row_gap():
    """find_construction_gap with every LP over all K! rows."""
    return _full_row_gap


# ----------------------------------------------------- reference Philox key


def _numpy_philox_key(seed, stream):
    """The key numpy's `Philox(key=[seed, stream])` builds from a list: a
    float64 array when an entry is >= 2^63, cast to uint64 (the cast of a
    value rounded up to 2^64 depends on the platform and warns, silenced
    here)."""
    with np.errstate(invalid="ignore"):
        return np.asarray([seed & (2**64 - 1), stream & (2**64 - 1)]).astype(np.uint64)


@pytest.fixture(scope="session")
def numpy_philox_key():
    """(seed, stream) -> the uint64 key numpy builds from `[seed, stream]`."""
    return _numpy_philox_key


# ------------------------------------------------- reference channel draw
# One matrix at a time: each drawn by its own `complex_normal` call, checked
# by its own SVD and inverted alone.


def _reference_unit_pinv(a, right, sv=None):
    """Unit-Frobenius pseudo-inverse of one matrix: (c * G, c)."""
    a = as_complex_matrix(a)
    side, (n, m) = ("right", a.shape) if right else ("left", a.shape[::-1])
    if n > m:
        want = "wide" if right else "tall"
        raise DimensionError(f"{side} inverse needs a {want} matrix, got {a.shape[0]}x{a.shape[1]}")
    s = np.linalg.svd(a, compute_uv=False) if sv is None else sv
    if not (s[0] > 0 and s[-1] / s[0] >= RANK_TOL):
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


def _reference_channels(cfg, seed):
    """K uplink then K downlink matrices, one `complex_normal` call per try,
    each checked by `yrelay.channel.well_conditioned` (looked up at call time,
    so a test can replace it) and redrawn up to 100 times; with every
    matrix's singular values and its inverse from `_reference_unit_pinv`."""
    rng = rng_for(seed, STREAM_CHANNEL)
    singular_values = []

    def draw(shape):
        for _ in range(100):
            m = complex_normal(rng, shape)
            s = np.linalg.svd(m, compute_uv=False)
            if yrelay.channel.well_conditioned(s):
                singular_values.append(s)
                return m
        raise GenerationFailed(f"no full-rank {shape} draw in 100 tries")

    uplink = tuple(draw((cfg.N, cfg.M)) for _ in range(cfg.K))
    downlink = tuple(draw((cfg.M, cfg.N)) for _ in range(cfg.K))
    s = singular_values
    right = [_reference_unit_pinv(h, True, sv) for h, sv in zip(uplink, s)]
    left = [_reference_unit_pinv(d, False, sv) for d, sv in zip(downlink, s[cfg.K :])]
    return SimpleNamespace(uplink=uplink, downlink=downlink, singular_values=s, right=right, left=left)


@pytest.fixture(scope="session")
def reference_pinv():
    """`_unit_pinv` for one matrix, as it was before it took stacks."""
    return _reference_unit_pinv


@pytest.fixture(scope="session")
def reference_channels():
    """`sample_channels` one matrix at a time: (cfg, seed) -> namespace of
    uplink, downlink, singular_values, right and left ((matrix, scale) pairs)."""
    return _reference_channels


# ------------------------------------------------------------ reference round
# The round one call at a time: per user and channel use, symbols and noise
# drawn per block, the analytic SNR recomputed from the precoders. The
# propagation and power-check helpers are the single-vector forms.


def _check_power(x, p):
    energy = float(np.sum(np.abs(np.asarray(x, dtype=np.complex128)) ** 2))
    return energy <= p * (1.0 + POWER_CHECK_SLACK)


def _uplink_propagate(ch, x, noise=None):
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
        y += np.asarray(noise, dtype=np.complex128)
    return y


def _downlink_propagate(d_k, x_r, noise=None):
    y = np.asarray(d_k, dtype=np.complex128) @ np.asarray(x_r, dtype=np.complex128)
    if noise is not None:
        y += np.asarray(noise, dtype=np.complex128)
    return y


def _sample_stream_symbols(plan, seed):
    """Unit-variance complex Gaussian codeword symbols for every direction."""
    rng = rng_for(seed, STREAM_SYMBOLS)
    return StreamSymbols(plan.K, {pair: complex_normal(rng, plan.stream_lengths[pair])
                                  for pair in ordered_pairs(plan.K)})


def _uplink_precode(u_j, hr):
    """Transmit vector x_j = Hr @ u_j (length M) for one channel use."""
    u_j = np.asarray(u_j, dtype=np.complex128)
    if u_j.shape != (hr.matrix.shape[1],):
        raise DimensionError(f"slot word shape {u_j.shape} != ({hr.matrix.shape[1]},)")
    return hr.matrix @ u_j


def _relay_observe(cfg, ch, us, noise=None):
    """(sum_j alpha_j u_j plus noise, every transmit vector within cfg.P) for one channel use."""
    if len(us) != cfg.K:
        raise DimensionError(f"expected {cfg.K} user words, got {len(us)}")
    xs = [_uplink_precode(u, hr) for u, hr in zip(us, ch.precoders[0])]
    power_ok = all(_check_power(x, cfg.P) for x in xs)
    return _uplink_propagate(ch, xs, noise), power_ok


def _network_coded_word(words, alphas):
    """Ground-truth relay word w = sum_j alpha_j * (user j's slot word)."""
    word = np.zeros(words[0].shape[0], dtype=np.complex128)
    for alpha, w in zip(alphas, words):
        word += alpha * w
    return word


def _relay_decode(y_word, plan, mode, true_word=None):
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


def _relay_transmit(w_hat, p):
    w_hat = np.asarray(w_hat, dtype=np.complex128)
    norm = float(np.linalg.norm(w_hat))
    if norm == 0.0:
        return np.zeros_like(w_hat), 0.0
    gamma = math.sqrt(p) / norm
    return gamma * w_hat, gamma


def _user_postcode(y_k, dl):
    """Left-inverse filtering of one received chunk: Dl @ y_k."""
    y_k = np.asarray(y_k, dtype=np.complex128)
    if y_k.shape != (dl.matrix.shape[1],):
        raise DimensionError(f"received shape {y_k.shape} != ({dl.matrix.shape[1]},)")
    return dl.matrix @ y_k


def _user_recover(filtered, k, own_word, plan, alphas, gamma, beta_k):
    """Estimates v_jk for all partners j != k from user k's filtered word."""
    filtered = np.asarray(filtered, dtype=np.complex128)
    if filtered.shape != (plan.word_length,) or np.shape(own_word) != filtered.shape:
        raise DimensionError(
            f"filtered {filtered.shape} and own word {np.shape(own_word)} != ({plan.word_length},)")
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


def _effective_snr(cfg, ch, plan, mode=GENIE):
    if mode not in (GENIE, RAW):
        raise ModeUnavailable(f"unknown mode {mode!r}")
    right, left = ch.precoders
    alphas = [hr.alpha for hr in right]
    word_power = 0.0
    for (j, k), length in plan.stream_lengths.items():
        word_power += (alphas[j - 1] ** 2) * length
    gamma_sq = cfg.P / word_power if word_power > 0 else 0.0
    noise_rows = [np.sum(np.abs(dl.matrix) ** 2, axis=1) for dl in left]
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


def _chunks(word, n):
    return [word[t * n : (t + 1) * n] for t in range(word.shape[0] // n)]


def _run_round(cfg, ch, plan, symbols=None, seed=0, mode=GENIE, noise=True):
    if (plan.K, plan.N) != (cfg.K, cfg.N):
        raise DimensionError(f"plan for K={plan.K}, N={plan.N} does not fit K={cfg.K}, N={cfg.N}")
    right, left = ch.precoders
    alphas = [hr.alpha for hr in right]
    if symbols is None:
        symbols = _sample_stream_symbols(plan, seed)
    symbols.check_plan(plan)
    noise_rng = rng_for(seed, STREAM_NOISE) if noise else None

    words = [assemble_uplink_symbol(j, symbols, plan) for j in range(1, cfg.K + 1)]
    truth = _network_coded_word(words, alphas)

    power_ok = True
    y_parts = []
    for chunk_set in zip(*(_chunks(w, cfg.N) for w in words)):
        z = complex_normal(noise_rng, cfg.N) if noise else None
        y, use_ok = _relay_observe(cfg, ch, chunk_set, z)
        power_ok = power_ok and use_ok
        y_parts.append(y)
    y_word = np.concatenate(y_parts)

    w_hat = _relay_decode(y_word, plan, mode, true_word=truth)
    x_word, gamma = _relay_transmit(w_hat, cfg.P)
    zero_word = gamma == 0.0
    power_ok = power_ok and all(_check_power(xc, cfg.P) for xc in _chunks(x_word, cfg.N))

    estimates, rel_errors = {}, {}
    for k in range(1, cfg.K + 1):
        filt_parts = []
        for x_chunk in _chunks(x_word, cfg.N):
            z = complex_normal(noise_rng, cfg.M) if noise else None
            y_k = _downlink_propagate(ch.downlink[k - 1], x_chunk, z)
            filt_parts.append(_user_postcode(y_k, left[k - 1]))
        filtered = np.concatenate(filt_parts)
        if zero_word:
            for j in range(1, cfg.K + 1):
                if j != k:
                    estimates[(j, k)] = np.zeros(plan.stream_lengths[(j, k)], dtype=np.complex128)
        else:
            estimates.update(
                _user_recover(filtered, k, words[k - 1], plan, alphas, gamma, left[k - 1].beta))

    for (j, k), v_hat in estimates.items():
        v = symbols.get(j, k)
        if v.shape[0] == 0:
            continue
        ref = float(np.linalg.norm(v))
        err = float(np.linalg.norm(v_hat - v))
        rel_errors[(j, k)] = err / ref if ref > 0 else (0.0 if err == 0 else math.inf)

    return RoundResult(
        estimates=estimates,
        rel_errors=rel_errors,
        snr=_effective_snr(cfg, ch, plan, mode),
        gamma=gamma,
        zero_word=zero_word,
        power_ok=power_ok,
        mode=mode,
        noisy=noise,
    )


@pytest.fixture(scope="session")
def reference_round():
    """The round one call at a time. `reference_round.run(cfg, ch, plan,
    symbols, seed, mode, noise)` takes `run_round`'s arguments; its stages
    (`effective_snr(cfg, ch, plan, mode)`, `sample_stream_symbols`,
    `uplink_precode`, `relay_observe`, `network_coded_word`,
    `user_postcode`, `user_recover`) are attributes too."""
    return SimpleNamespace(
        run=_run_round,
        effective_snr=_effective_snr,
        sample_stream_symbols=_sample_stream_symbols,
        uplink_precode=_uplink_precode,
        relay_observe=_relay_observe,
        network_coded_word=_network_coded_word,
        user_postcode=_user_postcode,
        user_recover=_user_recover,
    )


# ------------------------------------------------------------ reference sweep
# The sweep one trial at a time, as it ran before trials were blocked: its own
# plan and layout, and per trial one channel draw, one context and one kernel
# call over the block of one, with the point sums added trial by trial.


class _TrialSums:
    """Running sums over the trials, one entry per power point, in trial order."""

    def __init__(self, points):
        self.snr, self.rate, self.sum_rate, self.err, self.err_max = np.zeros((5, points))
        self.violations = np.zeros(points, dtype=np.int64)

    def add(self, rounds):
        self.violations += ~rounds.power_ok
        snr = rounds.snr
        streams = snr.effective.shape[1]
        if streams:
            self.snr += left_sum(snr.effective.T) / streams
            self.rate += snr.rate_proxy / streams
        self.sum_rate += snr.rate_proxy
        errs = rounds.rel_errors
        if errs.shape[1]:
            self.err += left_sum(errs.T) / errs.shape[1]
            self.err_max = np.maximum(self.err_max, errs.max(axis=1))

    def rows(self, sweep_db, trials):
        means = (self.snr / trials, self.rate / trials, self.sum_rate / trials, self.err / trials)
        columns = [a.tolist() for a in (*means, self.err_max, self.violations)]
        return [SweepRow(float(p_db), *values) for p_db, *values in zip(sweep_db, *columns)]


def _reference_sweep(cfg):
    layout = RoundLayout(build_stream_plan(cfg.dof, cfg.system.N), cfg.system.M)
    powers = [db_to_linear(p_db) for p_db in cfg.sweep_db]
    sums = _TrialSums(len(powers))
    for t in range(cfg.trials):
        ch = yrelay.channel.sample_channels(cfg.system, derive_seed(cfg.seed, SUBSEED_CHANNEL, t))
        ctx = RoundContext([ch], layout)
        seeds = [derive_seed(cfg.seed, SUBSEED_ROUND, pi, t) for pi in range(len(powers))]
        sums.add(transmit_round(ctx, powers, seeds, mode=cfg.mode, noise=cfg.noise))
    rows = sums.rows(cfg.sweep_db, cfg.trials)
    slope = intercept = residual = None
    if len(rows) >= 3:
        slope, intercept, residual = fit_slope(
            [(math.log2(db_to_linear(r.p_db)), r.sum_rate_proxy) for r in rows])
    return SweepReport(rows=tuple(rows), slope=slope, intercept=intercept, residual=residual,
                       config=cfg.to_dict(), config_hash=cfg.digest(), seed=cfg.seed, version=__version__)


@pytest.fixture(scope="session")
def reference_sweep():
    """`run_sweep` one trial at a time: ExperimentConfig -> SweepReport."""
    return _reference_sweep
