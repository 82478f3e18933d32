"""End-to-end round tests: precoding, relay processing, recovery, SNR.

`transmit_round`, which runs every power point of a channel draw in one
stacked call, is held point by point to the one-call-at-a-time reference
round in `tests/conftest.py` bit for bit; the stage tests below check the
maths of that reference's stages (precoding, propagation, relay decode and
transmit, filtering, recovery), and of the parts of the kernel that run on
their own (`effective_snr`, the stacked error norms).
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import yrelay.transceiver
from conftest import (
    StreamSymbols,
    assemble_uplink_symbol,
    complex_normal,
    estimate,
    extract_pair_slot,
    feasible_entries,
    normalized_left_mppi,
    normalized_right_mppi,
    plans,
    precoders,
    rng_for,
    run_round,
    sample_channels,
    stream_lengths,
)
from yrelay.alignment import DofVector, build_stream_plan, ordered_pairs
from yrelay.channel import (
    STREAM_NOISE,
    ChannelBlock,
    SystemConfig,
    sample_channel_block,
)
from yrelay.errors import DimensionError, ModeUnavailable, ScalarUnderflow
from yrelay.harness import derive_seed
from yrelay.linalg import _norms
from yrelay.transceiver import (
    GENIE,
    RAW,
    RoundLayout,
    effective_snr,
    transmit_round,
)

ALL_ONES = DofVector.uniform(4, Fraction(1))
ONES_PLAN = build_stream_plan(ALL_ONES, 6)
CFG66 = SystemConfig(K=4, M=6, N=6, P=1e4)


def noise(dim, seed):
    """Unit-variance receiver noise, drawn as a round draws it."""
    return complex_normal(rng_for(seed, STREAM_NOISE), dim)


def identity_channels(k_users, n):
    eyes = np.tile(np.eye(n, dtype=np.complex128), (1, k_users, 1, 1))
    return ChannelBlock(eyes, eyes)


# ------------------------------------------------------------------- uplink


def test_precode_zero(reference_round):
    hr = normalized_right_mppi(np.eye(4))
    assert np.allclose(reference_round.uplink_precode(np.zeros(4), hr), 0.0)


def test_precode_identity_scales_by_root_n(reference_round):
    hr = normalized_right_mppi(np.eye(4))
    u = np.arange(1.0, 5.0)
    assert np.allclose(reference_round.uplink_precode(u, hr), u / 2.0)  # sqrt(N) = 2


def test_precode_inverts_channel(reference_round):
    rng = np.random.default_rng(41)
    for _ in range(20):
        h = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))) / np.sqrt(2)
        hr = normalized_right_mppi(h)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = reference_round.uplink_precode(u, hr)
        assert np.linalg.norm(h @ x - hr.alpha * u) <= 1e-9 * hr.alpha * np.linalg.norm(u)


def test_relay_observe_noise_only(reference_round):
    ch = sample_channels(CFG66, seed=1)
    z = noise(6, seed=2)
    us = [np.zeros(6)] * 4
    y, power_ok = reference_round.relay_observe(CFG66, ch, us, noise=z)
    assert np.allclose(y, z)
    assert power_ok
    with pytest.raises(DimensionError):
        reference_round.relay_observe(CFG66, ch, us[:3])


def test_relay_observe_single_user(reference_round):
    ch = sample_channels(CFG66, seed=3)
    right, _ = precoders(ch)
    rng = np.random.default_rng(4)
    u2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    us = [np.zeros(6), u2, np.zeros(6), np.zeros(6)]
    y, power_ok = reference_round.relay_observe(CFG66, ch, us)
    want = right[1].alpha * u2
    assert np.linalg.norm(y - want) <= 1e-9 * np.linalg.norm(want)
    assert power_ok
    # user 2 transmits ||Hr u2||^2 > 0; a budget below that fails the check
    energy = np.linalg.norm(right[1].matrix @ u2) ** 2
    y_low, low_ok = reference_round.relay_observe(SystemConfig(K=4, M=6, N=6, P=energy / 2), ch, us)
    assert np.array_equal(y_low, y)
    assert not low_ok


def test_relay_observe_matches_dense_oracle(reference_round):
    ch = sample_channels(CFG66, seed=5)
    right, _ = precoders(ch)
    rng = np.random.default_rng(6)
    us = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(4)]
    y, _ = reference_round.relay_observe(CFG66, ch, us)
    want = sum(h @ (hr.matrix @ u) for h, hr, u in zip(ch.uplink[0], right, us))
    assert np.allclose(y, want, rtol=1e-12)


def test_relay_observe_is_scaled_symbol_sum(reference_round):
    ch = sample_channels(CFG66, seed=7)
    right, _ = precoders(ch)
    rng = np.random.default_rng(8)
    us = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(4)]
    y, _ = reference_round.relay_observe(CFG66, ch, us)
    want = sum(hr.alpha * u for hr, u in zip(right, us))
    assert np.linalg.norm(y - want) <= 1e-9 * np.linalg.norm(want)


# -------------------------------------------------------------- relay decode


def slot_words(sym, plan):
    return [assemble_uplink_symbol(j, sym, plan) for j in range(1, plan.K + 1)]


def test_genie_decode_exact_under_noise(reference_round):
    plan = build_stream_plan(ALL_ONES, 6)
    sym = reference_round.sample_stream_symbols(plan, seed=11)
    truth = reference_round.network_coded_word(slot_words(sym, plan), [0.5, 0.4, 0.3, 0.2])
    noisy = truth + noise(6, seed=12)
    assert np.array_equal(reference_round.relay_decode(noisy, plan, GENIE, true_word=truth), truth)


def test_genie_decode_returns_a_copy_and_checks_the_observation(reference_round):
    plan = build_stream_plan(ALL_ONES, 6)
    truth = noise(6, seed=14)
    for y in (np.zeros(6), noise(6, seed=15)):  # the observation is not read
        out = reference_round.relay_decode(y, plan, GENIE, true_word=truth)
        assert out.tobytes() == truth.tobytes()
        out[0] += 1.0
        assert out[0] != truth[0]  # writing to the estimate leaves the truth alone
    with pytest.raises(DimensionError):
        reference_round.relay_decode(np.zeros(5), plan, GENIE, true_word=truth)
    with pytest.raises(DimensionError):
        reference_round.relay_decode(None, plan, RAW)


def test_raw_decode_noiseless_passthrough(reference_round):
    plan = build_stream_plan(ALL_ONES, 6)
    sym = reference_round.sample_stream_symbols(plan, seed=13)
    truth = reference_round.network_coded_word(slot_words(sym, plan), [0.5, 0.4, 0.3, 0.2])
    assert np.allclose(reference_round.relay_decode(truth, plan, RAW), truth)


def test_raw_decode_zeroes_padding_tail(reference_round):
    plan = build_stream_plan(DofVector(4, {(1, 2): Fraction(1)}), 6)
    assert plan.padding == 5
    y = np.ones(6, dtype=np.complex128)
    out = reference_round.relay_decode(y, plan, RAW)
    assert np.allclose(out[1:], 0.0)
    assert out[0] == 1.0


def test_raw_decode_error_power_matches_noise_floor(reference_round):
    # hat w - w is exactly the relay noise, unit variance per component
    plan = build_stream_plan(ALL_ONES, 6)
    sq = []
    for t in range(1000):
        ch = sample_channels(CFG66, derive_seed(9, 1, t))
        alphas = [r.alpha for r in precoders(ch)[0]]
        sym = reference_round.sample_stream_symbols(plan, derive_seed(9, 3, t))
        us = slot_words(sym, plan)
        truth = reference_round.network_coded_word(us, alphas)
        y, _ = reference_round.relay_observe(CFG66, ch, us, noise=noise(6, derive_seed(9, 4, t)))
        sq.extend(np.abs(reference_round.relay_decode(y, plan, RAW) - truth) ** 2)
    assert np.mean(sq) == pytest.approx(1.0, rel=0.10)


# ------------------------------------------------------------ relay transmit


def test_transmit_unit_word(reference_round):
    w = np.zeros(6, dtype=np.complex128)
    w[0] = 1.0
    x, gamma = reference_round.relay_transmit(w, 25.0)
    assert np.allclose(x, 5.0 * w)
    assert gamma == pytest.approx(5.0)


def test_transmit_scale_invariance(reference_round):
    rng = np.random.default_rng(14)
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x1, _ = reference_round.relay_transmit(w, 10.0)
    x2, _ = reference_round.relay_transmit(3.7 * w, 10.0)
    assert np.allclose(x1, x2, rtol=1e-12)


def test_transmit_power_exact(reference_round):
    rng = np.random.default_rng(15)
    for _ in range(20):
        w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x, _ = reference_round.relay_transmit(w, 42.0)
        assert np.linalg.norm(x) ** 2 == pytest.approx(42.0, rel=1e-12)


def test_transmit_zero_word_flagged(reference_round):
    x, gamma = reference_round.relay_transmit(np.zeros(4), 10.0)
    assert gamma == 0.0
    assert np.allclose(x, 0.0)


# ---------------------------------------------------------- downlink + recover


def test_postcode_zero_and_identity(reference_round):
    dl = normalized_left_mppi(np.eye(5))
    assert np.allclose(reference_round.user_postcode(np.zeros(5), dl), 0.0)
    y = np.arange(5.0)
    assert np.allclose(reference_round.user_postcode(y, dl), y / np.sqrt(5))


def test_postcode_noiseless_chain(reference_round):
    # relay word through D then the left inverse: exactly gamma*beta*w
    rng = np.random.default_rng(16)
    d = (rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))) / np.sqrt(2)
    dl = normalized_left_mppi(d)
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x, gamma = reference_round.relay_transmit(w, 100.0)
    got = reference_round.user_postcode(d @ x, dl)
    want = gamma * dl.beta * w
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_recover_keys_exclude_own_messages(reference_round):
    plan = build_stream_plan(ALL_ONES, 6)
    sym = reference_round.sample_stream_symbols(plan, seed=17)
    own = assemble_uplink_symbol(2, sym, plan)
    est = reference_round.user_recover(np.zeros(6), 2, own, plan, [0.5] * 4, 1.0, 0.5)
    assert set(est) == {(1, 2), (3, 2), (4, 2)}


def test_recover_zero_symbols_zero_estimates(reference_round):
    plan = build_stream_plan(ALL_ONES, 6)
    zeros = StreamSymbols(4, {p: np.zeros(1) for p in ordered_pairs(4)})
    own = assemble_uplink_symbol(1, zeros, plan)
    est = reference_round.user_recover(np.zeros(6), 1, own, plan, [0.5] * 4, 2.0, 0.5)
    for v in est.values():
        assert np.allclose(v, 0.0)


def test_recover_rejects_word_of_other_length(reference_round):
    plan = build_stream_plan(ALL_ONES, 6)
    with pytest.raises(DimensionError):
        reference_round.user_recover(np.zeros(6), 1, np.zeros(1), plan, [0.5] * 4, 1.0, 0.5)
    with pytest.raises(DimensionError):
        reference_round.user_recover(np.zeros(1), 1, np.zeros(6), plan, [0.5] * 4, 1.0, 0.5)


# ----------------------------------------------------------------- full round


def test_round_noiseless_genie_recovers_exactly():
    ch = sample_channels(CFG66, seed=19)
    res = run_round(CFG66, ch, ONES_PLAN, seed=20, mode=GENIE, noise=False)
    assert res.rel_errors.max() <= 1e-8
    assert res.power_ok[0, 0]
    assert res.gamma[0, 0] != 0.0  # not a zero relay word


def test_round_noiseless_recovery_random_feasible_targets():
    import random

    rng = random.Random(21)
    rounds = 0
    while rounds < 15:
        entries = {}
        for j, k in ordered_pairs(4):
            entries[(j, k)] = Fraction(rng.randint(0, 3), rng.choice((1, 2)))
        d = DofVector(4, entries)
        total = sum(max(d.get(j, k), d.get(k, j)) for j, k in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
        if not 0 < total <= 6:
            continue
        ch = sample_channels(CFG66, seed=100 + rounds)
        res = run_round(CFG66, ch, build_stream_plan(d, 6), seed=200 + rounds, mode=GENIE, noise=False)
        assert res.rel_errors.max() <= 1e-8
        rounds += 1


def test_round_high_power_limit():
    # with P = 1e9 the downlink noise is negligible; Monte Carlo mean of the
    # relative error stays under 1e-3
    cfg = SystemConfig(K=4, M=6, N=6, P=1e9)
    means = []
    for t in range(100):
        ch = sample_channels(cfg, derive_seed(77, 1, t))
        res = run_round(cfg, ch, ONES_PLAN, seed=derive_seed(77, 2, t), mode=GENIE, noise=True)
        means.append(np.mean(res.rel_errors[0, 0]))
    assert np.mean(means) < 1e-3


def test_round_rejects_plan_of_other_shape(monkeypatch):
    # a layout whose K, N or M differs from the block's is refused before any
    # draw, by a round and by the analytic SNR alone
    ch = sample_channels(CFG66, seed=22)
    monkeypatch.setattr(yrelay.transceiver, "seeded_normals", lambda *args: pytest.fail("drew normals"))
    with pytest.raises(DimensionError):
        run_round(CFG66, ch, build_stream_plan(DofVector(4, {(1, 2): 1}), 5), seed=23)
    for layout in (
        RoundLayout(build_stream_plan(DofVector(4, {(1, 2): 1}), 5), 6),  # N = 5
        RoundLayout(build_stream_plan(DofVector(3, {(1, 2): 1}), 6), 6),  # K = 3
        RoundLayout(ONES_PLAN, 7),  # M = 7
    ):
        with pytest.raises(DimensionError, match="does not fit"):
            transmit_round(ch, layout, [CFG66.P], [23])
        with pytest.raises(DimensionError, match="does not fit"):
            effective_snr(ch, layout, [CFG66.P])


def test_round_symbol_extension():
    d = DofVector(4, {(1, 2): Fraction(3, 2), (2, 1): Fraction(1, 2), (3, 4): Fraction(2)})
    ch = sample_channels(CFG66, seed=24)
    res = run_round(CFG66, ch, build_stream_plan(d, 6), seed=25, mode=GENIE, noise=False)
    assert res.rel_errors.max() <= 1e-8
    active = {p for p in res.layout.estimate_order if estimate(res, p).shape[0] > 0}
    assert active == {(1, 2), (2, 1), (3, 4)}
    assert estimate(res, (1, 2)).shape == (3,)  # T*d_12 = 2 * 3/2


def test_round_raw_noiseless_also_exact():
    ch = sample_channels(CFG66, seed=26)
    res = run_round(CFG66, ch, ONES_PLAN, seed=27, mode=RAW, noise=False)
    assert res.rel_errors.max() <= 1e-8


def test_round_transmit_powers_within_budget():
    for t in range(10):
        ch = sample_channels(CFG66, seed=300 + t)
        res = run_round(CFG66, ch, ONES_PLAN, seed=400 + t, mode=GENIE, noise=True)
        assert res.power_ok[0, 0]
        assert res.gamma[0, 0] > 0


def test_self_interference_fully_cancelled():
    # forward streams silent, reverse streams active: the recovered forward
    # estimates are pure cancellation residue
    plan = build_stream_plan(ALL_ONES, 6)
    rng = np.random.default_rng(28)
    data = {}
    for j, k in ordered_pairs(4):
        if j < k:
            data[(j, k)] = np.zeros(1, dtype=np.complex128)
        else:
            data[(j, k)] = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    sym = StreamSymbols(4, data)
    ch = sample_channels(CFG66, seed=29)
    res = run_round(CFG66, ch, ONES_PLAN, symbols=sym.flat(ONES_PLAN), seed=30, mode=GENIE, noise=False)
    scale = max(float(np.max(np.abs(v))) for (j, k), v in data.items() if j > k)
    for j, k in res.layout.estimate_order:
        if j < k:
            assert np.max(np.abs(estimate(res, (j, k)))) <= 1e-9 * scale


def test_round_json_serializable():
    import json

    ch = sample_channels(CFG66, seed=31)
    res = run_round(CFG66, ch, ONES_PLAN, seed=32, mode=GENIE, noise=True)
    blob = json.loads(json.dumps(res.to_dict(0, 0)))
    assert blob["mode"] == "genie"
    assert "1-2" in blob["rel_errors"]
    assert blob["snr"]["rate_proxy"] > 0


# ------------------------------------------------- kernel against reference

PROPERTY = settings(deadline=None, database=None, derandomize=True)


def assert_same_snr(snr, layout, d, i, want):
    """The SnrBatch entry of draw d at point i equals the reference SNRs
    `want`: (uplink, downlink, effective) triples and rates by ==, keyed by
    `layout.snr_keys` in the reference's order (a sweep sums them in that
    order)."""
    triples = zip(snr.uplink[d, i].tolist(), snr.downlink[d, i].tolist(), snr.effective[d, i].tolist())
    assert list(zip(layout.snr_keys, triples)) == list(want.streams.items())
    assert list(zip(layout.snr_keys, snr.rates[d, i].tolist())) == list(want.rates.items())
    assert snr.rate_proxy[d, i] == want.rate_proxy


def assert_same_round(rounds, d, i, want):
    """The RoundBatch entry of draw d at point i equals the reference round
    `want`: each direction's estimates by bytes, errors and SNRs by ==,
    keyed by the layout's estimate, error and SNR keys in the reference's
    order (a sweep sums them in that order)."""
    layout = rounds.layout
    assert layout.estimate_order == tuple(want.estimates)
    for key, est in want.estimates.items():
        assert estimate(rounds, key, d, i).tobytes() == est.tobytes()
    assert list(zip(layout.error_keys, rounds.rel_errors[d, i].tolist())) == list(want.rel_errors.items())
    gamma = float(rounds.gamma[d, i])
    assert (gamma, gamma == 0.0, bool(rounds.power_ok[d, i]), rounds.mode, rounds.noisy) == (
        want.gamma, want.zero_word, want.power_ok, want.mode, want.noisy)
    assert_same_snr(rounds.snr, layout, d, i, want.snr)


def entry_bytes(rounds, d, i):
    """The bytes of every array of a RoundBatch and its SnrBatch at draw d
    and point i."""
    arrays = [*vars(rounds).values(), *vars(rounds.snr).values()]
    return [a[d, i].tobytes() for a in arrays if isinstance(a, np.ndarray)]


@settings(PROPERTY, max_examples=150)
@given(plans())
def test_layout_indices_match_slot_oracle(plan):
    # word_index gathers each user's slot word as assemble_uplink_symbol lays
    # it out (symbol i carries the value i + 1, so a zero reads index -1), and
    # receive_index finds v_jk where extract_pair_slot finds it in user k's
    # word; both oracles place a pair's slot by the pair-slot rule, so a
    # wrong block offset in the plan shows here
    layout = RoundLayout(plan, plan.N)
    spans = plan.symbol_spans
    positions = StreamSymbols(plan.K, {pair: np.arange(a + 1, b + 1) for pair, (a, b) in spans.items()})
    words = [assemble_uplink_symbol(j, positions, plan).real for j in range(1, plan.K + 1)]
    assert layout.word_index.dtype == np.intp
    assert np.array_equal(layout.word_index, np.array(words).astype(np.intp) - 1)
    components = np.arange(plan.word_length)
    receive = [(k - 1) * plan.word_length + extract_pair_slot(components, (j, k), plan)[: b - a]
               for (j, k), (a, b) in spans.items()]
    assert layout.receive_index.dtype == np.intp
    assert np.array_equal(layout.receive_index, np.concatenate(receive))


@st.composite
def round_cases(draw):
    """A K = 3..5, M >= N system, a feasible plan with T = 1..4 and
    directions up to 7 symbols long (sometimes the all-zero DoF vector), a
    channel draw (sometimes built directly, so the inverses take their own
    SVD route), 1..4 power points in -10..60 dB, each with its round seed
    (half of them >= 2^63, some shared), mode, noise, and supplied or
    sampled symbols."""
    k = draw(st.integers(3, 5))
    n = draw(st.integers(1, 6))
    cfg = SystemConfig(K=k, M=n + draw(st.integers(0, 2)), N=n, P=1.0)
    t_ext = draw(st.integers(1, 4))
    entries = {}
    if draw(st.integers(0, 4)) > 0:  # else the all-zero DoF vector
        entries = feasible_entries(draw, k, n, t_ext)
    plan = build_stream_plan(DofVector(k, entries), n)
    ch = sample_channels(cfg, seed=draw(st.integers(0, 2**64 - 1)))
    if draw(st.booleans()):
        ch = ChannelBlock(ch.uplink, ch.downlink)
    symbols = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        symbols = StreamSymbols(k, {
            pair: rng.standard_normal(size) + 1j * rng.standard_normal(size)
            for pair, size in stream_lengths(plan).items()
        })
    points = draw(st.integers(1, 4))
    powers = [10.0 ** (draw(st.integers(-10, 60)) / 10.0) for _ in range(points)]
    seed = st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**64 - 1))
    seeds = [draw(seed) for _ in range(points)]
    if points > 1 and draw(st.booleans()):
        seeds[1] = seeds[0]
    return dict(cfg=cfg, ch=ch, plan=plan, symbols=symbols, powers=powers, seeds=seeds,
                mode=draw(st.sampled_from((GENIE, RAW))), noise=draw(st.booleans()))


# A noisy raw round of a non-square system whose T = 4 word (24 components)
# ends in an 18-component padding tail.
CFG76 = SystemConfig(K=4, M=7, N=6, P=1.0)
PADDED_RAW_CASE = dict(
    cfg=CFG76, ch=sample_channels(CFG76, seed=47),
    plan=build_stream_plan(DofVector(4, {(1, 2): Fraction(1), (2, 1): Fraction(3, 4), (3, 4): Fraction(1, 2)}), 6),
    symbols=None, powers=[0.1, 100.0, 1e5], seeds=[48, 2**63 + 49, 48], mode=RAW, noise=True)


@settings(PROPERTY, max_examples=80)
@given(round_cases())
@example(PADDED_RAW_CASE)
def test_round_matches_reference(reference_round, case):
    # one stacked call runs every point, as a sweep does for one channel draw;
    # each point equals the round run alone, and a layout serves two calls
    cfg, ch, plan = case["cfg"], case["ch"], case["plan"]
    layout = RoundLayout(plan, cfg.M)
    mode, noise, symbols = case["mode"], case["noise"], case["symbols"]
    flat = None if symbols is None else symbols.flat(plan)
    for powers, seeds in ((case["powers"], case["seeds"]), (case["powers"][::-1], case["seeds"][::-1])):
        rounds = transmit_round(ch, layout, powers, seeds, flat, mode, noise)
        for i, (p, seed) in enumerate(zip(powers, seeds)):
            want = reference_round.run(SystemConfig(K=cfg.K, M=cfg.M, N=cfg.N, P=p), ch, plan, symbols, seed, mode, noise)
            assert_same_round(rounds, 0, i, want)


@pytest.mark.parametrize("mode", (GENIE, RAW))
@pytest.mark.parametrize("noise", (True, False))
@pytest.mark.parametrize("k, m, n, dof", [(4, 6, 6, "1"), (5, 8, 6, "1/4"), (3, 4, 3, "0")])
def test_block_of_draws_matches_draws_alone(k, m, n, dof, mode, noise):
    # one call over a block of draws (sampled together, and the same draws
    # with one built directly from matrices of two others) runs each draw's
    # rounds as a call over that draw alone, with its points in reverse, to
    # the byte and in `simulate`'s rendering of each draw and point
    cfg = SystemConfig(K=k, M=m, N=n, P=1.0)
    layout = RoundLayout(build_stream_plan(DofVector.uniform(k, Fraction(dof)), n), m)
    draw_seeds = [50, 2**63 + 51, 52]
    drawn = sample_channel_block(cfg, draw_seeds)
    built = ChannelBlock(drawn.uplink[:1], drawn.downlink[2:])  # uplink of draw 0, downlink of draw 2
    block = ChannelBlock(np.concatenate([drawn.uplink, built.uplink]), np.concatenate([drawn.downlink, built.downlink]))
    powers = [1.0, 1e3, 1e6]
    seeds = [[derive_seed(53, d, i) for i in range(len(powers))] for d in range(len(block.uplink))]
    alone = [transmit_round(ch, layout, powers[::-1], seeds[d][::-1], mode=mode, noise=noise)
             for d, ch in enumerate([sample_channels(cfg, seed) for seed in draw_seeds] + [built])]
    for whole in (drawn, block):
        draws = len(whole.uplink)
        rounds = transmit_round(whole, layout, powers, sum(seeds[:draws], []), mode=mode, noise=noise)
        assert rounds.gamma.shape == (draws, len(powers))
        for d in range(draws):
            for i in range(len(powers)):
                assert entry_bytes(rounds, d, i) == entry_bytes(alone[d], 0, -1 - i)
                assert rounds.to_dict(d, i) == alone[d].to_dict(0, -1 - i)
    with pytest.raises(ValueError):
        transmit_round(block, layout, powers, seeds[0], mode=mode, noise=noise)


@pytest.mark.parametrize("mode", (GENIE, RAW))
@pytest.mark.parametrize("noise", (True, False))
def test_zero_dof_round_matches_reference(reference_round, mode, noise):
    cfg = SystemConfig(K=3, M=4, N=3, P=10.0)
    ch = sample_channels(cfg, seed=36)
    plan = build_stream_plan(DofVector(3, {}), 3)
    got = run_round(cfg, ch, plan, seed=37, mode=mode, noise=noise)
    assert got.gamma[0, 0] == 0.0 and got.rel_errors.shape == (1, 1, 0)
    assert_same_round(got, 0, 0, reference_round.run(cfg, ch, plan, seed=37, mode=mode, noise=noise))


def test_stacked_norms_match_one_row_at_a_time():
    # one BLAS dot per row, as np.linalg.norm runs on one vector; from length
    # 4 on, OpenBLAS's strided dot unrolls, so the order of the sum matters
    rng = np.random.default_rng(42)
    for length in range(1, 41):
        flat = rng.standard_normal((3, 5 * length)) + 1j * rng.standard_normal((3, 5 * length))
        flat[0, :length] *= 1e-3 * rng.standard_normal(length)  # rows of unequal scale
        contiguous = flat[:, : 2 * length].reshape(3, 2, length)
        gathered = flat[:, rng.permutation(5 * length)[: 2 * length].reshape(2, length)]
        for rows in (contiguous, gathered):
            got = _norms(rows)
            assert got.shape == (3, 2)
            for i in range(3):
                for g in range(2):
                    x = np.ascontiguousarray(rows[i, g])
                    one = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
                    assert got[i, g] == one == np.linalg.norm(x)


def test_round_rejects_symbols_of_other_length():
    # supplied symbols are one flat vector of every direction's symbols
    ch, layout = sample_channels(CFG66, seed=38), RoundLayout(ONES_PLAN, 6)
    rounds = transmit_round(ch, layout, [1.0], [5], np.ones(12), noise=False)
    assert rounds.rel_errors[0, 0, layout.error_keys.index((1, 2))] < 1e-8
    for bad in (np.ones(11), np.ones(13), np.ones((1, 12)), np.ones(0)):
        with pytest.raises(DimensionError):
            transmit_round(ch, layout, [1.0], [5], bad)
    with pytest.raises(DimensionError):
        run_round(CFG66, ch, ONES_PLAN, symbols=np.ones(11))


def test_round_rejects_points_without_seeds(monkeypatch):
    ch, layout = sample_channels(CFG66, seed=38), RoundLayout(ONES_PLAN, 6)
    with pytest.raises(ValueError):
        transmit_round(ch, layout, [1.0, 10.0], [5])
    # an unknown mode is refused before any draw
    monkeypatch.setattr(yrelay.transceiver, "seeded_normals", lambda *args: pytest.fail("drew normals"))
    with pytest.raises(ModeUnavailable):
        transmit_round(ch, layout, [1.0], [5], mode="telepathy")


def test_zero_power_point_forwards_nothing(reference_round):
    # P = 0 (a sweep point at -4000 dB) leaves gamma = 0: that point's word is
    # not forwarded and its estimates are zero, while the other points of the
    # same call run as they would alone
    ch = sample_channels(CFG66, seed=40)
    layout = RoundLayout(ONES_PLAN, 6)
    powers, seeds = [1e3, 0.0, 1e5], [41, 42, 43]
    for mode in (GENIE, RAW):
        rounds = transmit_round(ch, layout, powers, seeds, mode=mode)
        for i, (p, seed) in enumerate(zip(powers, seeds)):
            cfg = SimpleNamespace(K=4, M=6, N=6, P=p)  # SystemConfig rejects P = 0
            assert_same_round(rounds, 0, i, reference_round.run(cfg, ch, ONES_PLAN, None, seed, mode, True))
        assert (rounds.gamma[0] == 0.0).tolist() == [False, True, False]  # zero relay words


def test_underflowing_recovery_scale_raises_as_alone(reference_round):
    # a point whose gamma*beta*alpha underflows raises the error a lone round
    # raises, pair included, even behind a point that recovers
    ch = sample_channels(CFG66, seed=44)
    rng = np.random.default_rng(45)
    sym = StreamSymbols(4, {pair: 1e150 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
                            for pair in ordered_pairs(4)})
    with pytest.raises(ScalarUnderflow) as want:
        reference_round.run(SystemConfig(K=4, M=6, N=6, P=1e-300), ch, ONES_PLAN, sym, 46, GENIE, False)
    layout = RoundLayout(ONES_PLAN, 6)
    with pytest.raises(ScalarUnderflow) as got:
        transmit_round(ch, layout, [1.0, 1e-300], [46, 46], sym.flat(ONES_PLAN), GENIE, False)
    assert str(got.value) == str(want.value)
    assert transmit_round(ch, layout, [1.0], [46], sym.flat(ONES_PLAN), GENIE, False).gamma[0, 0] > 0


def test_overflowing_error_norm_raises_with_its_pair():
    # at P = 1e-323 W the recovery scale (about 1e-162) passes SCALE_UNDERFLOW,
    # but the noise divided by it overflows the error norms: the call raises
    # with the pair and its scale, with no overflow warning; without noise the
    # same point recovers
    cfg = SystemConfig(K=3, M=3, N=3, P=1.0)
    ch, layout = sample_channels(cfg, seed=54), RoundLayout(build_stream_plan(DofVector.uniform(3, 1), 3), 3)
    with pytest.raises(ScalarUnderflow, match=r"= \S+e-16\d for pair \(\d,\d\): error norm overflows$"):
        transmit_round(ch, layout, [1.0, 1e-323], [55, 56])
    assert transmit_round(ch, layout, [1e-323], [56], noise=False).rel_errors.max() < 1e-8


def test_overflowing_downlink_snr_raises_with_its_draw():
    # alpha near 1e-150 and beta near 1e150 both pass the 2^512 bound, but
    # gamma^2 (about 1e300) times beta^2 leaves the float range: the block
    # is refused with the draw and the direction, with no overflow warning
    # (pytest makes one an error) and no infinite SNR
    cfg = SystemConfig(K=3, M=4, N=3, P=1.0)
    ch, layout = sample_channels(cfg, seed=1), RoundLayout(build_stream_plan(DofVector.uniform(3, 1), 3), 4)
    scaled = ChannelBlock(ch.uplink / 1e150, ch.downlink * 1e150)
    both = ChannelBlock(np.concatenate((ch.uplink, scaled.uplink)), np.concatenate((ch.downlink, scaled.downlink)))
    for block, draw in ((scaled, 0), (both, 1)):
        message = rf"^draw {draw}: downlink SNR of direction \(1,2\) overflows$"
        for mode in (GENIE, RAW):
            for run in (lambda: effective_snr(block, layout, [1.0], mode),
                        lambda: transmit_round(block, layout, [1.0], [1] * len(block.uplink), mode=mode)):
                with pytest.raises(ScalarUnderflow, match=message) as exc:
                    run()
                assert exc.value.index == draw
    assert np.isfinite(effective_snr(ch, layout, [1.0]).downlink).all()


# ------------------------------------------------------------------- SNR math


def test_identity_channel_snr_closed_form():
    # H = D = I, all-ones target: every alpha = beta = 1/sqrt(6),
    # E||w||^2 = 2, gamma^2 = P/2, downlink SNR = P/12 per component
    p = 250.0
    cfg = SystemConfig(K=4, M=6, N=6, P=p)
    ch = identity_channels(4, 6)
    plan = build_stream_plan(ALL_ONES, 6)
    snr = effective_snr(ch, RoundLayout(plan, cfg.M), [cfg.P], GENIE)
    assert snr.effective.shape == (1, 1, 12)
    for up, down, eff in zip(snr.uplink[0, 0].tolist(), snr.downlink[0, 0].tolist(), snr.effective[0, 0].tolist()):
        assert down == pytest.approx(p / 12.0, rel=1e-12)
        assert eff == pytest.approx(p / 12.0, rel=1e-12)
        assert up == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert snr.rate_proxy[0, 0] == pytest.approx(12 * math.log2(1 + p / 12.0), rel=1e-12)


def test_snr_matches_reference_over_many_draws(reference_round):
    # log2 runs per component through math.log2, as a lone round's loop ran
    # it; np.log2 rounds about one value in a thousand differently, which
    # 300 draws at 7 powers (25200 components) show
    plan = build_stream_plan(ALL_ONES, 6)
    layout = RoundLayout(plan, 6)
    powers = [10.0 ** (db / 10.0) for db in range(0, 61, 10)]
    for t in range(300):
        ch = sample_channels(CFG66, derive_seed(39, 1, t))
        mode = (GENIE, RAW)[t % 2]
        snr = effective_snr(ch, layout, powers, mode)
        for i, p in enumerate(powers):
            want = reference_round.effective_snr(SystemConfig(K=4, M=6, N=6, P=p), ch, plan, mode)
            assert_same_snr(snr, layout, 0, i, want)


def test_snr_linear_in_power():
    ch = sample_channels(CFG66, seed=33)
    plan = build_stream_plan(ALL_ONES, 6)
    snr = effective_snr(ch, RoundLayout(plan, CFG66.M), [CFG66.P, 2e4], GENIE)
    base, doubled = snr.effective[0].tolist()
    assert len(base) == 12
    for b, twice in zip(base, doubled):
        assert twice == 2 * b


def test_raw_mode_takes_bottleneck():
    ch = sample_channels(CFG66, seed=34)
    plan = build_stream_plan(ALL_ONES, 6)
    snr = effective_snr(ch, RoundLayout(plan, CFG66.M), [CFG66.P], RAW)
    assert snr.effective.shape == (1, 1, 12)
    for up, down, eff in zip(snr.uplink[0, 0].tolist(), snr.downlink[0, 0].tolist(), snr.effective[0, 0].tolist()):
        assert eff == min(up, down)


def test_snr_skips_silent_directions():
    d = DofVector(4, {(1, 2): Fraction(2), (2, 1): Fraction(1)})
    ch = sample_channels(CFG66, seed=35)
    plan = build_stream_plan(d, 6)
    layout = RoundLayout(plan, CFG66.M)
    assert set(layout.snr_keys) == {(1, 2), (2, 1)}
    assert effective_snr(ch, layout, [CFG66.P], GENIE).effective.shape == (1, 1, 2)
