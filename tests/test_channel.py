import dataclasses

import numpy as np
import pytest

import yrelay.channel
from yrelay.channel import (
    STREAM_NOISE,
    ChannelSet,
    SystemConfig,
    check_power,
    complex_normal,
    complex_normal_blocks,
    downlink_propagate,
    normal_block_index,
    reset_rng,
    rng_for,
    sample_channel_block,
    sample_channels,
    uplink_propagate,
)
from yrelay.errors import DimensionError, GenerationFailed, RankDeficient


def propagate_oracle(mats, xs):
    """Naive triple-loop sum_j H_j x_j, no vectorized shortcuts."""
    n = mats[0].shape[0]
    out = np.zeros(n, dtype=np.complex128)
    for h, x in zip(mats, xs):
        for r in range(h.shape[0]):
            acc = 0.0 + 0.0j
            for c in range(h.shape[1]):
                acc += h[r, c] * x[c]
            out[r] += acc
    return out


CFG = SystemConfig(K=4, M=6, N=6, P=100.0)


def noise(dim, seed):
    """Unit-variance receiver noise, drawn as a round draws it."""
    return complex_normal(rng_for(seed, STREAM_NOISE), dim)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(K=2, M=4, N=4, P=1.0)
    with pytest.raises(ValueError):
        SystemConfig(K=3, M=4, N=5, P=1.0)  # N > M
    with pytest.raises(ValueError):
        SystemConfig(K=3, M=4, N=0, P=1.0)
    with pytest.raises(ValueError):
        SystemConfig(K=3, M=4, N=4, P=0.0)


def test_same_seed_same_channels():
    a = sample_channels(CFG, seed=7)
    b = sample_channels(CFG, seed=7)
    for x, y in zip(a.uplink + a.downlink, b.uplink + b.downlink):
        assert np.array_equal(x, y)


def test_different_seed_differs():
    a = sample_channels(CFG, seed=7)
    b = sample_channels(CFG, seed=8)
    assert not np.allclose(a.uplink[0], b.uplink[0])


def test_channel_shapes():
    ch = sample_channels(CFG, seed=1)
    assert len(ch.uplink) == 4 and len(ch.downlink) == 4
    assert all(h.shape == (6, 6) for h in ch.uplink)
    assert all(d.shape == (6, 6) for d in ch.downlink)
    wide = sample_channels(SystemConfig(K=4, M=8, N=6, P=1.0), seed=1)
    assert all(h.shape == (6, 8) for h in wide.uplink)
    assert all(d.shape == (8, 6) for d in wide.downlink)


def test_sampled_precoders_match_fresh_inverses():
    # a sampled draw reuses its conditioning check's singular values: the
    # precoders equal a directly built set's bit for bit, and a replaced set
    # inverts its own matrices, not with the draw's values
    ch = sample_channels(CFG, seed=4)
    other = sample_channels(CFG, seed=5)
    cases = [
        (ch, ChannelSet(uplink=ch.uplink, downlink=ch.downlink)),
        (dataclasses.replace(ch, uplink=other.uplink), ChannelSet(uplink=other.uplink, downlink=ch.downlink)),
    ]
    for got, want in cases:
        for g, w in zip(got.precoders[0] + got.precoders[1], want.precoders[0] + want.precoders[1]):
            assert g.matrix.tobytes() == w.matrix.tobytes()
        assert [hr.alpha for hr in got.precoders[0]] == [hr.alpha for hr in want.precoders[0]]
        assert [dl.beta for dl in got.precoders[1]] == [dl.beta for dl in want.precoders[1]]
    flat = other.uplink[0].copy()
    flat[1] = flat[0]  # rank-deficient: only its own singular values show it
    with pytest.raises(RankDeficient):
        dataclasses.replace(ch, uplink=(flat,) + ch.uplink[1:]).precoders


def assert_same_draw(ch, want):
    """A sampled set equals the matrix-by-matrix reference bit for bit:
    matrices, their singular values, inverses, precoders, alpha and beta."""
    assert len(ch.uplink) == len(want.uplink) and len(ch.downlink) == len(want.downlink)
    for got, ref in zip(ch.uplink + ch.downlink, want.uplink + want.downlink):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    for mats, refs in ((ch.uplink, want.singular_values[: ch.K]), (ch.downlink, want.singular_values[ch.K :])):
        assert np.linalg.svd(np.array(mats), compute_uv=False).tobytes() == np.array(refs).tobytes()
    inv_right, alpha, inv_left, beta = ch.inverses
    assert inv_right.tobytes() == np.array([g for g, _ in want.right]).tobytes()
    assert inv_left.tobytes() == np.array([g for g, _ in want.left]).tobytes()
    assert alpha.tolist() == [c for _, c in want.right] and beta.tolist() == [c for _, c in want.left]
    right, left = ch.precoders
    for got, (matrix, _) in zip(right + left, want.right + want.left):
        assert got.matrix.tobytes() == matrix.tobytes()
    assert [hr.alpha for hr in right] == [c for _, c in want.right]
    assert [dl.beta for dl in left] == [c for _, c in want.left]


@pytest.mark.parametrize("k, m, n", [(3, 1, 1), (3, 4, 3), (4, 6, 6), (5, 8, 6), (4, 9, 2), (6, 7, 7)])
def test_blocked_draw_matches_sequential_reference(reference_channels, k, m, n):
    cfg = SystemConfig(K=k, M=m, N=n, P=1.0)
    for seed in (0, 1, 7, 2**53 + 1, 2**63 + 5, 2**64 - 2**11):
        assert_same_draw(sample_channels(cfg, seed), reference_channels(cfg, seed))


def test_redraw_matches_sequential_reference(monkeypatch, reference_channels):
    # a rejected matrix is redrawn from where the stream goes on, as a draw
    # matrix by matrix does: uplink 2 once, then its redraw too, then
    # downlink 3 (M != N, so each block changes shape when it moves up)
    cfg = SystemConfig(K=4, M=5, N=3, P=1.0)
    plain = sample_channels(cfg, 9)
    accept, rejected = yrelay.channel.well_conditioned, []
    monkeypatch.setattr(
        yrelay.channel, "well_conditioned", lambda s: accept(s) & ~np.isin(np.asarray(s)[..., 0], rejected))
    for position in (1, 1, 6):
        rejected.append(reference_channels(cfg, 9).singular_values[position][0])
        ch = sample_channels(cfg, 9)
        assert_same_draw(ch, reference_channels(cfg, 9))
        assert ch.uplink[0].tobytes() == plain.uplink[0].tobytes()
        assert ch.uplink[1].tobytes() != plain.uplink[1].tobytes()
    assert len(rejected) == 3


def test_block_draw_matches_sequential_reference(monkeypatch, reference_channels):
    # a block draws each seed's set as that seed alone draws it, also where
    # a draw inside the block redraws rejected matrices on its own stream
    cfg = SystemConfig(K=4, M=5, N=3, P=1.0)
    seeds = [8, 9, 2**63 + 5, 10]
    accept, rejected = yrelay.channel.well_conditioned, []
    monkeypatch.setattr(
        yrelay.channel, "well_conditioned", lambda s: accept(s) & ~np.isin(np.asarray(s)[..., 0], rejected))
    for seed, position in ((None, None), (9, 1), (10, 6), (10, 0)):
        if seed is not None:
            rejected.append(reference_channels(cfg, seed).singular_values[position][0])
        block = sample_channel_block(cfg, seeds)
        assert len(block) == len(seeds)
        for ch, seed in zip(block, seeds):
            assert_same_draw(ch, reference_channels(cfg, seed))


def test_redraw_budget_matches_sequential_reference(monkeypatch, reference_channels):
    cfg = SystemConfig(K=3, M=3, N=2, P=1.0)
    accept = yrelay.channel.well_conditioned
    # every matrix rejected: both give up on the first one after 100 tries
    monkeypatch.setattr(yrelay.channel, "well_conditioned", lambda s: np.zeros(np.shape(s)[:-1], dtype=bool))
    for draw in (sample_channels, reference_channels, lambda cfg, seed: sample_channel_block(cfg, [1, seed])):
        with pytest.raises(GenerationFailed, match=r"^no full-rank \(2, 3\) draw in 100 tries$"):
            draw(cfg, 3)
    # about 1 matrix in 32 accepted: long runs of redraws, some past the
    # budget (on an uplink or a downlink matrix); both agree on every outcome
    monkeypatch.setattr(
        yrelay.channel, "well_conditioned",
        lambda s: accept(s) & (np.floor(np.asarray(s)[..., 0] * 2**20) % 32 == 0))
    outcomes = []
    for seed in range(30):
        try:
            want = reference_channels(cfg, seed)
        except GenerationFailed as exc:
            with pytest.raises(GenerationFailed) as got:
                sample_channels(cfg, seed)
            assert str(got.value) == str(exc)
            outcomes.append(str(exc))
            continue
        assert_same_draw(sample_channels(cfg, seed), want)
        outcomes.append("drawn")
    assert outcomes.count("drawn") >= 10 and len(set(outcomes)) == 3


def test_entry_moments():
    ch = sample_channels(SystemConfig(K=4, M=50, N=40, P=1.0), seed=5)
    entries = np.concatenate([m.ravel() for m in ch.uplink + ch.downlink])
    assert entries.size >= 10_000
    var = np.mean(np.abs(entries) ** 2)
    assert abs(var - 1.0) < 0.05
    # circular symmetry: real and imaginary parts each carry half the power
    assert abs(np.mean(entries.real**2) - 0.5) < 0.05


def test_uplink_zero_inputs():
    ch = sample_channels(CFG, seed=2)
    xs = [np.zeros(6)] * 4
    assert np.allclose(uplink_propagate(ch, xs), 0.0)


def test_uplink_identity_passthrough():
    eye = np.eye(3, dtype=np.complex128)
    ch = ChannelSet(uplink=(eye,), downlink=(eye,))
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(uplink_propagate(ch, [e1]), e1)


def test_uplink_matches_oracle():
    rng = np.random.default_rng(11)
    ch = sample_channels(CFG, seed=3)
    for _ in range(10):
        xs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(4)]
        got = uplink_propagate(ch, xs)
        want = propagate_oracle(ch.uplink, xs)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    # a stack of channel uses: each use equals its own call, bit for bit
    stack = rng.standard_normal((4, 3, 6)) + 1j * rng.standard_normal((4, 3, 6))
    z = noise((3, 6), seed=10)
    got = uplink_propagate(ch, stack, noise=z)
    assert got.shape == (3, 6)
    for t in range(3):
        assert got[t].tobytes() == uplink_propagate(ch, list(stack[:, t]), noise=z[t]).tobytes()


def test_uplink_noise_added():
    ch = sample_channels(CFG, seed=2)
    z = noise(6, seed=9)
    xs = [np.zeros(6)] * 4
    assert np.allclose(uplink_propagate(ch, xs, noise=z), z)


def test_uplink_dimension_errors():
    ch = sample_channels(CFG, seed=2)
    with pytest.raises(DimensionError):
        uplink_propagate(ch, [np.zeros(6)] * 3)  # missing a user
    with pytest.raises(DimensionError):
        uplink_propagate(ch, [np.zeros(5)] * 4)  # wrong antenna count
    with pytest.raises(DimensionError):
        uplink_propagate(ch, [np.zeros(6)] * 4, noise=np.zeros(5))


def test_downlink_zero_and_identity():
    eye = np.eye(4, dtype=np.complex128)
    assert np.allclose(downlink_propagate(eye, np.zeros(4)), 0.0)
    v = np.arange(4.0)
    assert np.allclose(downlink_propagate(eye, v), v)


def test_downlink_matches_oracle():
    rng = np.random.default_rng(12)
    ch = sample_channels(CFG, seed=4)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    got = downlink_propagate(ch.downlink[2], x)
    want = propagate_oracle([ch.downlink[2]], [x])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # every user's matrix against a stack of relay vectors, bit for bit
    xs = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    z = noise((4, 3, 6), seed=14)
    got = downlink_propagate(np.array(ch.downlink)[:, None], xs, noise=z)
    assert got.shape == (4, 3, 6)
    for k in range(4):
        for t in range(3):
            assert got[k, t].tobytes() == downlink_propagate(ch.downlink[k], xs[t], noise=z[k, t]).tobytes()


def test_downlink_dimension_error():
    ch = sample_channels(CFG, seed=4)
    with pytest.raises(DimensionError):
        downlink_propagate(ch.downlink[0], np.zeros(5))
    with pytest.raises(DimensionError):
        downlink_propagate(ch.downlink[0], np.zeros(6), noise=np.zeros(5))


def test_propagation_linearity():
    ch = sample_channels(CFG, seed=6)
    rng = np.random.default_rng(13)
    for _ in range(5):
        xs = [rng.standard_normal(6) * (1 + 1j) for _ in range(4)]
        ys = [rng.standard_normal(6) * (1 - 2j) for _ in range(4)]
        a, b = 2.5, -1.25 + 0.5j
        combo = uplink_propagate(ch, [a * x + b * y for x, y in zip(xs, ys)])
        parts = a * uplink_propagate(ch, xs) + b * uplink_propagate(ch, ys)
        assert np.allclose(combo, parts, rtol=1e-12, atol=1e-12)


def test_awgn_determinism_and_moments():
    assert np.array_equal(noise(16, seed=3), noise(16, seed=3))
    z = noise(100_000, seed=21)
    assert abs(np.mean(z)) <= 3.0 / np.sqrt(z.size)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.05


def test_reset_rng_matches_fresh_generator():
    # rng_for and a re-keyed generator both start where numpy's own
    # Philox(key=[seed, stream]) does, also for seeds >= 2^63, whose key
    # numpy rounds through float64 (2^63 + 5 and 2^63 + 6 collide); a seed
    # that rounds up to 2^64 starts where Philox(key=[0, stream]) does
    reused = rng_for(0, STREAM_NOISE)
    seeds = [0, 2**53, 2**63 - 1, 2**63, 2**63 + 5, 2**63 + 6, 2**64 - 1]
    seeds += [int(s) for s in np.random.default_rng(15).integers(0, 2**64, size=200, dtype=np.uint64)]
    for seed in seeds:
        for stream in (1, 2, 3):
            key = [0 if float(seed) == 2.0**64 else seed, stream]
            want = np.random.Generator(np.random.Philox(key=key)).standard_normal(64)
            assert rng_for(seed, stream).standard_normal(64).tobytes() == want.tobytes()
            assert reset_rng(reused, seed, stream).standard_normal(64).tobytes() == want.tobytes()
    assert (rng_for(2**63 + 5, 2).standard_normal(4) == rng_for(2**63 + 6, 2).standard_normal(4)).all()


def test_reset_rng_keys_as_numpy_does(numpy_philox_key):
    # reset_rng builds its key from Python ints, with no cast and so no cast
    # warning, and gets numpy's key: for a seed >= 2^63 both entries rounded
    # to doubles (half to even at an odd multiple of 2^10 past a multiple of
    # 2^11). A seed rounded up to 2^64, where numpy's cast depends on the
    # platform, is keyed by the package's fixed rule: it wraps to 0
    rng = rng_for(0, STREAM_NOISE)
    seeds = [0, 1, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1]
    multiples = [2**63, 2**63 + 2**11, 2**63 + 3 * 2**11, 2**63 + 2**62, 2**64 - 2**12, 2**64 - 2**11, 2**64, 2**62]
    multiples += [2**11 * int(q) for q in np.random.default_rng(16).integers(2**52, 2**53, size=50)]
    seeds += [c + offset for c in multiples for offset in (-1025, -1024, -1023, 1023, 1024, 1025)]
    seeds += range(2**64 - 1024, 2**64)
    seeds += [int(s) for s in np.random.default_rng(17).integers(0, 2**64, size=2000, dtype=np.uint64)]
    wrapped = 0
    for seed in seeds:
        for stream in (1, 2, 3):
            key = reset_rng(rng, seed, stream).bit_generator.state["state"]["key"]
            if float(seed & (2**64 - 1)) == 2.0**64:
                wrapped += 1
                assert key.tolist() == [0, stream]
            else:
                assert key.tolist() == numpy_philox_key(seed, stream).tolist()
    assert wrapped >= 3 * 1024  # every seed from 2^64 - 1024 up


def test_blocked_draw_matches_consecutive_calls():
    for sizes in ([3], [0, 2, 0, 5, 1], [6] * 4 + [8] * 12, [0, 0]):
        index = normal_block_index(sizes)
        assert index.shape == (2, sum(sizes))
        rng = rng_for(16, STREAM_NOISE)
        want = np.concatenate([complex_normal(rng, n) for n in sizes])
        got = complex_normal_blocks(rng_for(16, STREAM_NOISE).standard_normal(index.size), index)
        assert got.tobytes() == want.tobytes()
        # one row per draw: every row as if drawn alone
        rows = np.array([rng_for(seed, STREAM_NOISE).standard_normal(index.size) for seed in (16, 17, 2**63)])
        for row, seed in zip(complex_normal_blocks(rows, index), (16, 17, 2**63)):
            rng = rng_for(seed, STREAM_NOISE)
            assert row.tobytes() == np.concatenate([complex_normal(rng, n) for n in sizes]).tobytes()


def test_rng_streams_independent():
    # same seed, different stream ids must give unrelated draws
    a = rng_for(5, 1).standard_normal(8)
    b = rng_for(5, 2).standard_normal(8)
    assert not np.allclose(a, b)


def test_check_power():
    assert check_power(np.zeros(4), 10.0)
    x = np.ones(4) * 0.5  # ||x||^2 = 1
    assert check_power(x, 1.0)
    assert not check_power(x, 1.0 / 1.1)
    # a stack passes only when every vector does
    stack = np.stack([np.zeros(4), x, 0.5 * x])
    assert check_power(stack, 1.0)
    assert not check_power(stack, 1.0 / 1.1)
    # budgets with leading axes (draws, points): one verdict per budget, each
    # over the vectors under it
    budgets = np.array([[1.0, 1.0 / 1.1], [0.2, 4.0]])
    rounds = np.stack([np.stack([stack, stack]), np.stack([0.5 * stack, 2 * stack])])
    assert check_power(rounds, budgets).tolist() == [[True, False], [False, True]]
