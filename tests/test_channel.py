import math

import numpy as np
import pytest

import yrelay.channel
import yrelay.linalg
from conftest import complex_normal, rng_for, sample_channels
from yrelay.channel import (
    STREAM_NOISE,
    ChannelBlock,
    SystemConfig,
    _philox_key,
    check_power,
    complex_normal_blocks,
    normal_block_index,
    sample_channel_block,
    seeded_normals,
)
from yrelay.errors import DimensionError, RankDeficient, ScalarUnderflow
from yrelay.linalg import _unit_pinv


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
    for p in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            SystemConfig(K=3, M=4, N=4, P=p)


def test_same_seed_same_channels():
    a = sample_channels(CFG, seed=7)
    b = sample_channels(CFG, seed=7)
    assert np.array_equal(a.uplink, b.uplink) and np.array_equal(a.downlink, b.downlink)


def test_different_seed_differs():
    a = sample_channels(CFG, seed=7)
    b = sample_channels(CFG, seed=8)
    assert not np.allclose(a.uplink[0, 0], b.uplink[0, 0])


def test_channel_shapes():
    # a draw is the block of one: (draws, K, N, M) uplink, (draws, K, M, N)
    # downlink, each inverse with the other shape and one constant per user
    ch = sample_channels(CFG, seed=1)
    assert ch.uplink.shape == ch.downlink.shape == ch.right.shape == ch.left.shape == (1, 4, 6, 6)
    wide = sample_channels(SystemConfig(K=4, M=8, N=6, P=1.0), seed=1)
    assert wide.uplink.shape == wide.left.shape == (1, 4, 6, 8)
    assert wide.downlink.shape == wide.right.shape == (1, 4, 8, 6)
    assert wide.alpha.shape == wide.beta.shape == (1, 4)
    block = sample_channel_block(SystemConfig(K=3, M=8, N=6, P=1.0), [1, 2])
    assert block.uplink.shape == (2, 3, 6, 8) and block.beta.shape == (2, 3)
    with pytest.raises(DimensionError):
        ChannelBlock(wide.uplink, wide.uplink)
    with pytest.raises(DimensionError):
        ChannelBlock(wide.uplink[0], wide.downlink[0])


def inverses(block):
    return block.right, block.alpha, block.left, block.beta


def test_sampled_precoders_match_fresh_inverses():
    # a sampled draw's inverses are those of a block built from the same
    # matrices, bit for bit, and a block built from other matrices inverts
    # those matrices
    ch = sample_channels(CFG, seed=4)
    other = sample_channels(CFG, seed=5)
    mixed = ChannelBlock(other.uplink, ch.downlink)
    cases = [
        (inverses(ch), inverses(ChannelBlock(ch.uplink, ch.downlink))),
        (inverses(mixed), (other.right, other.alpha, ch.left, ch.beta)),
    ]
    for got, want in cases:
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    for h, g, c in zip(mixed.uplink[0], mixed.right[0], mixed.alpha[0]):
        assert np.allclose(h @ g, c * np.eye(6), rtol=0, atol=1e-12)
    flat = other.uplink.copy()
    flat[0, 0, 1] = flat[0, 0, 0]  # rank-deficient: refused when the block is built
    with pytest.raises(RankDeficient):
        ChannelBlock(flat, ch.downlink)


def assert_same_draw(block, want, d=0):
    """Draw d of a sampled block equals the matrix-by-matrix reference bit
    for bit: matrices, their singular values, inverses, alpha and beta."""
    k = len(want.uplink)
    for got, ref in ((block.uplink[d], want.uplink), (block.downlink[d], want.downlink)):
        assert got.shape == (k, *ref[0].shape) and got.tobytes() == np.array(ref).tobytes()
    for mats, refs in ((block.uplink[d], want.singular_values[:k]), (block.downlink[d], want.singular_values[k:])):
        assert np.linalg.svd(mats, compute_uv=False).tobytes() == np.array(refs).tobytes()
    assert block.right[d].tobytes() == np.array([g for g, _ in want.right]).tobytes()
    assert block.left[d].tobytes() == np.array([g for g, _ in want.left]).tobytes()
    assert block.alpha[d].tolist() == [c for _, c in want.right]
    assert block.beta[d].tolist() == [c for _, c in want.left]


@pytest.mark.parametrize("k, m, n", [(3, 1, 1), (3, 4, 3), (4, 6, 6), (5, 8, 6), (4, 9, 2), (6, 7, 7)])
def test_blocked_draw_matches_sequential_reference(reference_channels, k, m, n):
    cfg = SystemConfig(K=k, M=m, N=n, P=1.0)
    for seed in (0, 1, 7, 2**53 + 1, 2**63 + 5, 2**64 - 2**11):
        assert_same_draw(sample_channels(cfg, seed), reference_channels(cfg, seed))


def test_refused_draw_names_its_seed_and_matrix(monkeypatch, reference_channels):
    # with the Gram bound's limit at 0 every matrix gets its singular-value
    # verdict, so refusing one chosen matrix (by sigma_min/sigma_max, which
    # the power-of-two prescale leaves unchanged) reaches the refusal: the
    # error names the draw's seed, its place in the block, and the link and
    # user of the matrix, as the matrix-by-matrix reference does; a lone
    # seed, and the third draw of a 4-seed block, on an uplink and a
    # downlink matrix
    cfg = SystemConfig(K=4, M=5, N=3, P=1.0)
    seeds = [8, 9, 2**63 + 5, 10]
    accept, refused = yrelay.linalg.well_conditioned, []
    monkeypatch.setattr(yrelay.linalg, "GRAM_BOUND_LIMIT", 0.0)
    monkeypatch.setattr(yrelay.linalg, "well_conditioned",
                        lambda s: accept(s) & ~np.isin(s[..., -1] / s[..., 0], refused))
    for block_seeds, d, position, named in (([9], 0, 1, "uplink of user 1: right"),
                                            (seeds, 2, 6, "downlink of user 2: left")):
        seed = block_seeds[d]
        s = reference_channels(cfg, seed).singular_values[position]
        refused[:] = [s[-1] / s[0]]
        with pytest.raises(RankDeficient) as want:
            reference_channels(cfg, seed)
        with pytest.raises(RankDeficient) as got:
            sample_channel_block(cfg, block_seeds)
        assert str(want.value).startswith(f"{named} inverse needs a well-conditioned matrix: ")
        assert str(got.value) == f"seed {seed}: draw {d}, {want.value}" and got.value.index == d
    refused.clear()
    block = sample_channel_block(cfg, seeds)
    for d, seed in enumerate(seeds):
        assert_same_draw(block, reference_channels(cfg, seed), d)


def test_scale_past_the_float_range_names_its_draw():
    # a finite 1x4 uplink matrix of entries 1.5e308 (alpha = 3e308 has no
    # float) is named by its draw, link and user, as a refused matrix is
    rng = np.random.default_rng(6)
    up, down = complex_normal(rng, (2, 3, 1, 4)), complex_normal(rng, (2, 3, 4, 1))
    up[1, 2] = 1.5e308
    with pytest.raises(ScalarUnderflow) as got:
        ChannelBlock(up, down)
    assert str(got.value) == "draw 1, uplink of user 2: right inverse scale of 2^1024 or more has no float"
    assert got.value.index == 1


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_scale_whose_square_has_no_float_names_its_draw(scale):
    # an uplink scaled up by 1e160 or 1e200 gives alpha of about 5e159 or
    # 5e199, and a downlink scaled so gives such a beta: each fits a float,
    # but its square, which the SNR model takes, does not, so the block
    # refuses it, named by its draw, link and user (every user is scaled:
    # user 0 is named)
    b = sample_channels(SystemConfig(K=3, M=4, N=3, P=1.0), 1)
    for up, down, link, side, c in ((b.uplink * scale, b.downlink, "uplink", "right", b.alpha[0, 0] * scale),
                                    (b.uplink / scale, b.downlink * scale, "downlink", "left", b.beta[0, 0] * scale)):
        assert 2.0**512 <= c < math.inf
        with pytest.raises(ScalarUnderflow) as got:
            ChannelBlock(up, down)
        top = np.frexp(c)[1]
        assert str(got.value) == f"draw 0, {link} of user 0: {side} inverse scale of 2^{top - 1} or more has no float square"
        assert got.value.index == 0


def test_block_inverts_each_link_as_alone(monkeypatch):
    # one Gram inversion serves both links: each link's inverses and
    # constants are those of _unit_pinv on that link alone, bit for bit,
    # with one matrix past the Gram bound on each link (each gets its SVD)
    # and one downlink whose Gram matrix underflows to zero (the stacked
    # inversion raises, and the matrices are inverted one by one)
    rng = np.random.default_rng(21)
    up, down = complex_normal(rng, (3, 4, 6, 8)), complex_normal(rng, (3, 4, 8, 6))
    up[1, 2, 0] *= 1e-3
    down[2, 0, :, 0] *= 1e-3
    down[0, 3] *= 1e-170
    svd, shapes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
    block = ChannelBlock(up, down)
    assert shapes == [(1, 6, 8), (2, 8, 6)]
    for (g, c), (want_g, want_c) in (((block.right, block.alpha), _unit_pinv(up.reshape(12, 6, 8), True)),
                                     ((block.left, block.beta), _unit_pinv(down.reshape(12, 8, 6), False))):
        assert g.shape == (3, 4, *want_g.shape[1:]) and g.tobytes() == want_g.tobytes()
        assert c.shape == (3, 4) and c.tobytes() == want_c.tobytes()


def test_uplink_error_wins_over_downlink_error():
    # a bad downlink matrix alone is named by its draw, link and user; with
    # a bad uplink matrix too, the uplink's error is raised, whichever kind
    # either is (a zero 4x1 downlink is refused by its SVD, entries of
    # 1.5e308 have no scale in the float range), as when the links were
    # inverted one after the other
    rng = np.random.default_rng(6)
    up, down = complex_normal(rng, (2, 3, 1, 4)), complex_normal(rng, (2, 3, 4, 1))
    big_up, big_down, zero_down = up.copy(), down.copy(), down.copy()
    big_up[1, 2] = big_down[0, 1] = 1.5e308
    zero_down[0, 1] = 0.0
    scale = "inverse scale of 2^1024 or more has no float"
    uplink = (ScalarUnderflow, f"draw 1, uplink of user 2: right {scale}", 1)
    for links, (kind, text, draw) in (
        ((up, big_down), (ScalarUnderflow, f"draw 0, downlink of user 1: left {scale}", 0)),
        ((up, zero_down), (RankDeficient, "draw 0, downlink of user 1: left inverse needs a well-conditioned "
                                          "matrix: sigma_min/sigma_max = 0.000e+00", 0)),
        ((big_up, big_down), uplink),
        ((big_up, zero_down), uplink),
    ):
        with pytest.raises(kind) as got:
            ChannelBlock(*links)
        assert str(got.value) == text and got.value.index == draw


def test_seeded_rows_ignore_what_the_generator_drew_before():
    # seeded_normals re-keys the thread's one generator for every row: after
    # a draw that leaves half a uint32 pair buffered, or an odd-length draw,
    # each row still has the bytes of numpy's fresh generator rng_for(seed,
    # stream)
    seeds = [5, 2**63 + 5, 2**64 - 1]
    want = np.array([rng_for(seed, STREAM_NOISE).standard_normal(7) for seed in seeds])
    seeded_normals([0], STREAM_NOISE, 1)  # the thread now has its generator
    rng = yrelay.channel._thread.rng
    for disturb, field, left in ((lambda: rng.integers(0, 2**32, dtype=np.uint32), "has_uint32", 1),
                                 (lambda: rng.standard_normal(3), "buffer_pos", 3)):
        rng.bit_generator.state = rng_for(9, STREAM_NOISE).bit_generator.state
        disturb()
        assert rng.bit_generator.state[field] == left
        assert seeded_normals(seeds, STREAM_NOISE, 7).tobytes() == want.tobytes()
    assert yrelay.channel._thread.rng is rng


def test_entry_moments():
    ch = sample_channels(SystemConfig(K=4, M=50, N=40, P=1.0), seed=5)
    entries = np.concatenate([ch.uplink.ravel(), ch.downlink.ravel()])
    assert entries.size >= 10_000
    var = np.mean(np.abs(entries) ** 2)
    assert abs(var - 1.0) < 0.05
    # circular symmetry: real and imaginary parts each carry half the power
    assert abs(np.mean(entries.real**2) - 0.5) < 0.05


def test_uplink_zero_inputs(reference_round):
    ch = sample_channels(CFG, seed=2)
    xs = [np.zeros(6)] * 4
    assert np.allclose(reference_round.uplink_propagate(ch, xs), 0.0)


def test_uplink_identity_passthrough(reference_round):
    eye = np.eye(3, dtype=np.complex128)
    ch = ChannelBlock(eye[None, None], eye[None, None])
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(reference_round.uplink_propagate(ch, [e1]), e1)


def test_uplink_matches_oracle(reference_round):
    rng = np.random.default_rng(11)
    ch = sample_channels(CFG, seed=3)
    for _ in range(10):
        xs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(4)]
        got = reference_round.uplink_propagate(ch, xs)
        want = propagate_oracle(ch.uplink[0], xs)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_uplink_noise_added(reference_round):
    ch = sample_channels(CFG, seed=2)
    z = noise(6, seed=9)
    xs = [np.zeros(6)] * 4
    assert np.allclose(reference_round.uplink_propagate(ch, xs, noise=z), z)


def test_downlink_zero_and_identity(reference_round):
    eye = np.eye(4, dtype=np.complex128)
    assert np.allclose(reference_round.downlink_propagate(eye, np.zeros(4)), 0.0)
    v = np.arange(4.0)
    assert np.allclose(reference_round.downlink_propagate(eye, v), v)


def test_downlink_matches_oracle(reference_round):
    rng = np.random.default_rng(12)
    ch = sample_channels(CFG, seed=4)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    got = reference_round.downlink_propagate(ch.downlink[0, 2], x)
    want = propagate_oracle([ch.downlink[0, 2]], [x])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_propagation_linearity(reference_round):
    ch = sample_channels(CFG, seed=6)
    rng = np.random.default_rng(13)
    uplink = reference_round.uplink_propagate
    for _ in range(5):
        xs = [rng.standard_normal(6) * (1 + 1j) for _ in range(4)]
        ys = [rng.standard_normal(6) * (1 - 2j) for _ in range(4)]
        a, b = 2.5, -1.25 + 0.5j
        combo = uplink(ch, [a * x + b * y for x, y in zip(xs, ys)])
        parts = a * uplink(ch, xs) + b * uplink(ch, ys)
        assert np.allclose(combo, parts, rtol=1e-12, atol=1e-12)


def test_awgn_determinism_and_moments():
    assert np.array_equal(noise(16, seed=3), noise(16, seed=3))
    z = noise(100_000, seed=21)
    assert abs(np.mean(z)) <= 3.0 / np.sqrt(z.size)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.05


def test_reset_rng_matches_fresh_generator():
    # every row of seeded_normals, drawn alone or in a block on the thread's
    # re-keyed generator, starts where numpy's own Philox(key=[seed,
    # stream]) does, as the tests' rng_for does, also for seeds >= 2^63,
    # whose key numpy rounds through float64 (2^63 + 5 and 2^63 + 6
    # collide); a seed that rounds up to 2^64 starts where Philox(key=[0,
    # stream]) does
    seeds = [0, 2**53, 2**63 - 1, 2**63, 2**63 + 5, 2**63 + 6, 2**64 - 1]
    seeds += [int(s) for s in np.random.default_rng(15).integers(0, 2**64, size=200, dtype=np.uint64)]
    for stream in (1, 2, 3):
        block = seeded_normals(seeds, stream, 64)
        for seed, row in zip(seeds, block):
            key = [0 if float(seed) == 2.0**64 else seed, stream]
            want = np.random.Generator(np.random.Philox(key=key)).standard_normal(64)
            assert rng_for(seed, stream).standard_normal(64).tobytes() == want.tobytes()
            assert seeded_normals([seed], stream, 64)[0].tobytes() == want.tobytes()
            assert row.tobytes() == want.tobytes()
    assert (seeded_normals([2**63 + 5], 2, 4) == seeded_normals([2**63 + 6], 2, 4)).all()


def test_stream_id_past_2_63_keys_every_row_as_numpy_does():
    # a key entry below 2^63 is exact as numpy reads it, so such rows take
    # [seed, stream] as it stands; a stream id past 2^63 sends every row's
    # key, small seeds too, through the rounding rule
    seeds = [5, 2**62, 2**63 - 1]
    for stream in (2**63 + 1, 2**64 - 2**12):
        block = seeded_normals(seeds, stream, 8)
        for seed, row in zip(seeds, block):
            assert row.tobytes() == rng_for(seed, stream).standard_normal(8).tobytes()


def test_reset_rng_keys_as_numpy_does(numpy_philox_key):
    # _philox_key builds its key from Python ints, with no cast and so no
    # cast warning, and gets numpy's key: for a seed >= 2^63 both entries
    # rounded to doubles (half to even at an odd multiple of 2^10 past a
    # multiple of 2^11). A seed rounded up to 2^64, where numpy's cast
    # depends on the platform, is keyed by the package's fixed rule: it
    # wraps to 0
    seeds = [0, 1, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1]
    multiples = [2**63, 2**63 + 2**11, 2**63 + 3 * 2**11, 2**63 + 2**62, 2**64 - 2**12, 2**64 - 2**11, 2**64, 2**62]
    multiples += [2**11 * int(q) for q in np.random.default_rng(16).integers(2**52, 2**53, size=50)]
    seeds += [c + offset for c in multiples for offset in (-1025, -1024, -1023, 1023, 1024, 1025)]
    seeds += range(2**64 - 1024, 2**64)
    seeds += [int(s) for s in np.random.default_rng(17).integers(0, 2**64, size=2000, dtype=np.uint64)]
    wrapped = 0
    for seed in seeds:
        for stream in (1, 2, 3):
            key = _philox_key(seed, stream)
            if float(seed & (2**64 - 1)) == 2.0**64:
                wrapped += 1
                assert key == [0, stream]
            else:
                assert key == numpy_philox_key(seed, stream).tolist()
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
