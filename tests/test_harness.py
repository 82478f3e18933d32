"""Sweep orchestration: seeding, slope fits, report determinism."""

import concurrent.futures
import dataclasses
import json
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import yrelay.channel
import yrelay.harness
import yrelay.transceiver
from yrelay.alignment import DofVector, user_pairs
from yrelay.channel import STREAM_CHANNEL, STREAM_NOISE, STREAM_SYMBOLS, SystemConfig
from yrelay.errors import Infeasible, Underdetermined
from yrelay.linalg import left_sum
from yrelay.harness import (
    ROW_FIELDS,
    ExperimentConfig,
    SweepReport,
    db_to_linear,
    derive_seed,
    fit_slope,
    run_sweep,
)

SMALL = ExperimentConfig(
    system=SystemConfig(K=3, M=4, N=3, P=1.0),
    dof=DofVector.uniform(3, Fraction(1)),
    sweep_db=(10.0, 20.0, 30.0),
    trials=3,
    seed=42,
)


def test_db_conversion():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(30.0) == pytest.approx(1000.0)


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(0, i) for i in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= s < 2**64 for s in seen)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)  # order matters
    # a sub-seed continues its prefix's chain, as a sweep derives its round seeds
    for master in (0, 42, 2**63 + 5, 2**64 - 1):
        assert derive_seed(derive_seed(master, 0x0E, 6), 31) == derive_seed(master, 0x0E, 6, 31)


@settings(deadline=None, database=None, derandomize=True, max_examples=200)
@given(st.integers(-2**64, 2**65 - 1), st.integers(0, 2**32), st.integers(0, 2**32))
def test_derive_seed_chain_splits_anywhere(seed, a, b):
    # run_sweep derives the channel root derive_seed(seed, SUBSEED_CHANNEL)
    # once and trial t's seed from it: the seed of derive_seed(seed,
    # SUBSEED_CHANNEL, t), for any master seed the config takes
    assert derive_seed(derive_seed(seed, a), b) == derive_seed(seed, a, b)


def test_config_validation():
    good = dict(system=SMALL.system, dof=SMALL.dof, trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_db=(), **good)
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_db=(10.0, 10.0), **good)
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_db=(20.0, 10.0), **good)
    with pytest.raises(ValueError):
        ExperimentConfig(system=SMALL.system, dof=SMALL.dof, sweep_db=(10.0,),
                         trials=0, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(system=SMALL.system, dof=SMALL.dof, sweep_db=(10.0,),
                         trials=1, seed=0, mode="oracle")
    # every point must be a positive finite power: NaN, underflow to 0 W and
    # overflow past the float range are each named
    for sweep_db, point in (((10.0, math.nan, 30.0), "nan"), ((-4000.0, -3990.0, 10.0), "-4000.0"),
                            ((10.0, 4000.0), "4000.0")):
        with pytest.raises(ValueError, match=rf"^(sweep point|power) {point} dB "):
            ExperimentConfig(sweep_db=sweep_db, **good)
    assert ExperimentConfig(sweep_db=(-10.0, 0.0, 30.0), **good).powers == (0.1, 1.0, 1000.0)


def test_config_digest_tracks_content():
    other = ExperimentConfig(
        system=SMALL.system, dof=SMALL.dof, sweep_db=SMALL.sweep_db,
        trials=SMALL.trials, seed=43,
    )
    assert SMALL.digest() != other.digest()
    assert SMALL.digest() == SMALL.digest()


# ------------------------------------------------------------------ slope fit


def test_fit_exact_line():
    pts = [(x, 3.0 * x + 1.0) for x in (0.0, 1.0, 2.0, 5.0)]
    slope, intercept, resid = fit_slope(pts)
    assert slope == pytest.approx(3.0)
    assert intercept == pytest.approx(1.0)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_fit_two_points_interpolates():
    slope, intercept, resid = fit_slope([(0.0, 1.0), (2.0, 5.0)])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_fit_underdetermined():
    with pytest.raises(Underdetermined):
        fit_slope([(1.0, 2.0)])
    with pytest.raises(Underdetermined):
        fit_slope([(1.0, 2.0), (1.0, 3.0)])  # no x spread


def test_fit_noisy_synthetic_line():
    # OLS against a known generator: the estimate must land within three
    # standard errors of the true slope
    rng = np.random.default_rng(55)
    true_slope, true_icept, sigma = 12.0, -4.0, 0.1
    xs = np.linspace(0.0, 10.0, 100)
    ys = true_slope * xs + true_icept + sigma * rng.standard_normal(xs.size)
    slope, _, resid = fit_slope(list(zip(xs, ys)))
    stderr = sigma / math.sqrt(np.sum((xs - xs.mean()) ** 2))
    assert abs(slope - true_slope) <= 3 * stderr
    assert resid == pytest.approx(sigma, rel=0.5)


def test_left_sum_adds_left_to_right():
    # builtin sum() adds floats with compensation from Python 3.12 on:
    # sum([0.1] * 10) is 0.9999999999999999 on 3.11 and 1.0 on 3.12; a report
    # keeps the left-to-right bytes on every version
    total = 0.0
    for x in [0.1] * 10:
        total += x
    assert left_sum([0.1] * 10) == total == 0.9999999999999999
    assert left_sum(x for x in [1e16, 1.0, -1e16]) == 0.0  # 1e16 + 1 rounds to 1e16
    assert left_sum([]) == 0.0
    assert left_sum([], 5.0) == 5.0
    # on arrays, elementwise: the columns of a.T are the rows of a
    rows = np.array([[0.1] * 10, [1e16, 1.0, -1e16] + [0.0] * 7])
    assert left_sum(rows.T).tolist() == [0.9999999999999999, 0.0]


# Terms of a left_sum test: any float, and the values where orders and
# formulas part (signed zeros, infinities, NaN, subnormals, a cancellation).
SUM_TERMS = st.one_of(
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e16, 1.0, -1e16, 0.1]),
    st.floats(width=64),
)


@st.composite
def axis_sums(draw):
    """(a, start, k): float64 or complex128 terms of 1-4 dimensions with 0-25
    along axis k (negative k too), and a start that is a scalar or an array
    that broadcasts to the other axes."""
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    rest = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    k = draw(st.integers(-len(rest) - 1, len(rest)))
    shape = list(rest)
    shape.insert(k % (len(rest) + 1), draw(st.integers(0, 25)))

    def values(dtype, shape):
        re = draw(hnp.arrays(np.float64, shape, elements=SUM_TERMS))
        if dtype is np.float64:
            return re
        z = np.empty(shape, np.complex128)  # parts set apart: 1j * inf has a NaN real part
        z.real, z.imag = re, draw(hnp.arrays(np.float64, shape, elements=SUM_TERMS))
        return z

    a = values(dtype, tuple(shape))
    if draw(st.booleans()):
        start = draw(SUM_TERMS)
    else:
        ndim = draw(st.integers(0, len(rest)))
        start_shape = tuple(draw(st.sampled_from([1, n])) for n in rest[len(rest) - ndim :])
        start = values(draw(st.sampled_from([np.float64, np.complex128])), start_shape)
    return a, start, k


def _sum_bits(x):
    """dtype, shape and bytes of a sum, with every NaN part written as
    np.nan: IEEE 754 leaves open which NaN a sum of two NaNs keeps, and
    numpy's array add and its accumulate keep different ones (inf + -inf
    gives a negative NaN on x86, np.nan is positive). A report prints every
    NaN as nan."""
    x = np.asarray(x)
    parts = np.stack((x.real, x.imag))
    return x.dtype, x.shape, np.where(np.isnan(parts), np.nan, parts).tobytes()


@settings(deadline=None, database=None, derandomize=True, max_examples=400)
@given(axis_sums())
@example((np.array([1e16, 1.0, -1e16]), 0.0, 0))  # 1e16 + 1 rounds to 1e16
@example((np.array([[0.1] * 10, [1e16, 1.0, -1e16] + [0.0] * 7]), np.zeros(2), -1))
@example((np.array([-0.0, -0.0]), -0.0, 0))  # -0.0 throughout, and 0.0 from a 0.0 start
@example((np.array([-0.0, -0.0]), 0.0, 0))
@example((np.zeros((2, 0, 3), np.complex128), np.array([1.0, -0.0, 2.0]), 1))  # an empty axis
def test_left_sum_axis_matches_the_loop(case):
    # the axis path is one accumulate over a buffer of start and the terms;
    # each entry has the bits of the loop over the terms moved to the front
    a, start, k = case
    moved = np.moveaxis(a, k, 0)
    with np.errstate(all="ignore"):  # inf + -inf is a term here, not a fault
        if len(moved):
            want = left_sum(moved, start)
        else:  # no terms: start over the other axes, in the type the terms would give
            want = np.broadcast_to(np.asarray(start, np.result_type(start, a)), moved.shape[1:])
        got = left_sum(a, start, axis=k)
    assert _sum_bits(got) == _sum_bits(want)


def test_fit_sums_left_to_right():
    # the means of x and y are left-to-right sums over n: with ten equal
    # y = 0.1 the intercept is 0.09999999999999999, not 0.1
    slope, intercept, _ = fit_slope([(float(x), 0.1) for x in range(10)])
    assert slope == 0.0
    assert intercept == 0.9999999999999999 / 10


# --------------------------------------------------------------------- sweeps


def test_single_point_noiseless_sweep():
    cfg = ExperimentConfig(
        system=SMALL.system, dof=SMALL.dof, sweep_db=(20.0,),
        trials=2, seed=7, noise=False,
    )
    rep = run_sweep(cfg)
    assert len(rep.rows) == 1
    assert rep.rows[0]["err_mean"] <= 1e-10
    assert rep.rows[0]["err_max"] <= 1e-10
    assert rep.fit is None  # needs >= 3 points


def test_sweep_row_and_fit_presence():
    rep = run_sweep(SMALL)
    assert len(rep.rows) == 3
    assert rep.fit is not None
    assert [r["p_db"] for r in rep.rows] == [10.0, 20.0, 30.0]
    # SNR grows with power
    snrs = [r["mean_stream_snr"] for r in rep.rows]
    assert snrs[0] < snrs[1] < snrs[2]


def test_sweep_deterministic_bytes():
    a = run_sweep(SMALL)
    b = run_sweep(SMALL)
    assert a.to_csv_bytes() == b.to_csv_bytes()
    assert a.to_json_bytes() == b.to_json_bytes()


def test_sweep_infeasible_target(monkeypatch):
    cfg = ExperimentConfig(
        system=SMALL.system,
        dof=DofVector(3, {(1, 2): Fraction(5)}),
        sweep_db=(10.0,),
        trials=1,
        seed=0,
    )
    with pytest.raises(Infeasible):
        run_sweep(cfg)
    # not memoized: raised again, before any channel is drawn
    drawn = []
    monkeypatch.setattr(yrelay.harness, "sample_channel_block", lambda *args: drawn.append(args))
    with pytest.raises(Infeasible):
        run_sweep(cfg)
    assert drawn == []


def test_csv_schema():
    rep = run_sweep(SMALL)
    lines = rep.to_csv_bytes().decode().splitlines()
    assert lines[0].startswith("# yrelay sweep v1 config=")
    assert f"seed={SMALL.seed}" in lines[0]
    assert lines[1] == "p_db,mean_stream_snr,mean_rate_proxy,sum_rate_proxy,err_mean,err_max"
    assert len(lines) == 2 + 3 + 1  # provenance, header, rows, fit
    assert lines[-1].startswith("# fit slope=")
    # values round-trip through repr
    first = lines[2].split(",")
    assert float(first[0]) == 10.0


def test_json_schema_and_provenance():
    rep = run_sweep(SMALL)
    blob = json.loads(rep.to_json_bytes())
    prov = blob["provenance"]
    assert prov["seed"] == 42
    assert prov["config"]["k"] == 3
    assert prov["config"]["dof"]["entries"]["1-2"] == "1"
    assert prov["config_hash"] == SMALL.digest()
    assert len(blob["rows"]) == 3
    assert blob["fit"]["slope"] == rep.fit[0]


def test_report_renders_one_field_list():
    # ROW_FIELDS is the one list of a row's fields: the CSV header and
    # columns are all of them but the last, a JSON row has all of them, and
    # each CSV row parses back to its JSON row on the fields they share
    assert [f.name for f in dataclasses.fields(SweepReport)] == ["rows", "fit", "config"]
    for cfg in (SMALL, dataclasses.replace(SMALL, sweep_db=(0.0, 30.0), mode="raw", seed=2**63 + 5)):
        rep = run_sweep(cfg)
        lines = rep.to_csv_bytes().decode().splitlines()
        assert lines[1] == ",".join(ROW_FIELDS[:-1])
        csv_rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
        json_rows = json.loads(rep.to_json_bytes())["rows"]
        assert len(csv_rows) == len(json_rows) == len(cfg.sweep_db)
        for values, row in zip(csv_rows, json_rows):
            assert set(row) == set(ROW_FIELDS)
            assert dict(zip(ROW_FIELDS, map(float, values))) == {name: row[name] for name in ROW_FIELDS[:-1]}


def test_channels_shared_across_power_points():
    # common random numbers: per-stream SNR ratios across points are exactly
    # the power ratios, which only holds if the channel draw is reused
    cfg = ExperimentConfig(
        system=SMALL.system, dof=SMALL.dof, sweep_db=(10.0, 20.0),
        trials=1, seed=11,
    )
    rep = run_sweep(cfg)
    assert rep.rows[1]["mean_stream_snr"] == pytest.approx(10 * rep.rows[0]["mean_stream_snr"], rel=1e-9)


def test_sweep_counts_power_violations():
    # at P = 1 (0 dB) a unit-norm precoder on a unit-variance word often
    # exceeds the budget; at 30 dB it never does
    cfg = ExperimentConfig(
        system=SystemConfig(K=4, M=6, N=6, P=1.0),
        dof=DofVector.uniform(4, Fraction(1)),
        sweep_db=(0.0, 30.0),
        trials=50,
        seed=0,
    )
    rep = run_sweep(cfg)
    low, high = rep.rows
    assert 0 < low["power_violations"] <= cfg.trials
    assert high["power_violations"] == 0
    rows = json.loads(rep.to_json_bytes())["rows"]
    assert [r["power_violations"] for r in rows] == [low["power_violations"], 0]
    assert "power_violations" not in rep.to_csv_bytes().decode()


def counted(fn, calls, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_sweep_reuses_precoders_and_plan(monkeypatch):
    # the channel is block-constant and trials run in blocks of TRIAL_BLOCK:
    # each draw takes its 2K matrices from one standard_normal call; each
    # block makes one _unit_pinv call for both links, whose one Gram
    # inversion is also the conditioning check of all its draws (a matrix
    # within the bound gets no SVD; seed 1's second block holds a 6x6
    # downlink with cond(G) = 8.6e5 and a bound over 1e6, so that matrix
    # alone gets its SVD and is inverted again on the route the SVD picks,
    # one more inversion); it makes one stacked kernel call for all its
    # draws and power points; a noisy round draws its symbols and its noise
    # with one standard_normal call each. Every row drawn is one re-key of
    # the thread's one generator, the same object after every sweep (here a
    # counting one, installed on a fresh thread store). The plan and its
    # round layout come from the process memo: built for the first sweep of
    # a (DoF vector, N, M), not again for a second sweep with another seed,
    # and once more for another M.
    calls = {}
    for module, name, key in (
        (yrelay.channel, "_unit_pinv", "mppi"),
        (yrelay.transceiver, "build_stream_plan", "plan"),
        (yrelay.transceiver, "RoundLayout", "layout"),
        (yrelay.harness, "transmit_round", "kernel"),
        (np.linalg, "svd", "svd"),
        (np.linalg, "inv", "inv"),
    ):
        monkeypatch.setattr(module, name, counted(getattr(module, name), calls, key))
    link = {STREAM_CHANNEL: "channel", STREAM_NOISE: "round", STREAM_SYMBOLS: "round"}

    class CountingBits:
        """A Philox bit generator that counts its re-keys per stream."""

        def __init__(self, bits):
            self._bits, self.link = bits, None

        @property
        def state(self):
            return self._bits.state

        @state.setter
        def state(self, value):
            self.link = link[value["state"]["key"][1]]
            calls[self.link + "_rekey"] += 1
            self._bits.state = value

    class CountingGenerator:
        def __init__(self, rng):
            self.bit_generator, self._rng = CountingBits(rng.bit_generator), rng

        def standard_normal(self, *args, **kwargs):
            calls[self.bit_generator.link + "_normal"] += 1
            return self._rng.standard_normal(*args, **kwargs)

    thread = threading.local()
    thread.rng = generator = CountingGenerator(np.random.Generator(np.random.Philox(key=0)))
    monkeypatch.setattr(yrelay.channel, "_thread", thread)
    yrelay.transceiver.plan_layout.cache_clear()
    k_users, trials = 4, yrelay.harness.TRIAL_BLOCK + 3
    blocks = 2
    cfg = ExperimentConfig(
        system=SystemConfig(K=k_users, M=6, N=6, P=1.0),
        dof=DofVector.uniform(k_users, Fraction(1)),
        sweep_db=(30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0),
        trials=trials,
        seed=0,
    )
    rounds = len(cfg.sweep_db) * trials
    per_sweep = {
        "mppi": blocks,
        "svd": 0,
        "inv": blocks,
        "kernel": blocks,
        "channel_rekey": trials,
        "channel_normal": trials,
        "round_rekey": 2 * rounds,
        "round_normal": 2 * rounds,
    }
    for sweep, built, checked in ((cfg, 1, 0), (dataclasses.replace(cfg, seed=1), 0, 1),
                                  (dataclasses.replace(cfg, system=SystemConfig(K=k_users, M=7, N=6, P=1.0)), 1, 0)):
        calls.update(dict.fromkeys([*per_sweep, "plan", "layout"], 0))
        run_sweep(sweep)
        routed = {"svd": checked, "inv": per_sweep["inv"] + checked}
        assert calls == {**per_sweep, **routed, "plan": built, "layout": built}
        assert yrelay.channel._thread.rng is generator
    # the memo's layout is shared read-only: it holds no generator, and its
    # indices refuse writes
    layout = yrelay.transceiver.plan_layout(cfg.dof, 6, 6)
    assert not any(isinstance(v, np.random.Generator) for v in vars(layout).values())
    for index in (layout.word_index, layout.receive_index, layout.noise_index):
        with pytest.raises(ValueError):
            index[0] = 0


def test_sweep_blocks_call_no_numpy_shape_helper(monkeypatch):
    # np.moveaxis, np.broadcast_to and np.split each cost a few microseconds
    # a call, several adds on a block's small arrays: a sweep block
    # sums with accumulate, transposes and slices instead. A 2-block genie
    # sweep (K=4, M=N=6) and a 1-block raw sweep at T=4 (K=5, M=8, N=6); at
    # these seeds no matrix goes past the Gram bound, so no SVD route runs
    calls = dict.fromkeys(["moveaxis", "broadcast_to", "split", "svd"], 0)
    for module, name in ((np, "moveaxis"), (np, "broadcast_to"), (np, "split"), (np.linalg, "svd")):
        monkeypatch.setattr(module, name, counted(getattr(module, name), calls, name))
    genie = ExperimentConfig(
        system=SystemConfig(K=4, M=6, N=6, P=1.0),
        dof=DofVector.uniform(4, Fraction(1)),
        sweep_db=(30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0),
        trials=yrelay.harness.TRIAL_BLOCK + 3,
        seed=0,
    )
    raw = ExperimentConfig(
        system=SystemConfig(K=5, M=8, N=6, P=1.0),
        dof=DofVector.uniform(5, Fraction(1, 4)),
        sweep_db=(20.0, 40.0, 60.0),
        trials=2,
        seed=0,
        mode="raw",
    )
    for cfg in (genie, raw):
        run_sweep(cfg)
    assert calls == dict.fromkeys(calls, 0)


def test_concurrent_sweeps_match_sequential_bytes():
    # sweeps of one DoF vector in more threads than cores, all filling and
    # then sharing one memoized layout, give the bytes each gives alone
    configs = [dataclasses.replace(SMALL, seed=seed, trials=yrelay.harness.TRIAL_BLOCK + 2, mode=mode)
               for seed in (3, 4) for mode in ("genie", "raw")]
    want = [run_sweep(cfg).to_json_bytes() for cfg in configs]
    yrelay.transceiver.plan_layout.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=len(configs)) as pool:
            futures = [pool.submit(lambda c: run_sweep(c).to_json_bytes(), cfg) for cfg in configs * 2]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 2


def _sweep_configs():
    """K = 3..5, M >= N, a DoF vector at T = 1..3 with some zero-DoF
    directions (sometimes all of them), 1..4 increasing points, 1, 2,
    TRIAL_BLOCK or TRIAL_BLOCK + 1 trials, a master seed below 2^32 or at
    least 2^63, genie or raw, noise on or off."""

    @st.composite
    def configs(draw):
        k = draw(st.integers(3, 5))
        n = draw(st.integers(1, 4))
        t_ext = draw(st.integers(1, 3))
        entries, room = {}, t_ext * n
        if draw(st.integers(0, 4)) > 0:  # else the all-zero DoF vector
            for j, kk in user_pairs(k):
                fwd, rev = draw(st.integers(0, 4)), draw(st.integers(0, 4))
                if max(fwd, rev) <= room:
                    room -= max(fwd, rev)
                    entries[(j, kk)], entries[(kk, j)] = Fraction(fwd, t_ext), Fraction(rev, t_ext)
        points = sorted(draw(st.sets(st.integers(-10, 60), min_size=1, max_size=4)))
        block = yrelay.harness.TRIAL_BLOCK
        return ExperimentConfig(
            system=SystemConfig(K=k, M=n + draw(st.integers(0, 2)), N=n, P=1.0),
            dof=DofVector(k, entries),
            sweep_db=tuple(float(p) for p in points),
            trials=draw(st.sampled_from((1, 2, block, block + 1))),
            seed=draw(st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**64 - 1))),
            mode=draw(st.sampled_from(("genie", "raw"))),
            noise=draw(st.booleans()),
        )

    return configs()


@settings(deadline=None, database=None, derandomize=True, max_examples=60)
@given(_sweep_configs())
def test_blocked_sweep_matches_trial_by_trial_reference(reference_sweep, cfg):
    want = reference_sweep(cfg)
    got = run_sweep(cfg)
    assert got.to_csv_bytes() == want.to_csv_bytes()
    assert got.to_json_bytes() == want.to_json_bytes()
