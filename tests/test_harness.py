"""Sweep orchestration: seeding, slope fits, report determinism."""

import concurrent.futures
import dataclasses
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yrelay.channel
import yrelay.harness
import yrelay.transceiver
from yrelay.alignment import DofVector, user_pairs
from yrelay.channel import SystemConfig
from yrelay.errors import Infeasible, Underdetermined
from yrelay.linalg import left_sum
from yrelay.harness import (
    ExperimentConfig,
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
    assert rep.rows[0].err_mean <= 1e-10
    assert rep.rows[0].err_max <= 1e-10
    assert rep.slope is None  # needs >= 3 points


def test_sweep_row_and_fit_presence():
    rep = run_sweep(SMALL)
    assert len(rep.rows) == 3
    assert rep.slope is not None
    assert [r.p_db for r in rep.rows] == [10.0, 20.0, 30.0]
    # SNR grows with power
    snrs = [r.mean_stream_snr for r in rep.rows]
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
    assert blob["fit"]["slope"] == rep.slope


def test_channels_shared_across_power_points():
    # common random numbers: per-stream SNR ratios across points are exactly
    # the power ratios, which only holds if the channel draw is reused
    cfg = ExperimentConfig(
        system=SMALL.system, dof=SMALL.dof, sweep_db=(10.0, 20.0),
        trials=1, seed=11,
    )
    rep = run_sweep(cfg)
    assert rep.rows[1].mean_stream_snr == pytest.approx(10 * rep.rows[0].mean_stream_snr, rel=1e-9)


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
    assert 0 < low.power_violations <= cfg.trials
    assert high.power_violations == 0
    rows = json.loads(rep.to_json_bytes())["rows"]
    assert [r["power_violations"] for r in rows] == [low.power_violations, 0]
    assert "power_violations" not in rep.to_csv_bytes().decode()


def counted(fn, calls, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_sweep_reuses_precoders_and_plan(monkeypatch):
    # the channel is block-constant and trials run in blocks of TRIAL_BLOCK:
    # each draw takes its 2K matrices from one standard_normal call on its
    # block's one generator; each block runs one stacked SVD per link
    # direction for the conditioning check of all its draws, inverts each
    # direction's stack once with those singular values, builds one round
    # context (with its SNR coefficients) and makes one stacked kernel call,
    # on one generator of its own, for all its draws and power points; a
    # noisy round draws its symbols and its noise with one standard_normal
    # call each. The plan and its round layout come from the process memo:
    # built for the first sweep of a (DoF vector, N, M), not again for a
    # second sweep with another seed, and once more for another M.
    calls = {}
    for module, name, key in (
        (yrelay.channel, "_unit_pinv", "mppi"),
        (yrelay.transceiver, "build_stream_plan", "plan"),
        (yrelay.transceiver, "RoundLayout", "layout"),
        (yrelay.harness, "RoundContext", "context"),
        (yrelay.harness, "transmit_round", "kernel"),
        (np.linalg, "svd", "svd"),
    ):
        monkeypatch.setattr(module, name, counted(getattr(module, name), calls, key))

    class CountingGenerator:
        def __init__(self, rng, key):
            self.bit_generator, self._rng, self._key = rng.bit_generator, rng, key

        def standard_normal(self, *args, **kwargs):
            calls[self._key] += 1
            return self._rng.standard_normal(*args, **kwargs)

    for module, key in ((yrelay.channel, "channel"), (yrelay.transceiver, "round")):
        fresh = module.rng_for

        def make(seed, stream, fresh=fresh, key=key):
            calls[key + "_rng"] += 1
            return CountingGenerator(fresh(seed, stream), key + "_normal")

        monkeypatch.setattr(module, "rng_for", make)
    yrelay.transceiver._memo_layout.cache_clear()
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
        "mppi": 2 * blocks,
        "svd": 2 * blocks,
        "context": blocks,
        "kernel": blocks,
        "channel_rng": blocks,
        "channel_normal": trials,
        "round_rng": blocks,
        "round_normal": 2 * rounds,
    }
    for sweep, built in ((cfg, 1), (dataclasses.replace(cfg, seed=1), 0),
                         (dataclasses.replace(cfg, system=SystemConfig(K=k_users, M=7, N=6, P=1.0)), 1)):
        calls.update(dict.fromkeys([*per_sweep, "plan", "layout"], 0))
        run_sweep(sweep)
        assert calls == {**per_sweep, "plan": built, "layout": built}
    # the memo's layout is shared read-only: it holds no generator, and its
    # indices, its plan's included, refuse writes
    layout = yrelay.transceiver.plan_layout(cfg.dof, 6, 6)
    assert not any(isinstance(v, np.random.Generator) for v in vars(layout).values())
    for index in (layout.word_index, layout.receive_index, layout.plan.word_index, layout.noise_index):
        with pytest.raises(ValueError):
            index[0] = 0


def test_concurrent_sweeps_match_sequential_bytes():
    # sweeps of one DoF vector in more threads than cores, all filling and
    # then sharing one memoized layout, give the bytes each gives alone
    configs = [dataclasses.replace(SMALL, seed=seed, trials=yrelay.harness.TRIAL_BLOCK + 2, mode=mode)
               for seed in (3, 4) for mode in ("genie", "raw")]
    want = [run_sweep(cfg).to_json_bytes() for cfg in configs]
    yrelay.transceiver._memo_layout.cache_clear()
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
