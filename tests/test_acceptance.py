"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
a plain `pytest` run enforces the same assertions with capture on.
"""

import hashlib
import time
from fractions import Fraction

import numpy as np

from conftest import StreamSymbols, assemble_uplink_symbol, complex_normal, estimate, rng_for, run_round, sample_channels
from yrelay.alignment import DofVector, build_stream_plan
from yrelay.channel import SystemConfig
from yrelay.cli import main
from yrelay.dofregion import (
    RegionSpec,
    construction_feasible,
    find_construction_gap,
    is_member,
    sum_dof_max,
)
from yrelay.harness import ExperimentConfig, run_sweep
from yrelay.linalg import _unit_pinv
from yrelay.transceiver import GENIE

CRITERION4_SHA256 = "a1eba261f300b0fe56121170e53879b5043d4fdff79981f3024bc3b718d3d47b"


class _verdict:
    """Prints `ACCEPTANCE n (label): PASS|FAIL` when the block exits."""

    def __init__(self, n, label):
        self.n, self.label = n, label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        state = "FAIL" if exc_type else "PASS"
        print(f"ACCEPTANCE {self.n} ({self.label}): {state}")
        return False


def test_criterion_1_diagonalization_fidelity():
    # 1000 seeded channels over six shapes; both inverses diagonalize to
    # within 1e-9 relative and hold unit Frobenius norm to 1e-12, under 5 s.
    with _verdict(1, "diagonalization fidelity"):
        shapes = [(2, 2), (2, 4), (4, 4), (4, 6), (6, 6), (6, 8)]
        rng = rng_for(0, 1)
        start = time.perf_counter()
        for i in range(1000):
            n, m = shapes[i % len(shapes)]
            h = complex_normal(rng, (n, m))
            d = complex_normal(rng, (m, n))
            (r,), (alpha,) = _unit_pinv(h[None], right=True)
            residual = np.linalg.norm(h @ r - alpha * np.eye(n), "fro")
            assert residual / (alpha * np.sqrt(n)) <= 1e-9
            assert abs(np.trace(r.conj().T @ r).real - 1.0) <= 1e-12
            (l,), (beta,) = _unit_pinv(d[None], right=False)
            residual = np.linalg.norm(l @ d - beta * np.eye(n), "fro")
            assert residual / (beta * np.sqrt(n)) <= 1e-9
            assert abs(np.trace(l.conj().T @ l).real - 1.0) <= 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_2_parallel_pair_decomposition(reference_round):
    # Noiseless relay observation is the scaled sum of the users' slot words,
    # and each pair slot carries exactly alpha_j*u_jk + alpha_k*u_kj.
    with _verdict(2, "parallel pair decomposition"):
        ones = DofVector.uniform(4, Fraction(1))
        plan = build_stream_plan(ones, 6)
        for i in range(100):
            cfg = SystemConfig(K=4, M=6 if i % 2 == 0 else 8, N=6, P=100.0)
            ch = sample_channels(cfg, seed=1000 + i)
            rng = rng_for(2000 + i, 3)
            sym = StreamSymbols(4, {
                (j, k): complex_normal(rng, 1)
                for j in range(1, 5) for k in range(1, 5) if j != k
            })
            us = [assemble_uplink_symbol(j, sym, plan) for j in range(1, 5)]
            y = reference_round.uplink_propagate(ch, [g @ u for g, u in zip(ch.right[0], us)])
            alphas = ch.alpha[0].tolist()
            target = sum(alphas[j - 1] * us[j - 1] for j in range(1, 5))
            assert np.linalg.norm(y - target) / np.linalg.norm(target) <= 1e-9
            for block in plan.blocks:
                (j, k), off = block.users, block.offset
                want = alphas[j - 1] * sym.get(j, k)[0] + alphas[k - 1] * sym.get(k, j)[0]
                assert abs(y[off] - want) <= 1e-9 * max(abs(want), 1.0)


def test_criterion_3_noiseless_round_trip():
    # Genie relay, no noise, all-ones targets: every direction's estimate
    # reproduces the unit symbol to 1e-8 over 100 channel draws.
    with _verdict(3, "noiseless round trip"):
        plan = build_stream_plan(DofVector.uniform(4, Fraction(1)), 6)
        for i in range(100):
            cfg = SystemConfig(K=4, M=6, N=6, P=100.0)
            ch = sample_channels(cfg, seed=5000 + i)
            ones = np.ones(12, dtype=np.complex128)  # one unit symbol per direction
            res = run_round(cfg, ch, plan, symbols=ones, mode=GENIE, noise=False, seed=9000 + i)
            for pair in res.layout.estimate_order:
                est = estimate(res, pair)
                assert est.shape == (1,)
                assert abs(est[0] - 1.0) <= 1e-8
            assert res.power_ok[0, 0]


def test_criterion_4_rate_slope_tracks_total_dof():
    # Genie sweep 30..60 dB, 200 trials/point: the sum-rate-proxy slope in
    # log2(P) lands within 5% of 12 (= 2N for N=6), in under two minutes.
    # The CSV digest pins the bytes of the square (M = N) inverse route.
    with _verdict(4, "rate slope tracks total streams"):
        start = time.perf_counter()
        cfg = ExperimentConfig(
            system=SystemConfig(K=4, M=6, N=6, P=1.0),
            dof=DofVector.uniform(4, Fraction(1)),
            sweep_db=(30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0),
            trials=200,
            seed=0,
        )
        report = run_sweep(cfg)
        assert report.fit is not None
        assert 11.4 <= report.fit[0] <= 12.6
        assert hashlib.sha256(report.to_csv_bytes()).hexdigest() == CRITERION4_SHA256
        assert time.perf_counter() - start < 120.0


def test_criterion_5_region_arithmetic_is_exact():
    # Exact rational region checks: max total is 2N for N=1..8 with a
    # verified maximizer, the all-ones point is tight on all 24 orderings,
    # and a single oversized entry is rejected with a witness. Under 1 s.
    with _verdict(5, "exact region arithmetic"):
        start = time.perf_counter()
        for n in range(1, 9):
            spec = RegionSpec(K=4, N=n)
            total, argmax = sum_dof_max(spec)
            assert total == 2 * n
            v = is_member(argmax, spec)
            assert v.member
            assert argmax.total() == 2 * n
        spec = RegionSpec(K=4, N=6)
        ones = is_member(DofVector.uniform(4, Fraction(1)), spec)
        assert ones.member
        assert len(ones.tight) == 24
        too_big = is_member(DofVector(4, {(1, 2): Fraction(7)}), spec)
        assert not too_big.member
        assert too_big.witness is not None
        perm, value = too_big.witness
        assert value == 7 and value > spec.N
        assert list(perm).index(1) < list(perm).index(2)
        assert time.perf_counter() - start < 1.0


def test_criterion_6_construction_gap_witness():
    # The probe exhibits a region member whose per-pair maxima exceed the
    # relay dimension, and the cyclic 3-3-3 point stays pinned as one witness.
    with _verdict(6, "construction gap witness"):
        spec = RegionSpec(K=4, N=6)
        w = find_construction_gap(spec)
        assert w is not None
        assert is_member(w, spec).member
        feasible, total = construction_feasible(w, spec.N)
        assert not feasible and total > 6

        cyclic = DofVector(4, {
            (1, 2): Fraction(3), (2, 3): Fraction(3), (3, 1): Fraction(3),
        })
        v = is_member(cyclic, spec)
        assert v.member
        assert v.max_value == 6
        feasible, total = construction_feasible(cyclic, spec.N)
        assert not feasible and total == 9


def test_criterion_7_feasible_implies_member():
    # 10^4 random rational vectors with entries in {0, 1/6, ..., 6}, biased
    # toward small values so the antecedent fires often: every
    # construction-feasible draw is a region member, zero counterexamples.
    with _verdict(7, "construction feasibility implies membership"):
        spec = RegionSpec(K=4, N=6)
        rng = rng_for(2026, 2)
        sixths = [Fraction(t, 6) for t in range(37)]
        feasible_count = 0
        for _ in range(10_000):
            entries = {}
            for j in range(1, 5):
                for k in range(1, 5):
                    if j == k:
                        continue
                    u = rng.random()
                    if u < 0.55:
                        entries[(j, k)] = Fraction(0)
                    elif u < 0.85:
                        entries[(j, k)] = sixths[int(rng.integers(1, 7))]
                    else:
                        entries[(j, k)] = sixths[int(rng.integers(0, 37))]
            d = DofVector(4, entries)
            feasible, _ = construction_feasible(d, spec.N)
            if feasible:
                feasible_count += 1
                assert is_member(d, spec).member
        assert feasible_count >= 1000  # antecedent must actually fire


def test_criterion_8_byte_identical_reruns(capsys):
    # Same config, same seed: sweep and dof invocations reproduce their
    # output bodies byte for byte, through the library and the CLI alike.
    with _verdict(8, "byte-identical reruns"):
        cfg = ExperimentConfig(
            system=SystemConfig(K=3, M=4, N=3, P=1.0),
            dof=DofVector.uniform(3, Fraction(1)),
            sweep_db=(10.0, 20.0, 30.0),
            trials=5,
            seed=42,
        )
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        assert first.to_csv_bytes() == second.to_csv_bytes()
        assert first.to_json_bytes() == second.to_json_bytes()

        sweep_args = [
            "--quiet", "sweep", "--k", "3", "--m", "4", "--n", "3",
            "--dof", "uniform:1", "--sweep-db", "10:10:30",
            "--trials", "5", "--seed", "42", "--out", "json",
        ]
        outs = []
        for _ in range(2):
            assert main(list(sweep_args)) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

        dof_args = ["dof", "check", "--k", "4", "--n", "6", "--dof", "uniform:1"]
        outs = []
        for _ in range(2):
            assert main(list(dof_args)) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
