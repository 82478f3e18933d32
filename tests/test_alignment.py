"""Stream plan bookkeeping: exact rational lengths, slot layout, round trips."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from yrelay.alignment import (
    DofVector,
    StreamSymbols,
    assemble_uplink_symbol,
    build_stream_plan,
    extract_pair_slot,
    minimal_extension,
    ordered_pairs,
    pair_lengths,
    user_pairs,
)
from yrelay.errors import DimensionError, Infeasible, NonIntegral


def lcm_oracle(fractions):
    """Brute force: smallest T <= 10^4 making every T*f an integer."""
    for t in range(1, 10_001):
        if all((t * f).denominator == 1 for f in fractions):
            return t
    raise AssertionError("oracle range exceeded")


def random_dof(rng, k_users=4, denom=6, top=6):
    values = {}
    for j, k in ordered_pairs(k_users):
        values[(j, k)] = Fraction(rng.randint(0, top * denom), denom)
    return DofVector(k_users, values)


# -------------------------------------------------------------------- vectors


def test_pair_listings():
    assert user_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert ordered_pairs(3) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    assert len(ordered_pairs(4)) == 12


def test_dof_vector_basics():
    d = DofVector(4, {(1, 2): Fraction(3, 2)})
    assert d.get(1, 2) == Fraction(3, 2)
    assert d.get(2, 1) == 0
    assert len(d.as_tuple()) == 12
    assert d.total() == Fraction(3, 2)


def test_dof_vector_validation():
    with pytest.raises(ValueError):
        DofVector(2, {})
    with pytest.raises(ValueError):
        DofVector(4, {(1, 1): Fraction(1)})
    with pytest.raises(ValueError):
        DofVector(4, {(1, 5): Fraction(1)})
    with pytest.raises(ValueError):
        DofVector(4, {(1, 2): Fraction(-1, 2)})


def test_dof_relabel_roundtrip(relabel):
    d = DofVector(4, {(1, 2): Fraction(1), (3, 4): Fraction(2, 3)})
    sigma = {1: 2, 2: 3, 3: 4, 4: 1}
    r = relabel(d, sigma)
    assert r.get(2, 3) == Fraction(1)
    assert r.get(4, 1) == Fraction(2, 3)
    inverse = {v: k for k, v in sigma.items()}
    assert relabel(r, inverse) == d


# -------------------------------------------------------------- plan lengths


def test_pair_lengths_max_rule():
    d = DofVector(4, {(1, 2): Fraction(2), (2, 1): Fraction(1)})
    assert pair_lengths(d, 1)[(1, 2)] == 2


def test_pair_lengths_zero():
    d = DofVector(4, {})
    assert pair_lengths(d, 1)[(1, 2)] == 0


def test_pair_lengths_scaled_fractions():
    d = DofVector(4, {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 3)})
    assert pair_lengths(d, 6)[(1, 2)] == 3


def test_pair_lengths_rejects_nonintegral():
    d = DofVector(4, {(1, 2): Fraction(1, 2)})
    with pytest.raises(NonIntegral):
        pair_lengths(d, 3)


def test_minimal_extension():
    assert minimal_extension(DofVector(4, {(1, 2): Fraction(2)})) == 1
    assert minimal_extension(DofVector(4, {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 3)})) == 6
    d = DofVector(4, {(1, 2): Fraction(3, 4), (3, 4): Fraction(5, 6)})
    assert minimal_extension(d) == 12


def test_minimal_extension_matches_lcm_oracle():
    rng = random.Random(31)
    for _ in range(200):
        entries = {}
        for j, k in ordered_pairs(4):
            entries[(j, k)] = Fraction(rng.randint(0, 8), rng.randint(1, 8))
        d = DofVector(4, entries)
        assert minimal_extension(d) == lcm_oracle(d.as_tuple())


# ----------------------------------------------------------------- stream plan


def test_all_ones_plan():
    plan = build_stream_plan(DofVector.uniform(4, Fraction(1)), 6)
    assert plan.T == 1
    assert all(plan.lengths[p] == 1 for p in user_pairs(plan.K))
    assert plan.padding == 0
    assert plan.word_length == 6
    # consecutive lexicographic offsets
    assert [plan.slot(j, k)[0] for j, k in user_pairs(plan.K)] == [0, 1, 2, 3, 4, 5]


def test_plan_infeasible_single_pair():
    with pytest.raises(Infeasible) as err:
        build_stream_plan(DofVector(4, {(1, 2): Fraction(7)}), 6)
    assert err.value.excess == 1


def test_plan_infeasible_cycle():
    d = DofVector(4, {(1, 2): Fraction(3), (2, 3): Fraction(3), (3, 1): Fraction(3)})
    with pytest.raises(Infeasible) as err:
        build_stream_plan(d, 6)
    assert err.value.excess == 3  # sum of maxima 9 vs 6 slots


def test_plan_padding_and_extension():
    d = DofVector(4, {(1, 2): Fraction(3, 2), (2, 1): Fraction(1, 2), (3, 4): Fraction(2)})
    plan = build_stream_plan(d, 6)
    assert plan.T == 2
    assert plan.word_length == 12
    assert plan.lengths[(1, 2)] == 3  # max(3, 1) over T=2
    assert plan.lengths[(3, 4)] == 4
    assert plan.padding == 12 - 7
    assert plan.stream_lengths[(2, 1)] == 1


def test_plan_json_schema():
    plan = build_stream_plan(DofVector.uniform(4, Fraction(1)), 6)
    blob = json.loads(json.dumps(plan.to_dict()))
    assert blob["T"] == 1 and blob["N"] == 6 and blob["padding"] == 0
    slots = {(s["pair"][0], s["pair"][1]): s for s in blob["slots"]}
    assert slots[(1, 2)]["offset"] == 0
    assert slots[(1, 2)]["length"] == 1
    assert slots[(1, 2)]["symbols_fwd"] == 1


# ------------------------------------------------------------- word assembly


def unit_symbols(plan, fill=0.0):
    data = {}
    for j, k in ordered_pairs(plan.K):
        data[(j, k)] = np.full(plan.stream_lengths[(j, k)], fill, dtype=np.complex128)
    return StreamSymbols(plan.K, data)


def test_assemble_all_zero():
    plan = build_stream_plan(DofVector.uniform(4, Fraction(1)), 6)
    sym = unit_symbols(plan)
    assert np.allclose(assemble_uplink_symbol(1, sym, plan), 0.0)


def test_assemble_slot_placement():
    plan = build_stream_plan(DofVector.uniform(4, Fraction(1)), 6)
    c = 2.0 - 1.0j
    sym = StreamSymbols(4, {(1, 2): [c], (1, 3): [0.0], (1, 4): [0.0]})
    u1 = assemble_uplink_symbol(1, sym, plan)
    assert u1[0] == c
    assert np.allclose(u1[1:], 0.0)


def test_assemble_extract_roundtrip():
    rng = np.random.default_rng(17)
    d = DofVector(4, {(1, 2): Fraction(3, 2), (2, 1): Fraction(1, 2), (2, 4): Fraction(1),
                      (3, 4): Fraction(1, 2)})
    plan = build_stream_plan(d, 6)
    data = {}
    for j, k in ordered_pairs(4):
        n = plan.stream_lengths[(j, k)]
        data[(j, k)] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sym = StreamSymbols(4, data)
    for j in range(1, 5):
        u = assemble_uplink_symbol(j, sym, plan)
        assert u.shape == (plan.word_length,)
        for k in range(1, 5):
            if k == j:
                continue
            slot = extract_pair_slot(u, (j, k), plan)
            nj = plan.stream_lengths[(j, k)]
            assert np.array_equal(slot[:nj], sym.get(j, k))
            assert np.allclose(slot[nj:], 0.0)  # zero-pad up to the pair length
        # padding tail stays zero
        if plan.padding:
            assert np.allclose(u[-plan.padding:], 0.0)


def test_slot_disjointness():
    # two users' words overlap only inside their shared pair slot
    plan = build_stream_plan(DofVector.uniform(4, Fraction(1)), 6)
    sym = unit_symbols(plan, fill=1.0)
    words = {j: assemble_uplink_symbol(j, sym, plan) for j in range(1, 5)}
    for j in range(1, 5):
        for jp in range(j + 1, 5):
            both = (np.abs(words[j]) > 0) & (np.abs(words[jp]) > 0)
            off, length = plan.slot(j, jp)
            outside = both.copy()
            outside[off : off + length] = False
            assert not outside.any()


def test_extract_validates():
    plan = build_stream_plan(DofVector.uniform(4, Fraction(1)), 6)
    with pytest.raises(DimensionError):
        extract_pair_slot(np.zeros(5), (1, 2), plan)
    with pytest.raises(ValueError):
        extract_pair_slot(np.zeros(6), (1, 1), plan)


def test_feasibility_matches_sum_of_maxima():
    # build_stream_plan succeeds exactly when sum of pair maxima fits N
    rng = random.Random(23)
    for _ in range(300):
        d = random_dof(rng)
        total = sum(max(d.get(j, k), d.get(k, j)) for j, k in user_pairs(4))
        n = rng.randint(1, 10)
        if total <= n:
            plan = build_stream_plan(d, n)
            assert plan.padding >= 0
        else:
            with pytest.raises(Infeasible):
                build_stream_plan(d, n)
