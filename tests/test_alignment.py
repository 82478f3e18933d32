"""DoF vectors and stream plan bookkeeping: exact integer lengths, the
alignment-block layout, and the slot-word assembly and extraction oracles in
conftest.py."""

import json
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StreamSymbols, assemble_uplink_symbol, extract_pair_slot, feasible_points, stream_lengths
from yrelay.alignment import DofVector, build_stream_plan, ordered_pairs, pair_cells, pair_index, user_pairs
from yrelay.errors import DimensionError, Infeasible


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_to_dict_renders_as_fractions(data):
    # to_dict renders the entries from the ints; the oracle renders each
    # Fraction in sorted pair order, which puts 1-10 before 2-1 from K = 10
    k = data.draw(st.integers(3, 10))
    t = data.draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.integers(0, 3).map(lambda q: q * t), st.integers(0, 4 * t))
    scaled = data.draw(st.lists(entry, min_size=k * (k - 1), max_size=k * (k - 1)))
    entries = {pair: Fraction(v, t) for pair, v in zip(ordered_pairs(k), scaled)}
    for d in (DofVector.from_scaled(k, scaled, t), DofVector(k, entries), DofVector(k), DofVector.uniform(k, scaled[0])):
        want = {f"{j}-{kk}": str(v) for (j, kk), v in sorted(d.items())}
        got = d.to_dict()
        assert got == {"K": k, "entries": want} and list(got["entries"]) == list(want)


def test_pair_listings():
    assert user_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert ordered_pairs(3) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    assert len(ordered_pairs(4)) == 12
    for k in (3, 4, 7):
        assert list(pair_index(k)) == ordered_pairs(k)
        assert list(pair_index(k).values()) == list(range(k * (k - 1)))


@pytest.mark.parametrize("k", range(3, 9))
def test_pairs_are_built_once_per_k(k):
    first, second = ordered_pairs(k), ordered_pairs(k)
    assert first == second and first is not second
    first[0] = None
    first.append((0, 0))
    assert ordered_pairs(k) == second and len(second) == k * (k - 1)
    # every table and listing holds the same tuple objects
    assert all(pair is key for pair, key in zip(ordered_pairs(k), pair_index(k), strict=True))
    shared = {id(pair): pair for pair in second}
    assert all(shared.get(id(pair)) is pair for pair in user_pairs(k))
    assert [pair for pair, _, _ in pair_cells(k)] == user_pairs(k)
    assert all(shared.get(id(pair)) is pair for pair, _, _ in pair_cells(k))
    d = DofVector.uniform(k, Fraction(1, k))
    assert all(shared.get(id(pair)) is pair for pair, _ in d.items())
    assert all(shared.get(id(pair)) is pair for pair in build_stream_plan(d, k).symbol_spans)


def test_a_point_pool_holds_one_set_of_pairs():
    # 1000 criterion-7 points at K = 4, kept with their entry dicts and
    # items() lists, reference 12 pair objects in all
    rng = random.Random(7)
    held = set()
    for _ in range(1000):
        sixths = {}
        for pair in ordered_pairs(4):
            u = rng.random()
            sixths[pair] = 0 if u < 0.55 else rng.randint(1, 6) if u < 0.85 else rng.randint(0, 36)
        entries = {p: Fraction(v, 6) for p, v in sixths.items()}
        d = DofVector(4, entries)
        held.update(id(p) for p in sixths)
        held.update(id(p) for p in entries)
        held.update(id(p) for p, _ in d.items())
    assert len(held) == 12


def test_dof_vector_is_slotted():
    d = DofVector(4, {(1, 2): Fraction(3, 2), (3, 4): 1})
    assert not hasattr(d, "__dict__")
    with pytest.raises(AttributeError):
        d.note = "x"
    same = DofVector.from_scaled(4, [3 * v for v in d.scaled], 3 * d.T)
    assert (same.K, same.T, same.scaled) == (d.K, d.T, d.scaled) == (4, 2, (3,) + (0,) * 7 + (2,) + (0,) * 3)
    assert same == d and hash(same) == hash(d) and d != DofVector(4) and d != d.scaled
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(d, protocol))
        assert back == d and hash(back) == hash(d) and (back.K, back.T, back.scaled) == (d.K, d.T, d.scaled)
    assert repr(d) == "DofVector(K=4, {'1->2': '3/2', '3->4': '1'})"
    want = dict.fromkeys((f"{j}-{k}" for j, k in ordered_pairs(4)), "0") | {"1-2": "3/2", "3-4": "1"}
    assert d.to_dict() == {"K": 4, "entries": want}


def test_dof_vector_basics():
    d = DofVector(4, {(1, 2): Fraction(3, 2)})
    assert d.get(1, 2) == Fraction(3, 2)
    assert d.get(2, 1) == 0
    assert len(d.as_tuple()) == 12
    assert d.total() == Fraction(3, 2)
    assert (d.T, d.scaled) == (2, (3,) + (0,) * 11)
    assert d.items() == list(zip(ordered_pairs(4), d.as_tuple()))
    assert repr(d) == "DofVector(K=4, {'1->2': '3/2'})"
    # the same vector from its ints over any common denominator
    assert DofVector.from_scaled(4, (9,) + (0,) * 11, 6) == d
    assert DofVector.from_scaled(4, (0,) * 12, 5) == DofVector(4) == DofVector.uniform(4, 0)
    assert DofVector.from_scaled(4, (0,) * 12, 5).T == 1


def test_dof_vector_validation():
    with pytest.raises(ValueError):
        DofVector(2, {})
    with pytest.raises(ValueError):
        DofVector(4, {(1, 1): Fraction(1)})
    with pytest.raises(ValueError):
        DofVector(4, {(1, 5): Fraction(1)})
    with pytest.raises(ValueError):
        DofVector(4, {(1, 2): Fraction(-1, 2)})
    for k, scaled, t in ((4, (1,) * 11, 1), (4, (-1,) + (0,) * 11, 1), (4, (0,) * 12, 0), (2, (0, 0), 1)):
        with pytest.raises(ValueError):
            DofVector.from_scaled(k, scaled, t)


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
    blocks = build_stream_plan(d, 6).blocks
    assert (blocks[0].users, blocks[0].streams, blocks[0].length) == ((1, 2), (2, 1), 2)
    assert [block.users for block in blocks] == user_pairs(4)


def test_pair_lengths_zero():
    blocks = build_stream_plan(DofVector(4, {}), 6).blocks
    assert (blocks[0].users, blocks[0].streams, blocks[0].length) == ((1, 2), (0, 0), 0)


def test_pair_lengths_scaled_fractions():
    d = DofVector(4, {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 3)})
    assert d.T == 6
    blocks = build_stream_plan(d, 6).blocks
    assert (blocks[0].users, blocks[0].streams, blocks[0].length) == ((1, 2), (3, 2), 3)


def test_minimal_extension():
    assert DofVector(4, {(1, 2): Fraction(2)}).T == 1
    assert DofVector(4, {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 3)}).T == 6
    d = DofVector(4, {(1, 2): Fraction(3, 4), (3, 4): Fraction(5, 6)})
    assert d.T == 12


@settings(deadline=None, database=None, derandomize=True, max_examples=200)
@given(st.integers(3, 5).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.fractions(0, 8, max_denominator=8), min_size=k * (k - 1), max_size=k * (k - 1)))))
def test_minimal_extension_matches_lcm_oracle(case):
    # T is the least extension making every entry an integer, the ints are
    # T times the entries, and reading them back gives the entries
    k, values = case
    d = DofVector(k, dict(zip(ordered_pairs(k), values)))
    assert d.T == lcm_oracle(values)
    assert d.scaled == tuple(int(d.T * v) for v in values)
    assert d.as_tuple() == tuple(values)
    assert d == DofVector.from_scaled(k, [3 * v for v in d.scaled], 3 * d.T)


# ----------------------------------------------------------------- stream plan


def test_all_ones_plan():
    plan = build_stream_plan(DofVector.uniform(4, Fraction(1)), 6)
    assert plan.T == 1
    assert [block.users for block in plan.blocks] == user_pairs(plan.K)
    assert all(block.streams == (1, 1) and block.length == 1 for block in plan.blocks)
    assert plan.padding == 0
    assert plan.word_length == 6
    # consecutive lexicographic offsets
    assert [block.offset for block in plan.blocks] == [0, 1, 2, 3, 4, 5]


def test_plan_needs_a_relay_antenna():
    # the bound RegionSpec and SystemConfig put on N
    for n in (0, -1):
        with pytest.raises(ValueError, match="need at least one relay antenna"):
            build_stream_plan(DofVector(4), n)


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
    first, last = plan.blocks[0], plan.blocks[-1]
    assert (first.users, first.streams, first.length) == ((1, 2), (3, 1), 3)  # max(3, 1) over T=2
    assert (last.users, last.streams, last.offset, last.length) == ((3, 4), (4, 0), 3, 4)
    assert plan.padding == 12 - 7
    assert dict(first.directions()) == {(1, 2): 3, (2, 1): 1}


@settings(deadline=None, database=None, derandomize=True, max_examples=200)
@given(feasible_points())
def test_blocks_tile_the_word_pair_by_pair(point):
    # one pair block per unordered pair in user_pairs order, back to back
    # from 0, each max(T*d_jk, T*d_kj) long and carrying T*d_jk and T*d_kj;
    # every ordered pair is one block direction, and padding fills the rest
    d, n = point
    plan = build_stream_plan(d, n)
    assert [block.users for block in plan.blocks] == user_pairs(d.K)
    offset = 0
    for block in plan.blocks:
        j, k = block.users
        assert block.offset == offset
        assert block.streams == (plan.T * d.get(j, k), plan.T * d.get(k, j))
        assert block.length == max(block.streams)
        offset += block.length
    directions = [pair for block in plan.blocks for pair, _ in block.directions()]
    assert sorted(directions) == ordered_pairs(d.K)
    assert plan.padding == plan.T * n - offset >= 0


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
        data[(j, k)] = np.full(stream_lengths(plan)[(j, k)], fill, dtype=np.complex128)
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
        n = stream_lengths(plan)[(j, k)]
        data[(j, k)] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sym = StreamSymbols(4, data)
    for j in range(1, 5):
        u = assemble_uplink_symbol(j, sym, plan)
        assert u.shape == (plan.word_length,)
        for k in range(1, 5):
            if k == j:
                continue
            slot = extract_pair_slot(u, (j, k), plan)
            nj = stream_lengths(plan)[(j, k)]
            assert np.array_equal(slot[:nj], sym.get(j, k))
            assert np.allclose(slot[nj:], 0.0)  # zero-pad up to the pair length
        # padding tail stays zero
        if plan.padding:
            assert np.allclose(u[-plan.padding:], 0.0)


def test_slot_disjointness():
    # two users' words overlap only inside the block of their pair
    plan = build_stream_plan(DofVector.uniform(4, Fraction(1)), 6)
    sym = unit_symbols(plan, fill=1.0)
    words = {j: assemble_uplink_symbol(j, sym, plan) for j in range(1, 5)}
    for block in plan.blocks:
        j, jp = block.users
        both = (np.abs(words[j]) > 0) & (np.abs(words[jp]) > 0)
        outside = both.copy()
        outside[block.offset : block.offset + block.length] = False
        assert both.any() and not outside.any()


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
