"""Exact region computations: membership, sum-DoF, gap probe, vertices.

Oracles: hand-enumerated permutation sums for pinned points; the brute-force
K!-enumeration membership check and the LPs over all K! ordering rows (in
conftest.py), which property tests hold the subset DP and the cutting-plane
LPs to; the full-row LP as a support-function oracle for the vertex list;
and a closed-form vertex catalogue checked for several N.
"""

import pickle
import random
from fractions import Fraction
from itertools import permutations
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import yrelay.dofregion
from conftest import permutation_constraint
from yrelay.alignment import (
    AlignmentBlock,
    DofVector,
    StreamPlan,
    build_stream_plan,
    ordered_pairs,
    pair_cells,
    pair_index,
    user_pairs,
)
from yrelay.dofregion import (
    GAP_MAX_USERS,
    ORACLE_MAX_USERS,
    TIGHT_LIST_MAX,
    MembershipVerdict,
    RegionSpec,
    construction_feasible,
    find_construction_gap,
    is_member,
    sum_dof_max,
    vertices_k3,
)
from yrelay.errors import Infeasible, LpError, TooLarge, WitnessInvalid
from yrelay.simplex import _certify, _solve

F = Fraction
ALL_ONES = DofVector.uniform(4, F(1))
CYCLE = DofVector(4, {(1, 2): F(3), (2, 3): F(3), (3, 1): F(3)})
SPEC46 = RegionSpec(K=4, N=6)
# fixed example sequence, no example database: the same cases on every run
PROPERTY = settings(deadline=None, database=None, derandomize=True)


def test_region_spec_validation():
    with pytest.raises(ValueError):
        RegionSpec(K=2, N=6)
    with pytest.raises(ValueError):
        RegionSpec(K=4, N=0)


BLOCK12 = AlignmentBlock(users=(1, 2), streams=(3, 1), offset=0, length=3)
# (record, another of its type, its repr)
RECORDS = {
    "RegionSpec": (RegionSpec(K=4, N=6), RegionSpec(K=4, N=7), "RegionSpec(K=4, N=6)"),
    "MembershipVerdict": (
        MembershipVerdict(member=False, witness=((2, 1, 3), F(7, 2)), tight=(), max_value=F(7, 2)),
        MembershipVerdict(member=True, witness=None, tight=(), max_value=F(7, 2)),
        "MembershipVerdict(member=False, witness=((2, 1, 3), Fraction(7, 2)), tight=(), max_value=Fraction(7, 2))",
    ),
    "AlignmentBlock": (
        BLOCK12,
        AlignmentBlock(users=(1, 2), streams=(3, 1), offset=1, length=3),
        "AlignmentBlock(users=(1, 2), streams=(3, 1), offset=0, length=3)",
    ),
    "StreamPlan": (
        StreamPlan(K=3, N=2, T=2, blocks=(BLOCK12,)),
        StreamPlan(K=3, N=3, T=2, blocks=(BLOCK12,)),
        "StreamPlan(K=3, N=2, T=2, blocks=(" + repr(BLOCK12) + ",))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_region_records_keep_their_contract(name):
    # the records are named tuples: keyword construction, read-only fields,
    # field-wise equality and hash, the keyword repr and pickling; each also
    # equals the plain tuple of its fields
    record, other, text = RECORDS[name]
    fields = record._asdict()
    assert type(record).__name__ == name and repr(record) == text
    assert record == type(record)(**fields) == tuple(fields.values()) and record != other
    assert hash(record) == hash(type(record)(**fields)) == hash(tuple(fields.values()))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == text


def test_stream_plan_caches_in_its_dict():
    plan = build_stream_plan(ALL_ONES, 6)
    assert plan.padding == 0 and plan.__dict__ == {"padding": 0}
    assert pickle.loads(pickle.dumps(plan)).symbol_spans == plan.symbol_spans


# ---------------------------------------------------------------- constraints


def test_constraint_all_ones():
    for p in permutations((1, 2, 3, 4)):
        assert permutation_constraint(ALL_ONES, p) == 6


def test_constraint_reversed_ordering():
    # ordering (4,3,2,1) selects exactly the reverse-direction entries
    d = DofVector(4, {(2, 1): F(1), (3, 1): F(2), (4, 1): F(3),
                      (3, 2): F(4), (4, 2): F(5), (4, 3): F(6)})
    got = permutation_constraint(d, (4, 3, 2, 1))
    assert got == 1 + 2 + 3 + 4 + 5 + 6


def test_constraint_cycle_natural_order():
    # (1,2,3,4) selects d_12 and d_23 from the cycle; d_31 runs backwards
    assert permutation_constraint(CYCLE, (1, 2, 3, 4)) == 6


def test_constraint_validates_permutation():
    with pytest.raises(ValueError):
        permutation_constraint(ALL_ONES, (1, 2, 3))
    with pytest.raises(ValueError):
        permutation_constraint(ALL_ONES, (1, 2, 3, 3))


# ----------------------------------------------------------------- membership


def test_all_ones_member_fully_tight():
    v = is_member(ALL_ONES, SPEC46)
    assert v.member
    assert v.witness is None
    assert len(v.tight) == 24
    assert v.max_value == 6


def test_single_heavy_direction_rejected():
    v = is_member(DofVector(4, {(1, 2): F(7)}), SPEC46)
    assert not v.member
    p, value = v.witness
    assert value == 7 > 6
    assert p.index(1) < p.index(2)


def test_cycle_point_membership():
    # the 3-cycle saturates half of the orderings and leaves the rest at 3
    v = is_member(CYCLE, SPEC46)
    assert v.member
    assert v.max_value == 6
    assert len(v.tight) == 12
    values = {permutation_constraint(CYCLE, p) for p in permutations((1, 2, 3, 4))}
    assert values == {3, 6}


def test_membership_relabel_invariance(relabel):
    rng = random.Random(5)
    for _ in range(40):
        d = DofVector(4, {
            (j, k): F(rng.randint(0, 12), rng.randint(1, 4)) for j, k in ordered_pairs(4)
        })
        base = is_member(d, SPEC46).member
        perm = list(range(1, 5))
        rng.shuffle(perm)
        sigma = {i + 1: perm[i] for i in range(4)}
        assert is_member(relabel(d, sigma), SPEC46).member == base


def test_membership_downscaling():
    rng = random.Random(6)
    for _ in range(40):
        d = DofVector(4, {
            (j, k): F(rng.randint(0, 8), rng.randint(1, 3)) for j, k in ordered_pairs(4)
        })
        if not is_member(d, SPEC46).member:
            continue
        c = F(rng.randint(1, 4), 4)
        shrunk = DofVector(d.K, {p: v * c for p, v in d.items()})
        assert is_member(shrunk, SPEC46).member


def test_witness_value_exceeds_bound_iff_rejected():
    rng = random.Random(7)
    for _ in range(60):
        d = DofVector(4, {
            (j, k): F(rng.randint(0, 10), rng.randint(1, 2)) for j, k in ordered_pairs(4)
        })
        v = is_member(d, SPEC46)
        if v.member:
            assert v.witness is None and v.max_value <= 6
        else:
            assert v.witness is not None and v.witness[1] > 6


def test_membership_guard():
    k = ORACLE_MAX_USERS + 1
    with pytest.raises(TooLarge):
        is_member(DofVector(k, {}), RegionSpec(K=k, N=2))


def test_membership_nine_users():
    spec = RegionSpec(K=9, N=7)
    cycle = DofVector(9, {(1, 2): F(3), (2, 3): F(3), (3, 1): F(3)})
    v = is_member(cycle, spec)
    assert v.member and v.witness is None and v.tight == () and v.max_value == 6
    v = is_member(DofVector(9, {(1, 2): F(7), (9, 8): F(1, 2)}), spec)
    assert not v.member
    # (1,...,7,8,9) carries only d_12; the first ordering that also has 9 before 8
    assert v.witness == ((1, 2, 3, 4, 5, 6, 7, 9, 8), F(15, 2))
    assert v.max_value == F(15, 2)


def test_tight_list_guard():
    # every ordering of a uniform point is tight: 8! are listed, 9! are refused
    v = is_member(DofVector.uniform(8, F(1, 28)), RegionSpec(K=8, N=1))
    assert len(v.tight) == TIGHT_LIST_MAX == 40320
    assert v.tight[0] == (1, 2, 3, 4, 5, 6, 7, 8) and v.tight[-1] == (8, 7, 6, 5, 4, 3, 2, 1)
    assert list(v.tight) == sorted(set(v.tight))
    with pytest.raises(TooLarge):
        is_member(DofVector.uniform(9, F(1, 36)), RegionSpec(K=9, N=1))
    # half of the 9! orderings put two edges of the 3-cycle in order
    with pytest.raises(TooLarge):
        is_member(DofVector(9, {(1, 2): F(3), (2, 3): F(3), (3, 1): F(3)}), RegionSpec(K=9, N=6))


@st.composite
def region_points(draw, tight=False):
    """A K = 3..6 point and a region; the point is scaled so that its largest
    ordering sum lands on N (tight orderings), just above N (a witness), or
    is left as drawn; with `tight`, always on N."""
    k = draw(st.integers(3, 6))
    spec = RegionSpec(K=k, N=draw(st.integers(1, 8)))
    entry = st.one_of(st.just(0), st.integers(1, 12))
    d = DofVector(k, {
        p: F(draw(entry), draw(st.sampled_from((1, 2, 3, 4)))) for p in ordered_pairs(k)
    })
    top = max(permutation_constraint(d, p) for p in permutations(range(1, k + 1)))
    target = F(spec.N) if tight else draw(st.sampled_from((None, F(spec.N), spec.N + F(1, 7))))
    if target is not None and top > 0:
        d = DofVector(k, {p: v * target / top for p, v in d.items()})
    return d, spec


@settings(PROPERTY, max_examples=80)
@given(region_points())
def test_membership_matches_enumeration(brute_membership, case):
    # the oracle takes each value from permutation_constraint, so this also
    # holds the witness value, summed from the DP's int weights, to it
    d, spec = case
    assert is_member(d, spec) == brute_membership(d, spec)


@settings(PROPERTY, max_examples=60)
@given(region_points(tight=True))
def test_tight_count_matches_enumeration(brute_membership, case):
    d, spec = case
    values = [permutation_constraint(d, p) for p in permutations(range(1, d.K + 1))]
    count = yrelay.dofregion._OrderingDP(d).tight_count()
    assert count == values.count(max(values))
    verdict = brute_membership(d, spec)
    if verdict.member and verdict.max_value == spec.N:
        assert count == len(verdict.tight) > 0


@settings(PROPERTY, max_examples=80)
@given(region_points())
def test_cut_search_runs_only_past_the_bound(case):
    # the DP's largest sum exceeds N*T exactly when some ordering exceeds N,
    # and the cut the LPs add is then the lexicographically first violator,
    # read off the walk with its scaled sum
    d, spec = case
    dp = yrelay.dofregion._OrderingDP(d)
    violators = [p for p in permutations(range(1, d.K + 1)) if permutation_constraint(d, p) > spec.N]
    bound = spec.N * dp.scale
    assert (dp.best[-1] > bound) == bool(violators)
    first = next(dp.orderings(bound + 1), None)
    assert (first[0] if first else None) == (violators[0] if violators else None)
    if violators:
        assert first[1] == permutation_constraint(d, violators[0]) * d.T > bound


@settings(PROPERTY, max_examples=80)
@given(region_points(), st.data())
def test_ordering_walk_matches_enumeration(case, data):
    # the walk yields exactly the orderings whose scaled sum reaches the
    # floor, in lexicographic order, each with its exact scaled sum: at the
    # region's bound (the tight list), just past it (the witness and the
    # cut) and at a drawn floor
    d, spec = case
    dp = yrelay.dofregion._OrderingDP(d)
    sums = [(p, permutation_constraint(d, p) * d.T) for p in permutations(range(1, d.K + 1))]
    assert all(s.denominator == 1 for _, s in sums) and dp.best[-1] == max(s for _, s in sums)
    bound = spec.N * d.T
    for floor in (bound, bound + 1, data.draw(st.integers(-1, 2 * bound + 2), label="floor")):
        assert list(dp.orderings(floor)) == [(p, s) for p, s in sums if s >= floor]


def test_one_subset_table_per_dp(monkeypatch):
    # _subset_sums builds the one table of each DP: is_member on a
    # non-member (witness) and on a tight member (tight list), and the K=4
    # gap probe, whose LPs search the walk for cuts, build no other
    builds = {"dp": 0, "tables": 0, "walks": 0}
    subset_sums = yrelay.dofregion._subset_sums

    def counted(rows, half):
        builds["tables"] += 1
        return subset_sums(rows, half)

    class CountedDP(yrelay.dofregion._OrderingDP):
        def __init__(self, d):
            builds["dp"] += 1
            super().__init__(d)

        def orderings(self, floor):
            builds["walks"] += 1
            return super().orderings(floor)

    monkeypatch.setattr(yrelay.dofregion, "_subset_sums", counted)
    monkeypatch.setattr(yrelay.dofregion, "_OrderingDP", CountedDP)
    verdict = is_member(DofVector(4, {(1, 2): F(7)}), SPEC46)
    assert not verdict.member and builds == {"dp": 1, "tables": 1, "walks": 1}
    builds.update(dp=0, tables=0, walks=0)
    verdict = is_member(CYCLE, SPEC46)
    assert len(verdict.tight) == 12 and builds == {"dp": 1, "tables": 1, "walks": 1}
    builds.update(dp=0, tables=0, walks=0)
    assert find_construction_gap(SPEC46) is not None
    assert builds["walks"] > 0 and builds["tables"] == builds["dp"] > builds["walks"]


def _brute_best(d, users) -> int:
    """Largest scaled ordering sum over the orderings of `users`."""
    index = pair_index(d.K)
    return max(
        sum(d.scaled[index[(p[a], p[b])]] for a in range(len(p)) for b in range(a + 1, len(p)))
        for p in permutations(users)
    )


@pytest.mark.parametrize("k", [5, 6])
def test_dp_fills_every_subset_exactly(k):
    # every per-subset value of the DP and of its half tables, not only those
    # the pruned walk reads, on one fixed vector per K (zeros, repeats and a
    # common denominator T = 3 among its entries)
    scaled = [(7 * i + k) % 11 if i % 4 else 0 for i in range(k * (k - 1))]
    d = DofVector.from_scaled(k, scaled, 3)
    dp = yrelay.dofregion._OrderingDP(d)
    index = pair_index(k)
    for s in range(1 << k):
        users = [u for u in range(1, k + 1) if s >> (u - 1) & 1]
        assert dp.best[s] == (_brute_best(d, users) if users else 0)
        if len(users) == 1:
            assert dp.best[s] == 0
        elif len(users) == 2:
            u, v = users
            assert dp.best[s] == max(d.scaled[index[(u, v)]], d.scaled[index[(v, u)]])
    rows = [[(3 * u + 5 * v) % 7 for v in range(k + 1)] for u in range(k)]
    for half in range(k + 1):
        lo, hi = yrelay.dofregion._subset_sums(rows, half)
        assert len(lo) == 1 << half and len(hi) == 1 << (k - half)
        for s in range(1 << k):
            sums = [sum(rows[u][v] for u in range(k) if s >> u & 1) for v in range(k + 1)]
            assert [a + b for a, b in zip(lo[s % (1 << half)], hi[s >> half])] == sums


def _last_placed_best(d):
    """Largest ordering sum of every user subset, in Fractions, by the
    recurrence on the user placed last: f(S) = max over v in S of f(S - v)
    plus the entries from S - v into v (the DP places the first user)."""
    f = [F(0)] * (1 << d.K)
    for s in range(1, 1 << d.K):
        users = [u for u in range(1, d.K + 1) if s >> (u - 1) & 1]
        f[s] = max(f[s ^ 1 << (v - 1)] + sum(d.get(u, v) for u in users if u != v) for v in users)
    return f


@pytest.mark.parametrize("k", range(3, 10))
def test_both_dp_loops_match_an_independent_oracle(brute_membership, k):
    # K <= 8 runs the per-K schedule and K = 9 the loop that splits each
    # subset; both fill every subset as the last-placed recurrence does, and
    # is_member's verdict, witness, tight list and max value match the K!
    # enumeration for K <= 7, on seeded points scaled to land on N (tight),
    # just above it (a witness) or left as drawn
    rng = random.Random(k)
    assert (yrelay.dofregion._dp_tables(k)[3] is None) == (k > 8)
    for above in (0, F(1, 7), None):
        spec = RegionSpec(K=k, N=rng.randint(1, 8))
        d = DofVector(k, {p: F(rng.choice((0, 0, rng.randint(1, 12))), rng.randint(1, 4))
                          for p in ordered_pairs(k)})
        top = _last_placed_best(d)[-1]
        if above is not None and top > 0:
            d = DofVector(k, {p: v * (spec.N + above) / top for p, v in d.items()})
        best = yrelay.dofregion._OrderingDP(d).best
        assert best == [v * d.T for v in _last_placed_best(d)]
        if k <= 7:
            assert is_member(d, spec) == brute_membership(d, spec)


# -------------------------------------------------------------------- sum-DoF


def test_sum_dof_doubles_relay_antennas():
    for n in range(1, 9):
        value, arg = sum_dof_max(RegionSpec(K=4, N=n))
        assert value == 2 * n
        assert is_member(arg, RegionSpec(K=4, N=n)).member
        assert arg.total() == 2 * n


def test_sum_dof_three_users_single_antenna():
    value, arg = sum_dof_max(RegionSpec(K=3, N=1))
    assert value == 2
    assert is_member(arg, RegionSpec(K=3, N=1)).member


def test_sum_dof_symmetric_point_also_optimal():
    value, _ = sum_dof_max(RegionSpec(K=4, N=5))
    assert value == 10
    sym = DofVector.uniform(4, F(5, 6))
    assert sym.total() == 10
    assert is_member(sym, RegionSpec(K=4, N=5)).member


def test_sum_dof_doubles_relay_antennas_six_and_eight_users():
    for k in (6, 8):
        for n in (1, 6):
            value, arg = sum_dof_max(RegionSpec(K=k, N=n))
            assert value == arg.total() == 2 * n
            assert is_member(arg, RegionSpec(K=k, N=n)).member


def test_per_k_tables_are_shared_read_only(full_row_lp):
    # tables built once per K are tuples all the way down (and getters), so
    # no caller can change them. The DP's step tables hold 2^(K/2) entries
    # each; its schedule, one record per subset of two or more users in the
    # loop's band order, is built for K <= 8 only, so no table of K >= 9
    # has 2^K entries. User v's getter reads the entries into v, 0 for d_vv
    def frozen(t):
        return type(t) is tuple and all(frozen(v) for v in t if not isinstance(v, int))

    for k in (3, 4, 7, 8, 9, ORACLE_MAX_USERS):
        into, lo, hi, schedule = yrelay.dofregion._dp_tables(k)
        assert (len(into), len(lo), len(hi)) == (k, 2 ** (k // 2), 2 ** (k - k // 2))
        assert frozen((lo, hi)) and frozen(yrelay.dofregion._extreme_rows(k))
        if k <= 8:
            assert frozen(schedule) and len(schedule) == 2 ** k - k - 1
            half = k // 2
            subsets = [s for b in range(1, k) for s in range(1 << b | 1, 2 << b)]
            assert [r[0] for r in schedule] == subsets
            for s, low, high, steps in schedule:
                members = [u for u in range(k) if s >> u & 1]
                assert (low, high) == (s % 2 ** half, s >> half)
                assert steps == tuple((s ^ 1 << u, u) for u in members)
        else:
            assert schedule is None and max(len(lo), len(hi)) < 2 ** k
        assert frozen(pair_cells(k)) and all(type(g) is itemgetter for g in into)
        d = DofVector.from_scaled(k, range(1, k * (k - 1) + 1), 1)
        assert [g(d.scaled + (0,)) for g in into] == [tuple(d.get(u, v) if u != v else 0 for u in range(1, k + 1))
                                                      for v in range(1, k + 1)]
    # the gap probe appends cuts to its rows; later LPs start again from
    # the identity and reversed rows alone
    assert find_construction_gap(SPEC46) is not None
    assert yrelay.dofregion._extreme_rows(4) == (tuple(yrelay.dofregion._ordering_row((1, 2, 3, 4))),
                                                 tuple(yrelay.dofregion._ordering_row((4, 3, 2, 1))))
    for n in range(1, 9):
        assert sum_dof_max(RegionSpec(K=4, N=n)) == full_row_lp([F(1)] * 12, 4, n)


def test_forged_maximizer_is_refused(monkeypatch):
    # an LP optimum forged to the origin passes the DP (it is a member) and
    # reaches the certificate check, which refuses it
    solve = yrelay.dofregion._solve

    def forged(c, a, b):
        x, *rest = solve(c, a, b)
        return [0] * len(x), *rest

    monkeypatch.setattr(yrelay.dofregion, "_solve", forged)
    with pytest.raises(LpError, match="^certificate: objective values disagree$"):
        sum_dof_max(SPEC46)


def test_sum_dof_guard(monkeypatch):
    # refused before any LP is solved
    monkeypatch.setattr(yrelay.dofregion, "_solve", None)
    with pytest.raises(TooLarge):
        sum_dof_max(RegionSpec(K=ORACLE_MAX_USERS + 1, N=2))


@settings(PROPERTY, max_examples=6)
@given(k=st.integers(3, 5), n=st.integers(1, 8))
def test_sum_dof_matches_full_row_lp(full_row_lp, k, n):
    assert sum_dof_max(RegionSpec(K=k, N=n)) == full_row_lp([F(1)] * (k * (k - 1)), k, n)


# ------------------------------------------------------------- construction


def test_construction_feasible_examples():
    ok, total = construction_feasible(ALL_ONES, 6)
    assert ok and total == 6
    ok, total = construction_feasible(DofVector(4, {(1, 2): F(6), (2, 1): F(6)}), 6)
    assert ok and total == 6
    ok, total = construction_feasible(CYCLE, 6)
    assert not ok and total == 9


@st.composite
def construction_points(draw):
    """A K = 3..7 point with zero entries and mixed denominators, and N;
    half of them scaled so that the pair maxima sum to N exactly."""
    k, n = draw(st.integers(3, 7)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3, 5, 6, 7))))
    d = DofVector(k, {p: draw(entry) for p in ordered_pairs(k)})
    total = sum((max(d.get(j, i), d.get(i, j)) for j, i in user_pairs(k)), F(0))
    if total and draw(st.booleans()):
        d = DofVector(k, {p: v * n / total for p, v in d.items()})
    return d, n


@settings(PROPERTY, max_examples=100)
@given(construction_points())
@example((DofVector(7, {(1, 2): F(5, 6), (2, 1): F(2, 3), (6, 7): F(1, 5)}), 2))
def test_construction_feasible_matches_fraction_sum(case):
    # the Fraction sum of the pair maxima, and in ints at the vector's
    # extension T the sum of the pair maxima max(T*d_jk, T*d_kj)
    d, n = case
    total = sum((max(d.get(j, k), d.get(k, j)) for j, k in user_pairs(d.K)), F(0))
    got = construction_feasible(d, n)
    assert got == (total <= n, total)
    assert type(got[1]) is F
    lengths = sum(max(d.scaled[i], d.scaled[r]) for _, i, r in pair_cells(d.K))
    assert got == (lengths <= n * d.T, F(lengths, d.T))


def test_gap_probe_returns_valid_witness():
    w = find_construction_gap(SPEC46)
    assert w is not None
    assert is_member(w, SPEC46).member
    ok, total = construction_feasible(w, 6)
    assert not ok and total > 6


def test_cycle_is_a_pinned_witness():
    v = is_member(CYCLE, SPEC46)
    ok, total = construction_feasible(CYCLE, 6)
    assert v.member and not ok and total == 9


# A K = 6 member with d = 2 on eleven directions, none with its reverse: pair
# slots need 22 of N = 16 relay components, and a cycle of c DoF on each of
# its L directions saves c of them (it needs (L - 1) * c components)
BEYOND_CYCLES = ((1, 5), (1, 6), (2, 1), (3, 1), (3, 4), (4, 2), (4, 6), (5, 4), (6, 2), (6, 3), (6, 5))


def directed_cycles(arcs):
    """Every simple directed cycle of the digraph `arcs`, as its node tuple
    starting from its smallest node."""
    heads = {}
    for j, k in arcs:
        heads.setdefault(j, []).append(k)
    found = []

    def walk(path):
        for k in heads.get(path[-1], ()):
            if k == path[0]:
                found.append(tuple(path))
            elif k > path[0] and k not in path:
                walk([*path, k])

    for j in sorted(heads):
        walk([j])
    return found


def test_six_user_member_beyond_pair_and_cycle_blocks():
    d = DofVector(6, {arc: F(2) for arc in BEYOND_CYCLES})
    v = is_member(d, RegionSpec(K=6, N=16))
    assert v.member and v.max_value == 16 and len(v.tight) == 18
    assert not is_member(d, RegionSpec(K=6, N=15)).member
    assert construction_feasible(d, 16) == (False, F(22))
    with pytest.raises(Infeasible, match="pair slots need 22 of 16 relay components"):
        build_stream_plan(d, 16)
    # maximum fractional packing of its directed cycles, at most d = 2 on each
    # arc: 5, so pair and cycle blocks need 22 - 5 = 17 of 16 components
    cycles = directed_cycles(BEYOND_CYCLES)
    assert len(cycles) == 9
    uses = [{(c[i], c[(i + 1) % len(c)]) for i in range(len(c))} for c in cycles]
    c, a, b = [1] * len(cycles), [[int(arc in u) for u in uses] for arc in BEYOND_CYCLES], [2] * len(BEYOND_CYCLES)
    x, scale, y, value, den, _, _ = _solve(c, a, b)
    assert _certify(c, a, b, x, scale, y, value, den)
    assert F(value, den) == 5
    assert 22 - F(value, den) == 17


def test_gap_probe_guard():
    k = GAP_MAX_USERS + 1
    with pytest.raises(TooLarge):
        find_construction_gap(RegionSpec(K=k, N=3))


def test_gap_probe_five_users():
    spec = RegionSpec(K=5, N=3)
    w = find_construction_gap(spec)
    assert w == DofVector(5, {(3, 4): F(3, 2), (4, 5): F(3, 2), (5, 3): F(3, 2)})
    v = is_member(w, spec)
    assert v.member and v.max_value == 3
    ok, total = construction_feasible(w, 3)
    assert not ok and total == F(9, 2)


def test_gap_witness_failing_its_checks_raises(monkeypatch):
    monkeypatch.setattr(yrelay.dofregion, "construction_feasible", lambda d, n: (True, F(0)))
    with pytest.raises(WitnessInvalid):
        find_construction_gap(SPEC46)


@settings(PROPERTY, max_examples=6)
@given(k=st.integers(3, GAP_MAX_USERS), n=st.integers(1, 8))
def test_gap_probe_matches_full_row_probe(full_row_gap, k, n):
    spec = RegionSpec(K=k, N=n)
    assert find_construction_gap(spec) == full_row_gap(spec)


def test_feasible_implies_member_sample():
    # small version of the exhaustive acceptance sweep
    rng = random.Random(8)
    checked = 0
    for _ in range(800):
        d = DofVector(4, {
            (j, k): F(rng.randint(0, 6), 6) if rng.random() < 0.6 else F(0)
            for j, k in ordered_pairs(4)
        })
        ok, _ = construction_feasible(d, 6)
        if ok:
            checked += 1
            assert is_member(d, SPEC46).member
    assert checked > 50


# -------------------------------------------------------------------- vertices


def closed_form_vertices(n):
    """origin + 6 single directions at N + 3 bidirectional pairs at N
    + 2 opposite 3-cycles at N/2"""
    variables = ordered_pairs(3)
    out = {tuple([F(0)] * 6)}
    for i in range(6):
        t = [F(0)] * 6
        t[i] = F(n)
        out.add(tuple(t))
    for j, k in user_pairs(3):
        t = [F(0)] * 6
        t[variables.index((j, k))] = F(n)
        t[variables.index((k, j))] = F(n)
        out.add(tuple(t))
    for cyc in (((1, 2), (2, 3), (3, 1)), ((2, 1), (3, 2), (1, 3))):
        t = [F(0)] * 6
        for e in cyc:
            t[variables.index(e)] = F(n, 2)
        out.add(tuple(t))
    return out


def test_vertices_match_closed_form():
    # the region is homogeneous in N: the vertices at N are N times those at
    # N = 1, for any relay size
    unit = [v.as_tuple() for v in vertices_k3(1)]
    for n in (1, 2, 3, 6, 7, 101, 10**6):
        verts = vertices_k3(n)
        assert {v.as_tuple() for v in verts} == closed_form_vertices(n)
        assert len(verts) == 12
        assert [v.as_tuple() for v in verts] == [tuple(n * x for x in v) for v in unit]


def test_vertices_basic_contracts():
    verts = vertices_k3(1)
    tuples = {v.as_tuple() for v in verts}
    assert tuple([F(0)] * 6) in tuples  # origin
    spec = RegionSpec(K=3, N=1)
    for v in verts:
        assert is_member(v, spec).member
    # permutation-symmetric images of the bidirectional pair point
    variables = ordered_pairs(3)
    for j, k in user_pairs(3):
        t = [F(0)] * 6
        t[variables.index((j, k))] = F(1)
        t[variables.index((k, j))] = F(1)
        assert tuple(t) in tuples


def test_vertices_support_function_matches_lp(full_row_lp):
    # any missing vertex would lose to the LP on some objective
    rng = random.Random(9)
    for n in (1, 4):
        verts = vertices_k3(n)
        for _ in range(150):
            c = [F(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(6)]
            value, _ = full_row_lp(c, 3, n)
            best = max(sum(ci * vi for ci, vi in zip(c, v.as_tuple())) for v in verts)
            assert best == value
