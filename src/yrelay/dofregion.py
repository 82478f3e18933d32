"""Exact rational tools for the DoF region of the K-user relay network.

The region is the polytope of nonnegative DoF vectors whose sum along every
user ordering stays within the relay dimension: for each permutation p of
the users, sum over positions a < b of d[p_a -> p_b] <= N. Membership,
sum-DoF maximization, the direct-construction feasibility predicate
(sum of per-pair maxima <= N), and a probe for points separating the two
are all computed in Python ints, on the scaled entries a `DofVector` holds;
Fractions appear only in the values returned.

Membership, sum-DoF and the gap probe never walk the K! orderings. The
Held-Karp subset DP gives the largest ordering sum over the 2^K user subsets,
placing the first user of each; its one subset table (the entries from a user
to a subset) also serves the tight count and a lexicographic walk pruned by
the exact DP, which yields each ordering with its sum: the first violating
one (witness and cut) after K steps, or the tight ones, counted first. The
LPs, on the integer simplex tableau, add that violator as a row until the
optimum is a member (cutting planes): the simplex certificate on those rows,
zero duals for the rest and the DP's verdict certify the optimum for all K!
rows, checked with zero tolerance on the tableau's ints. What depends on K
alone is built once per K, read-only: the DP's entry getters, half-subset
members (2^(K/2) each) and, for K <= 8, its loop's schedule (2^K - K - 1
records), the extreme ordering rows and `alignment.pair_cells`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache
from operator import add, itemgetter

from .alignment import DofVector, pair_cells, pair_index, pair_tuple
from .errors import TooLarge, WitnessInvalid
from .simplex import _certify, _solve, solve_linear

ORACLE_MAX_USERS = 16    # the ordering DP tabulates all 2^K user subsets
TIGHT_LIST_MAX = 40320   # 8!, every ordering of 8 users
SCHEDULE_MAX_USERS = 8   # the ordering DP's loop is tabulated once per K up to here
GAP_MAX_USERS = 5        # 2^(K(K-1)/2) direction selections, one LP each


class RegionSpec(namedtuple("RegionSpec", "K N")):
    """Region parameters: K users, N relay antennas (users have M >= N).
    A read-only named tuple: RegionSpec(K=4, N=6) == (4, 6)."""

    __slots__ = ()

    def __new__(cls, K: int, N: int):
        if K < 3:
            raise ValueError(f"need at least 3 users, got K={K}")
        if N < 1:
            raise ValueError(f"need at least one relay antenna, got N={N}")
        return tuple.__new__(cls, (K, N))


class MembershipVerdict(namedtuple("MembershipVerdict", "member witness tight max_value")):
    """Outcome of the check of all ordering constraints, a read-only named
    tuple (equal to the plain tuple of its fields).

    When violated, `witness` is (permutation, exact constraint value > N)
    for the lexicographically first violating permutation, and `max_value`
    is that value. When member, `tight` lists the permutations meeting N
    with equality in lexicographic order, and `max_value` is the largest
    constraint value.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "member": self.member,
            "max_value": str(self.max_value),
            "witness": None
            if self.witness is None
            else {"permutation": list(self.witness[0]), "value": str(self.witness[1])},
            "tight_permutations": [list(p) for p in self.tight],
        }


def _subset_sums(rows, half: int):
    """Tables (lo, hi) of sequences with lo[s % 2^half][v] + hi[s >> half][v]
    equal to the sum of rows[u][v] over the set bits u of s. A single-user
    entry is its row itself, so a half of h rows adds 2^h - 1 - h rows."""
    tables = []
    for part in (rows[:half], rows[half:]):
        table = [[0] * len(rows[0])]
        for row in part:
            table.append(row)
            for t in range(1, len(table) - 1):
                table.append(list(map(add, table[t], row)))
        tables.append(table)
    return tables


@cache
def _dp_tables(k: int):
    """The DP's tables that depend on K alone (built once per K, read-only):
    per user v, a getter of the entries T*d_uv into v, u = 1..K, from a
    vector's `scaled` with a 0 appended for u = v; (v, 1 << v) per member of
    each low and high half of a subset (2^(K/2) each); and for K <= 8 the
    schedule of the DP's loop, else None: per subset s of two or more users,
    in the loop's order, (s, s % 2^half, s >> half, ((s ^ 1 << v, v) per
    member v)), 2^K - K - 1 records (247 at K = 8). Past K = 8 it is not
    built: it would hold 57 MB at K = 16, and built per call it is slower
    than the loop that splits each subset."""
    half, bits, index = k // 2, tuple((v, 1 << v) for v in range(k)), pair_index(k)
    into = tuple(itemgetter(*(index.get((u, v), len(index)) for u in range(1, k + 1))) for v in range(1, k + 1))
    lo = tuple(tuple(b for b in bits[:half] if t & b[1]) for t in range(1 << half))
    hi = tuple(tuple(b for b in bits[half:] if t << half & b[1]) for t in range(1 << (k - half)))
    schedule = None
    if k <= SCHEDULE_MAX_USERS:
        mask = (1 << half) - 1
        schedule = tuple((s, s & mask, s >> half, tuple((s ^ bit, u) for u, bit in lo[s & mask] + hi[s >> half]))
                         for b in range(1, k) for s in range(1 << b | 1, 2 << b))
    return into, lo, hi, schedule


class _OrderingDP:
    """Held-Karp table of the largest ordering sums of a DoF vector.

    The weights are the vector's ints T*d_uv, so every sum is an int,
    `scale` = T times the exact one. Bit u-1 of a subset S stands for user
    u. best[S], the largest sum over orderings of S of the entries from
    earlier to later users, is the max over u in S of out(u, S) + best[S - u]
    (u first; out(u, S) sums the entries from u to S, d_uu none). A single
    user's best is 0, so the loop fills only subsets of two or more users,
    band by band: those with highest user b+1 other than {b+1}. For K <= 8
    it runs down the per-K schedule of `_dp_tables`, which holds each
    subset's halves and (S - u, u) pairs; past that it splits S itself. The
    out tables are the one subset table of the DP, `tight_count` and
    `orderings`.
    """

    def __init__(self, d: DofVector):
        k = d.K
        if k > ORACLE_MAX_USERS:
            raise TooLarge(f"ordering DP guarded at K <= {ORACLE_MAX_USERS} (2^K subsets)")
        half, mask = k // 2, (1 << k // 2) - 1
        into, lo_steps, hi_steps, schedule = _dp_tables(k)
        self.scale, self.half, self.mask, self.steps = d.T, half, mask, (lo_steps, hi_steps)
        scaled = d.scaled + (0,)
        # out(u, S) = lo[S % 2^half][u] + hi[S >> half][u]
        lo, hi = self.out = _subset_sums([entries(scaled) for entries in into], half)
        self.best = best = [0] * (1 << k)
        if schedule is not None:
            for s, low, high, steps in schedule:
                out_lo, out_hi = lo[low], hi[high]
                top = -1
                for rest, u in steps:
                    # user u+1 placed first, before the rest of s
                    value = best[rest] + out_lo[u] + out_hi[u]
                    if value > top:
                        top = value
                best[s] = top
            return
        for b in range(1, k):
            for s in range(1 << b | 1, 2 << b):
                low, high = s & mask, s >> half
                out_lo, out_hi = lo[low], hi[high]
                top = -1
                for u, bit in lo_steps[low] + hi_steps[high]:
                    # user u+1 placed first: it precedes every other member
                    value = best[s ^ bit] + out_lo[u] + out_hi[u]
                    if value > top:
                        top = value
                best[s] = top

    def tight_count(self) -> int:
        """Number of orderings attaining best[-1]. Walks the table down from
        the full set: an ordering attains the maximum exactly when each of
        its suffixes does, so only first users that keep the rest tight count."""
        (lo, hi), (lo_steps, hi_steps), best = self.out, self.steps, self.best
        ways = [0] * (len(best) - 1) + [1]
        for s in range(len(best) - 1, 0, -1):
            if ways[s]:
                low, high = s & self.mask, s >> self.half
                for u, bit in lo_steps[low] + hi_steps[high]:
                    if best[s ^ bit] + lo[low][u] + hi[high][u] == best[s]:
                        ways[s ^ bit] += ways[s]
        return ways[0]

    def orderings(self, floor: int):
        """(ordering, scaled sum) for each ordering (a tuple of users) whose
        scaled sum is >= floor, in lexicographic order. A user is placed
        next only when the entries fixed so far plus the best order of the
        rest reach floor; best[] is exact, so every placed user leads to a
        yield, and the first comes after K placements."""
        (lo, hi), (lo_steps, hi_steps), best = self.out, self.steps, self.best
        mask, half, rest = self.mask, self.half, len(best) - 1
        stack = [(rest, 0, (), iter(lo_steps[rest & mask] + hi_steps[rest >> half]))]
        while stack:
            rest, fixed, prefix, steps = stack[-1]
            out_lo, out_hi = lo[rest & mask], hi[rest >> half]
            for u, bit in steps:
                left, placed = rest ^ bit, fixed + out_lo[u] + out_hi[u]
                if placed + best[left] >= floor:
                    if left:
                        members = iter(lo_steps[left & mask] + hi_steps[left >> half])
                        stack.append((left, placed, prefix + (u + 1,), members))
                        break
                    yield prefix + (u + 1,), placed
            else:
                stack.pop()


def is_member(d: DofVector, spec: RegionSpec) -> MembershipVerdict:
    """Exact check of all K! ordering constraints through the subset DP.

    Raises TooLarge beyond ORACLE_MAX_USERS users, or when a member has more
    than TIGHT_LIST_MAX tight orderings to list.
    """
    if d.K != spec.K:
        raise ValueError(f"DoF vector has K={d.K}, region has K={spec.K}")
    dp = _OrderingDP(d)
    bound, top = spec.N * dp.scale, dp.best[-1]
    if top > bound:
        p, value = next(dp.orderings(bound + 1))
        value = Fraction(value, dp.scale)
        return MembershipVerdict(False, (p, value), (), value)
    tight = ()
    if top == bound:
        if (count := dp.tight_count()) > TIGHT_LIST_MAX:
            raise TooLarge(f"{count} tight orderings to list, guarded at {TIGHT_LIST_MAX}")
        tight = tuple(p for p, _ in dp.orderings(bound))
    return MembershipVerdict(True, None, tight, Fraction(top, dp.scale))


def _ordering_row(p) -> list:
    """0/1 constraint row of ordering p, columns in `ordered_pairs` order."""
    place = {u: a for a, u in enumerate(p)}
    return [int(place[u] < place[v]) for u, v in pair_tuple(len(p))]


@cache
def _extreme_rows(k: int):
    """Rows of the identity and reversed orderings, which bound every
    variable together (tuples, built once per K)."""
    return tuple(tuple(_ordering_row(p)) for p in (range(1, k + 1), range(k, 0, -1)))


def _region_max(objective, spec: RegionSpec, cap=None):
    """(max of objective . d over the region, maximizer), by cutting planes
    from the extreme rows. The maximizer is None once a restricted optimum
    is <= cap: the full optimum is no larger. Each LP optimum stays in
    tableau ints: the DP reads the maximizer built from them, and the
    certificate is checked on them."""
    if spec.K > ORACLE_MAX_USERS:  # refused before any LP, as the DP would refuse its optimum
        raise TooLarge(f"ordering DP guarded at K <= {ORACLE_MAX_USERS} (2^K subsets)")
    rows = list(_extreme_rows(spec.K))
    while True:
        rhs = [spec.N] * len(rows)
        x, d, y, value, den, *_ = _solve(objective, rows, rhs)
        if cap is not None and value <= cap * den:
            return Fraction(value, den), None
        point = DofVector.from_scaled(spec.K, x, d)
        dp, bound = _OrderingDP(point), spec.N * point.T
        if dp.best[-1] <= bound:  # a member: no ordering to search for a cut
            _certify(objective, rows, rhs, x, d, y, value, den)
            return Fraction(value, den), point
        rows.append(_ordering_row(next(dp.orderings(bound + 1))[0]))


def sum_dof_max(spec: RegionSpec):
    """Exact maximum of the total DoF over the region, with a maximizer.

    Solves the LP by cutting planes and verifies its certificate (zero
    tolerance) before returning.
    """
    return _region_max([1] * (spec.K * (spec.K - 1)), spec)


def construction_feasible(d: DofVector, n_relay: int):
    """(feasible, sum of per-pair maxima): the direct-layout condition,
    summed in ints over the vector's scaled entries."""
    s, total = d.scaled, 0
    for _, i, r in pair_cells(d.K):
        total += s[i] if s[i] > s[r] else s[r]
    return total <= n_relay * d.T, Fraction(total, d.T)


def find_construction_gap(spec: RegionSpec) -> DofVector | None:
    """Search for a region member whose pair maxima overflow the relay.

    For every per-pair direction selection, maximize the selected directed
    sum over the region (exact LP by cutting planes). Any optimum above N
    yields a witness: a member that the direct slot layout cannot carry.
    Returns None when no selection overflows, which proves the region lies
    inside the construction-feasible set.
    """
    if spec.K > GAP_MAX_USERS:
        raise TooLarge(f"gap probe guarded at K <= {GAP_MAX_USERS}")
    # one direction per pair: the entry of d_jk or of d_kj, forward first
    for chosen in itertools.product(*((i, r) for _, i, r in pair_cells(spec.K))):
        objective = [int(i in chosen) for i in range(spec.K * (spec.K - 1))]
        _, witness = _region_max(objective, spec, cap=spec.N)
        if witness is not None:
            feasible, total = construction_feasible(witness, spec.N)
            if feasible:
                raise WitnessInvalid(f"gap witness {witness} fits the relay: pair maxima sum to {total}")
            return witness
    return None


def vertices_k3(n_relay: int):
    """All vertices of the 3-user region (6 coordinates), exact and deduped.

    Basic solutions of every 6-subset drawn from the 6 ordering constraints
    (at equality N) and 6 nonnegativity constraints (at equality 0), kept
    when they satisfy the full system.
    """
    spec = RegionSpec(K=3, N=n_relay)
    variables = pair_tuple(3)
    dim = len(variables)
    perm_rows = [_ordering_row(p) for p in itertools.permutations((1, 2, 3))]
    nonneg_rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rows = perm_rows + nonneg_rows
    rhs = [n_relay] * len(perm_rows) + [0] * dim

    candidates = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        solution = solve_linear([rows[i] for i in subset], [rhs[i] for i in subset])
        if solution is not None and min(solution) >= 0:
            candidates.add(DofVector(3, dict(zip(variables, solution))))
    return sorted((v for v in candidates if is_member(v, spec).member), key=DofVector.as_tuple)
