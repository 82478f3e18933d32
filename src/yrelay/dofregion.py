"""Exact rational tools for the DoF region of the K-user relay network.

The region is the polytope of nonnegative DoF vectors whose sum along every
user ordering stays within the relay dimension: for each permutation p of
the users, sum over positions a < b of d[p_a -> p_b] <= N. Membership,
sum-DoF maximization, the direct-construction feasibility predicate
(sum of per-pair maxima <= N), and a probe for points separating the two
are all computed in Python ints, on the scaled entries a `DofVector` holds;
Fractions appear only in the values returned.

Membership, sum-DoF and the gap probe never walk the K! orderings. The
Held-Karp subset DP gives the largest ordering sum over the 2^K user subsets;
a lexicographic search pruned by its table finds the first violating ordering
and lists the tight ones, which a second pass over the table counts first.
The LPs, on the integer simplex tableau, add the DP's violating ordering as a
row until the optimum is a member (cutting planes): the simplex certificate
on those rows, with zero duals for the rest, and the DP's feasibility verdict
certify the optimum for all K! rows, checked with zero tolerance on the
tableau's ints; a cut is searched for only when the DP's top exceeds N*T.
What depends on K alone is built once per K, as tuples: the DP's pair cells
and half-subset members (2^(K/2) entries each), the identity and reversed
ordering rows, and `alignment.pair_cells`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import add

from .alignment import DofVector, ordered_pairs, pair_cells
from .errors import TooLarge, WitnessInvalid
from .simplex import _certify, _solve, solve_linear

ORACLE_MAX_USERS = 16    # the ordering DP tabulates all 2^K user subsets
TIGHT_LIST_MAX = 40320   # 8!, every ordering of 8 users
GAP_MAX_USERS = 5        # 2^(K(K-1)/2) direction selections, one LP each


@dataclass(frozen=True)
class RegionSpec:
    """Region parameters: K users, N relay antennas (users have M >= N)."""

    K: int
    N: int

    def __post_init__(self):
        if self.K < 3:
            raise ValueError(f"need at least 3 users, got K={self.K}")
        if self.N < 1:
            raise ValueError(f"need at least one relay antenna, got N={self.N}")


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the check of all ordering constraints.

    When violated, `witness` is (permutation, exact constraint value > N)
    for the lexicographically first violating permutation, and `max_value`
    is that value. When member, `tight` lists the permutations meeting N
    with equality in lexicographic order, and `max_value` is the largest
    constraint value.
    """

    member: bool
    witness: tuple | None
    tight: tuple
    max_value: Fraction

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
    """Tables (lo, hi) of lists with lo[s % 2^half][v] + hi[s >> half][v]
    equal to the sum of rows[u][v] over the set bits u of s."""
    tables = []
    for part in (rows[:half], rows[half:]):
        table = [[0] * len(rows[0])]
        for row in part:
            table += [list(map(add, sums, row)) for sums in table]
        tables.append(table)
    return tables


@cache
def _dp_tables(k: int):
    """The DP's tables that depend on K alone (tuples, built once per K):
    the (u-1, v-1) cell of each pair in `ordered_pairs` order, and (v, 1 << v)
    per member of each low and high half of a subset (2^(K/2) each, not 2^K)."""
    half, bits = k // 2, tuple((v, 1 << v) for v in range(k))
    cells = tuple((u - 1, v - 1) for u, v in ordered_pairs(k))
    lo = tuple(tuple(b for b in bits[:half] if t & b[1]) for t in range(1 << half))
    hi = tuple(tuple(b for b in bits[half:] if t << half & b[1]) for t in range(1 << (k - half)))
    return cells, lo, hi


class _OrderingDP:
    """Held-Karp table of the largest ordering sums of a DoF vector.

    The weights w[u-1][v-1] are the vector's ints T*d_uv, so every sum is
    an int, `scale` = T times the exact one. Bit u-1 of a subset S
    stands for user u. best[S] is the largest sum, over orderings of the
    users in S, of the entries from earlier to later users.
    """

    def __init__(self, d: DofVector):
        k = d.K
        if k > ORACLE_MAX_USERS:
            raise TooLarge(f"ordering DP guarded at K <= {ORACLE_MAX_USERS} (2^K subsets)")
        half, mask = k // 2, (1 << k // 2) - 1
        cells, lo_steps, hi_steps = _dp_tables(k)
        self.K, self.scale, self.half, self.mask, self.steps = k, d.T, half, mask, (lo_steps, hi_steps)
        w = self.w = [[0] * k for _ in range(k)]
        for (u, v), value in zip(cells, d.scaled):
            w[u][v] = value
        lo, hi = self.into = _subset_sums(w, half)
        best = [0] * (1 << k)
        for s in range(1, 1 << k):
            low, high = s & mask, s >> half
            into_lo, into_hi = lo[low], hi[high]
            top = -1
            for v, bit in lo_steps[low] + hi_steps[high]:
                # user v+1 placed last: every other member precedes it
                value = best[s ^ bit] + into_lo[v] + into_hi[v]
                if value > top:
                    top = value
            best[s] = top
        self.best = best

    def tight_count(self) -> int:
        """Number of orderings attaining best[-1]. Walks the table back from
        the full set: an ordering attains the maximum exactly when each of
        its prefixes does, so only the steps that keep a prefix tight count."""
        (lo, hi), (lo_steps, hi_steps), best = self.into, self.steps, self.best
        ways = [0] * (len(best) - 1) + [1]
        for s in range(len(best) - 1, 0, -1):
            if ways[s]:
                low, high = s & self.mask, s >> self.half
                for v, bit in lo_steps[low] + hi_steps[high]:
                    if best[s ^ bit] + lo[low][v] + hi[high][v] == best[s]:
                        ways[s ^ bit] += ways[s]
        return ways[0]

    def orderings(self, floor: int):
        """Orderings (tuples of users) with a scaled sum >= floor, in
        lexicographic order. A branch is cut when the entries fixed by its
        placed users plus the best order of the rest fall below floor."""
        (lo_steps, hi_steps), mask, half, prefix = self.steps, self.mask, self.half, []
        # out_lo[s % 2^half][u] + out_hi[s >> half][u]: entries from u to the users of s
        out_lo, out_hi = _subset_sums([list(col) for col in zip(*self.w)], half)

        def walk(rest, fixed):
            if not rest:
                yield tuple(prefix)
            for u, bit in lo_steps[rest & mask] + hi_steps[rest >> half]:
                left = rest ^ bit
                placed = fixed + out_lo[left & mask][u] + out_hi[left >> half][u]
                if placed + self.best[left] >= floor:
                    prefix.append(u + 1)
                    yield from walk(left, placed)
                    prefix.pop()

        return walk((1 << self.K) - 1, 0)


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
        p = next(dp.orderings(bound + 1))
        value = Fraction(sum(dp.w[u - 1][v - 1] for a, u in enumerate(p) for v in p[a + 1 :]), dp.scale)
        return MembershipVerdict(member=False, witness=(p, value), tight=(), max_value=value)
    tight = ()
    if top == bound:
        if (count := dp.tight_count()) > TIGHT_LIST_MAX:
            raise TooLarge(f"{count} tight orderings to list, guarded at {TIGHT_LIST_MAX}")
        tight = tuple(dp.orderings(bound))
    return MembershipVerdict(member=True, witness=None, tight=tight, max_value=Fraction(top, dp.scale))


def _ordering_row(p) -> list:
    """0/1 constraint row of ordering p, columns in `ordered_pairs` order."""
    place = {u: a for a, u in enumerate(p)}
    return [int(place[u] < place[v]) for u, v in ordered_pairs(len(p))]


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
        rows.append(_ordering_row(next(dp.orderings(bound + 1))))


def sum_dof_max(spec: RegionSpec):
    """Exact maximum of the total DoF over the region, with a maximizer.

    Solves the LP by cutting planes and verifies its certificate (zero
    tolerance) before returning.
    """
    return _region_max([1] * (spec.K * (spec.K - 1)), spec)


def construction_feasible(d: DofVector, n_relay: int):
    """(feasible, sum of per-pair maxima): the direct-layout condition,
    summed in ints over the vector's scaled entries."""
    total = sum(d.pair_lengths().values())
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
    variables = ordered_pairs(3)
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
