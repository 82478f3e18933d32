"""Exact rational tools for the DoF region of the K-user relay network.

The region is the polytope of nonnegative DoF vectors whose sum along every
user ordering stays within the relay dimension: for each permutation p of
the users, sum over positions a < b of d[p_a -> p_b] <= N. Membership,
sum-DoF maximization, the direct-construction feasibility predicate
(sum of per-pair maxima <= N), and a probe for points separating the two
are all computed without floating point.

Membership, sum-DoF and the gap probe never walk the K! orderings. The
Held-Karp subset DP gives the largest ordering sum over the 2^K user subsets,
in ints (entries scaled by the lcm of their denominators); a lexicographic
search pruned by its table finds the first violating ordering and lists the
tight ones. The LPs add the DP's violating ordering as a row until the
optimum is a member (cutting planes): the simplex certificate on those rows,
with zero duals for the rest, and the DP's feasibility verdict certify the
optimum for all K! rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .alignment import DofVector, minimal_extension, ordered_pairs, user_pairs
from .errors import TooLarge, WitnessInvalid
from .simplex import solve_linear, solve_max, verify_certificate

ORACLE_MAX_USERS = 16    # the ordering DP tabulates all 2^K user subsets
TIGHT_LIST_MAX = 40320   # 8!, every ordering of 8 users
GAP_MAX_USERS = 5        # 2^(K(K-1)/2) direction selections, one LP each
VERTICES_MAX_N = 100


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


def permutation_constraint(d: DofVector, p) -> Fraction:
    """Exact sum of d[p_a -> p_b] over ordered positions a < b."""
    p = tuple(p)
    if sorted(p) != list(range(1, d.K + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{d.K}")
    total = Fraction(0)
    for a in range(d.K):
        for b in range(a + 1, d.K):
            total += d.get(p[a], p[b])
    return total


def _subset_sums(values, half: int):
    """Tables (lo, hi) with lo[s % 2^half] + hi[s >> half] equal to the sum
    of values[u] over the set bits u of s."""
    tables = []
    for part in (values[:half], values[half:]):
        table = [0]
        for v in part:
            table += [t + v for t in table]
        tables.append(table)
    return tables


class _OrderingDP:
    """Held-Karp table of the largest ordering sums of a DoF vector.

    Entries are scaled by `scale`, the lcm of their denominators, so every
    sum is an int. Bit u-1 of a subset S stands for user u. best[S] is the
    largest sum, over orderings of the users in S, of the entries from
    earlier to later users; paths[S] counts the orderings attaining it.
    """

    def __init__(self, d: DofVector):
        k = d.K
        if k > ORACLE_MAX_USERS:
            raise TooLarge(f"ordering DP guarded at K <= {ORACLE_MAX_USERS} (2^K subsets)")
        self.K, self.scale, self.half = k, minimal_extension(d), k // 2
        w = [[0] * k for _ in range(k)]
        for (u, v), value in d.items():
            w[u - 1][v - 1] = value.numerator * (self.scale // value.denominator)
        self.out = [_subset_sums(row, self.half) for row in w]
        into = [(1 << v, *_subset_sums([row[v] for row in w], self.half)) for v in range(k)]
        mask = (1 << self.half) - 1
        best, paths = [0] * (1 << k), [1] * (1 << k)
        for s in range(1, 1 << k):
            s_lo, s_hi = s & mask, s >> self.half
            top, count = -1, 0
            for bit, lo, hi in into:
                if s & bit:
                    # the user of `bit` placed last: every other member precedes it
                    value = best[s ^ bit] + lo[s_lo] + hi[s_hi]
                    if value > top:
                        top, count = value, paths[s ^ bit]
                    elif value == top:
                        count += paths[s ^ bit]
            best[s], paths[s] = top, count
        self.best, self.paths = best, paths

    def orderings(self, floor: int):
        """Orderings (tuples of users) with a scaled sum >= floor, in
        lexicographic order. A branch is cut when the entries fixed by its
        placed users plus the best order of the rest fall below floor."""
        mask = (1 << self.half) - 1
        prefix = []

        def walk(rest, fixed):
            if not rest:
                yield tuple(prefix)
            for u in range(self.K):
                bit = 1 << u
                if rest & bit:
                    left = rest ^ bit
                    lo, hi = self.out[u]
                    placed = fixed + lo[left & mask] + hi[left >> self.half]
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
        value = permutation_constraint(d, p)
        return MembershipVerdict(member=False, witness=(p, value), tight=(), max_value=value)
    tight = ()
    if top == bound:
        if dp.paths[-1] > TIGHT_LIST_MAX:
            raise TooLarge(f"{dp.paths[-1]} tight orderings to list, guarded at {TIGHT_LIST_MAX}")
        tight = tuple(dp.orderings(bound))
    return MembershipVerdict(member=True, witness=None, tight=tight, max_value=Fraction(top, dp.scale))


def _ordering_row(p, index) -> list:
    """0/1 constraint row of ordering p, columns in `index` (pair -> column) order."""
    row = [Fraction(0)] * len(index)
    for a, u in enumerate(p):
        for v in p[a + 1 :]:
            row[index[(u, v)]] = Fraction(1)
    return row


def _region_max(objective, spec: RegionSpec, cap=None):
    """(max of objective . d over the region, maximizer), by cutting planes
    from the identity and reversed orderings, which bound every variable.
    The maximizer is None once a restricted optimum is <= cap: the full
    optimum is no larger."""
    variables = ordered_pairs(spec.K)
    index = {pair: i for i, pair in enumerate(variables)}
    identity = tuple(range(1, spec.K + 1))
    rows = [_ordering_row(identity, index), _ordering_row(identity[::-1], index)]
    while True:
        rhs = [Fraction(spec.N)] * len(rows)
        res = solve_max(objective, rows, rhs)
        if cap is not None and res.value <= cap:
            return res.value, None
        point = DofVector(spec.K, dict(zip(variables, res.x)))
        dp = _OrderingDP(point)
        cut = next(dp.orderings(spec.N * dp.scale + 1), None)
        if cut is None:
            verify_certificate(objective, rows, rhs, res)
            return res.value, point
        rows.append(_ordering_row(cut, index))


def sum_dof_max(spec: RegionSpec):
    """Exact maximum of the total DoF over the region, with a maximizer.

    Solves the LP by cutting planes and verifies its certificate (zero
    tolerance) before returning.
    """
    return _region_max([Fraction(1)] * (spec.K * (spec.K - 1)), spec)


def construction_feasible(d: DofVector, n_relay: int):
    """(feasible, sum of per-pair maxima): the direct-layout condition."""
    total = Fraction(0)
    for j, k in user_pairs(d.K):
        total += max(d.get(j, k), d.get(k, j))
    return total <= n_relay, total


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
    pairs = user_pairs(spec.K)
    index = {pair: i for i, pair in enumerate(ordered_pairs(spec.K))}

    for bits in itertools.product((0, 1), repeat=len(pairs)):
        objective = [Fraction(0)] * len(index)
        for (j, k), rev in zip(pairs, bits):
            objective[index[(k, j) if rev else (j, k)]] = Fraction(1)
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
    if n_relay > VERTICES_MAX_N:
        raise TooLarge(f"vertex enumeration guarded at N <= {VERTICES_MAX_N}")
    if n_relay < 1:
        raise ValueError(f"need N >= 1, got {n_relay}")
    spec = RegionSpec(K=3, N=n_relay)
    variables = ordered_pairs(3)
    dim = len(variables)
    index = {pair: i for i, pair in enumerate(variables)}
    perm_rows = [_ordering_row(p, index) for p in itertools.permutations((1, 2, 3))]
    nonneg_rows = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    rows = perm_rows + nonneg_rows
    rhs = [Fraction(n_relay)] * len(perm_rows) + [Fraction(0)] * dim

    seen = set()
    vertices = []
    for subset in itertools.combinations(range(len(rows)), dim):
        solution = solve_linear([rows[i] for i in subset], [rhs[i] for i in subset])
        if solution is None or any(v < 0 for v in solution):
            continue
        key = tuple(solution)
        if key in seen:
            continue
        seen.add(key)
        vertex = DofVector(3, dict(zip(variables, solution)))
        if is_member(vertex, spec).member:
            vertices.append(vertex)
    vertices.sort(key=lambda v: v.as_tuple())
    return vertices
