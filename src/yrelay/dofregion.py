"""Exact rational tools for the DoF region of the K-user relay network.

The region is the polytope of nonnegative DoF vectors whose sum along every
user ordering stays within the relay dimension: for each permutation p of
the users, sum over positions a < b of d[p_a -> p_b] <= N. Membership,
sum-DoF maximization, the direct-construction feasibility predicate
(sum of per-pair maxima <= N), and a probe for points separating the two
are all computed without floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .alignment import DofVector, ordered_pairs, user_pairs
from .errors import TooLarge
from .simplex import solve_linear, solve_max, verify_certificate

MEMBERSHIP_MAX_USERS = 8   # K! permutation enumeration guard
SUMDOF_MAX_USERS = 5       # full-constraint LP guard
GAP_MAX_USERS = 4          # 2^(pairs) direction-selection LPs
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
    """Outcome of the exhaustive permutation check.

    When violated, `witness` is (permutation, exact constraint value > N).
    When member, `tight` lists the permutations meeting N with equality.
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


def is_member(d: DofVector, spec: RegionSpec) -> MembershipVerdict:
    """Exhaustive exact check of all K! ordering constraints."""
    if spec.K > MEMBERSHIP_MAX_USERS:
        raise TooLarge(f"membership enumeration guarded at K <= {MEMBERSHIP_MAX_USERS}")
    if d.K != spec.K:
        raise ValueError(f"DoF vector has K={d.K}, region has K={spec.K}")
    bound = Fraction(spec.N)
    tight = []
    best = Fraction(0)
    for p in itertools.permutations(range(1, spec.K + 1)):
        value = permutation_constraint(d, p)
        best = max(best, value)
        if value > bound:
            return MembershipVerdict(member=False, witness=(p, value), tight=(), max_value=value)
        if value == bound:
            tight.append(p)
    return MembershipVerdict(member=True, witness=None, tight=tuple(tight), max_value=best)


def _permutation_rows(k_users: int):
    """0/1 constraint matrix: one row per permutation, columns in `ordered_pairs` order."""
    index = {pair: i for i, pair in enumerate(ordered_pairs(k_users))}
    rows = []
    for p in itertools.permutations(range(1, k_users + 1)):
        row = [Fraction(0)] * len(index)
        for a in range(k_users):
            for b in range(a + 1, k_users):
                row[index[(p[a], p[b])]] = Fraction(1)
        rows.append(row)
    return rows


def sum_dof_max(spec: RegionSpec):
    """Exact maximum of the total DoF over the region, with a maximizer.

    Solves the full-constraint LP over rationals and re-verifies the
    optimal basis certificate by substitution before returning.
    """
    if spec.K > SUMDOF_MAX_USERS:
        raise TooLarge(f"sum-DoF LP guarded at K <= {SUMDOF_MAX_USERS}")
    variables = ordered_pairs(spec.K)
    rows = _permutation_rows(spec.K)
    rhs = [Fraction(spec.N)] * len(rows)
    objective = [Fraction(1)] * len(variables)
    res = solve_max(objective, rows, rhs)
    verify_certificate(objective, rows, rhs, res)
    maximizer = DofVector(spec.K, dict(zip(variables, res.x)))
    return res.value, maximizer


def construction_feasible(d: DofVector, n_relay: int):
    """(feasible, sum of per-pair maxima): the direct-layout condition."""
    total = Fraction(0)
    for j, k in user_pairs(d.K):
        total += max(d.get(j, k), d.get(k, j))
    return total <= n_relay, total


def find_construction_gap(spec: RegionSpec) -> DofVector | None:
    """Search for a region member whose pair maxima overflow the relay.

    For every per-pair direction selection, maximize the selected directed
    sum over the region (exact LP). Any optimum above N yields a witness:
    a member that the direct slot layout cannot carry. Returns None when no
    selection overflows, which proves the region lies inside the
    construction-feasible set.
    """
    if spec.K > GAP_MAX_USERS:
        raise TooLarge(f"gap probe guarded at K <= {GAP_MAX_USERS}")
    pairs = user_pairs(spec.K)
    variables = ordered_pairs(spec.K)
    rows = _permutation_rows(spec.K)
    rhs = [Fraction(spec.N)] * len(rows)
    index = {pair: i for i, pair in enumerate(variables)}

    for bits in itertools.product((0, 1), repeat=len(pairs)):
        objective = [Fraction(0)] * len(variables)
        for (j, k), rev in zip(pairs, bits):
            objective[index[(k, j) if rev else (j, k)]] = Fraction(1)
        res = solve_max(objective, rows, rhs)
        if res.value > spec.N:
            verify_certificate(objective, rows, rhs, res)
            witness = DofVector(spec.K, dict(zip(variables, res.x)))
            feasible, _ = construction_feasible(witness, spec.N)
            if feasible or not is_member(witness, spec).member:
                raise AssertionError("gap witness failed its defining checks")
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
    perm_rows = _permutation_rows(3)
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
