"""Shared test helpers, and the brute-force region oracles that the subset-DP
and cutting-plane tools in `yrelay.dofregion` are checked against."""

import functools
import itertools
from fractions import Fraction

import pytest

from yrelay.alignment import DofVector, ordered_pairs, user_pairs
from yrelay.dofregion import MembershipVerdict, construction_feasible, permutation_constraint
from yrelay.simplex import solve_max, verify_certificate


@pytest.fixture
def relabel():
    """Apply a user permutation sigma (a mapping 1..K -> 1..K) to both
    indices of every entry of a DoF vector."""

    def apply(d: DofVector, sigma) -> DofVector:
        return DofVector(d.K, {(sigma[j], sigma[k]): v for (j, k), v in d.items()})

    return apply


def _brute_membership(d, spec) -> MembershipVerdict:
    """Walk all K! orderings in lexicographic order: the first violating one
    is the witness; for a member, collect the tight ones."""
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


def _all_ordering_rows(k_users):
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


@functools.cache
def _full_row_lp(objective: tuple, k_users: int, n_relay: int):
    """Exact max of objective . d over all K! ordering rows, certificate
    verified; (value, maximizer)."""
    rows = _all_ordering_rows(k_users)
    rhs = [Fraction(n_relay)] * len(rows)
    res = solve_max(list(objective), rows, rhs)
    verify_certificate(list(objective), rows, rhs, res)
    return res.value, DofVector(k_users, dict(zip(ordered_pairs(k_users), res.x)))


def _full_row_gap(spec):
    """The gap probe with every LP over all K! rows: the maximizer of the
    first direction selection (in `itertools.product` order) whose optimum
    exceeds N, or None."""
    pairs = user_pairs(spec.K)
    index = {pair: i for i, pair in enumerate(ordered_pairs(spec.K))}
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        objective = [Fraction(0)] * len(index)
        for (j, k), rev in zip(pairs, bits):
            objective[index[(k, j) if rev else (j, k)]] = Fraction(1)
        value, witness = _full_row_lp(tuple(objective), spec.K, spec.N)
        if value > spec.N:
            assert not construction_feasible(witness, spec.N)[0]
            assert _brute_membership(witness, spec).member
            return witness
    return None


@pytest.fixture(scope="session")
def brute_membership():
    """is_member by enumeration of all K! orderings."""
    return _brute_membership


@pytest.fixture(scope="session")
def full_row_lp():
    """(objective, K, N) -> (value, maximizer) of the LP over all K! rows."""
    return lambda objective, k_users, n_relay: _full_row_lp(tuple(objective), k_users, n_relay)


@pytest.fixture(scope="session")
def full_row_gap():
    """find_construction_gap with every LP over all K! rows."""
    return _full_row_gap
