"""Exact-arithmetic primal simplex for small linear programs.

Maximizes c'x subject to Ax <= b, x >= 0 with b >= 0, entirely over
fractions.Fraction. Bland's rule guarantees termination; problem sizes here
are tiny (tens of variables and constraints), so no effort is spent on
sparsity or revised-form updates. The result carries the optimal basis and
the dual vector so callers can re-verify optimality by substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LpError


def _frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _pivot(tab, row: int, col: int) -> None:
    """Gauss-Jordan step in place: scale `row` to a unit entry at `col`, then
    clear `col` from every other row."""
    pivot = tab[row][col]
    tab[row] = [v / pivot for v in tab[row]]
    for r, other in enumerate(tab):
        if r != row and other[col] != 0:
            factor = other[col]
            tab[r] = [v - factor * p for v, p in zip(other, tab[row])]


def solve_linear(a, b):
    """Exact solution of a square system, or None when singular."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        _pivot(m, col, col)
    return [m[r][n] for r in range(n)]


@dataclass(frozen=True)
class LpResult:
    """Optimal value, primal point, optimal basis (column indices, slacks
    numbered after structural variables), and the dual vector."""

    value: Fraction
    x: tuple
    basis: tuple
    duals: tuple
    iterations: int


def solve_max(c, a, b) -> LpResult:
    """Maximize c'x s.t. Ax <= b, x >= 0 (all rationals, b >= 0)."""
    a = _frac_matrix(a)
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    m, n = len(a), len(c)
    if any(len(row) != n for row in a) or len(b) != m:
        raise LpError("inconsistent LP dimensions")
    if any(v < 0 for v in b):
        raise LpError("this solver needs b >= 0 (all-slack start)")

    # Tableau: m constraint rows then the cost row; columns are the n
    # structural variables, m slacks, and the rhs.
    tab = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    tab.append([-v for v in c] + [Fraction(0)] * (m + 1))
    basis = list(range(n, n + m))

    iterations = 0
    while True:
        enter = next((j for j in range(n + m) if tab[m][j] < 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            raise LpError("unbounded linear program")
        _, _, row = min(ratios)  # Bland: min ratio, ties by smallest basis index
        _pivot(tab, row, enter)
        basis[row] = enter
        iterations += 1

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
    duals = tuple(tab[m][n + i] for i in range(m))
    return LpResult(
        value=tab[m][-1], x=tuple(x), basis=tuple(basis), duals=duals, iterations=iterations
    )


def verify_certificate(c, a, b, res: LpResult) -> bool:
    """Re-check optimality by substitution, with zero tolerance.

    Primal feasibility, dual feasibility, and matching objective values
    (strong duality) together certify the reported optimum.
    """
    a = _frac_matrix(a)
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    x, y = res.x, res.duals
    if any(v < 0 for v in x):
        raise LpError("certificate: primal point has a negative coordinate")
    for i, row in enumerate(a):
        if sum(rv * xv for rv, xv in zip(row, x)) > b[i]:
            raise LpError(f"certificate: primal point violates constraint {i}")
    if any(v < 0 for v in y):
        raise LpError("certificate: dual vector has a negative coordinate")
    for j in range(len(c)):
        if sum(y[i] * a[i][j] for i in range(len(a))) < c[j]:
            raise LpError(f"certificate: dual vector violates column {j}")
    primal = sum(cv * xv for cv, xv in zip(c, x))
    dual = sum(yv * bv for yv, bv in zip(y, b))
    if primal != res.value or dual != res.value:
        raise LpError("certificate: objective values disagree")
    return True
