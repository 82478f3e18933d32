"""Exact-arithmetic simplex for small, dense linear programs.

Maximizes c'x subject to Ax <= b, x >= 0 with b >= 0 on a `Tableau` of
Python ints, each row scaled by its own least common denominator, where
integer-preserving Gauss-Jordan pivots (Edmonds, 1967) divide exactly:
primal Bland pivots from the all-slack basis, and dual ones (Lemke, 1954)
after `add_row`. `_certify` checks an optimum's ints with zero tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import LpError


def _integral(values):
    """(ints, s): the rationals `values` times s, their least common
    denominator; a list of ints comes back as it is, with s = 1."""
    if set(map(type, values)) <= {int}:
        return values, 1
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    s = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


def _pivot(tab, row: int, col: int, d: int) -> int:
    """Integer-preserving Gauss-Jordan step in place on a tableau whose true
    entries are tab / d: row i != `row` becomes (p * row_i - tab[i][col] *
    pivot row) // d, an exact division; returns the new denominator p."""
    p, prow = tab[row][col], tab[row]
    for r, other in enumerate(tab):
        f = other[col]
        if r != row and (f or p != d):
            tab[r] = [(p * v - f * q) // d for v, q in zip(other, prow)]
    return p


def solve_linear(a, b):
    """Exact solution of a square system, or None when singular."""
    n = len(a)
    m, d = [_integral([*row, rhs])[0] for row, rhs in zip(a, b)], 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        d = _pivot(m, col, col, d)
    return [Fraction(m[r][n], d) for r in range(n)]


class Tableau:
    """An optimal simplex tableau of max c'x s.t. Ax <= b, x >= 0: ints over
    d > 0, row i of A times scales[i], the cost row times c_scale, a unit
    slack column per row after the n structural ones, then the rhs. Its cold
    start copies the int rows s_i A_i, adds their unit slacks and the int rhs
    s_i b_i >= 0, takes the int cost c_scale * c and makes primal Bland pivots."""

    __slots__ = ("tab", "basis", "scales", "c_scale", "d", "n", "pivots")

    def __init__(self, cost, rows, rhs, c_scale=1, scales=None):
        n, m = len(cost), len(rows)
        self.tab = tab = [[*r, *[0] * i, 1, *[0] * (m - 1 - i), b] for i, (r, b) in enumerate(zip(rows, rhs))]
        tab.append([-v for v in cost] + [0] * (m + 1))
        self.basis = basis = list(range(n, n + m))
        self.n, self.c_scale, self.scales, self.d, self.pivots = n, c_scale, scales or [1] * m, 1, 0
        while True:
            # the first negative reduced cost enters (never the value: it starts at 0 and never falls)
            for enter, v in enumerate(tab[m]):
                if v < 0:
                    break
            else:
                return
            row = None  # Bland: min ratio rhs / entry by cross-multiplying, ties by smallest basis index
            for i, r in enumerate(tab[:m]):
                if r[enter] > 0 and (row is None or (r[-1] * den, basis[i]) < (top * r[enter], basis[row])):
                    row, top, den = i, r[-1], r[enter]
            if row is None:
                raise LpError("unbounded linear program")
            self.d, basis[row], self.pivots = _pivot(tab, row, enter, self.d), enter, self.pivots + 1

    def add_row(self, row, rhs) -> None:
        """Add the constraint row . x <= rhs (n rationals, rhs >= 0) in the
        current basis, its slack basic, and restore feasibility by dual Bland
        pivots over the slacks, then the structural columns: the negative rhs
        of the first basic variable leaves, and the least reduced cost / |entry|
        over its negative entries enters, ties to the first column, its row
        negated first so that d stays positive. A tie at a zero reduced cost
        thus frees a slack before it raises a coordinate the cost ignores."""
        (*row, rhs), s = _integral([*row, rhs])
        if rhs < 0 or len(row) != self.n:
            raise LpError("this solver needs b >= 0 (all-slack start)" if rhs < 0 else "inconsistent LP dimensions")
        tab, basis, n, d = self.tab, self.basis, self.n, self.d
        for r in tab:
            r.insert(-1, 0)
        new = [d * v for v in row] + [0] * len(basis) + [d, d * rhs]
        for i, var in enumerate(basis):
            if var < n and row[var]:
                new = [v - row[var] * t for v, t in zip(new, tab[i])]
        tab.insert(len(basis), new)
        basis.append(n + len(basis))
        self.scales.append(s)
        while True:
            cost, row, enter = tab[-1], None, None
            for i, r in enumerate(tab[:-1]):
                if r[-1] < 0 and (row is None or (basis[i] < n, basis[i]) < (basis[row] < n, basis[row])):
                    row = i
            if row is None:
                return
            for j, t in enumerate(tab[row][:-1]):  # x = 0 is feasible, so some t < 0
                if t < 0 and (enter is None or (cost[j] * top, j < n) < (cost[enter] * -t, enter < n)):
                    enter, top = j, -t
            tab[row] = [-v for v in tab[row]]
            self.d, basis[row], self.pivots = _pivot(tab, row, enter, self.d), enter, self.pivots + 1

    def optimum(self):
        """(x, d, y, value, den): the point x / d, the duals y / den and the
        value / den, in tableau ints as `_certify` takes them."""
        n, cost, x = self.n, self.tab[-1], [0] * self.n
        for var, r in zip(self.basis, self.tab):
            if var < n:
                x[var] = r[-1]
        # slack i, scaled with its row by s, has reduced cost y_i * c_scale / s
        return x, self.d, list(map(mul, self.scales, cost[n:-1])), cost[-1], self.d * self.c_scale


def _solve(c, a, b) -> Tableau:
    """The `Tableau` of max c'x s.t. Ax <= b, x >= 0 (rationals, b >= 0),
    each row [A_i, b_i] scaled by its least common denominator."""
    m, n = len(a), len(c)
    if any(len(row) != n for row in a) or len(b) != m:
        raise LpError("inconsistent LP dimensions")
    if min(b, default=0) < 0:
        raise LpError("this solver needs b >= 0 (all-slack start)")
    rows = [_integral([*row, rhs]) for row, rhs in zip(a, b)]
    cost, c_scale = _integral(c)
    return Tableau(cost, [r[:-1] for r, _ in rows], [r[-1] for r, _ in rows], c_scale, [s for _, s in rows])


def _certify(c, a, b, x, d, y, value, den) -> bool:
    """Zero-tolerance certificate of the optimum x / d, y / den, value / den
    on the data c, A, b: primal feasibility, dual feasibility and matching
    objective values (strong duality), each compared in ints for int data."""
    if min(x, default=0) < 0:
        raise LpError("certificate: primal point has a negative coordinate")
    for i, row in enumerate(a):
        if sum(map(mul, row, x)) > b[i] * d:
            raise LpError(f"certificate: primal point violates constraint {i}")
    if min(y, default=0) < 0:
        raise LpError("certificate: dual vector has a negative coordinate")
    # y.A over the rows whose dual is nonzero, then column by column in order
    ya = [0] * len(c)
    for yi, row in zip(y, a):
        if yi:
            ya = [s + yi * v for s, v in zip(ya, row)]
    for j, (cj, s) in enumerate(zip(c, ya)):
        if s < cj * den:
            raise LpError(f"certificate: dual vector violates column {j}")
    if sum(map(mul, c, x)) * den != value * d or sum(map(mul, y, b)) != value:
        raise LpError("certificate: objective values disagree")
    return True
