"""Exact-arithmetic simplex for small, dense linear programs.

Maximizes c'x subject to Ax <= b, x >= 0 on int data with b >= 0, in a
`Tableau` of Python ints over one denominator d, where integer-preserving
Gauss-Jordan pivots (Edmonds, 1967) divide exactly: primal Bland pivots from
the all-slack basis, and dual ones (Lemke, 1954) after `add_row`. `_certify`
checks an optimum's ints with zero tolerance.
"""

from __future__ import annotations

from operator import mul

from .errors import LpError


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


class Tableau:
    """An optimal simplex tableau of max c'x s.t. Ax <= b, x >= 0 on int
    data: ints over one denominator d > 0, a unit slack column per row after
    the n structural ones, then the rhs. Its cold start checks the
    dimensions and b >= 0, copies the rows with their unit slacks and the
    rhs, puts the negated cost below them and makes primal Bland pivots."""

    __slots__ = ("tab", "basis", "d", "n", "pivots")

    def __init__(self, cost, rows, rhs):
        n, m = len(cost), len(rows)
        if any(len(r) != n for r in rows) or len(rhs) != m:
            raise LpError("inconsistent LP dimensions")
        if min(rhs, default=0) < 0:
            raise LpError("this solver needs b >= 0 (all-slack start)")
        self.tab = tab = [[*r, *[0] * i, 1, *[0] * (m - 1 - i), b] for i, (r, b) in enumerate(zip(rows, rhs))]
        tab.append([-v for v in cost] + [0] * (m + 1))
        self.basis = basis = list(range(n, n + m))
        self.n, self.d, self.pivots = n, 1, 0
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
        """Add the constraint row . x <= rhs (n ints, rhs >= 0) in the
        current basis, its slack basic, and restore feasibility by dual Bland
        pivots over the slacks, then the structural columns: the negative rhs
        of the first basic variable leaves, and the least reduced cost / |entry|
        over its negative entries enters, ties to the first column, its row
        negated first so that d stays positive. A tie at a zero reduced cost
        thus frees a slack before it raises a coordinate the cost ignores."""
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
        """(x, y, value, d): the point x / d, the duals y / d (the slacks'
        reduced costs) and the value / d, in tableau ints as `_certify`
        takes them."""
        n, cost, x = self.n, self.tab[-1], [0] * self.n
        for var, r in zip(self.basis, self.tab):
            if var < n:
                x[var] = r[-1]
        return x, cost[n:-1], cost[-1], self.d


def _certify(c, a, b, x, y, value, d) -> bool:
    """Zero-tolerance certificate of the optimum x / d, y / d, value / d on
    the int data c, A, b: primal feasibility (A.x <= b.d), dual feasibility
    (y.A >= c.d) and matching objective values (c.x = value = y.b)."""
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
        if s < cj * d:
            raise LpError(f"certificate: dual vector violates column {j}")
    if sum(map(mul, c, x)) != value or sum(map(mul, y, b)) != value:
        raise LpError("certificate: objective values disagree")
    return True
