"""Exact-arithmetic primal simplex for small linear programs.

Maximizes c'x subject to Ax <= b, x >= 0 with b >= 0, on a tableau of
Python ints: each constraint row and the cost row are scaled by their own
least common denominator (ints by 1), and integer-preserving Gauss-Jordan
pivots (Edmonds, 1967) divide exactly. Bland's rule guarantees
termination; problem sizes here are tiny (tens of variables and
constraints), so the tableau is dense; only `_certify` skips zero duals in y.A.
`_solve` returns the optimum as tableau ints, which the region LPs read and
`_certify` checks as they are (zero tolerance), with no Fraction-facing
wrapper; only `solve_linear` reads its solution out as Fractions.
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


def _solve(c, a, b):
    """Maximize c'x s.t. Ax <= b, x >= 0 (all rationals, b >= 0), in tableau
    ints: (x, d, y, value, den, basis, iterations), the point x / d, the
    duals y / den, the value / den, the optimal basis (column indices, slacks
    numbered after structural variables) and the pivot count."""
    m, n = len(a), len(c)
    if any(len(row) != n for row in a) or len(b) != m:
        raise LpError("inconsistent LP dimensions")
    if min(b, default=0) < 0:
        raise LpError("this solver needs b >= 0 (all-slack start)")

    # Tableau: m constraint rows then the cost row, each scaled to ints;
    # columns are the n structural variables, m slacks (slack i scaled with
    # its row, so its column stays a unit column), and the rhs. True entries
    # are tab / d.
    rows = [_integral([*row, *[0] * m, rhs]) for row, rhs in zip(a, b)]
    tab = [r for r, _ in rows]
    for i, r in enumerate(tab):
        r[n + i] = 1
    cost, c_scale = _integral(c)
    tab.append([-v for v in cost] + [0] * (m + 1))
    basis = list(range(n, n + m))

    d, iterations = 1, 0
    while True:
        # the first negative reduced cost enters (never the value: it starts at 0 and never falls)
        for enter, v in enumerate(tab[m]):
            if v < 0:
                break
        else:
            break
        # Bland: min ratio tab[i][-1] / tab[i][enter], compared by
        # cross-multiplying; ties by smallest basis index
        row = None
        for i, r in enumerate(tab[:m]):
            t, rhs = r[enter], r[-1]
            if t > 0 and (row is None or (rhs * den, basis[i]) < (top * t, basis[row])):
                row, top, den = i, rhs, t
        if row is None:
            raise LpError("unbounded linear program")
        d = _pivot(tab, row, enter, d)
        basis[row] = enter
        iterations += 1

    x = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
    # slack i, scaled with its row by s, has reduced cost y_i * c_scale / s
    duals = [s * v for (_, s), v in zip(rows, tab[m][n : n + m])]
    return x, d, duals, tab[m][-1], d * c_scale, basis, iterations


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
