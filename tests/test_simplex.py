"""Exact rational simplex: pinned instances, a float LP oracle sweep, and
Hypothesis properties holding the integer tableau to the Fraction tableau
(`reference_simplex` in conftest.py). The tests call `_solve` and
`_certify`, the functions the region LPs call, and read their tableau ints
out as the reference's `LpResult`."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import LpResult
from yrelay.dofregion import _extreme_rows, _ordering_row
from yrelay.errors import LpError
from yrelay.simplex import _certify, _solve, solve_linear

F = Fraction
# fixed example sequence, no example database: the same cases on every run
PROPERTY = settings(deadline=None, database=None, derandomize=True)
BEALE = (
    [F(3, 4), F(-150), F(1, 50), F(-6)],
    [[F(1, 4), F(-60), F(-1, 25), F(9)], [F(1, 2), F(-90), F(-1, 50), F(3)], [F(0), F(0), F(1), F(0)]],
    [F(0), F(0), F(1)],
)


def solve(c, a, b) -> LpResult:
    """`_solve`'s optimum, its tableau ints certified by `_certify` as the
    region LPs certify them, read out as the reference simplex's record."""
    x, d, y, value, den, basis, iterations = _solve(c, a, b)
    assert _certify(c, a, b, x, d, y, value, den) is True
    return LpResult(value=F(value, den), x=tuple(F(v, d) for v in x), basis=tuple(basis),
                    duals=tuple(F(v, den) for v in y), iterations=iterations)


def certify(c, a, b, res: LpResult) -> bool:
    """`_certify` on a record's rationals, the point over one common
    denominator and the duals and value over another, as `_solve` returns
    them."""
    d = math.lcm(*(F(v).denominator for v in res.x))
    den = math.lcm(*(F(v).denominator for v in (res.value, *res.duals)))
    return _certify(c, a, b, [int(v * d) for v in res.x], d, [int(v * den) for v in res.duals],
                    int(res.value * den), den)


def test_solve_linear_known_system():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x = solve_linear(a, [F(5), F(10)])
    assert x == [F(1), F(3)]


def test_solve_linear_singular_returns_none():
    a = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_linear(a, [F(1), F(2)]) is None


def test_small_lp():
    res = solve([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(2)])
    assert res.value == 3
    assert res.x == (F(1), F(2))
    assert certify([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(2)], res) is True


def test_beale_degenerate_instance_terminates():
    # classic cycling example for naive pivoting; Bland's rule must finish
    c, a, b = BEALE
    res = solve(c, a, b)
    assert res.value == F(1, 20)
    assert res.x == (F(1, 25), F(0), F(1), F(0))
    assert certify(c, a, b, res) is True


def test_unbounded_detected():
    with pytest.raises(LpError):
        _solve([F(1)], [[F(-1)]], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(LpError):
        _solve([F(1)], [[F(1)]], [F(-1)])


def lp_error(fn, *args):
    """fn(*args), or the message of the LpError it raises."""
    try:
        return fn(*args)
    except LpError as exc:
        return str(exc)


TAMPER_LPS = (
    ([2, 3], [[1, 0], [0, 1], [1, 1]], [4, 4, 6]),  # integer data
    ([F(2, 3), F(3, 2)], [[F(1, 2), 0], [0, F(1, 3)], [1, F(5, 4)]], [F(4, 3), 4, F(6, 5)]),  # fractional
)
# the last row never binds (2 + 1 + 1 < 9), so its optimal dual is zero
REDUNDANT_LP = ([1, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, 1]], [1, 1, 1, 9])
REDUNDANT_FORGERIES = (
    # zero on the binding rows, positive on the redundant one
    ("dual vector violates column 0", (0, 0, 0, F(1, 3))),
    ("dual vector violates column 1", (0, 0, 0, F(1, 2))),
    ("objective values disagree", (0, 0, 0, 1)),  # dual-feasible, but b . y = 9
    # several failing columns: the first one is named
    ("dual vector violates column 0", (0, 0, 0, 0)),
    ("dual vector violates column 1", (1, 0, 0, 0)),
    ("dual vector violates column 1", (F(1, 2), 0, F(1, 2), F(1, 4))),
    ("dual vector violates column 2", (1, 1, 0, 0)),
)


def test_certificate_rejects_tampering(reference_simplex):
    for c, a, b in (*TAMPER_LPS, REDUNDANT_LP):
        res = solve(c, a, b)
        assert certify(c, a, b, res) is True

        def forge(**fields):
            return LpResult(**{**res.__dict__, **fields})

        cases = [
            ("primal point has a negative coordinate", forge(x=(F(-1, 3), *res.x[1:]))),
            ("primal point violates constraint 0", forge(x=tuple(x + 5 for x in res.x))),
            ("dual vector has a negative coordinate", forge(duals=(*res.duals[:2], F(-1, 5)))),
            ("dual vector violates column 0", forge(duals=(0,) * len(res.duals))),
            ("objective values disagree", forge(value=res.value + F(1, 9))),
            # still dual-feasible (A >= 0), but b . y no longer meets c . x
            ("objective values disagree", forge(duals=tuple(y + F(1, 4) for y in res.duals))),
        ]
        if (c, a, b) == REDUNDANT_LP:
            assert res.duals == (1, 1, 1, 0)
            cases += [(message, forge(duals=y)) for message, y in REDUNDANT_FORGERIES]
        for message, forged in cases:
            got = lp_error(certify, c, a, b, forged)
            assert got == f"certificate: {message}"
            assert got == lp_error(reference_simplex.verify_certificate, c, a, b, forged)


def test_matches_float_oracle_on_random_instances():
    rng = random.Random(77)
    for _ in range(60):
        nvar = rng.randint(2, 5)
        ncon = rng.randint(1, 6)
        c = [F(rng.randint(-6, 9)) for _ in range(nvar)]
        a = [[F(rng.randint(-3, 5)) for _ in range(nvar)] for _ in range(ncon)]
        b = [F(rng.randint(0, 12)) for _ in range(ncon)]
        # box rows keep every instance bounded
        for i in range(nvar):
            a.append([F(int(i == j)) for j in range(nvar)])
            b.append(F(25))
        res = solve(c, a, b)
        assert certify(c, a, b, res) is True
        lp = linprog(
            [-float(x) for x in c],
            A_ub=[[float(v) for v in row] for row in a],
            b_ub=[float(v) for v in b],
            bounds=[(0, None)] * nvar,
            method="highs",
        )
        assert lp.status == 0
        assert float(res.value) == pytest.approx(-lp.fun, abs=1e-7)


# ------------------------------------------ integer tableau = Fraction tableau

_ENTRY = st.one_of(
    st.just(0),
    st.integers(-4, 6),
    st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 6))),
)


@st.composite
def lps(draw):
    """(c, A, b) with up to 8 rows and 12 columns: ints and Fractions mixed,
    negative and fractional entries, zero rows and zero right-hand sides,
    most with a last row of positive entries that bounds the LP; now and then
    a negative right-hand side or a row or b of the wrong length."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(1, 12))
    rhs = st.one_of(st.just(0), st.integers(0, 9), st.builds(F, st.integers(0, 9), st.integers(1, 4)))
    c = [draw(_ENTRY) for _ in range(n)]
    a = [[0] * n if draw(st.integers(0, 5)) == 0 else [draw(_ENTRY) for _ in range(n)] for _ in range(m)]
    if m and draw(st.integers(0, 3)):
        a[-1] = [draw(st.sampled_from((1, 2, F(1, 2), F(5, 3)))) for _ in range(n)]
    b = [draw(rhs) for _ in range(m)]
    flaw = draw(st.sampled_from(("none",) * 12 + ("negative b", "short row", "short b")))
    if flaw == "negative b" and m:
        b[draw(st.integers(0, m - 1))] = F(-1, 2)
    elif flaw == "short row" and m:
        a[draw(st.integers(0, m - 1))].pop()
    elif flaw == "short b":
        b.append(1)
    return c, a, b


@settings(PROPERTY, max_examples=300)
@given(lps())
@example(BEALE)
@example(([1, 1, 1], [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], [2, 2, 2, 3]))  # ratio-test ties
@example(([1, 2], [[-1, 1], [1, -2]], [1, 0]))  # unbounded after a degenerate pivot
def test_integer_tableau_matches_fraction_tableau(reference_simplex, lp):
    c, a, b = lp
    # the whole record: value, point, duals, basis and pivot count
    got = lp_error(solve, c, a, b)
    assert got == lp_error(reference_simplex.solve_max, c, a, b)
    if isinstance(got, LpResult):
        x, d, y, value, den, *_ = _solve(c, a, b)
        assert all(type(v) is int for v in (*x, d, *y, value, den))
        assert certify(c, a, b, got) is True
        assert reference_simplex.verify_certificate(c, a, b, got) is True


@st.composite
def region_lps(draw):
    """(c, A, b) as the region's cutting-plane LPs have them: the extreme
    ordering rows plus random ordering cut rows (0/1 ints) for K = 3..6, every
    rhs N = 1..8, and an all-ones, a random 0/1 or a random nonnegative int
    objective. These LPs are degenerate, so Bland's tie-breaking decides the
    basis."""
    k, n = draw(st.integers(3, 6)), draw(st.integers(1, 8))
    cuts = draw(st.lists(st.permutations(range(1, k + 1)), max_size=6))
    rows = [*_extreme_rows(k), *map(_ordering_row, cuts)]
    width = k * (k - 1)
    c = draw(st.one_of(st.just([1] * width),
                       st.lists(st.integers(0, 1), min_size=width, max_size=width),
                       st.lists(st.integers(0, 9), min_size=width, max_size=width)))
    return c, rows, [n] * len(rows)


@settings(PROPERTY, max_examples=200)
@given(region_lps())
def test_integer_tableau_matches_fraction_tableau_on_region_lps(reference_simplex, lp):
    c, a, b = lp
    # x, duals, value, basis and pivot count, certified on the tableau ints
    assert solve(c, a, b) == reference_simplex.solve_max(c, a, b)


@st.composite
def square_systems(draw):
    """An n x n system, n = 1..6; now and then one row a combination of two
    others (singular when n >= 2) or a zero row."""
    n = draw(st.integers(1, 6))
    a = [[draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    b = [draw(_ENTRY) for _ in range(n)]
    kind = draw(st.sampled_from(("random", "random", "combination", "zero row")))
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    if kind == "combination":
        a[i] = [F(2) * u - F(1, 3) * v for u, v in zip(a[j], a[k])]
    elif kind == "zero row":
        a[i] = [0] * n
    return a, b


@settings(PROPERTY, max_examples=200)
@given(square_systems())
def test_solve_linear_matches_fraction_elimination(reference_simplex, system):
    a, b = system
    got = solve_linear(a, b)
    assert got == reference_simplex.solve_linear(a, b)
    assert got is None or all(type(v) is F for v in got)
