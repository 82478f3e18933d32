"""Exact rational simplex: pinned instances, a float LP oracle sweep, and
Hypothesis properties holding the integer tableau to the Fraction tableau
(`reference_simplex` in conftest.py), from the cold start and pivot for
pivot through added rows. The tests build a `Tableau` on int data, add rows
to it, and read its optimum's tableau ints, which `_certify` checks as the
region LPs do, out as the reference's `LpResult`. A rational row is
restated on int data by `ints`, as the region LPs' rows are ints."""

import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import LpResult
from yrelay.alignment import DofVector, pair_tuple
from yrelay.dofregion import RegionSpec, _extreme_rows, _ordering_row, is_member
from yrelay.errors import LpError
from yrelay.simplex import Tableau, _certify

F = Fraction
# fixed example sequence, no example database: the same cases on every run
PROPERTY = settings(deadline=None, database=None, derandomize=True)


def ints(values) -> list:
    """The rationals `values` times their least common denominator, as ints:
    a rational row [A_i, b_i] or cost row restated on int data. A positive
    factor keeps a row's feasible set and every choice of Bland's rule."""
    s = math.lcm(*(F(v).denominator for v in values))
    return [int(v * s) for v in values]


def int_lp(c, a, b):
    """The rational LP c, A, b on int data: the cost and each row [A_i, b_i]
    times its least common denominator (entries of b past A's rows kept)."""
    rows = [ints([*row, rhs]) for row, rhs in zip(a, b)]
    return ints(c), [r[:-1] for r in rows], [r[-1] for r in rows] + list(b[len(a):])


# Beale's cycling example, max 3/4 x1 - 150 x2 + 1/50 x3 - 6 x4, on int data
BEALE = int_lp(
    [F(3, 4), F(-150), F(1, 50), F(-6)],
    [[F(1, 4), F(-60), F(-1, 25), F(9)], [F(1, 2), F(-90), F(-1, 50), F(3)], [F(0), F(0), F(1), F(0)]],
    [F(0), F(0), F(1)],
)


def record(lp, c, a, b) -> LpResult:
    """A `Tableau`'s optimum on the rows c, A, b it holds, its tableau ints
    certified by `_certify` as the region LPs certify them, read out as the
    reference simplex's record."""
    x, y, value, d = lp.optimum()
    assert d > 0 and _certify(c, a, b, x, y, value, d) is True
    return LpResult(value=F(value, d), x=tuple(F(v, d) for v in x), basis=tuple(lp.basis),
                    duals=tuple(F(v, d) for v in y), iterations=lp.pivots)


def solve(c, a, b) -> LpResult:
    """The cold start's optimum, as `record` reads it."""
    return record(Tableau(c, a, b), c, a, b)


def certify(c, a, b, res: LpResult) -> bool:
    """`_certify` on a record's rationals over one common denominator, as
    `Tableau.optimum` returns them."""
    d = math.lcm(*(F(v).denominator for v in (*res.x, res.value, *res.duals)))
    return _certify(c, a, b, [int(v * d) for v in res.x], [int(v * d) for v in res.duals], int(res.value * d), d)


def test_small_lp():
    res = solve([1, 1], [[1, 0], [0, 1]], [1, 2])
    assert res.value == 3
    assert res.x == (F(1), F(2))
    assert certify([1, 1], [[1, 0], [0, 1]], [1, 2], res) is True


def test_beale_degenerate_instance_terminates():
    # classic cycling example for naive pivoting; Bland's rule must finish
    c, a, b = BEALE
    res = solve(c, a, b)
    assert c == [75, -15000, 2, -600] and res.value == 100 * F(1, 20)  # the cost times its lcm, 100
    assert res.x == (F(1, 25), F(0), F(1), F(0))
    assert certify(c, a, b, res) is True


def test_unbounded_detected():
    with pytest.raises(LpError):
        Tableau([1], [[-1]], [1])


def test_negative_rhs_rejected():
    with pytest.raises(LpError):
        Tableau([1], [[1]], [-1])


def lp_error(fn, *args):
    """fn(*args), or the message of the LpError it raises."""
    try:
        return fn(*args)
    except LpError as exc:
        return str(exc)


TAMPER_LPS = (
    ([2, 3], [[1, 0], [0, 1], [1, 1]], [4, 4, 6]),  # integer data
    int_lp([F(2, 3), F(3, 2)], [[F(1, 2), 0], [0, F(1, 3)], [1, F(5, 4)]], [F(4, 3), 4, F(6, 5)]),  # fractional
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
        c = [rng.randint(-6, 9) for _ in range(nvar)]
        a = [[rng.randint(-3, 5) for _ in range(nvar)] for _ in range(ncon)]
        b = [rng.randint(0, 12) for _ in range(ncon)]
        # box rows keep every instance bounded
        for i in range(nvar):
            a.append([int(i == j) for j in range(nvar)])
            b.append(25)
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
    """(c, A, b) on int data with up to 8 rows and 12 columns: drawn as ints
    and Fractions mixed, negative and fractional entries, zero rows and zero
    right-hand sides, most with a last row of positive entries that bounds
    the LP, now and then a negative right-hand side or a row or b of the
    wrong length; then restated by `int_lp`."""
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
    return int_lp(c, a, b)


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
        x, y, value, d = Tableau(c, a, b).optimum()
        assert all(type(v) is int for v in (*x, *y, value, d))
        assert certify(c, a, b, got) is True
        assert reference_simplex.verify_certificate(c, a, b, got) is True


@st.composite
def region_lps(draw, max_cuts=6):
    """(c, A, b) as the region's cutting-plane LPs have them: the extreme
    ordering rows plus up to `max_cuts` random ordering cut rows (0/1 ints)
    for K = 3..6, every rhs N = 1..8, and an all-ones, a random 0/1 or a
    random nonnegative int objective. These LPs are degenerate, so Bland's
    tie-breaking decides the basis."""
    k, n = draw(st.integers(3, 6)), draw(st.integers(1, 8))
    cuts = draw(st.lists(st.permutations(range(1, k + 1)), max_size=max_cuts))
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


def added_rows_match(reference_simplex, c, a, b, next_row):
    """Cold-start c, A, b in the integer and in the Fraction tableau, then
    enter by `add_row` each (row, rhs) that next_row(record) gives for the
    kept optimum's record, until it gives None, and hold the two tableaus
    equal after each row: the record (pivot count included) or the error
    message. The kept optimum has the value of a cold start on the rows so
    far. Returns the number of dual pivots."""
    lp, ref = lp_error(Tableau, c, a, b), lp_error(reference_simplex.tableau, c, a, b)
    if isinstance(lp, str):
        assert lp == ref
        return 0
    kept, a, b = record(lp, c, a, b), list(a), list(b)
    assert kept == ref.result()
    start = kept.iterations
    while (added := next_row(kept)) is not None:
        row, rhs = added
        got = lp_error(lp.add_row, row, rhs)
        assert got == lp_error(ref.add_row, row, rhs)
        if got is not None:  # refused before either tableau changes
            assert got in ("this solver needs b >= 0 (all-slack start)", "inconsistent LP dimensions")
            continue
        a.append(row)
        b.append(rhs)
        kept = record(lp, c, a, b)
        assert kept == ref.result()
        assert kept.value == solve(c, a, b).value
    return lp.pivots - start


def rows_from(added):
    """next_row for `added_rows_match` that gives the rows of a list."""
    rows = iter(added)
    return lambda kept: next(rows, None)


@pytest.mark.parametrize("c, a, b, added", [
    # the last cut is degenerate: it meets the optimum's value exactly
    ([1, 1], [[1, 1]], [4], [([1, 0], 1), ([0, 1], 1), ([1, 1], 2)]),
    # x1 / 2 <= 1/100 and x3 <= 1/2 times 100 and 2, then a negative rhs and a short row
    (*BEALE, [([50, 0, 0, 0], 1), ([0, 0, 2, 0], 1), ([1, 1, 1, 1], -1), ([1, 1], 1)]),
])
def test_added_rows_match_fraction_tableau_pinned(reference_simplex, c, a, b, added):
    assert added_rows_match(reference_simplex, c, a, b, rows_from(added)) > 0


@settings(PROPERTY, max_examples=300)
@given(lps(), st.data())
def test_added_rows_match_fraction_tableau(reference_simplex, lp, data):
    # up to 6 rows: entries as in `lps` or all positive, now and then a row
    # of the wrong length; the rhs mostly a fraction of the row's value at
    # the kept optimum (a violated cut when that value is positive), now
    # and then any rhs, negative included; each [row, rhs] restated by `ints`
    c, a, b = lp
    count = data.draw(st.integers(0, 6), label="rows")

    def next_row(kept):
        nonlocal count
        if count == 0:
            return None
        count -= 1
        width = data.draw(st.sampled_from((len(c),) * 12 + (len(c) - 1, len(c) + 1)), label="width")
        entry = data.draw(st.sampled_from((_ENTRY, st.sampled_from((1, 2, F(1, 2))))), label="entries")
        row = data.draw(st.lists(entry, min_size=width, max_size=width), label="row")
        at = max(sum(map(F, map(mul, row, kept.x)), F(0)), F(0))
        rhs = st.one_of(st.sampled_from((0, F(1, 4), F(1, 2), F(3, 4), 1)).map(lambda t: t * at),
                        st.builds(F, st.integers(-2, 9), st.integers(1, 4)))
        *row, rhs = ints([*row, data.draw(rhs, label="rhs")])
        return row, rhs

    added_rows_match(reference_simplex, c, a, b, next_row)


@settings(PROPERTY, max_examples=150)
@given(region_lps(max_cuts=0))
def test_walk_cuts_match_fraction_tableau_on_region_lps(reference_simplex, lp):
    # the cut loop of the region LPs: the extreme rows' cold start, then the
    # first ordering (in lexicographic order) that the kept optimum violates,
    # as the walk finds it, until the optimum is a member
    c, a, b = lp
    k, n = next(k for k in range(3, 7) if k * (k - 1) == len(c)), b[0]

    def next_row(kept):
        witness = is_member(DofVector(k, dict(zip(pair_tuple(k), kept.x))), RegionSpec(K=k, N=n)).witness
        return None if witness is None else (_ordering_row(witness[0]), n)

    added_rows_match(reference_simplex, c, a, b, next_row)
