"""Normalized pseudo-inverse tests.

The library computes only the unit-Frobenius-norm inverses, for a stack of
matrices at once (`_unit_pinv`); most tests here run it on one matrix as a
stack of one. The raw pseudo-inverse G is read back as matrix / alpha
(right) or matrix / beta (left). The independent oracle is an explicit SVD
reconstruction (economy SVD, invert nonzero singular values); the library
path uses the Gram formula, so agreement is a real cross-check, not a
tautology.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import yrelay.linalg
from yrelay.errors import DimensionError, RankDeficient, ScalarUnderflow
from yrelay.linalg import (
    DIAG_RTOL,
    GRAM_BOUND_LIMIT,
    GRAM_COND_LIMIT,
    RANK_TOL,
    TRACE_TOL,
    _unit_pinv,
    well_conditioned,
)


def right_inverse(h):
    """`_unit_pinv` on one wide H: matrix with H @ matrix = alpha * I."""
    g, c = _unit_pinv(np.asarray(h)[None], right=True)
    return SimpleNamespace(matrix=g[0], alpha=float(c[0]))


def left_inverse(d):
    """`_unit_pinv` on one tall D: matrix with matrix @ D = beta * I."""
    g, c = _unit_pinv(np.asarray(d)[None], right=False)
    return SimpleNamespace(matrix=g[0], beta=float(c[0]))


def raw_right_inverse(h):
    """Raw right inverse G with H @ G = I, unscaled from the normalized form."""
    r = right_inverse(h)
    return r.matrix / r.alpha


def raw_left_inverse(d):
    """Raw left inverse G with G @ D = I, unscaled from the normalized form."""
    l = left_inverse(d)
    return l.matrix / l.beta


def svd_pinv(a):
    """Oracle: pseudo-inverse assembled from the SVD by hand."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh.conj().T @ np.diag(1.0 / s) @ u.conj().T


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2)


# ------------------------------------------------- raw inverses, unscaled


def test_right_pinv_identity():
    g = raw_right_inverse(np.eye(2))
    assert np.allclose(g, np.eye(2), atol=1e-14)


def test_right_pinv_scalar():
    g = raw_right_inverse(np.array([[2.0]]))
    assert np.allclose(g, [[0.5]], atol=1e-15)


def test_right_pinv_matches_svd_oracle():
    rng = np.random.default_rng(101)
    for _ in range(50):
        h = random_complex(rng, 2, 3)
        g = raw_right_inverse(h)
        assert np.max(np.abs(g - svd_pinv(h))) <= 1e-10


def test_left_pinv_identity():
    assert np.allclose(raw_left_inverse(np.eye(3)), np.eye(3), atol=1e-14)


def test_left_pinv_least_squares_row():
    # D = [0; 2] is tall rank-1; the left inverse is the least-squares row.
    g = raw_left_inverse(np.array([[0.0], [2.0]]))
    assert np.allclose(g, [[0.0, 0.5]], atol=1e-15)


def test_left_pinv_matches_svd_oracle():
    rng = np.random.default_rng(102)
    for _ in range(50):
        d = random_complex(rng, 4, 2)
        g = raw_left_inverse(d)
        assert np.max(np.abs(g - svd_pinv(d))) <= 1e-10


def test_right_pinv_rejects_tall_input():
    with pytest.raises(DimensionError):
        raw_right_inverse(np.ones((3, 2)))


def test_left_pinv_rejects_wide_input():
    with pytest.raises(DimensionError):
        raw_left_inverse(np.ones((2, 3)))


def test_rank_deficient_rejected():
    row = np.array([1.0 + 1j, 2.0, -0.5j])
    h = np.vstack([row, 2 * row])  # rank 1, two rows
    with pytest.raises(RankDeficient):
        raw_right_inverse(h)
    with pytest.raises(RankDeficient):
        raw_left_inverse(h.conj().T)


def test_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        right_inverse(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        left_inverse(np.array([[np.inf], [1.0]]))
    with pytest.raises(DimensionError):
        _unit_pinv(np.eye(2), right=True)  # one matrix, not a stack


# ------------------------------------------------------------ normalized forms


def test_normalized_right_identity():
    r = right_inverse(np.eye(2))
    assert np.allclose(r.matrix, np.eye(2) / math.sqrt(2), atol=1e-15)
    assert abs(r.alpha - 1 / math.sqrt(2)) < 1e-15


def test_normalized_right_scalar():
    r = right_inverse(np.array([[2.0]]))
    assert np.allclose(r.matrix, [[1.0]], atol=1e-15)
    assert abs(r.alpha - 2.0) < 1e-15


def test_normalized_right_diagonalizes():
    rng = np.random.default_rng(103)
    for _ in range(25):
        h = random_complex(rng, 3, 5)
        r = right_inverse(h)
        resid = np.linalg.norm(h @ r.matrix - r.alpha * np.eye(3))
        assert resid <= DIAG_RTOL * r.alpha * math.sqrt(3)


def test_normalized_left_identity():
    l = left_inverse(np.eye(2))
    assert np.allclose(l.matrix, np.eye(2) / math.sqrt(2), atol=1e-15)
    assert abs(l.beta - 1 / math.sqrt(2)) < 1e-15


def test_normalized_left_scalar():
    l = left_inverse(np.array([[3.0]]))
    assert np.allclose(l.matrix, [[1.0]], atol=1e-15)
    assert abs(l.beta - 3.0) < 1e-15


def test_normalized_left_diagonalizes():
    rng = np.random.default_rng(104)
    for _ in range(25):
        d = random_complex(rng, 6, 4)
        l = left_inverse(d)
        resid = np.linalg.norm(l.matrix @ d - l.beta * np.eye(4))
        assert resid / l.beta <= DIAG_RTOL * math.sqrt(4)


def test_unit_frobenius_norm():
    """tr(G^H G) = 1 is the exact power statement: for white input u with
    per-component variance s^2, E||G u||^2 = s^2 * tr(G^H G) = s^2."""
    rng = np.random.default_rng(105)
    for rows, cols in [(2, 2), (2, 4), (4, 6), (6, 6)]:
        h = random_complex(rng, rows, cols)
        r = right_inverse(h)
        assert abs(np.trace(r.matrix.conj().T @ r.matrix).real - 1.0) <= TRACE_TOL
        d = random_complex(rng, cols, rows)
        l = left_inverse(d)
        assert abs(np.trace(l.matrix.conj().T @ l.matrix).real - 1.0) <= TRACE_TOL


def test_scaling_identities():
    # scaling the channel by c: pinv scales by 1/c, alpha by c, and the
    # normalized matrix is unchanged
    rng = np.random.default_rng(106)
    h = random_complex(rng, 3, 5)
    for c in (0.25, 2.0, 17.5):
        assert np.allclose(raw_right_inverse(c * h), raw_right_inverse(h) / c, rtol=1e-11)
        base, scaled = right_inverse(h), right_inverse(c * h)
        assert abs(scaled.alpha - c * base.alpha) <= 1e-11 * base.alpha
        assert np.allclose(scaled.matrix, base.matrix, rtol=1e-11)


def test_gram_and_svd_agree_when_well_conditioned():
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 30:
        h = random_complex(rng, 4, 6)
        if np.linalg.cond(h) > 1e6:
            continue
        assert np.max(np.abs(raw_right_inverse(h) - svd_pinv(h))) <= 1e-9
        checked += 1


# ---------------------------------------------------------------- conditioning


def svals(a):
    """Singular values as the conditioning predicate's callers compute them."""
    return np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)


def test_condition_identity():
    s = svals(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])
    assert well_conditioned(s)
    assert not well_conditioned(svals(np.zeros((3, 3))))


def test_condition_diag():
    # sigma_min/sigma_max of a diagonal matrix is its smallest over largest
    # entry; the predicate accepts the ratio RANK_TOL itself and rejects below
    assert well_conditioned(svals(np.diag([2.0, 1.0])))
    assert well_conditioned(svals(np.diag([1.0, RANK_TOL])))
    assert not well_conditioned(svals(np.diag([1.0, RANK_TOL / 2])))
    assert not well_conditioned(svals(np.diag([RANK_TOL / 2, 1.0])))


def test_singular_values_multiply_to_determinant():
    # the predicate reads s[0] as sigma_max and s[-1] as sigma_min
    rng = np.random.default_rng(109)
    for _ in range(20):
        a = random_complex(rng, 3, 3)
        s = svals(a)
        assert list(s) == sorted(s, reverse=True)
        assert np.prod(s) == pytest.approx(abs(np.linalg.det(a)), rel=1e-9)
        assert not well_conditioned(svals(a @ np.diag([1.0, 1.0, 0.0])))


def outcome(call):
    """What `call()` does: its inverse and scale bits or its error, and the
    warnings it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g, c = call()
            result = ("inverse", np.asarray(g).tobytes(), np.asarray(c).tobytes())
        except (RankDeficient, ScalarUnderflow, np.linalg.LinAlgError) as exc:
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


@pytest.fixture
def traced_pinv(monkeypatch):
    """(x, right, limit) -> the `outcome` of `_unit_pinv(x, right)` with
    GRAM_BOUND_LIMIT at `limit`, and the shapes of the stacks its
    np.linalg.svd and np.linalg.pinv calls take, one per call."""
    calls = {}
    for name in ("svd", "pinv"):
        def counted(a, *args, name=name, fn=getattr(np.linalg, name), **kwargs):
            calls[name].append(np.shape(a))
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def run(x, right, limit):
        monkeypatch.setattr(yrelay.linalg, "GRAM_BOUND_LIMIT", limit)
        calls.update(svd=[], pinv=[])
        return (*outcome(lambda: _unit_pinv(x, right)), dict(calls))

    return run


def test_bounded_check_matches_the_svd_route(traced_pinv):
    # the Gram bound decides nothing the SVD would decide otherwise: the
    # bounded path and the SVD route forced by a limit of 0 (cond >= 1, so
    # no bound meets it) give the same verdict, route (Gram or pinv, and
    # the matrices pinv takes), inverse and scale bits, RankDeficient text
    # and warnings; where the bound clears a stack, no SVD runs and every
    # matrix has sigma_min/sigma_max >= 1e-3
    rng = np.random.default_rng(110)
    routes = {"bound": 0, "gram": 0, "fallback": 0, "rank": 0}
    for i in range(600):
        n = 1 + i % 6
        m = n + (i // 6) % 3
        stack = np.array([random_complex(rng, n, m) for _ in range(1 + i % 3)])
        # down to rank-deficient; every other stack near the bound's limit
        stack[:, :, 0] *= 10.0 ** -rng.uniform(*((0, 12) if i % 2 else (2, 3.5)), size=(len(stack), 1))
        for right, x in ((True, stack), (False, stack.transpose(0, 2, 1).copy())):
            got, got_warnings, got_calls = traced_pinv(x, right, GRAM_BOUND_LIMIT)
            want, want_warnings, want_calls = traced_pinv(x, right, 0.0)
            assert got == want and got_warnings == want_warnings == []
            assert got_calls["pinv"] == want_calls["pinv"] and want_calls["svd"] == [x.shape]
            if not got_calls["svd"]:
                routes["bound"] += 1
                s = svals(x)
                assert (s[:, -1] >= 1e-3 * s[:, 0]).all()
            else:
                routes["rank" if want[0] == "RankDeficient" else "fallback" if want_calls["pinv"] else "gram"] += 1
    assert min(routes.values()) > 50


@pytest.mark.parametrize("scale", [0.0, 1e154, 1e160, 1e-160, 1e-170, 1e300, 1e-300])
def test_bound_clears_no_extreme_matrix(traced_pinv, scale):
    # entries whose Gram matrix overflows (1e154, 1e160, 1e300) or
    # underflows (1e-160 to subnormals, 1e-170 and 1e-300 to zero): the
    # bound clears none of them, and the prescaled route gives the unscaled
    # matrix's precoder and its alpha times the scale, with no warning; an
    # all-zero matrix, whose Gram matrix cannot be inverted, is refused, and
    # so is an alpha of 2^512 or more (1e160, 1e300: about 3.9e159 and
    # 3.9e299), whose square has no float
    x = random_complex(np.random.default_rng(112), 3, 4)[None]
    for right, x in ((True, x), (False, x.transpose(0, 2, 1).copy())):
        got, got_warnings, calls = traced_pinv(x * scale, right, GRAM_BOUND_LIMIT)
        assert got_warnings == [] and calls["svd"] == [x.shape]
        side = "right" if right else "left"
        if scale in (1e160, 1e300):
            top = np.frexp(_unit_pinv(x, right)[1][0] * scale)[1]
            assert got == ("ScalarUnderflow", f"{side} inverse scale of 2^{top - 1} or more has no float square")
            continue
        if scale == 0.0:
            text = f"{side} inverse needs a well-conditioned matrix: sigma_min/sigma_max = 0.000e+00"
            assert got == ("RankDeficient", text)
            continue
        (g, c), (want_g, want_c) = _unit_pinv(x * scale, right), _unit_pinv(x, right)
        assert np.abs(g - want_g).max() <= 1e-12
        assert abs(c[0] - want_c[0] * scale) <= 1e-12 * want_c[0] * scale


def test_scale_past_the_float_range_is_named():
    # a finite, well-conditioned matrix whose alpha has no float (a 1x4
    # right or 4x1 left inverse of entries 1.5e308: sigma = 3e308) raises
    # ScalarUnderflow naming its place in the stack, with no warning; at
    # half that size alpha = 2 * 0.75e308 = 1.5e308, in [2^1023, 2^1024),
    # fits a float but its square does not, and the message says so
    ok = np.array([[[1.0, 2.0, 0.5, 1.5]]])
    for right in (True, False):
        big = np.concatenate([ok, ok, np.full((1, 1, 4), 1.5e308)])
        if not right:
            big = big.transpose(0, 2, 1).copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalarUnderflow) as info:
                _unit_pinv(big, right)
            with pytest.raises(ScalarUnderflow) as half:
                _unit_pinv(big / 2, right)
        side = "right" if right else "left"
        assert str(info.value) == f"{side} inverse scale of 2^1024 or more has no float"
        assert str(half.value) == f"{side} inverse scale of 2^1023 or more has no float square"
        assert info.value.index == half.value.index == 2


def test_only_matrices_past_the_bound_get_their_svd(traced_pinv):
    # one 6x6 matrix of a 64-matrix stack rescaled past the bound: it alone
    # gets an SVD, the other 63 keep the bits they get without it, and
    # every matrix gets the bits it gets alone
    rng = np.random.default_rng(113)
    x = np.array([random_complex(rng, 6, 6) for _ in range(64)])
    x[17, :, 0] *= 1e-3
    for right in (True, False):
        got, got_warnings, calls = traced_pinv(x, right, GRAM_BOUND_LIMIT)
        assert got[0] == "inverse" and got_warnings == [] and calls == {"svd": [(1, 6, 6)], "pinv": []}
        g, c = _unit_pinv(x, right)
        for i in range(64):
            alone = _unit_pinv(x[i : i + 1], right)
            assert g[i].tobytes() == alone[0][0].tobytes() and c[i] == alone[1][0]
        rest = np.delete(x, 17, axis=0)
        assert traced_pinv(rest, right, GRAM_BOUND_LIMIT)[2]["svd"] == []
        assert np.delete(g, 17, axis=0).tobytes() == _unit_pinv(rest, right)[0].tobytes()


def test_singular_gram_matrix_fails_only_itself(traced_pinv):
    # one matrix of a 64-matrix 6x6 stack scaled by 1e-170, so its Gram
    # matrix underflows to zero and the stacked inversion raises: it alone
    # gets an SVD, and every matrix, that one too, gets the bits it gets alone
    rng = np.random.default_rng(114)
    x = np.array([random_complex(rng, 6, 6) for _ in range(64)])
    x[40] *= 1e-170
    for right in (True, False):
        gram = x[40] @ x[40].conj().T if right else x[40].conj().T @ x[40]
        assert not gram.any()
        got, got_warnings, calls = traced_pinv(x, right, GRAM_BOUND_LIMIT)
        assert got[0] == "inverse" and got_warnings == [] and calls == {"svd": [(1, 6, 6)], "pinv": []}
        g, c = _unit_pinv(x, right)
        for i in range(64):
            alone = _unit_pinv(x[i : i + 1], right)
            assert g[i].tobytes() == alone[0][0].tobytes() and c[i] == alone[1][0]


def test_stacked_inverse_matches_one_matrix_at_a_time(reference_pinv):
    # one stacked Gram product, inversion and product give each matrix the
    # bits it gets alone, on either route; a stack with a rank-deficient
    # matrix raises the first one's error
    rng = np.random.default_rng(111)
    routes = {"gram": 0, "fallback": 0, "rank": 0}
    for i in range(300):
        n = 1 + i % 5
        m = n + (i // 5) % 3
        stack = np.array([random_complex(rng, n, m) for _ in range(1 + i % 6)])
        stack[:, :, 0] *= 10.0 ** -rng.uniform(0, 11, size=(len(stack), 1))
        for right, x in ((True, stack), (False, stack.transpose(0, 2, 1).copy())):
            wants = []
            for a in x:
                try:
                    wants.append(reference_pinv(a, right))
                except RankDeficient as exc:
                    wants.append(exc)
            errors = [w for w in wants if isinstance(w, RankDeficient)]
            if errors:
                with pytest.raises(RankDeficient) as got:
                    _unit_pinv(x, right)
                assert str(got.value) == str(errors[0])
                routes["rank"] += 1
            else:
                g, c = _unit_pinv(x, right)
                assert g.shape == (len(x),) + x.shape[:0:-1]
                for gi, ci, (gw, cw) in zip(g, c.tolist(), wants):
                    assert gi.tobytes() == gw.tobytes() and ci == cw
                s = np.linalg.svd(x, compute_uv=False)
                routes["fallback"] += any((s[:, 0] / s[:, -1]) ** 2 > GRAM_COND_LIMIT)
                routes["gram"] += all((s[:, 0] / s[:, -1]) ** 2 <= GRAM_COND_LIMIT)
    assert min(routes.values()) > 30
