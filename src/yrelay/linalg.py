"""Complex dense linear algebra for zero-forcing relay beamforming.

Right and left Moore-Penrose pseudo-inverses in Gram-matrix form, for
whole stacks of matrices at once (one Gram inversion for all of them, and
an SVD only for a matrix whose Gram inverse fails its conditioning bound),
scaled to unit Frobenius norm so that pre/post-coding turns every channel
into a scaled identity; the left-to-right sum that keeps float results
independent of Python versions, over the items of an iterable or, in one
`np.add.accumulate` call, along one axis of an array; and Euclidean norms
along the last axis of a stack, each by `np.linalg.norm`'s formula for one
vector.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionError, RankDeficient, ScalarUnderflow

# Conditioning / tolerance constants (shared by the test suite).
RANK_TOL = 1e-10          # reject when sigma_min/sigma_max falls below this
GRAM_COND_LIMIT = 1e8     # switch to the SVD route when cond(Gram) exceeds this
GRAM_BOUND_LIMIT = GRAM_COND_LIMIT / 100  # no SVD for a matrix whose cond(Gram) bound stays within this
DIAG_RTOL = 1e-9          # relative residual allowed in H @ H_R = alpha * I
TRACE_TOL = 1e-12         # absolute tolerance on the unit-trace normalization

_NO_INDEX = np.empty(0, dtype=np.intp)
_NO_INDEX.flags.writeable = False


def well_conditioned(s):
    """Whether nonincreasing singular values `s` have sigma_max > 0 and
    sigma_min/sigma_max >= RANK_TOL; for a stack of them (one row each), one
    verdict per row."""
    s = np.asarray(s)
    top = s[..., 0]
    ratio = np.divide(s[..., -1], top, out=np.zeros_like(top), where=top > 0)
    return (top > 0) & (ratio >= RANK_TOL)


def left_sum(values, start=0.0, axis=None):
    """((start + v0) + v1) + ..., added left to right.

    Builtin `sum()` adds floats with compensation from Python 3.12 on, and
    `np.sum` adds pairwise, so neither keeps a report's bytes across
    versions. With no `axis` the terms are the items of `values`, added one
    at a time (arrays elementwise). With an `axis` they are the entries of
    the array `values` along it, added by one `np.add.accumulate`,
    sequential by definition (out[i] = out[i-1] + a[i]), so each entry has
    the loop's bits in one call. A start of +0.0 as a Python float (the
    default) over float or complex terms needs no buffer: the accumulate
    runs over the terms alone and its last entry gets + 0.0, because the
    loop's partial sums from +0.0 differ from the terms' own only in the
    sign of a zero (the loop's is never -0.0), and x + 0.0 turns -0.0 into
    +0.0 and keeps every other x. Any other start, -0.0 included (it equals
    0.0), fills one buffer with the terms for the accumulate. An empty axis
    gives `start` over the remaining shape.
    """
    if axis is None:
        total = start
        for v in values:
            total = total + v
        return total
    terms = np.asarray(values)
    axis = range(terms.ndim)[axis]
    head = (slice(None),) * axis
    if type(start) is float and start == 0.0 and math.copysign(1.0, start) > 0.0 and terms.shape[axis] \
            and terms.dtype.kind in "fc":
        return np.add.accumulate(terms, axis=axis)[(*head, -1)] + 0.0
    buf = np.empty((*terms.shape[:axis], terms.shape[axis] + 1, *terms.shape[axis + 1 :]),
                   np.result_type(start, terms))
    buf[(*head, 0)] = start
    buf[(*head, slice(1, None))] = terms
    np.add.accumulate(buf, axis=axis, out=buf)
    return buf[(*head, -1)]


def _row_dots(x: np.ndarray) -> np.ndarray:
    """x . x along the last axis of a real array: one BLAS dot per row, the
    call `ndarray.dot` makes for one row (`np.sum` adds in another order)."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of a complex array, each by the
    formula np.linalg.norm uses for one vector."""
    return np.sqrt(_row_dots(x.real) + _row_dots(x.imag))


def _gram_pinv(links):
    """Gram-formula pseudo-inverses of the stacks in `links`, pairs (a,
    right) whose Gram matrices share one size, with one inversion for all:
    per stack its pseudo-inverses, then every stack's Gram matrices and
    their inverses in turn (NaN for each one that fails, which no bound
    clears)."""
    ahs = [a.conj().swapaxes(1, 2) for a, _ in links]
    gram = np.concatenate([a @ ah if right else ah @ a for (a, right), ah in zip(links, ahs)])
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:  # one singular matrix fails the stack: the others keep their bits
        gram_inv = np.full_like(gram, np.nan)
        for i, q in enumerate(gram):
            try:
                gram_inv[i] = np.linalg.inv(q)
            except np.linalg.LinAlgError:
                pass
    ends = list(itertools.accumulate(len(a) for a, _ in links))
    xs = (gram_inv[end - len(a) : end] for (a, _), end in zip(links, ends))
    return [ah @ x if right else x @ ah for (_, right), ah, x in zip(links, ahs, xs)], gram, gram_inv


def _unit_pinv(a, right: bool, *more) -> tuple:
    """Minimum-norm pseudo-inverses G of a stack `a` (S, rows, cols), and of
    the stacks in `more` = (b, right_b, ...), each scaled to unit Frobenius
    norm: (c * G, c) per stack, in one flat tuple.

    With `right`, every matrix of the stack is wide and G = A^H (A A^H)^{-1}
    (A @ G = I); otherwise tall, and G = (A^H A)^{-1} A^H (G @ A = I). One
    Gram product per stack, one inversion for all the stacks (their Gram
    matrices share one size) and one product per stack serve them, matrix
    by matrix the same bits as one matrix alone. The side is explicit: a
    square matrix fits both, and there the formulas differ in the last
    bits. c^{-2} = tr(G^H G).

    Gram matrices Q and computed inverses X check conditioning: P = ||Q||_F
    ||X||_F >= cond_2(Q) up to X's error u cond_2(Q), and cond_2(Q) >
    GRAM_COND_LIMIT gives P > GRAM_COND_LIMIT / sqrt(n): column j of X
    solves (Q + E_j) x_j = e_j with ||E_j|| ~ u ||Q||, so ||x_j|| >= |v_j| /
    (sigma_min(Q) + ||E_j||), v least singular, and some |v_j| >= 1/sqrt(n).
    A matrix with P <= GRAM_BOUND_LIMIT keeps its stacked Gram inverse, no
    SVD. Only the others (NaN P too) get their SVD: RANK_TOL refuses one
    (the first is named, `index` its place), GRAM_COND_LIMIT sends one to
    pinv, the rest retake the Gram formula. Each is scaled first by 2^-e, e
    from frexp of its largest real or imaginary part, and c by 2^e after: a
    power of two changes no bit in the normal range, and with entries in
    [0.5, 1) the Gram product can neither underflow nor overflow. A c*2^e
    of 2^512 or more, whose square has no float (the SNR model squares c),
    raises ScalarUnderflow (`index` its place), as does one past the float
    range. Only a matrix past the bound can reach 2^512: c <= sigma_min, so
    its Gram matrix overflows. A place counts the matrices of all the
    stacks in turn, and a stack's errors are raised before any of a later
    stack.
    """
    stacks, links = [], (a, right, *more)
    for a, right in zip(links[::2], links[1::2]):
        a = np.ascontiguousarray(a, dtype=np.complex128)
        if a.ndim != 3:
            raise DimensionError(f"expected a stack of 2-D matrices, got ndim={a.ndim}")
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries")
        n, m = a.shape[1:] if right else a.shape[:0:-1]
        if n > m:
            side, want = ("right", "wide") if right else ("left", "tall")
            raise DimensionError(f"{side} inverse needs a {want} matrix, got {a.shape[1]}x{a.shape[2]}")
        stacks.append((a, right))
    with np.errstate(all="ignore"):  # the bound warns of nothing; the matrices past it are inverted again
        pinvs, gram, gram_inv = _gram_pinv(stacks)
        q2, x2 = (np.einsum("sij,sij->s", v, v) for v in (gram.view(np.float64), gram_inv.view(np.float64)))
        beyond = ~(q2 * x2 <= GRAM_BOUND_LIMIT**2)
    any_past = beyond.any()
    out, start = [], 0
    for (a, right), g in zip(stacks, pinvs):
        side, past = "right" if right else "left", _NO_INDEX
        if any_past:
            past = np.flatnonzero(beyond[start : start + len(a)])
        if past.size:
            parts = a[past].view(np.float64)
            e = np.frexp(np.abs(parts).max(axis=(1, 2)))[1]
            b = np.ldexp(parts, -e[:, None, None]).view(np.complex128)
            s = np.linalg.svd(b, compute_uv=False)
            ok = well_conditioned(s)
            if not ok.all():
                i = np.argmin(ok)
                ratio = 0.0 if s[i, 0] == 0 else s[i, -1] / s[i, 0]
                raise RankDeficient(f"{side} inverse needs a well-conditioned matrix: "
                                    f"sigma_min/sigma_max = {ratio:.3e}", start + int(past[i]))
            # Squared as Python floats, by the pow() a lone matrix's scalar ratio used.
            fallback = np.array([r**2 > GRAM_COND_LIMIT for r in (s[:, 0] / s[:, -1]).tolist()])
            if fallback.any():
                g[past[fallback]] = np.linalg.pinv(b[fallback])
            if not fallback.all():
                g[past[~fallback]] = _gram_pinv([(b[~fallback], right)])[0][0]
        c = 1.0 / np.sqrt(np.sum((np.abs(g) ** 2).reshape(len(g), -1), axis=-1))
        g = c[:, None, None] * g
        if past.size:
            top = np.frexp(c[past])[1] + e  # c * 2^e < 2^top
            if (top > 512).any():
                i = np.argmax(top > 512)
                what = "no float" if top[i] > 1024 else "no float square"
                raise ScalarUnderflow(f"{side} inverse scale of 2^{top[i] - 1} or more has {what}",
                                      start + int(past[i]))
            c[past] = np.ldexp(c[past], e)
        out += [g, c]
        start += len(a)
    return tuple(out)
