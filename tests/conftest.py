"""Shared test helpers, the brute-force region oracles that the subset-DP
and cutting-plane tools in `yrelay.dofregion` are checked against (with
`permutation_constraint`, the definition of an ordering sum), the
slot-word assembly and extraction (on pair slots laid out by the pair-slot
rule, not read off a plan's blocks) that `yrelay.transceiver.RoundLayout`'s
gather and scatter indices are checked against, the Hypothesis strategy of
feasible DoF points and their plans, the per-matrix normalized
pseudo-inverses (`normalized_right_mppi`, `normalized_left_mppi`) that the
stage tests feed the reference round, the
Fraction simplex that the integer tableau of `yrelay.simplex` is checked
against, the matrix-by-matrix channel draw and pseudo-inverse that
`yrelay.channel.sample_channels` and `yrelay.linalg._unit_pinv` are checked
against, the numpy key conversion that `yrelay.channel.reset_rng` is checked
against, the reference round (with its symbol type `StreamSymbols`) that
`yrelay.transceiver.transmit_round` is checked against, the one-round
helper `run_round` over a block of one draw and `estimate`, which reads one
direction's estimate out of a round's arrays, and the trial-by-trial sweep
that `yrelay.harness.run_sweep` is checked against."""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from yrelay import __version__
from yrelay.alignment import DofVector, StreamPlan, build_stream_plan, ordered_pairs, user_pairs
import yrelay.channel
import yrelay.linalg
from yrelay.channel import (
    POWER_CHECK_SLACK,
    STREAM_CHANNEL,
    STREAM_NOISE,
    STREAM_SYMBOLS,
    _complex,
    rng_for,
)
from yrelay.dofregion import MembershipVerdict, construction_feasible
from yrelay.errors import DimensionError, ModeUnavailable, RankDeficient, ScalarUnderflow
from yrelay.harness import SUBSEED_CHANNEL, SUBSEED_ROUND, SweepReport, SweepRow, db_to_linear, derive_seed, fit_slope
from yrelay.linalg import GRAM_COND_LIMIT, RANK_TOL, _unit_pinv, left_sum
from yrelay.errors import LpError
from yrelay.transceiver import (
    GENIE,
    RAW,
    SCALE_UNDERFLOW,
    RoundLayout,
    transmit_round,
)


# ------------------------------------------------------------------ oracles
# Definitions the package computes faster or in stacks; tests import them
# from here (`from conftest import ...`).


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


class StreamSymbols:
    """Codeword symbols v_jk per ordered pair, v_jk of length T*d_jk: the
    reference round's input. `flat(plan)` holds the same symbols as the one
    flat vector, in `plan.symbol_spans` order, that `transmit_round` takes."""

    def __init__(self, k_users: int, vectors=None):
        self.K = k_users
        self._v = {pair: np.zeros(0, dtype=np.complex128) for pair in ordered_pairs(k_users)}
        for pair, vec in (vectors or {}).items():
            if pair not in self._v:
                raise ValueError(f"invalid ordered pair {pair} for K={k_users}")
            self._v[pair] = np.asarray(vec, dtype=np.complex128).reshape(-1)

    def get(self, j: int, k: int) -> np.ndarray:
        return self._v[(j, k)]

    def check_plan(self, plan: StreamPlan) -> None:
        sizes = stream_lengths(plan)
        for (j, k), vec in self._v.items():
            want = sizes[(j, k)]
            if vec.shape[0] != want:
                raise DimensionError(f"v[{j},{k}] has {vec.shape[0]} symbols, plan wants {want}")

    def flat(self, plan: StreamPlan) -> np.ndarray:
        self.check_plan(plan)
        return np.concatenate([self.get(j, k) for j, k in plan.symbol_spans])


def stream_lengths(plan: StreamPlan) -> dict:
    """T*d_jk per ordered pair, read off `plan.symbol_spans`."""
    return {pair: b - a for pair, (a, b) in plan.symbol_spans.items()}


def pair_slots(plan: StreamPlan) -> dict:
    """(offset, length) of pair {j,k}'s slot, keyed by (j, k) and (k, j), by
    the pair-slot rule rather than from the plan's blocks: slots of length
    max(T*d_jk, T*d_kj), back to back from 0 in lexicographic pair order."""
    sizes, slots, offset = stream_lengths(plan), {}, 0
    for j, k in user_pairs(plan.K):
        slots[(j, k)] = slots[(k, j)] = (offset, max(sizes[(j, k)], sizes[(k, j)]))
        offset += slots[(j, k)][1]
    return slots


def assemble_uplink_symbol(j: int, sym: StreamSymbols, plan: StreamPlan) -> np.ndarray:
    """User j's length-T*N word: its symbols zero-padded into each owned slot.

    Slots of pairs not containing j stay zero, as does the padding tail, so
    different users overlap only inside their shared pair slot. `sym` must
    fit the plan, as `StreamSymbols.check_plan` verifies.
    """
    if not (1 <= j <= plan.K):
        raise DimensionError(f"user index {j} out of range 1..{plan.K}")
    word, slots = np.zeros(plan.word_length, dtype=np.complex128), pair_slots(plan)
    for k in range(1, plan.K + 1):
        if k == j:
            continue
        v = sym.get(j, k)
        off, _ = slots[(j, k)]
        word[off : off + v.shape[0]] = v  # rest of the slot is the zero pad
    return word


def extract_pair_slot(word, pair, plan: StreamPlan) -> np.ndarray:
    """The contiguous components shared by pair {j,k} inside a relay word."""
    word = np.asarray(word)
    if word.shape != (plan.word_length,):
        raise DimensionError(f"word shape {word.shape} != ({plan.word_length},)")
    j, k = pair
    if j == k or not (1 <= j <= plan.K) or not (1 <= k <= plan.K):
        raise DimensionError(f"invalid pair {pair} for K={plan.K}")
    off, length = pair_slots(plan)[(j, k)]
    return word[off : off + length]


def feasible_entries(draw, k, n, t_ext):
    """DoF entries j->k of K users with every direction 0..7 symbols long
    at extension t_ext, pair by pair while the pair slots fit T*N; the rest
    stay zero."""
    entries, room = {}, t_ext * n
    for j, kk in ordered_pairs(k):
        if j < kk:
            fwd, rev = draw(st.integers(0, 7)), draw(st.integers(0, 7))
            if max(fwd, rev) <= room:
                room -= max(fwd, rev)
                entries[(j, kk)] = Fraction(fwd, t_ext)
                entries[(kk, j)] = Fraction(rev, t_ext)
    return entries


@st.composite
def feasible_points(draw):
    """(d, N): a DoF vector of K = 3..5 users drawn at T = 1..4, with zero
    directions, whose pair slots fit N = 1..6 relay antennas."""
    k, n, t_ext = draw(st.integers(3, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return DofVector(k, feasible_entries(draw, k, n, t_ext)), n


def plans():
    """The stream plan of a `feasible_points` draw."""
    return feasible_points().map(lambda point: build_stream_plan(*point))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian, unit variance per entry:
    all real parts are drawn first, then all imaginary parts."""
    re = rng.standard_normal(shape)
    return _complex(re, rng.standard_normal(shape))


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class NormalizedRightMppi:
    """Unit-Frobenius-norm right inverse: H @ matrix = alpha * I_N."""

    matrix: np.ndarray  # M x N
    alpha: float


@dataclass(frozen=True)
class NormalizedLeftMppi:
    """Unit-Frobenius-norm left inverse: matrix @ D = beta * I_N."""

    matrix: np.ndarray  # N x M
    beta: float


def normalized_right_mppi(h) -> NormalizedRightMppi:
    """Right pseudo-inverse of one wide H at unit Frobenius norm: `_unit_pinv`
    on a stack of one."""
    g, c = _unit_pinv(as_complex_matrix(h)[None], right=True)
    return NormalizedRightMppi(g[0], float(c[0]))


def normalized_left_mppi(d) -> NormalizedLeftMppi:
    """Left pseudo-inverse of one tall D at unit Frobenius norm: `_unit_pinv`
    on a stack of one."""
    g, c = _unit_pinv(as_complex_matrix(d)[None], right=False)
    return NormalizedLeftMppi(g[0], float(c[0]))


def precoders(ch):
    """(right, left): the inverses of the block of one `ch` as one
    NormalizedRightMppi per uplink and one NormalizedLeftMppi per downlink
    matrix."""
    return (tuple(NormalizedRightMppi(g, c) for g, c in zip(ch.right[0], ch.alpha[0].tolist())),
            tuple(NormalizedLeftMppi(g, c) for g, c in zip(ch.left[0], ch.beta[0].tolist())))


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
    """Exact max of objective . d over all K! ordering rows, solved and
    certified by the reference simplex; (value, maximizer)."""
    rows = _all_ordering_rows(k_users)
    rhs = [Fraction(n_relay)] * len(rows)
    res = _reference_solve_max(list(objective), rows, rhs)
    _reference_verify_certificate(list(objective), rows, rhs, res)
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


# ---------------------------------------------------------- reference simplex
# The tableau simplex as it ran over fractions.Fraction, before the integer
# tableau: every entry a Fraction, each pivot row scaled to a unit entry.


def _reference_frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _reference_pivot(tab, row: int, col: int) -> None:
    """Gauss-Jordan step in place: scale `row` to a unit entry at `col`, then
    clear `col` from every other row."""
    pivot = tab[row][col]
    tab[row] = [v / pivot for v in tab[row]]
    for r, other in enumerate(tab):
        if r != row and other[col] != 0:
            factor = other[col]
            tab[r] = [v - factor * p for v, p in zip(other, tab[row])]


def _reference_solve_linear(a, b):
    """Exact solution of a square system, or None when singular."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        _reference_pivot(m, col, col)
    return [m[r][n] for r in range(n)]


@dataclass(frozen=True)
class LpResult:
    """Optimal value, primal point, optimal basis (column indices, slacks
    numbered after structural variables), the dual vector, and the pivot
    count, all as the reference simplex computes them."""

    value: Fraction
    x: tuple
    basis: tuple
    duals: tuple
    iterations: int


def _reference_solve_max(c, a, b) -> LpResult:
    """Maximize c'x s.t. Ax <= b, x >= 0 (all rationals, b >= 0)."""
    a = _reference_frac_matrix(a)
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
        _reference_pivot(tab, row, enter)
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


def _reference_verify_certificate(c, a, b, res: LpResult) -> bool:
    """Re-check optimality by substitution, with zero tolerance.

    Primal feasibility, dual feasibility, and matching objective values
    (strong duality) together certify the reported optimum.
    """
    a = _reference_frac_matrix(a)
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


@pytest.fixture(scope="session")
def reference_simplex():
    """The Fraction tableau simplex: `solve_max` (an `LpResult`),
    `verify_certificate` and `solve_linear`, whose results and messages
    `yrelay.simplex._solve`, `_certify` and `solve_linear` must reproduce."""
    return SimpleNamespace(solve_max=_reference_solve_max,
                           verify_certificate=_reference_verify_certificate,
                           solve_linear=_reference_solve_linear)


# ----------------------------------------------------- reference Philox key


def _numpy_philox_key(seed, stream):
    """The key numpy's `Philox(key=[seed, stream])` builds from a list: a
    float64 array when an entry is >= 2^63, cast to uint64 (the cast of a
    value rounded up to 2^64 depends on the platform and warns, silenced
    here)."""
    with np.errstate(invalid="ignore"):
        return np.asarray([seed & (2**64 - 1), stream & (2**64 - 1)]).astype(np.uint64)


@pytest.fixture(scope="session")
def numpy_philox_key():
    """(seed, stream) -> the uint64 key numpy builds from `[seed, stream]`."""
    return _numpy_philox_key


# ------------------------------------------------- reference channel draw
# One matrix at a time: each drawn by its own `complex_normal` call, checked
# by its own SVD and inverted alone.


def _reference_unit_pinv(a, right, sv=None):
    """Unit-Frobenius pseudo-inverse of one matrix: (c * G, c)."""
    a = as_complex_matrix(a)
    side, (n, m) = ("right", a.shape) if right else ("left", a.shape[::-1])
    if n > m:
        want = "wide" if right else "tall"
        raise DimensionError(f"{side} inverse needs a {want} matrix, got {a.shape[0]}x{a.shape[1]}")
    s = np.linalg.svd(a, compute_uv=False) if sv is None else sv
    if not (s[0] > 0 and s[-1] / s[0] >= RANK_TOL):
        ratio = 0.0 if s[0] == 0 else s[-1] / s[0]
        raise RankDeficient(
            f"{side} inverse needs a well-conditioned matrix: sigma_min/sigma_max = {ratio:.3e}")
    ah = a.conj().T
    if (s[0] / s[-1]) ** 2 > GRAM_COND_LIMIT:
        g = np.linalg.pinv(a)
    else:
        gram_inv = np.linalg.inv(a @ ah if right else ah @ a)
        g = ah @ gram_inv if right else gram_inv @ ah
    c = 1.0 / math.sqrt(float(np.sum(np.abs(g) ** 2)))
    return c * g, c


def _reference_channels(cfg, seed):
    """K uplink then K downlink matrices, one `complex_normal` call each,
    each checked by `yrelay.linalg.well_conditioned` (looked up at call
    time, so a test can replace it): a refused matrix raises RankDeficient
    naming its link and user, as a `ChannelBlock` does; with every matrix's
    singular values and its inverse from `_reference_unit_pinv`."""
    rng = rng_for(seed, STREAM_CHANNEL)
    k = cfg.K
    mats = [complex_normal(rng, shape) for shape in [(cfg.N, cfg.M)] * k + [(cfg.M, cfg.N)] * k]
    s = [np.linalg.svd(m, compute_uv=False) for m in mats]
    for i, sv in enumerate(s):
        if not yrelay.linalg.well_conditioned(sv):
            link, side = ("uplink", "right") if i < k else ("downlink", "left")
            ratio = 0.0 if sv[0] == 0 else sv[-1] / sv[0]
            raise RankDeficient(
                f"{link} of user {i % k}: {side} inverse needs a well-conditioned matrix: "
                f"sigma_min/sigma_max = {ratio:.3e}")
    uplink, downlink = tuple(mats[:k]), tuple(mats[k:])
    right = [_reference_unit_pinv(h, True, sv) for h, sv in zip(uplink, s)]
    left = [_reference_unit_pinv(d, False, sv) for d, sv in zip(downlink, s[k:])]
    return SimpleNamespace(uplink=uplink, downlink=downlink, singular_values=s, right=right, left=left)


@pytest.fixture(scope="session")
def reference_pinv():
    """`_unit_pinv` for one matrix, as it was before it took stacks."""
    return _reference_unit_pinv


@pytest.fixture(scope="session")
def reference_channels():
    """`sample_channels` one matrix at a time: (cfg, seed) -> namespace of
    uplink, downlink, singular_values, right and left ((matrix, scale) pairs)."""
    return _reference_channels


# ------------------------------------------------------------ reference round
# The round one call at a time: per user and channel use, symbols and noise
# drawn per block, the analytic SNR recomputed from the precoders. Each
# stage takes one vector: one channel use of one user or of the relay. A
# channel argument `ch` is a ChannelBlock of one draw.


def _check_power(x, p):
    energy = float(np.sum(np.abs(np.asarray(x, dtype=np.complex128)) ** 2))
    return energy <= p * (1.0 + POWER_CHECK_SLACK)


def _uplink_propagate(ch, x, noise=None):
    uplink = ch.uplink[0]
    if len(x) != len(uplink):
        raise DimensionError(f"expected {len(uplink)} transmit vectors, got {len(x)}")
    y = np.zeros(uplink.shape[1], dtype=np.complex128)
    for h, xj in zip(uplink, x):
        xj = np.asarray(xj, dtype=np.complex128)
        if xj.shape != (h.shape[1],):
            raise DimensionError(f"transmit vector shape {xj.shape} != ({h.shape[1]},)")
        y += h @ xj
    if noise is not None:
        y += np.asarray(noise, dtype=np.complex128)
    return y


def _downlink_propagate(d_k, x_r, noise=None):
    y = np.asarray(d_k, dtype=np.complex128) @ np.asarray(x_r, dtype=np.complex128)
    if noise is not None:
        y += np.asarray(noise, dtype=np.complex128)
    return y


def _sample_stream_symbols(plan, seed):
    """Unit-variance complex Gaussian codeword symbols for every direction."""
    rng = rng_for(seed, STREAM_SYMBOLS)
    return StreamSymbols(plan.K, {pair: complex_normal(rng, size) for pair, size in stream_lengths(plan).items()})


def _uplink_precode(u_j, hr):
    """Transmit vector x_j = Hr @ u_j (length M) for one channel use."""
    u_j = np.asarray(u_j, dtype=np.complex128)
    if u_j.shape != (hr.matrix.shape[1],):
        raise DimensionError(f"slot word shape {u_j.shape} != ({hr.matrix.shape[1]},)")
    return hr.matrix @ u_j


def _relay_observe(cfg, ch, us, noise=None):
    """(sum_j alpha_j u_j plus noise, every transmit vector within cfg.P) for one channel use."""
    if len(us) != cfg.K:
        raise DimensionError(f"expected {cfg.K} user words, got {len(us)}")
    xs = [_uplink_precode(u, hr) for u, hr in zip(us, precoders(ch)[0])]
    power_ok = all(_check_power(x, cfg.P) for x in xs)
    return _uplink_propagate(ch, xs, noise), power_ok


def _network_coded_word(words, alphas):
    """Ground-truth relay word w = sum_j alpha_j * (user j's slot word)."""
    word = np.zeros(words[0].shape[0], dtype=np.complex128)
    for alpha, w in zip(alphas, words):
        word += alpha * w
    return word


def _relay_decode(y_word, plan, mode, true_word=None):
    y_word = np.asarray(y_word, dtype=np.complex128)
    if y_word.shape != (plan.word_length,):
        raise DimensionError(f"observation shape {y_word.shape} != ({plan.word_length},)")
    if mode == GENIE:
        return np.array(true_word, dtype=np.complex128)
    if mode == RAW:
        w_hat = y_word.copy()
        if plan.padding:
            w_hat[plan.word_length - plan.padding :] = 0.0
        return w_hat
    raise ModeUnavailable(f"unknown relay decode mode {mode!r}")


def _relay_transmit(w_hat, p):
    w_hat = np.asarray(w_hat, dtype=np.complex128)
    norm = float(np.linalg.norm(w_hat))
    if norm == 0.0:
        return np.zeros_like(w_hat), 0.0
    gamma = math.sqrt(p) / norm
    return gamma * w_hat, gamma


def _user_postcode(y_k, dl):
    """Left-inverse filtering of one received chunk: Dl @ y_k."""
    y_k = np.asarray(y_k, dtype=np.complex128)
    if y_k.shape != (dl.matrix.shape[1],):
        raise DimensionError(f"received shape {y_k.shape} != ({dl.matrix.shape[1]},)")
    return dl.matrix @ y_k


def _user_recover(filtered, k, own_word, plan, alphas, gamma, beta_k):
    """Estimates v_jk for all partners j != k from user k's filtered word."""
    filtered = np.asarray(filtered, dtype=np.complex128)
    if filtered.shape != (plan.word_length,) or np.shape(own_word) != filtered.shape:
        raise DimensionError(
            f"filtered {filtered.shape} and own word {np.shape(own_word)} != ({plan.word_length},)")
    partners = [j for j in range(1, plan.K + 1) if j != k]
    for j in partners:
        denom = gamma * beta_k * alphas[j - 1]
        if abs(denom) < SCALE_UNDERFLOW:
            raise ScalarUnderflow(f"recovery scale gamma*beta*alpha = {denom:.3e} for pair ({j},{k})")
    cleaned = filtered / (gamma * beta_k) - alphas[k - 1] * own_word
    estimates, sizes = {}, stream_lengths(plan)
    for j in partners:
        slot = extract_pair_slot(cleaned, (j, k), plan)
        estimates[(j, k)] = slot[: sizes[(j, k)]] / alphas[j - 1]
    return estimates


def _effective_snr(cfg, ch, plan, mode=GENIE):
    if mode not in (GENIE, RAW):
        raise ModeUnavailable(f"unknown mode {mode!r}")
    right, left = precoders(ch)
    alphas = [hr.alpha for hr in right]
    word_power, sizes, slots = 0.0, stream_lengths(plan), pair_slots(plan)
    for (j, k), length in sizes.items():
        word_power += (alphas[j - 1] ** 2) * length
    gamma_sq = cfg.P / word_power if word_power > 0 else 0.0
    noise_rows = [np.sum(np.abs(dl.matrix) ** 2, axis=1) for dl in left]
    streams, rates = {}, {}
    total_rate = 0.0
    for (j, k), length in sizes.items():
        if length == 0:
            continue
        off, _ = slots[(j, k)]
        snr_up = alphas[j - 1] ** 2
        beta_k = left[k - 1].beta
        down = []
        rate = 0.0
        for i in range(length):
            row = (off + i) % cfg.N
            snr_dl = float(gamma_sq * (beta_k**2) * (alphas[j - 1] ** 2) / noise_rows[k - 1][row])
            down.append(snr_dl)
            eff = snr_dl if mode == GENIE else min(snr_up, snr_dl)
            rate += math.log2(1.0 + eff)
        rate /= plan.T
        snr_down = min(down)
        effective = snr_down if mode == GENIE else min(snr_up, snr_down)
        streams[(j, k)] = (snr_up, snr_down, effective)
        rates[(j, k)] = rate
        total_rate += rate
    return SimpleNamespace(streams=streams, rates=rates, rate_proxy=total_rate)


def _chunks(word, n):
    return [word[t * n : (t + 1) * n] for t in range(word.shape[0] // n)]


def _run_round(cfg, ch, plan, symbols=None, seed=0, mode=GENIE, noise=True):
    if (plan.K, plan.N) != (cfg.K, cfg.N):
        raise DimensionError(f"plan for K={plan.K}, N={plan.N} does not fit K={cfg.K}, N={cfg.N}")
    right, left = precoders(ch)
    alphas = [hr.alpha for hr in right]
    if symbols is None:
        symbols = _sample_stream_symbols(plan, seed)
    symbols.check_plan(plan)
    noise_rng = rng_for(seed, STREAM_NOISE) if noise else None

    words = [assemble_uplink_symbol(j, symbols, plan) for j in range(1, cfg.K + 1)]
    truth = _network_coded_word(words, alphas)

    power_ok = True
    y_parts = []
    for chunk_set in zip(*(_chunks(w, cfg.N) for w in words)):
        z = complex_normal(noise_rng, cfg.N) if noise else None
        y, use_ok = _relay_observe(cfg, ch, chunk_set, z)
        power_ok = power_ok and use_ok
        y_parts.append(y)
    y_word = np.concatenate(y_parts)

    w_hat = _relay_decode(y_word, plan, mode, true_word=truth)
    x_word, gamma = _relay_transmit(w_hat, cfg.P)
    zero_word = gamma == 0.0
    power_ok = power_ok and all(_check_power(xc, cfg.P) for xc in _chunks(x_word, cfg.N))

    estimates, rel_errors = {}, {}
    for k in range(1, cfg.K + 1):
        filt_parts = []
        for x_chunk in _chunks(x_word, cfg.N):
            z = complex_normal(noise_rng, cfg.M) if noise else None
            y_k = _downlink_propagate(ch.downlink[0, k - 1], x_chunk, z)
            filt_parts.append(_user_postcode(y_k, left[k - 1]))
        filtered = np.concatenate(filt_parts)
        if zero_word:
            for j in range(1, cfg.K + 1):
                if j != k:
                    estimates[(j, k)] = np.zeros(stream_lengths(plan)[(j, k)], dtype=np.complex128)
        else:
            estimates.update(
                _user_recover(filtered, k, words[k - 1], plan, alphas, gamma, left[k - 1].beta))

    for (j, k), v_hat in estimates.items():
        v = symbols.get(j, k)
        if v.shape[0] == 0:
            continue
        ref = float(np.linalg.norm(v))
        err = float(np.linalg.norm(v_hat - v))
        rel_errors[(j, k)] = err / ref if ref > 0 else (0.0 if err == 0 else math.inf)

    return SimpleNamespace(
        estimates=estimates,
        rel_errors=rel_errors,
        snr=_effective_snr(cfg, ch, plan, mode),
        gamma=gamma,
        zero_word=zero_word,
        power_ok=power_ok,
        mode=mode,
        noisy=noise,
    )


def run_round(cfg, ch, plan, symbols=None, seed=0, mode=GENIE, noise=True):
    """One round: `transmit_round` over the block of one `ch` at the one
    power point cfg.P, with the stream plan `plan` and the round seed
    `seed`. Its RoundBatch arrays have (draw, point) axes of length 1."""
    return transmit_round(ch, RoundLayout(plan, cfg.M), [cfg.P], [seed], symbols, mode, noise)


def estimate(rounds, key, d=0, i=0) -> np.ndarray:
    """User k's estimate of v_jk, key (j, k), in a RoundBatch at draw d and
    point i: its span of the flat estimates."""
    return rounds.estimates[d, i, slice(*rounds.layout.plan.symbol_spans[key])]


@pytest.fixture(scope="session")
def reference_round():
    """The round one call at a time. `reference_round.run(cfg, ch, plan,
    symbols, seed, mode, noise)` takes `run_round`'s arguments, with the
    symbols as a StreamSymbols, and returns a record of plain values:
    `estimates` (every direction) and `rel_errors` (the active ones) keyed
    by (j, k) in the order the round makes them, `gamma`, `zero_word`,
    `power_ok`, `mode`, `noisy`, and `snr`, which `effective_snr(cfg, ch,
    plan, mode)` returns: `streams` maps each active direction to its
    (uplink, downlink, effective) SNRs and `rates` to its rate proxy, in
    plan order, and `rate_proxy` is their sum. Its stages
    (`sample_stream_symbols`, `uplink_precode`, `uplink_propagate`,
    `relay_observe`, `network_coded_word`, `relay_decode`, `relay_transmit`,
    `downlink_propagate`, `user_postcode`, `user_recover`) are attributes
    too."""
    return SimpleNamespace(
        run=_run_round,
        effective_snr=_effective_snr,
        sample_stream_symbols=_sample_stream_symbols,
        uplink_precode=_uplink_precode,
        uplink_propagate=_uplink_propagate,
        relay_observe=_relay_observe,
        network_coded_word=_network_coded_word,
        relay_decode=_relay_decode,
        relay_transmit=_relay_transmit,
        downlink_propagate=_downlink_propagate,
        user_postcode=_user_postcode,
        user_recover=_user_recover,
    )


# ------------------------------------------------------------ reference sweep
# The sweep one trial at a time, as it ran before trials were blocked: its own
# plan and layout, and per trial one channel draw and one kernel call over
# the block of one, with the point sums added trial by trial.


class _TrialSums:
    """Running sums over the trials, one entry per power point, in trial order."""

    def __init__(self, points):
        self.snr, self.rate, self.sum_rate, self.err, self.err_max = np.zeros((5, points))
        self.violations = np.zeros(points, dtype=np.int64)

    def add(self, rounds):
        """Add the rounds of one trial: a `transmit_round` over its block of one."""
        self.violations += ~rounds.power_ok[0]
        snr = rounds.snr
        streams = snr.effective.shape[2]
        if streams:
            self.snr += left_sum(snr.effective[0].T) / streams
            self.rate += snr.rate_proxy[0] / streams
        self.sum_rate += snr.rate_proxy[0]
        errs = rounds.rel_errors[0]
        if errs.shape[1]:
            self.err += left_sum(errs.T) / errs.shape[1]
            self.err_max = np.maximum(self.err_max, errs.max(axis=1))

    def rows(self, sweep_db, trials):
        means = (self.snr / trials, self.rate / trials, self.sum_rate / trials, self.err / trials)
        columns = [a.tolist() for a in (*means, self.err_max, self.violations)]
        return [SweepRow(float(p_db), *values) for p_db, *values in zip(sweep_db, *columns)]


def _reference_sweep(cfg):
    layout = RoundLayout(build_stream_plan(cfg.dof, cfg.system.N), cfg.system.M)
    powers = [db_to_linear(p_db) for p_db in cfg.sweep_db]
    sums = _TrialSums(len(powers))
    for t in range(cfg.trials):
        ch = yrelay.channel.sample_channels(cfg.system, derive_seed(cfg.seed, SUBSEED_CHANNEL, t))
        seeds = [derive_seed(cfg.seed, SUBSEED_ROUND, pi, t) for pi in range(len(powers))]
        sums.add(transmit_round(ch, layout, powers, seeds, mode=cfg.mode, noise=cfg.noise))
    rows = sums.rows(cfg.sweep_db, cfg.trials)
    slope = intercept = residual = None
    if len(rows) >= 3:
        slope, intercept, residual = fit_slope(
            [(math.log2(db_to_linear(r.p_db)), r.sum_rate_proxy) for r in rows])
    return SweepReport(rows=tuple(rows), slope=slope, intercept=intercept, residual=residual,
                       config=cfg.to_dict(), config_hash=cfg.digest(), seed=cfg.seed, version=__version__)


@pytest.fixture(scope="session")
def reference_sweep():
    """`run_sweep` one trial at a time: ExperimentConfig -> SweepReport."""
    return _reference_sweep
