"""Exact rational tools for the DoF region of the K-user relay network.

The region is the polytope of nonnegative DoF vectors whose sum along every
user ordering stays within the relay dimension: for each permutation p of
the users, sum over positions a < b of d[p_a -> p_b] <= N. Membership,
sum-DoF maximization, the direct-construction feasibility predicate
(sum of per-pair maxima <= N), and a probe for points separating the two
are all computed in Python ints, on the scaled entries a `DofVector` holds;
Fractions appear only in the values returned. The K = 3 vertices are built
in closed form: the origin, N on one direction, N/(L-1) on an L-cycle.

Membership, sum-DoF and the gap probe never walk the K! orderings. The
Held-Karp subset DP gives the largest ordering sum over the 2^K user subsets,
placing the first user of each. A lexicographic walk pruned by the exact DP
yields each ordering with its sum: the first violating one (witness and cut)
after K - 2 placements, or the tight ones, counted first. The walk keeps each
unplaced user's entries to the rest in one list, updated in place; only the
tight count and the K >= 7 DP loop build the subset table (the entries from a
user to a subset). An LP starts on the identity and reversed ordering rows,
solved by inspection (each direction is in one), then adds each violator to
one integer tableau built at the first, where dual pivots restore feasibility,
until the optimum is a member (cutting planes); the simplex certificate on
those rows, zero duals for the rest and the DP's verdict certify it for all K!
rows with zero tolerance. Built once per K, read-only: the DP's entry getters,
half-subset members (2^(K/2) each), for K <= 6 the compiled DP, the extreme
rows and their columns, and `alignment.pair_cells`. No result is cached.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from operator import add, itemgetter

from .alignment import DofVector, pair_cells, pair_index, pair_tuple
from .errors import DimensionError, TooLarge, WitnessInvalid
from .simplex import Tableau, _certify

ORACLE_MAX_USERS = 16    # the ordering DP tabulates all 2^K user subsets
TIGHT_LIST_MAX = 40320   # 8!, every ordering of 8 users
KERNEL_MAX_USERS = 6     # the ordering DP is compiled once per K up to here
GAP_MAX_USERS = 5        # 2^(K(K-1)/2) direction selections, one LP each


class RegionSpec(namedtuple("RegionSpec", "K N")):
    """Region parameters: K users, N relay antennas (users have M >= N).
    A read-only named tuple: RegionSpec(K=4, N=6) == (4, 6). K and N pass
    through `operator.index`, so a numpy int becomes an int and a float or a
    Fraction is refused."""

    __slots__ = ()

    def __new__(cls, K: int, N: int):
        try:
            K, N = operator.index(K), operator.index(N)
        except TypeError:
            raise ValueError(f"K and N must be integers, got K={K!r}, N={N!r}") from None
        if K < 3:
            raise ValueError(f"need at least 3 users, got K={K}")
        if N < 1:
            raise ValueError(f"need at least one relay antenna, got N={N}")
        return tuple.__new__(cls, (K, N))


class MembershipVerdict(namedtuple("MembershipVerdict", "member witness tight max_value")):
    """Outcome of the check of all ordering constraints, a read-only named
    tuple (equal to the plain tuple of its fields).

    When violated, `witness` is (permutation, exact constraint value > N)
    for the lexicographically first violating permutation, and `max_value`
    is that value. When member, `tight` lists the permutations meeting N
    with equality in lexicographic order, and `max_value` is the largest
    constraint value.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "member": self.member,
            "max_value": str(self.max_value),
            "witness": None
            if self.witness is None
            else {"permutation": list(self.witness[0]), "value": str(self.witness[1])},
            "tight_permutations": [list(p) for p in self.tight],
        }


def _subset_sums(rows, half: int):
    """Tables (lo, hi) of sequences with lo[s % 2^half][v] + hi[s >> half][v]
    equal to the sum of rows[u][v] over the set bits u of s. A single-user
    entry is its row itself, so a half of h rows adds 2^h - 1 - h rows."""
    tables = []
    for part in (rows[:half], rows[half:]):
        table = [[0] * len(rows[0])]
        for row in part:
            table.append(row)
            for t in range(1, len(table) - 1):
                table.append(list(map(add, table[t], row)))
        tables.append(table)
    return tables


@cache
def _dp_tables(k: int):
    """The DP's tables that depend on K alone (built once per K, read-only):
    per user v, a getter of the entries T*d_uv into v, u = 1..K, from a
    vector's `scaled` with a 0 appended for u = v; and (v, 1 << v) per
    member of each low and high half of a subset (2^(K/2) each, so K = 16
    needs 256 entries, not 65536)."""
    half, bits, index = k // 2, tuple((v, 1 << v) for v in range(k)), pair_index(k)
    into = tuple(itemgetter(*(index.get((u, v), len(index)) for u in range(1, k + 1))) for v in range(1, k + 1))
    lo = tuple(tuple(b for b in bits[:half] if t & b[1]) for t in range(1 << half))
    hi = tuple(tuple(b for b in bits[half:] if t << half & b[1]) for t in range(1 << (k - half)))
    return into, lo, hi


@cache
def _dp_kernel(k: int):
    """The DP for K <= KERNEL_MAX_USERS as one straight-line function
    `best(scaled)` of a vector's `scaled`, compiled once per K (as
    `dataclasses` compiles its generated methods). Its text depends on the
    int K alone: it unpacks the entries into locals e<i>; per subset S of
    two or more users and member u it grows o<u>_<S> = out(u, S) by one
    entry from out(u, S - w), w the highest other member; it sets b<S> to
    the max over members u, in increasing order, of b<S - u> + o<u>_<S>;
    and it returns the 2^K list best. Building and compiling it takes
    about 0.8, 2.0 and 4.7 ms at K = 4, 5 and 6, but 11.5 and 28 ms at
    K = 7 and 8 (one core of a 2-core Xeon), more than a one-shot command
    saves, so K >= 7 runs the loop."""
    index = pair_index(k)
    lines = ["def best(scaled):", " " + ", ".join(f"e{i}" for i in range(len(index))) + " = scaled"]
    names = ["0"] * (1 << k)
    for s in range(3, 1 << k):  # each S - u < S is set before S
        members = [u for u in range(k) if s >> u & 1]
        if len(members) < 2:
            continue
        terms = []
        for u in members:
            w = members[-1] if u != members[-1] else members[-2]
            entry, rest = f"e{index[u + 1, w + 1]}", s ^ 1 << w
            lines.append(f" o{u}_{s} = " + (entry if rest == 1 << u else f"o{u}_{rest} + {entry}"))
            terms.append(f"{names[s ^ 1 << u]} + o{u}_{s}".removeprefix("0 + "))
        names[s] = f"b{s}"
        lines.append(f" b{s} = {terms[0]}")
        for term in terms[1:]:
            lines += [f" t = {term}", f" if t > b{s}: b{s} = t"]
    lines.append(f" return [{', '.join(names)}]")
    namespace = {}
    exec(compile("\n".join(lines), f"<ordering DP, K={k}>", "exec"), namespace)
    return namespace["best"]


class _OrderingDP:
    """Held-Karp table of the largest ordering sums of a DoF vector.

    The weights are the vector's ints T*d_uv, so every sum is an int,
    `scale` = T times the exact one. Bit u-1 of a subset S stands for user
    u. best[S], the largest sum over orderings of S of the entries from
    earlier to later users, is the max over u in S of out(u, S) + best[S - u]
    (u first; out(u, S) sums the entries from u to S, d_uu none). A single
    user's best is 0, so only subsets of two or more users are computed.
    For K <= KERNEL_MAX_USERS the compiled `_dp_kernel` of K fills best;
    past that a loop fills it band by band (the subsets with highest user
    b+1 other than {b+1}), splitting each subset into halves. `out`, built
    on first read, is the DP's one subset table; only that loop and
    `tight_count` read it, as `orderings` keeps its sums in place.
    """

    def __init__(self, d: DofVector):
        k = d.K
        if k > ORACLE_MAX_USERS:
            raise TooLarge(f"ordering DP guarded at K <= {ORACLE_MAX_USERS} (2^K subsets)")
        half, mask = k // 2, (1 << k // 2) - 1
        self.into, lo_steps, hi_steps = _dp_tables(k)
        self.scale, self.half, self.mask, self.steps, self.scaled = d.T, half, mask, (lo_steps, hi_steps), d.scaled
        if k <= KERNEL_MAX_USERS:
            self.best = _dp_kernel(k)(d.scaled)
            return
        lo, hi = self.out
        self.best = best = [0] * (1 << k)
        for b in range(1, k):
            for s in range(1 << b | 1, 2 << b):
                low, high = s & mask, s >> half
                out_lo, out_hi = lo[low], hi[high]
                top = -1
                for u, bit in lo_steps[low] + hi_steps[high]:
                    # user u+1 placed first: it precedes every other member
                    value = best[s ^ bit] + out_lo[u] + out_hi[u]
                    if value > top:
                        top = value
                best[s] = top

    @cached_property
    def out(self):
        """(lo, hi) with out(u, S) = lo[S % 2^half][u] + hi[S >> half][u]."""
        scaled = self.scaled + (0,)
        return _subset_sums([entries(scaled) for entries in self.into], self.half)

    def tight_count(self) -> int:
        """Number of orderings attaining best[-1]. Walks the table down from
        the full set: an ordering attains the maximum exactly when each of
        its suffixes does, so only first users that keep the rest tight count."""
        (lo, hi), (lo_steps, hi_steps), best = self.out, self.steps, self.best
        ways = [0] * (len(best) - 1) + [1]
        for s in range(len(best) - 1, 0, -1):
            if ways[s]:
                low, high = s & self.mask, s >> self.half
                for u, bit in lo_steps[low] + hi_steps[high]:
                    if best[s ^ bit] + lo[low][u] + hi[high][u] == best[s]:
                        ways[s ^ bit] += ways[s]
        return ways[0]

    def orderings(self, floor: int):
        """(ordering, scaled sum) for each ordering (a tuple of users) whose
        scaled sum is >= floor, in lexicographic order. A user is placed
        next only when the entries fixed so far plus the best order of the
        rest reach floor; best[] is exact, so every placed user leads to a
        yield. The last user's out is 0, so it closes an ordering unplaced
        and the first yield comes after K - 2 placements. No subset table is
        read: out[u] = out(u, rest) starts as u's row sum, placing a user
        takes the entries into it off the rest's out in place, and
        backtracking adds them back."""
        (lo_steps, hi_steps), best, mask, half, padded = self.steps, self.best, self.mask, self.half, self.scaled + (0,)
        into = [entries(padded) for entries in self.into]
        out = list(map(sum, zip(*into)))
        members = lo_steps[-1] + hi_steps[-1]  # every user
        path, stack = [], [(len(best) - 1, 0, members, iter(members))]
        while stack:
            rest, fixed, members, steps = stack[-1]
            for u, bit in steps:
                left, placed = rest ^ bit, fixed + out[u]
                if placed + best[left] >= floor:
                    if left & (left - 1):
                        entries, kids = into[u], lo_steps[left & mask] + hi_steps[left >> half]
                        for v, _ in kids:
                            out[v] -= entries[v]
                        path.append(u + 1)
                        stack.append((left, placed, kids, iter(kids)))
                        break
                    yield (*path, u + 1, left.bit_length()), placed
            else:
                stack.pop()
                if path:
                    entries = into[path.pop() - 1]
                    for v, _ in members:
                        out[v] += entries[v]


def is_member(d: DofVector, spec: RegionSpec) -> MembershipVerdict:
    """Exact check of all K! ordering constraints through the subset DP.

    Raises TooLarge beyond ORACLE_MAX_USERS users, or when a member has more
    than TIGHT_LIST_MAX tight orderings to list.
    """
    if d.K != spec.K:
        raise DimensionError(f"DoF vector has K={d.K}, region has K={spec.K}")
    dp = _OrderingDP(d)
    bound, top = spec.N * dp.scale, dp.best[-1]
    if top > bound:
        p, value = next(dp.orderings(bound + 1))
        value = Fraction(value, dp.scale)
        return MembershipVerdict(False, (p, value), (), value)
    tight = ()
    if top == bound:
        if (count := dp.tight_count()) > TIGHT_LIST_MAX:
            raise TooLarge(f"{count} tight orderings to list, guarded at {TIGHT_LIST_MAX}")
        tight = tuple(p for p, _ in dp.orderings(bound))
    return MembershipVerdict(True, None, tight, Fraction(top, dp.scale))


def _ordering_row(p) -> list:
    """0/1 constraint row of ordering p, columns in `ordered_pairs` order."""
    place = {u: a for a, u in enumerate(p)}
    return [int(place[u] < place[v]) for u, v in pair_tuple(len(p))]


@cache
def _extreme_rows(k: int):
    """Rows of the identity and reversed orderings, which bound every
    variable together (tuples, built once per K)."""
    return tuple(tuple(_ordering_row(p)) for p in (range(1, k + 1), range(k, 0, -1)))


@cache
def _extreme_columns(k: int):
    """Each extreme row's columns of 1s, disjoint (tuples, built once per K)."""
    return tuple(tuple(j for j, v in enumerate(row) if v) for row in _extreme_rows(k))


def _extreme_optimum(objective, k: int, n: int):
    """`Tableau(objective, _extreme_rows(k), [n, n]).optimum()` by inspection,
    as the rows' 0/1 supports are disjoint: Bland's unit pivots (d stays 1) put
    N on each row's first costliest column and its cost in the row's dual, if > 0."""
    x, y = [0] * len(objective), []
    for columns in _extreme_columns(k):
        j = max(columns, key=objective.__getitem__)
        y.append(max(objective[j], 0))
        x[j] = n if y[-1] else 0
    return x, y, n * sum(y), 1


def _region_max(objective, spec: RegionSpec, cap=None):
    """(max of objective . d over the region, maximizer) for an int objective,
    by cutting planes from `_extreme_optimum` on one `Tableau` built at the first
    cut; the maximizer is None once an optimum is <= cap (the full one is no larger)."""
    if spec.K > ORACLE_MAX_USERS:  # refused before any LP, as the DP would refuse its optimum
        raise TooLarge(f"ordering DP guarded at K <= {ORACLE_MAX_USERS} (2^K subsets)")
    rows, n, lp = list(_extreme_rows(spec.K)), spec.N, None
    x, y, value, d = _extreme_optimum(objective, spec.K, n)
    while True:
        point = None if cap is not None and value <= cap * d else DofVector.from_scaled(spec.K, x, d)
        if point is None or (dp := _OrderingDP(point)).best[-1] <= n * point.T:  # within cap, or a member
            _certify(objective, rows, [n] * len(rows), x, y, value, d)
            return Fraction(value, d), point
        lp = lp or Tableau(objective, rows, [n, n])  # the first cut's, solved cold on the extreme rows
        rows.append(_ordering_row(next(dp.orderings(n * point.T + 1))[0]))
        lp.add_row(rows[-1], n)
        x, y, value, d = lp.optimum()


def sum_dof_max(spec: RegionSpec):
    """Exact maximum of the total DoF over the region, with a maximizer.

    Solves the LP by cutting planes and verifies its certificate (zero
    tolerance) before returning.
    """
    return _region_max([1] * (spec.K * (spec.K - 1)), spec)


def construction_feasible(d: DofVector, n_relay: int):
    """(feasible, sum of per-pair maxima): the direct-layout condition,
    summed in ints over the vector's scaled entries."""
    s, total = d.scaled, 0
    for _, i, r in pair_cells(d.K):
        total += s[i] if s[i] > s[r] else s[r]
    return total <= n_relay * d.T, Fraction(total, d.T)


def find_construction_gap(spec: RegionSpec) -> DofVector | None:
    """Search for a region member whose pair maxima overflow the relay.

    For every per-pair direction selection, maximize the selected directed
    sum over the region (exact LP by cutting planes). Any optimum above N
    yields a witness: a member that the direct slot layout cannot carry.
    Returns None when no selection overflows, which proves the region lies
    inside the construction-feasible set.
    """
    if spec.K > GAP_MAX_USERS:
        raise TooLarge(f"gap probe guarded at K <= {GAP_MAX_USERS}")
    # one direction per pair: the entry of d_jk or of d_kj, forward first
    for chosen in itertools.product(*((i, r) for _, i, r in pair_cells(spec.K))):
        objective = [int(i in chosen) for i in range(spec.K * (spec.K - 1))]
        _, witness = _region_max(objective, spec, cap=spec.N)
        if witness is not None:
            feasible, total = construction_feasible(witness, spec.N)
            if feasible:
                raise WitnessInvalid(f"gap witness {witness} fits the relay: pair maxima sum to {total}")
            return witness
    return None


def vertices_k3(n_relay: int):
    """All vertices of the 3-user region (6 coordinates), exact, sorted by
    `DofVector.as_tuple`: the origin, N on each direction, and N/(L-1) on
    each arc of every directed cycle of L = 2 or 3 users (3 two-cycles at N,
    2 three-cycles at N/2). Each is a member, since an ordering runs forward
    along at most L-1 arcs of an L-cycle."""
    n, pairs = RegionSpec(K=3, N=n_relay).N, pair_tuple(3)
    cycles = [c for length in (2, 3) for c in itertools.permutations((1, 2, 3), length) if c[0] == min(c)]
    supports = [((), 1)] + [((a,), 1) for a in pairs] + [(tuple(zip(c, c[1:] + c[:1])), len(c) - 1) for c in cycles]
    points = (DofVector.from_scaled(3, [n * (a in arcs) for a in pairs], t) for arcs, t in supports)
    return sorted(points, key=DofVector.as_tuple)
