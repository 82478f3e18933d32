"""Exact DoF vectors and the pair-wise signal-space alignment layout of the
relay word.

A DoF target assigns a rational rate pre-log d_jk to every ordered user pair.
`DofVector` holds it as one common denominator T, the least symbol extension
making every T*d_jk an integer, and those integers: every consumer (the
stream plan, the region's ordering DP and construction check) computes on
them, and Fractions appear only where a value is read out.

The uplink layout is a tuple of alignment blocks, each a run of relay-word
components shared by a cycle of users. A pair block gives unordered pair
{j,k} max(T*d_jk, T*d_kj) components, so both directions of a pair land on
the same relay components and the relay sees their scaled sum. Blocks run
back to back; the rest of the length-T*N word is zero padding. Floats never
enter the feasibility logic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property

from .errors import Infeasible


def user_pairs(k_users: int):
    """Unordered pairs in lexicographic order: (1,2), (1,3), ..., (K-1,K)."""
    return [(j, k) for j in range(1, k_users + 1) for k in range(j + 1, k_users + 1)]


def ordered_pairs(k_users: int):
    """Ordered pairs in row-major order: (1,2)...(1,K), (2,1), (2,3), ..."""
    return [(j, k) for j in range(1, k_users + 1) for k in range(1, k_users + 1) if j != k]


@cache
def pair_index(k_users: int) -> dict:
    """Position of each ordered pair in `ordered_pairs(k_users)` (read-only)."""
    return {pair: i for i, pair in enumerate(ordered_pairs(k_users))}


@cache
def pair_cells(k_users: int) -> tuple:
    """((j, k), i, r) per pair of `user_pairs`: d_jk and d_kj are entries i
    and r in `ordered_pairs` order (read-only)."""
    index = pair_index(k_users)
    return tuple(((j, k), index[(j, k)], index[(k, j)]) for j, k in user_pairs(k_users))


class DofVector:
    """Nonnegative rational DoF targets d_jk for all K(K-1) ordered pairs.

    Stored as `T`, the least common denominator of the entries, and
    `scaled`, the ints T*d_jk in `ordered_pairs` order.
    """

    def __init__(self, k_users: int, entries=None):
        if k_users < 3:
            raise ValueError(f"need at least 3 users, got K={k_users}")
        index = pair_index(k_users)
        values = [Fraction(0)] * len(index)
        for pair, value in (entries or {}).items():
            if pair not in index:
                raise ValueError(f"invalid ordered pair {pair} for K={k_users}")
            value = Fraction(value)
            if value < 0:
                raise ValueError(f"DoF entry d[{pair[0]},{pair[1]}] must be nonnegative, got {value}")
            values[index[pair]] = value
        self.K, self.T = k_users, math.lcm(*(v.denominator for v in values))
        self.scaled = tuple(v.numerator * (self.T // v.denominator) for v in values)

    @classmethod
    def from_scaled(cls, k_users: int, scaled, t_ext: int) -> "DofVector":
        """The vector with entries scaled[i] / t_ext (nonnegative ints, in
        `ordered_pairs` order), reduced to its least common denominator."""
        if k_users < 3 or len(scaled) != k_users * (k_users - 1) or min(scaled) < 0 or t_ext < 1:
            raise ValueError(f"need K >= 3 and K(K-1) nonnegative ints over T >= 1, got K={k_users}")
        d, g = cls.__new__(cls), math.gcd(t_ext, *scaled)
        d.K, d.T, d.scaled = k_users, t_ext // g, tuple(v // g for v in scaled)
        return d

    @classmethod
    def uniform(cls, k_users: int, value) -> "DofVector":
        return cls(k_users, dict.fromkeys(ordered_pairs(k_users), value))

    def get(self, j: int, k: int) -> Fraction:
        return Fraction(self.scaled[pair_index(self.K)[(j, k)]], self.T)

    def items(self):
        """(pair, Fraction) in `ordered_pairs` order."""
        return list(zip(ordered_pairs(self.K), self.as_tuple()))

    def as_tuple(self):
        """Entries in canonical (row-major ordered pair) order."""
        return tuple(Fraction(v, self.T) for v in self.scaled)

    def total(self) -> Fraction:
        return Fraction(sum(self.scaled), self.T)

    def __eq__(self, other):
        return isinstance(other, DofVector) and (self.K, self.T, self.scaled) == (other.K, other.T, other.scaled)

    def __hash__(self):
        return hash((self.K, self.T, self.scaled))

    def __repr__(self):
        nonzero = {f"{j}->{k}": str(v) for (j, k), v in self.items() if v}
        return f"DofVector(K={self.K}, {nonzero})"

    def to_dict(self) -> dict:
        """{"K": K, "entries": {"j-k": str(d_jk)}}, the entries in
        `ordered_pairs` order (which is sorted) and rendered from the ints as
        `str(Fraction)` renders them: "n", or "n/d" in lowest terms."""
        t, entries = self.T, {}
        for (j, k), v in zip(pair_index(self.K), self.scaled):
            g = math.gcd(v, t)
            entries[f"{j}-{k}"] = f"{v // g}" if g == t else f"{v // g}/{t // g}"
        return {"K": self.K, "entries": entries}


class AlignmentBlock(namedtuple("AlignmentBlock", "users streams offset length")):
    """`length` components of the relay word from `offset` in which users[i]
    sends streams[i] symbols to the next user in `users`, wrapping round;
    each direction zero-fills the rest of the block. A read-only named tuple:
    it equals the plain tuple of its fields."""

    __slots__ = ()

    def directions(self):
        """((sender, receiver), symbols) per direction of the block."""
        return zip(zip(self.users, self.users[1:] + self.users[:1]), self.streams)


class StreamPlan(namedtuple("StreamPlan", "K N T blocks")):
    """Alignment-block layout of the length-T*N relay word.

    `blocks` holds one pair block per unordered pair {j,k}, users (j, k), in
    `user_pairs` order and back to back from component 0; the last `padding`
    components are zero. Only this module maps a direction to its place in
    the word: consumers read the blocks' directions.

    A round holds all symbols in one flat vector, v_jk for the ordered pairs
    in `ordered_pairs` order; the cached `symbol_spans` locate each v_jk in it.
    A read-only named tuple (== its field tuple) but for the `__dict__` that
    holds the cached properties.
    """

    @property
    def word_length(self) -> int:
        return self.T * self.N

    @cached_property
    def padding(self) -> int:
        return self.word_length - sum(block.length for block in self.blocks)

    @cached_property
    def symbol_spans(self) -> dict:
        """(start, stop) of v_jk in the flat symbol vector."""
        sizes = dict(direction for block in self.blocks for direction in block.directions())
        spans, stop = {}, 0
        for pair in ordered_pairs(self.K):
            spans[pair] = (stop, stop + sizes[pair])
            stop = spans[pair][1]
        return spans

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "N": self.N,
            "T": self.T,
            "padding": self.padding,
            "slots": [
                {
                    "pair": list(block.users),
                    "offset": block.offset,
                    "length": block.length,
                    "symbols_fwd": block.streams[0],
                    "symbols_rev": block.streams[1],
                }
                for block in self.blocks
            ],
        }


def build_stream_plan(d: DofVector, n_relay: int) -> StreamPlan:
    """Lay out pair blocks consecutively; raise Infeasible when they overflow.

    Uses the minimal symbol extension T, so feasibility is equivalent to
    sum over pairs of max(d_jk, d_kj) <= N.
    """
    if n_relay < 1:
        raise ValueError(f"need at least one relay antenna, got N={n_relay}")
    blocks, total, word = [], 0, d.T * n_relay
    for pair, i, r in pair_cells(d.K):
        streams = d.scaled[i], d.scaled[r]
        blocks.append(AlignmentBlock(pair, streams, total, max(streams)))
        total += blocks[-1].length
    if total > word:
        raise Infeasible(f"pair slots need {total} of {word} relay components (T={d.T})", excess=total - word)
    return StreamPlan(K=d.K, N=n_relay, T=d.T, blocks=tuple(blocks))
