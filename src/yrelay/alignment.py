"""Exact DoF vectors and the pair-wise signal-space alignment layout of the
relay word.

A DoF target assigns a rational rate pre-log d_jk to every ordered user pair.
`DofVector` holds it as one common denominator T, the least symbol extension
making every T*d_jk an integer, and those integers: every consumer (the
stream plan, the region's ordering DP and construction check) computes on
them, and Fractions appear only where a value is read out.

The uplink layout gives each unordered pair {j,k} one contiguous slot of
length max(T*d_jk, T*d_kj) inside the length-T*N relay word, so both
directions of a pair land on the same relay components and the relay sees
their scaled sum. Remaining components are zero padding at the end of the
word. Floats never enter the feasibility logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def pair_lengths(self) -> dict:
        """Slot length per unordered pair at extension T: max(T*d_jk, T*d_kj)."""
        return {pair: max(self.scaled[i], self.scaled[r]) for pair, i, r in pair_cells(self.K)}

    def __eq__(self, other):
        return isinstance(other, DofVector) and (self.K, self.T, self.scaled) == (other.K, other.T, other.scaled)

    def __hash__(self):
        return hash((self.K, self.T, self.scaled))

    def __repr__(self):
        nonzero = {f"{j}->{k}": str(v) for (j, k), v in self.items() if v}
        return f"DofVector(K={self.K}, {nonzero})"

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "entries": {f"{j}-{k}": str(v) for (j, k), v in sorted(self.items())},
        }


@dataclass(frozen=True)
class StreamPlan:
    """Slot layout of the length-T*N relay word.

    `lengths[(j,k)]` and `offsets[(j,k)]` describe the contiguous slot of
    unordered pair {j,k}; slots follow lexicographic pair order and the last
    `padding` components are zero. `stream_lengths[(j,k)]` is the number of
    codeword symbols T*d_jk carried in direction j->k (the remainder of the
    slot is zero-filled for that direction).

    A round holds all symbols in one flat vector, v_jk for the ordered pairs
    in `ordered_pairs` order; the cached `symbol_spans` locate each v_jk in it.
    """

    K: int
    N: int
    T: int
    lengths: dict
    offsets: dict
    stream_lengths: dict
    padding: int

    @property
    def word_length(self) -> int:
        return self.T * self.N

    @cached_property
    def symbol_spans(self) -> dict:
        """(start, stop) of v_jk in the flat symbol vector."""
        spans, stop = {}, 0
        for pair in ordered_pairs(self.K):
            spans[pair] = (stop, stop + self.stream_lengths[pair])
            stop = spans[pair][1]
        return spans

    def slot(self, j: int, k: int):
        """(offset, length) of the slot shared by users j and k."""
        pair = (j, k) if j < k else (k, j)
        return self.offsets[pair], self.lengths[pair]

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "N": self.N,
            "T": self.T,
            "padding": self.padding,
            "slots": [
                {
                    "pair": [j, k],
                    "offset": self.offsets[(j, k)],
                    "length": self.lengths[(j, k)],
                    "symbols_fwd": self.stream_lengths[(j, k)],
                    "symbols_rev": self.stream_lengths[(k, j)],
                }
                for j, k in user_pairs(self.K)
            ],
        }


def build_stream_plan(d: DofVector, n_relay: int) -> StreamPlan:
    """Lay out pair slots consecutively; raise Infeasible when they overflow.

    Uses the minimal symbol extension T, so feasibility is equivalent to
    sum over pairs of max(d_jk, d_kj) <= N.
    """
    if n_relay < 1:
        raise ValueError(f"need at least one relay antenna, got N={n_relay}")
    lengths = d.pair_lengths()
    total, word = sum(lengths.values()), d.T * n_relay
    if total > word:
        raise Infeasible(f"pair slots need {total} of {word} relay components (T={d.T})", excess=total - word)
    offsets, cursor = {}, 0
    for pair, length in lengths.items():
        offsets[pair] = cursor
        cursor += length
    return StreamPlan(
        K=d.K,
        N=n_relay,
        T=d.T,
        lengths=lengths,
        offsets=offsets,
        stream_lengths=dict(zip(ordered_pairs(d.K), d.scaled)),
        padding=word - total,
    )
