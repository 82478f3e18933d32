"""Pair-wise signal-space alignment layout for the relay word.

A DoF target assigns a rational rate pre-log d_jk to every ordered user pair.
The uplink layout gives each unordered pair {j,k} one contiguous slot of
length max(T*d_jk, T*d_kj) inside the length-T*N relay word (T = symbol
extension factor), so both directions of a pair land on the same relay
components and the relay sees their scaled sum. Remaining components are
zero padding at the end of the word.

All DoF arithmetic is exact (fractions.Fraction); floats never enter the
feasibility logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionError, Infeasible, NonIntegral

Pair = tuple  # (j, k), 1-based user indices


def user_pairs(k_users: int):
    """Unordered pairs in lexicographic order: (1,2), (1,3), ..., (K-1,K)."""
    return [(j, k) for j in range(1, k_users + 1) for k in range(j + 1, k_users + 1)]


def ordered_pairs(k_users: int):
    """Ordered pairs in row-major order: (1,2)...(1,K), (2,1), (2,3), ..."""
    return [(j, k) for j in range(1, k_users + 1) for k in range(1, k_users + 1) if j != k]


class DofVector:
    """Nonnegative rational DoF targets d_jk for all K(K-1) ordered pairs."""

    def __init__(self, k_users: int, entries=None):
        if k_users < 3:
            raise ValueError(f"need at least 3 users, got K={k_users}")
        self.K = k_users
        self._d = {pair: Fraction(0) for pair in ordered_pairs(k_users)}
        for pair, value in (entries or {}).items():
            j, k = pair
            if pair not in self._d:
                raise ValueError(f"invalid ordered pair {pair} for K={k_users}")
            value = Fraction(value)
            if value < 0:
                raise ValueError(f"DoF entry d[{j},{k}] must be nonnegative, got {value}")
            self._d[pair] = value

    @classmethod
    def uniform(cls, k_users: int, value) -> "DofVector":
        return cls(k_users, {pair: Fraction(value) for pair in ordered_pairs(k_users)})

    def get(self, j: int, k: int) -> Fraction:
        return self._d[(j, k)]

    def items(self):
        return self._d.items()

    def as_tuple(self):
        """Entries in canonical (row-major ordered pair) order."""
        return tuple(self._d[p] for p in ordered_pairs(self.K))

    def total(self) -> Fraction:
        return sum(self._d.values(), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, DofVector) and self.K == other.K and self._d == other._d

    def __repr__(self):
        nonzero = {f"{j}->{k}": str(v) for (j, k), v in self._d.items() if v}
        return f"DofVector(K={self.K}, {nonzero})"

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "entries": {f"{j}-{k}": str(v) for (j, k), v in sorted(self._d.items())},
        }


def minimal_extension(d: DofVector) -> int:
    """Least T making every T*d_jk an integer (lcm of entry denominators)."""
    t = 1
    for _, value in d.items():
        t = math.lcm(t, value.denominator)
    return t


def pair_lengths(d: DofVector, t_ext: int) -> dict:
    """Slot length per unordered pair: max of the two scaled directions."""
    lengths = {}
    for j, k in user_pairs(d.K):
        fwd, rev = t_ext * d.get(j, k), t_ext * d.get(k, j)
        for val, (a, b) in ((fwd, (j, k)), (rev, (k, j))):
            if val.denominator != 1:
                raise NonIntegral(f"T*d[{a},{b}] = {val} is not an integer (T={t_ext})")
        lengths[(j, k)] = int(max(fwd, rev))
    return lengths


@dataclass(frozen=True)
class StreamPlan:
    """Slot layout of the length-T*N relay word.

    `lengths[(j,k)]` and `offsets[(j,k)]` describe the contiguous slot of
    unordered pair {j,k}; slots follow lexicographic pair order and the last
    `padding` components are zero. `stream_lengths[(j,k)]` is the number of
    codeword symbols T*d_jk carried in direction j->k (the remainder of the
    slot is zero-filled for that direction).

    A round holds all symbols in one flat vector, v_jk for the ordered pairs
    in `ordered_pairs` order; the cached `symbol_spans`, `word_index` and
    `receive_index` map it onto this layout.
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

    @cached_property
    def word_index(self) -> np.ndarray:
        """(K, T*N) gather index: row j-1 takes user j's slot word out of the
        flat symbol vector followed by one zero (index -1)."""
        positions = StreamSymbols(self.K, {p: np.arange(a + 1, b + 1) for p, (a, b) in self.symbol_spans.items()})
        words = [assemble_uplink_symbol(j, positions, self).real for j in range(1, self.K + 1)]
        return np.array(words).astype(np.intp) - 1

    @cached_property
    def receive_index(self) -> np.ndarray:
        """For each symbol of the flat vector, its position in the K stacked
        length-T*N words the users receive: user k finds v_jk in its slot with j."""
        components = np.arange(self.word_length)
        return np.concatenate([
            (k - 1) * self.word_length + extract_pair_slot(components, (j, k), self)[: b - a]
            for (j, k), (a, b) in self.symbol_spans.items()
        ])

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
    t_ext = minimal_extension(d)
    lengths = pair_lengths(d, t_ext)
    total = sum(lengths.values())
    word = t_ext * n_relay
    if total > word:
        raise Infeasible(
            f"pair slots need {total} of {word} relay components (T={t_ext})",
            excess=total - word,
        )
    offsets, cursor = {}, 0
    for pair in user_pairs(d.K):
        offsets[pair] = cursor
        cursor += lengths[pair]
    stream_lengths = {(j, k): int(t_ext * v) for (j, k), v in d.items()}
    return StreamPlan(
        K=d.K,
        N=n_relay,
        T=t_ext,
        lengths=lengths,
        offsets=offsets,
        stream_lengths=stream_lengths,
        padding=word - total,
    )


class StreamSymbols:
    """Codeword symbols v_jk per ordered pair; v_jk has length T*d_jk."""

    def __init__(self, k_users: int, vectors=None):
        self.K = k_users
        self._v = {pair: np.zeros(0, dtype=np.complex128) for pair in ordered_pairs(k_users)}
        for pair, vec in (vectors or {}).items():
            if pair not in self._v:
                raise ValueError(f"invalid ordered pair {pair} for K={k_users}")
            self._v[pair] = np.asarray(vec, dtype=np.complex128).reshape(-1)

    def get(self, j: int, k: int) -> np.ndarray:
        return self._v[(j, k)]

    def items(self):
        return self._v.items()

    def check_plan(self, plan: StreamPlan) -> None:
        for (j, k), vec in self._v.items():
            want = plan.stream_lengths[(j, k)]
            if vec.shape[0] != want:
                raise DimensionError(f"v[{j},{k}] has {vec.shape[0]} symbols, plan wants {want}")


def assemble_uplink_symbol(j: int, sym: StreamSymbols, plan: StreamPlan) -> np.ndarray:
    """User j's length-T*N word: its symbols zero-padded into each owned slot.

    Slots of pairs not containing j stay zero, as does the padding tail, so
    different users overlap only inside their shared pair slot. `sym` must
    fit the plan, as `StreamSymbols.check_plan` verifies.
    """
    if not (1 <= j <= plan.K):
        raise DimensionError(f"user index {j} out of range 1..{plan.K}")
    word = np.zeros(plan.word_length, dtype=np.complex128)
    for k in range(1, plan.K + 1):
        if k == j:
            continue
        v = sym.get(j, k)
        off, _ = plan.slot(j, k)
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
    off, length = plan.slot(j, k)
    return word[off : off + length]
