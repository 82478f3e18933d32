"""Shared test helpers."""

import pytest

from yrelay.alignment import DofVector


@pytest.fixture
def relabel():
    """Apply a user permutation sigma (a mapping 1..K -> 1..K) to both
    indices of every entry of a DoF vector."""

    def apply(d: DofVector, sigma) -> DofVector:
        return DofVector(d.K, {(sigma[j], sigma[k]): v for (j, k), v in d.items()})

    return apply
