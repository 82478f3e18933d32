"""Zero-forcing transceiver chain and degrees-of-freedom tools for the
K-user MIMO multi-way relay channel.

Layering, bottom up. The exact core needs only the standard library:
`alignment` (DoF vectors as ints over one common denominator, and the
relay-word alignment blocks), `simplex` (integer-tableau LPs) and `dofregion`
(exact region computations). The simulator is built on numpy: `linalg`
(normalized pseudo-inverses), `channel` (seeded fading and noise),
`transceiver` (end-to-end rounds, every draw and power point of a block of
trials in one call) and `harness` (sweeps and reports).

The package root re-exports the exact core only, so importing it loads
neither numpy nor `dataclasses` (the core's records are named tuples);
simulator names are imported from their modules.
"""

from .alignment import DofVector, StreamPlan, build_stream_plan
from .dofregion import (
    RegionSpec,
    construction_feasible,
    find_construction_gap,
    is_member,
    sum_dof_max,
    vertices_k3,
)
from .errors import (
    DimensionError,
    Infeasible,
    LpError,
    ModeUnavailable,
    RankDeficient,
    ScalarUnderflow,
    TooLarge,
    Underdetermined,
    WitnessInvalid,
    YRelayError,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "DofVector",
    "Infeasible",
    "LpError",
    "ModeUnavailable",
    "RankDeficient",
    "RegionSpec",
    "ScalarUnderflow",
    "StreamPlan",
    "TooLarge",
    "Underdetermined",
    "WitnessInvalid",
    "YRelayError",
    "build_stream_plan",
    "construction_feasible",
    "find_construction_gap",
    "is_member",
    "sum_dof_max",
    "vertices_k3",
    "__version__",
]
