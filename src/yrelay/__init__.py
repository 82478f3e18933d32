"""Zero-forcing transceiver chain and degrees-of-freedom tools for the
K-user MIMO multi-way relay channel.

Layering, bottom up. The exact core needs only the standard library:
`alignment` (DoF vectors as ints over one common denominator, and the
relay-word alignment blocks), `simplex` (integer-tableau LPs) and `dofregion`
(exact region computations). The simulator is built on numpy: `linalg`
(normalized pseudo-inverses), `channel` (seeded fading and noise),
`transceiver` (end-to-end rounds, every draw and power point of a block of
trials in one call) and `harness` (sweeps and reports).

The package root re-exports the exact core only, each name read from its
module when asked for (PEP 562 `__getattr__`), so `import yrelay` loads none
of the core modules, nor numpy nor `dataclasses` (the core's records are
named tuples); simulator names are imported from their modules.
"""

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

# each exact-core name, with the module that defines it
_CORE = {**dict.fromkeys(("DofVector", "StreamPlan", "build_stream_plan"), "alignment"),
         **dict.fromkeys(("RegionSpec", "construction_feasible", "find_construction_gap", "is_member",
                          "sum_dof_max", "vertices_k3"), "dofregion")}

__all__ = ["DimensionError", "Infeasible", "LpError", "ModeUnavailable", "RankDeficient", "ScalarUnderflow",
           "TooLarge", "Underdetermined", "WitnessInvalid", "YRelayError", *_CORE, "__version__"]


def __getattr__(name):
    """An exact-core name, read from its module, which the first read imports."""
    if name not in _CORE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_CORE[name]}", __name__), name)
