"""Zero-forcing transceiver chain and degrees-of-freedom tools for the
K-user MIMO multi-way relay channel.

Layering, bottom up: `linalg` (normalized pseudo-inverses), `channel`
(seeded fading and noise), `alignment` (exact stream bookkeeping),
`transceiver` (end-to-end rounds, every power point of a channel draw in one
call), `dofregion` + `simplex` (exact rational region computations),
`harness` (sweeps and reports).
"""

from .alignment import DofVector, StreamPlan, build_stream_plan, minimal_extension
from .channel import ChannelSet, SystemConfig, sample_channels
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
    GenerationFailed,
    Infeasible,
    LpError,
    ModeUnavailable,
    NonIntegral,
    RankDeficient,
    ScalarUnderflow,
    TooLarge,
    Underdetermined,
    WitnessInvalid,
    YRelayError,
)
from .harness import ExperimentConfig, SweepReport, derive_seed, fit_slope, run_sweep
from .linalg import normalized_left_mppi, normalized_right_mppi
from .transceiver import GENIE, RAW, RoundContext, RoundLayout, RoundResult, effective_snr, run_round, transmit_round

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "DimensionError",
    "DofVector",
    "ExperimentConfig",
    "GENIE",
    "GenerationFailed",
    "Infeasible",
    "LpError",
    "ModeUnavailable",
    "NonIntegral",
    "RAW",
    "RankDeficient",
    "RegionSpec",
    "RoundContext",
    "RoundLayout",
    "RoundResult",
    "ScalarUnderflow",
    "StreamPlan",
    "SweepReport",
    "SystemConfig",
    "TooLarge",
    "Underdetermined",
    "WitnessInvalid",
    "YRelayError",
    "build_stream_plan",
    "construction_feasible",
    "derive_seed",
    "effective_snr",
    "find_construction_gap",
    "fit_slope",
    "is_member",
    "minimal_extension",
    "normalized_left_mppi",
    "normalized_right_mppi",
    "run_round",
    "run_sweep",
    "sample_channels",
    "sum_dof_max",
    "transmit_round",
    "vertices_k3",
    "__version__",
]
