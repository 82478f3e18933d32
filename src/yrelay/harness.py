"""Seeded sweep orchestration, slope fitting, and report emission.

A sweep runs `trials` independent rounds at every power point. Channel
realizations are shared across power points of the same trial (common random
numbers), while symbols and noise are redrawn per (point, trial). The stream
plan and its `RoundLayout` (the plan-only indices) come from the process's
memo (`transceiver.plan_layout`), built once per (DoF vector, N, M). The
trials run in blocks of TRIAL_BLOCK: a block's channel draws are sampled and
inverted together, get one `RoundContext` (their inverses and SNR
coefficients) and one `transmit_round` call over every draw and power point;
the point sums add its stacked arrays in trial order, and the block is
dropped before the next one, so a sweep holds one block at a time. Each
trial gets the bits it would get alone. Floats are added left to right
(`left_sum`), so the bytes do not depend on the Python version. All
sub-seeds derive from the master seed with a splitmix64 chain, so a report
is a pure function of (config, seed): repeated runs emit identical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .alignment import DofVector
from .channel import _MASK64, SystemConfig, sample_channel_block
from .errors import Underdetermined
from .linalg import left_sum
from .transceiver import GENIE, RAW, RoundContext, plan_layout, transmit_round

_GOLDEN = 0x9E3779B97F4A7C15

SUBSEED_CHANNEL = 0xC4
SUBSEED_ROUND = 0x0E

TRIAL_BLOCK = 16  # trials per channel block, round context and kernel call


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *ids: int) -> int:
    """Deterministic sub-seed from a master seed and an id path."""
    x = master & _MASK64
    for i in ids:
        x = _splitmix64(x ^ ((i + 1) * _GOLDEN & _MASK64))
    return x


def db_to_linear(p_db: float) -> float:
    return 10.0 ** (p_db / 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; `system.P` is overridden per sweep point."""

    system: SystemConfig
    dof: DofVector
    sweep_db: tuple
    trials: int
    seed: int
    mode: str = GENIE
    noise: bool = True

    def __post_init__(self):
        if len(self.sweep_db) == 0:
            raise ValueError("sweep needs at least one power point")
        if any(b <= a for a, b in zip(self.sweep_db, self.sweep_db[1:])):
            raise ValueError("sweep points must be strictly increasing")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.mode not in (GENIE, RAW):
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_dict(self) -> dict:
        return {
            "k": self.system.K,
            "m": self.system.M,
            "n": self.system.N,
            "dof": self.dof.to_dict(),
            "sweep_db": list(self.sweep_db),
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "noise": self.noise,
        }

    def digest(self) -> str:
        return _digest(self.to_dict())


def _digest(config: dict) -> str:
    """First 16 hex digits of the SHA-256 of the canonical JSON of `config`."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepRow:
    p_db: float
    mean_stream_snr: float
    mean_rate_proxy: float
    sum_rate_proxy: float
    err_mean: float
    err_max: float
    power_violations: int  # rounds whose power check failed


@dataclass(frozen=True)
class SweepReport:
    """Per-point aggregates, the fitted slope (when >= 3 points), and
    self-describing provenance."""

    rows: tuple
    slope: float | None
    intercept: float | None
    residual: float | None
    config: dict
    config_hash: str
    seed: int
    version: str

    def to_dict(self) -> dict:
        return {
            "provenance": {
                "config": self.config,
                "config_hash": self.config_hash,
                "seed": self.seed,
                "version": self.version,
            },
            "rows": [dataclasses.asdict(r) for r in self.rows],
            "fit": None
            if self.slope is None
            else {"slope": self.slope, "intercept": self.intercept, "residual": self.residual},
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n").encode()

    def to_csv_bytes(self) -> bytes:
        lines = [
            f"# yrelay sweep v1 config={self.config_hash} seed={self.seed} version={self.version}"
        ]
        lines.append("p_db,mean_stream_snr,mean_rate_proxy,sum_rate_proxy,err_mean,err_max")
        for r in self.rows:
            lines.append(
                f"{r.p_db!r},{r.mean_stream_snr!r},{r.mean_rate_proxy!r},"
                f"{r.sum_rate_proxy!r},{r.err_mean!r},{r.err_max!r}"
            )
        if self.slope is not None:
            lines.append(f"# fit slope={self.slope!r} intercept={self.intercept!r} residual={self.residual!r}")
        return ("\n".join(lines) + "\n").encode()


def fit_slope(points):
    """Ordinary least squares for y = slope*x + intercept.

    Returns (slope, intercept, rms residual). Needs >= 2 points with
    distinct x values.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise Underdetermined(f"slope fit needs >= 2 points, got {len(pts)}")
    n = len(pts)
    mx = left_sum(x for x, _ in pts) / n
    my = left_sum(y for _, y in pts) / n
    sxx = left_sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        raise Underdetermined("slope fit needs distinct x values")
    sxy = left_sum((x - mx) * (y - my) for x, y in pts)
    slope = sxy / sxx
    intercept = my - slope * mx
    rss = left_sum((y - slope * x - intercept) ** 2 for x, y in pts)
    return slope, intercept, math.sqrt(rss / n)


class _PointSums:
    """Running sums over the trials, one entry per power point, in trial order."""

    def __init__(self, points: int):
        self.snr, self.rate, self.sum_rate, self.err, self.err_max = np.zeros((5, points))
        self.violations = np.zeros(points, dtype=np.int64)

    def add(self, rounds) -> None:
        """Add a block of trials' rounds (`transmit_round` rows: the points of
        each trial in turn), one trial after the other."""
        points = len(self.snr)

        def trials(a):  # (trials, points, ...)
            return a.reshape(len(a) // points, points, *a.shape[1:])

        self.violations += (~trials(rounds.power_ok)).sum(axis=0)
        snr = rounds.snr
        streams = snr.effective.shape[1]
        if streams:
            self.snr = left_sum(left_sum(trials(snr.effective).transpose(2, 0, 1)) / streams, self.snr)
            self.rate = left_sum(trials(snr.rate_proxy) / streams, self.rate)
        self.sum_rate = left_sum(trials(snr.rate_proxy), self.sum_rate)
        errs = trials(rounds.rel_errors)
        if errs.shape[2]:
            self.err = left_sum(left_sum(errs.transpose(2, 0, 1)) / errs.shape[2], self.err)
            self.err_max = np.maximum(self.err_max, errs.max(axis=(0, 2)))

    def rows(self, sweep_db, trials: int) -> list:
        """One SweepRow per point: means over the trials, the worst error and
        the violation count."""
        means = (self.snr / trials, self.rate / trials, self.sum_rate / trials, self.err / trials)
        columns = [a.tolist() for a in (*means, self.err_max, self.violations)]
        return [SweepRow(float(p_db), *values) for p_db, *values in zip(sweep_db, *columns)]


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Run the full power sweep; deterministic given (cfg, seed)."""
    layout = plan_layout(cfg.dof, cfg.system.N, cfg.system.M)  # raises Infeasible before any work
    powers = [db_to_linear(p_db) for p_db in cfg.sweep_db]
    # derive_seed(seed, SUBSEED_ROUND, pi, t) continues the chain of derive_seed(seed, SUBSEED_ROUND, pi).
    point_seeds = [derive_seed(cfg.seed, SUBSEED_ROUND, pi) for pi in range(len(powers))]
    sums = _PointSums(len(powers))
    for first in range(0, cfg.trials, TRIAL_BLOCK):
        block = range(first, min(first + TRIAL_BLOCK, cfg.trials))
        # One draw per trial serves every power point; the block's context lives for this block only.
        channels = sample_channel_block(cfg.system, [derive_seed(cfg.seed, SUBSEED_CHANNEL, t) for t in block])
        seeds = [derive_seed(point, t) for t in block for point in point_seeds]
        sums.add(transmit_round(RoundContext(channels, layout), powers, seeds, mode=cfg.mode, noise=cfg.noise))
    rows = sums.rows(cfg.sweep_db, cfg.trials)

    slope = intercept = residual = None
    if len(rows) >= 3:
        slope, intercept, residual = fit_slope(
            [(math.log2(db_to_linear(r.p_db)), r.sum_rate_proxy) for r in rows]
        )

    from . import __version__

    config = cfg.to_dict()
    return SweepReport(
        rows=tuple(rows),
        slope=slope,
        intercept=intercept,
        residual=residual,
        config=config,
        config_hash=_digest(config),
        seed=cfg.seed,
        version=__version__,
    )
