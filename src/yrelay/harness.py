"""Seeded sweep orchestration, slope fitting, and report emission.

A sweep runs `trials` independent rounds at every power point. Channel
realizations are shared across power points of the same trial (common random
numbers), while symbols and noise are redrawn per (point, trial). The stream
plan and its `RoundLayout` (the plan-only indices) come from the process's
memo (`transceiver.plan_layout`), built once per (DoF vector, N, M). The
trials run in blocks of TRIAL_BLOCK: a block's draws are sampled and
inverted together as one `ChannelBlock` (one Gram inversion for both
links; its random rows re-key the thread's one generator) and get one
`transmit_round` call over every draw and power point; the point sums add
that call's (trial, point) arrays as they come, and the block is dropped
before the next one, so a sweep holds one block at a time.
Each trial gets the bits it would get alone. Floats are added left to right
(`left_sum`): a block's sums over directions take one accumulate call
along that axis, and its sums over trials add one trial's row at a time,
so the bytes do not depend on the Python version or the block size. All
sub-seeds derive from the master seed with a splitmix64 chain, so a report
is a pure function of (config, seed): repeated runs emit identical bytes.
A report holds its rows, its fit and its config. A row is a dict keyed by
ROW_FIELDS, the one list of a row's fields: the CSV renders all of them
but the last, the JSON all of them. The config's digest, the seed and the
package version are read off the config when the report is rendered.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .alignment import DofVector
from .channel import _MASK64, SystemConfig, sample_channel_block
from .errors import Underdetermined
from .linalg import left_sum
from .transceiver import GENIE, RAW, plan_layout, transmit_round

_GOLDEN = 0x9E3779B97F4A7C15

SUBSEED_CHANNEL = 0xC4
SUBSEED_ROUND = 0x0E

TRIAL_BLOCK = 16  # trials per channel block and kernel call


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
    try:
        return 10.0 ** (p_db / 10.0)
    except OverflowError:
        raise ValueError(f"power {p_db} dB is too large for a float") from None


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
        for p_db, p in zip(self.sweep_db, self.powers):
            if not 0.0 < p < math.inf:
                raise ValueError(f"sweep point {p_db} dB is not a positive finite power ({p} W)")

    @cached_property
    def powers(self) -> tuple:
        """The sweep points as linear powers, converted once."""
        return tuple(db_to_linear(p_db) for p_db in self.sweep_db)

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
        """First 16 hex digits of the SHA-256 of the canonical JSON of `to_dict()`."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# A report row's fields, in CSV column order: the point, the means over the
# trials, the worst error, and the rounds whose power check failed (JSON only).
ROW_FIELDS = ("p_db", "mean_stream_snr", "mean_rate_proxy", "sum_rate_proxy", "err_mean", "err_max",
              "power_violations")
FIT_FIELDS = ("slope", "intercept", "residual")


@dataclass(frozen=True)
class SweepReport:
    """Per-point rows (dicts keyed by ROW_FIELDS), the fit (slope, intercept,
    residual) when there are >= 3 points, else None, and the config; the
    provenance (config, its digest, seed, package version) is read off the
    config when the report is rendered."""

    rows: tuple
    fit: tuple | None
    config: ExperimentConfig

    def to_json_bytes(self) -> bytes:
        cfg = self.config
        report = {
            "provenance": {"config": cfg.to_dict(), "config_hash": cfg.digest(), "seed": cfg.seed,
                           "version": __version__},
            "rows": list(self.rows),
            "fit": None if self.fit is None else dict(zip(FIT_FIELDS, self.fit)),
        }
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()

    def to_csv_bytes(self) -> bytes:
        cfg = self.config
        lines = [f"# yrelay sweep v1 config={cfg.digest()} seed={cfg.seed} version={__version__}",
                 ",".join(ROW_FIELDS[:-1])]
        lines += [",".join(repr(row[name]) for name in ROW_FIELDS[:-1]) for row in self.rows]
        if self.fit is not None:
            lines.append("# fit " + " ".join(f"{name}={value!r}" for name, value in zip(FIT_FIELDS, self.fit)))
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
        """Add a block of trials' rounds (`transmit_round` arrays with (trial,
        point) axes), one trial after the other."""
        self.violations += (~rounds.power_ok).sum(axis=0)
        snr = rounds.snr
        streams = snr.effective.shape[2]
        if streams:
            self.snr = left_sum(left_sum(snr.effective, axis=-1) / streams, self.snr)
            self.rate = left_sum(snr.rate_proxy / streams, self.rate)
        self.sum_rate = left_sum(snr.rate_proxy, self.sum_rate)
        errs = rounds.rel_errors
        if errs.shape[2]:
            self.err = left_sum(left_sum(errs, axis=-1) / errs.shape[2], self.err)
            self.err_max = np.maximum(self.err_max, errs.max(axis=(0, 2)))

    def rows(self, sweep_db, trials: int) -> tuple:
        """One row per point, keyed by ROW_FIELDS: means over the trials, the
        worst error and the violation count."""
        means = (self.snr / trials, self.rate / trials, self.sum_rate / trials, self.err / trials)
        columns = [list(map(float, sweep_db)), *(a.tolist() for a in (*means, self.err_max, self.violations))]
        return tuple(dict(zip(ROW_FIELDS, values)) for values in zip(*columns))


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Run the full power sweep; deterministic given (cfg, seed)."""
    layout = plan_layout(cfg.dof, cfg.system.N, cfg.system.M)  # raises Infeasible before any work
    powers = cfg.powers
    # derive_seed(seed, SUBSEED_ROUND, pi, t) continues the chain of derive_seed(seed, SUBSEED_ROUND, pi),
    # and derive_seed(seed, SUBSEED_CHANNEL, t) that of derive_seed(seed, SUBSEED_CHANNEL).
    point_seeds = [derive_seed(cfg.seed, SUBSEED_ROUND, pi) for pi in range(len(powers))]
    channel_root = derive_seed(cfg.seed, SUBSEED_CHANNEL)
    sums = _PointSums(len(powers))
    for first in range(0, cfg.trials, TRIAL_BLOCK):
        block = range(first, min(first + TRIAL_BLOCK, cfg.trials))
        # One draw per trial serves every power point.
        channels = sample_channel_block(cfg.system, [derive_seed(channel_root, t) for t in block])
        seeds = [derive_seed(point, t) for t in block for point in point_seeds]
        sums.add(transmit_round(channels, layout, powers, seeds, mode=cfg.mode, noise=cfg.noise))
    rows = sums.rows(cfg.sweep_db, cfg.trials)
    fit = None
    if len(rows) >= 3:
        fit = fit_slope([(math.log2(p), r["sum_rate_proxy"]) for p, r in zip(powers, rows)])
    return SweepReport(rows, fit, cfg)
