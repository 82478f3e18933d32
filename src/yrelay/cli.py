"""Command line front end.

Subcommands:
    mppi-check    residual check of the normalized pseudo-inverses
    plan          print the stream plan for a rate point
    simulate      run one transmission round, print the result as JSON
    sweep         run a power sweep, emit CSV or JSON on stdout
    dof check     exact membership verdict for a rate point
    dof sumdof    exact maximum weighted sum over the region
    dof gap       probe for points inside the region the scheme cannot serve
    dof vertices-k3  enumerate region vertices for 3 users

Exit codes: 0 success, 1 domain failure (infeasible point, violated check,
non-member), 2 usage or config error.

Every option is declared once, in OPTIONS (flag, parser, default). A config
file (--config) holds `key = value` lines, `#` comments, and blank lines; keys
mirror the long flag names with underscores (k, m, n, seed, trials, dof, mode,
noise, power_db, sweep_db, out). A file value is parsed like its flag, and a
bad one is a config error; keys the subcommand has no flag for are ignored.
Explicit flags win over the file, the file wins over the OPTIONS default.

Each command imports the modules it needs when it runs, so importing this
module loads none of them: `mppi-check`, `simulate` and `sweep` load numpy
and the simulator modules, `plan` and the `dof` commands only the exact core
(`alignment`, `dofregion`, `simplex`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import YRelayError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

SUBSEED_MPPI = 0xA1
SWEEP_MAX_POINTS = 10**6  # power points per sweep; the defaults use 7


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


def parse_dof_spec(text: str, k_users: int):
    """The `DofVector` of `1-2=1,2-1=1/2,...`; `uniform:V` sets every direction to V.

    Unlisted directions are zero.
    """
    from .alignment import DofVector

    text = text.strip()
    if text.startswith("uniform:"):
        return DofVector.uniform(k_users, parse_fraction(text[len("uniform:"):]))
    values = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            pair, _, val = item.partition("=")
            j, _, k = pair.partition("-")
            key = (int(j), int(k))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad dof entry {item!r}, want J-K=VALUE") from None
        if not val:
            raise argparse.ArgumentTypeError(f"bad dof entry {item!r}, want J-K=VALUE")
        if key in values:
            raise argparse.ArgumentTypeError(f"duplicate dof entry for {pair}")
        values[key] = parse_fraction(val)
    return DofVector(k_users, values)


def parse_sweep_spec(text: str) -> tuple:
    """`start:step:stop` inclusive, e.g. 30:5:60 -> (30, 35, ..., 60)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}, want start:step:stop")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}, want numeric start:step:stop") from None
    if not all(map(math.isfinite, (start, step, stop))):
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}: start, step and stop must be finite")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}: need step > 0 and stop >= start")
    count = (stop - start) / step + 1e-9
    if not math.isfinite(count):
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}: the number of points must be finite")
    if (points := int(count) + 1) > SWEEP_MAX_POINTS:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}: {points:.12g} points, at most {SWEEP_MAX_POINTS}")
    return tuple(start + i * step for i in range(points))


def load_config(path: str) -> dict:
    """Flat `key = value` file; later keys override earlier ones."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw.rstrip()!r}")
            out[key.strip()] = value.strip()
    return out


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"bad boolean {text!r}")


# name -> (default, argparse kwargs of --name). A config-file value goes
# through the same `type` and `choices`; `noise` is read by _parse_bool.
OPTIONS = {
    "k": (4, {"type": int, "help": "number of users"}),
    "m": (6, {"type": int, "help": "antennas per user"}),
    "n": (6, {"type": int, "help": "relay antennas"}),
    "seed": (0, {"type": int, "help": "master RNG seed"}),
    "trials": (200, {"type": int, "help": "trials per point"}),
    "dof": ("uniform:1", {"type": str, "help": "rate point, e.g. 1-2=1,2-1=1/2 or uniform:1"}),
    "mode": ("genie", {"choices": ("genie", "raw"), "help": "relay decode mode"}),
    "noise": (True, {"action": argparse.BooleanOptionalAction, "help": "add receiver noise"}),
    "power_db": (40.0, {"type": float, "help": "transmit power in dB"}),
    "sweep_db": (parse_sweep_spec("30:5:60"),
                 {"type": parse_sweep_spec, "help": "power points start:step:stop in dB"}),
    "out": ("csv", {"choices": ("csv", "json"), "help": "report format"}),
}


def parse_option(name: str, text: str, k_users: int):
    """A config-file value of option `name`, parsed as its flag would be; a
    `dof` value is also parsed against `k_users`, so its errors name the key."""
    kwargs = OPTIONS[name][1]
    parse = _parse_bool if name == "noise" else kwargs.get("type", str)
    try:
        value = parse(text)
        if name == "dof":
            parse_dof_spec(value, k_users)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"{name} = {text!r}: {exc}") from None
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"{name} = {text!r}: want one of {', '.join(kwargs['choices'])}")
    return value


def apply_config(args: argparse.Namespace, raw: dict) -> None:
    """Fill the options the command line left at None: from the config-file
    values `raw` where present, else from the OPTIONS default."""
    for key in raw:
        if key not in OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
    for name, (default, _) in OPTIONS.items():
        if hasattr(args, name) and getattr(args, name) is None:
            k_users = getattr(args, "k", None)  # filled first: `k` precedes `dof`
            setattr(args, name, parse_option(name, raw[name], k_users) if name in raw else default)


def _emit(data: bytes) -> None:
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _print_json(obj) -> None:
    _emit((json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


def _dof(args):
    return parse_dof_spec(args.dof, args.k)


def cmd_mppi_check(args) -> int:
    import numpy as np

    from .channel import SystemConfig, sample_channel_block
    from .harness import TRIAL_BLOCK, derive_seed
    from .linalg import DIAG_RTOL, TRACE_TOL, _norms

    if args.trials < 1:
        raise ValueError(f"need at least one trial, got {args.trials}")
    cfg = SystemConfig(K=args.k, M=args.m, N=args.n, P=1.0)
    max_diag = max_trace = 0.0
    seeds = [derive_seed(args.seed, SUBSEED_MPPI, t) for t in range(args.trials)]
    eye = np.eye(cfg.N)
    for lo in range(0, args.trials, TRIAL_BLOCK):
        block = sample_channel_block(cfg, seeds[lo : lo + TRIAL_BLOCK])
        # H_j @ right_j = alpha_j * I and left_k @ D_k = beta_k * I, over the
        # block's draws and users at once; the Frobenius residuals by
        # np.linalg.norm's formula, one matrix per row
        for product, g, c in ((block.uplink @ block.right, block.right, block.alpha),
                              (block.left @ block.downlink, block.left, block.beta)):
            resid = _norms((product - c[..., None, None] * eye).reshape(*c.shape, -1))
            gram = g.conj().swapaxes(-2, -1) @ g
            max_diag = max(max_diag, float((resid / (c * np.sqrt(cfg.N))).max()))
            max_trace = max(max_trace, float(np.abs(np.trace(gram, axis1=-2, axis2=-1).real - 1.0).max()))
    ok = max_diag <= DIAG_RTOL and max_trace <= TRACE_TOL
    _print_json(
        {
            "trials": args.trials,
            "users": cfg.K,
            "shape": [cfg.N, cfg.M],
            "max_diagonalization_residual": max_diag,
            "max_trace_error": max_trace,
            "tolerances": {"diagonalization": DIAG_RTOL, "trace": TRACE_TOL},
            "ok": ok,
        }
    )
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_plan(args) -> int:
    from .alignment import build_stream_plan

    plan = build_stream_plan(_dof(args), args.n)
    _print_json(plan.to_dict())
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .channel import SystemConfig, sample_channel_block
    from .harness import SUBSEED_CHANNEL, db_to_linear, derive_seed
    from .transceiver import plan_layout, transmit_round

    cfg = SystemConfig(K=args.k, M=args.m, N=args.n, P=db_to_linear(args.power_db))
    layout = plan_layout(_dof(args), cfg.N, cfg.M)
    ch = sample_channel_block(cfg, [derive_seed(args.seed, SUBSEED_CHANNEL, 0)])
    _print_json(transmit_round(ch, layout, [cfg.P], [args.seed], mode=args.mode, noise=args.noise).to_dict(0, 0))
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .channel import SystemConfig
    from .harness import ExperimentConfig, run_sweep
    from .transceiver import plan_layout

    cfg = ExperimentConfig(
        system=SystemConfig(K=args.k, M=args.m, N=args.n, P=1.0),  # each sweep point sets its own power
        dof=_dof(args),
        sweep_db=args.sweep_db,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        noise=args.noise,
    )
    plan_layout(cfg.dof, cfg.system.N, cfg.system.M)  # a refused point is the one line printed; run_sweep reuses it
    if not args.quiet:
        print(f"sweep: {len(cfg.sweep_db)} points x {cfg.trials} trials, config {cfg.digest()}", file=sys.stderr)
    report = run_sweep(cfg)
    _emit(report.to_csv_bytes() if args.out == "csv" else report.to_json_bytes())
    return EXIT_OK


def cmd_dof_check(args) -> int:
    from .dofregion import RegionSpec, construction_feasible, is_member

    d = _dof(args)
    spec = RegionSpec(K=args.k, N=args.n)
    verdict = is_member(d, spec)
    feasible, weighted = construction_feasible(d, args.n)
    out = verdict.to_dict()
    out["construction_feasible"] = feasible
    out["weighted_sum"] = str(weighted)
    _print_json(out)
    return EXIT_OK if verdict.member else EXIT_FAILURE


def cmd_dof_sumdof(args) -> int:
    from .dofregion import RegionSpec, sum_dof_max

    value, maximizer = sum_dof_max(RegionSpec(K=args.k, N=args.n))
    _print_json({"sum_dof": str(value), "maximizer": maximizer.to_dict()})
    return EXIT_OK


def cmd_dof_gap(args) -> int:
    from .dofregion import RegionSpec, construction_feasible, find_construction_gap

    witness = find_construction_gap(RegionSpec(K=args.k, N=args.n))
    out = {"gap_found": witness is not None, "witness": None}
    if witness is not None:
        feasible, weighted = construction_feasible(witness, args.n)
        out.update(witness=witness.to_dict(), construction_feasible=feasible, weighted_sum=str(weighted))
    _print_json(out)
    return EXIT_OK


def cmd_dof_vertices(args) -> int:
    from .dofregion import vertices_k3

    verts = vertices_k3(args.n)
    _print_json({"n_relay": args.n, "count": len(verts), "vertices": [v.to_dict() for v in verts]})
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        # None marks "not given", so main can fill in the file value or default
        p.add_argument("--" + name.replace("_", "-"), default=None, **OPTIONS[name][1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yrelay",
        description="Zero-forcing multi-way relaying: simulation and exact DoF-region tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", type=str, default=None, help="key = value config file")
    parser.add_argument("--quiet", action="store_true", help="suppress progress notes on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mppi-check", help="residual check of the normalized pseudo-inverses")
    _add_common(p, "k", "m", "n", "seed", "trials")
    p.set_defaults(func=cmd_mppi_check)

    p = sub.add_parser("plan", help="print the stream plan for a rate point")
    _add_common(p, "k", "n", "dof")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run one transmission round")
    _add_common(p, "k", "m", "n", "seed", "dof", "mode", "noise", "power_db")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a power sweep and emit a report")
    _add_common(p, "k", "m", "n", "seed", "trials", "dof", "mode", "noise", "sweep_db", "out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dof", help="exact region computations")
    dof_sub = p.add_subparsers(dest="dof_command", required=True)

    q = dof_sub.add_parser("check", help="membership verdict for a rate point")
    _add_common(q, "k", "n", "dof")
    q.set_defaults(func=cmd_dof_check)

    q = dof_sub.add_parser("sumdof", help="maximum total DoF over the region")
    _add_common(q, "k", "n")
    q.set_defaults(func=cmd_dof_sumdof)

    q = dof_sub.add_parser("gap", help="probe for member points the scheme cannot serve")
    _add_common(q, "k", "n")
    q.set_defaults(func=cmd_dof_gap)

    q = dof_sub.add_parser("vertices-k3", help="enumerate region vertices for 3 users")
    _add_common(q, "n")
    q.set_defaults(func=cmd_dof_vertices)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate negative value (`--power-db -1e1`) for a flag: join it to its option
    takes_value = {"--config", *("--" + name.replace("_", "-") for name, (_, kw) in OPTIONS.items()
                                 if "action" not in kw)}
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in takes_value and argv[i][:1] == "-" and (argv[i][1:2].isdigit() or argv[i][1:2] == "."):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        apply_config(args, load_config(args.config) if args.config is not None else {})
    except (OSError, ValueError) as exc:
        print(f"yrelay: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except YRelayError as exc:
        print(f"yrelay: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (argparse.ArgumentTypeError, ValueError) as exc:
        # late parse of values that needed other flags first (e.g. --dof)
        print(f"yrelay: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
