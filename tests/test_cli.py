"""Command line behavior: exit codes, output schemas, config handling.

Everything runs in-process through main() except one subprocess test that
runs the CLI end to end: the `yrelay` console script when it is on PATH, and
`python -m yrelay` otherwise.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import yrelay.__main__
import yrelay.cli
import yrelay.harness
from conftest import run_round, sample_channels
from yrelay.alignment import DofVector, build_stream_plan
from yrelay.channel import SystemConfig
from yrelay.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    OPTIONS,
    load_config,
    main,
    parse_dof_spec,
    parse_sweep_spec,
)
from yrelay.harness import SUBSEED_CHANNEL, db_to_linear, derive_seed
from yrelay.transceiver import RAW

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sweep_small.csv"
GOLDEN_EXT = pathlib.Path(__file__).parent / "golden" / "sweep_ext.csv"
PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"
README = pathlib.Path(__file__).parents[1] / "README.md"
SWEEP_ARGS = [
    "--quiet", "sweep", "--k", "3", "--m", "4", "--n", "3", "--dof", "uniform:1",
    "--sweep-db", "10:10:30", "--trials", "5", "--seed", "42", "--mode", "genie",
    "--out", "csv",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -------------------------------------------------------------------- parsing


def test_parse_dof_entries():
    d = parse_dof_spec("1-2=1,2-1=1/2", 4)
    assert str(d.get(1, 2)) == "1"
    assert str(d.get(2, 1)) == "1/2"
    assert d.get(3, 4) == 0


def test_parse_dof_uniform():
    d = parse_dof_spec("uniform:2/3", 3)
    assert all(v == pytest.approx(2 / 3) for v in map(float, d.as_tuple()))


def test_parse_dof_rejects_garbage():
    import argparse

    for bad in ("1-2", "12=1", "1-2=", "1-2=x", "1-2=1,1-2=2"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_dof_spec(bad, 4)


def test_parse_sweep():
    assert parse_sweep_spec("30:5:60") == tuple(float(x) for x in range(30, 65, 5))
    assert parse_sweep_spec("10:10:10") == (10.0,)
    import argparse

    for bad in ("30:5", "a:b:c", "30:0:60", "60:5:30"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_sweep_spec(bad)


def test_parse_sweep_rejects_non_finite_bounds(capsys):
    import argparse

    for bad in ("30:5:1e400", "nan:5:60", "30:inf:60", "-inf:5:60", "30:5:nan", "0:1e-320:1"):
        with pytest.raises(argparse.ArgumentTypeError, match="finite"):
            parse_sweep_spec(bad)
    assert exit_code(["--quiet", "sweep", "--trials", "1", "--sweep-db", "30:5:1e400"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    # a finite count past the bound is refused with the count, before any point is built
    for bad, count in (("0:1e-300:1", r"1e\+300"), ("0:1e-6:1", "1000001")):
        with pytest.raises(argparse.ArgumentTypeError, match=f": {count} points, at most 1000000$"):
            parse_sweep_spec(bad)
    assert len(parse_sweep_spec("0:1e-6:0.999999")) == 10**6
    assert exit_code(["--quiet", "sweep", "--trials", "1", "--sweep-db", "0:1e-300:1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "points, at most 1000000" in err and "Traceback" not in err


# ------------------------------------------------------------------ dof verbs


def test_dof_check_member_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "dof", "check", "--k", "4", "--n", "6", "--dof", "uniform:1")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["member"] is True
    assert blob["construction_feasible"] is True
    assert len(blob["tight_permutations"]) == 24


def test_dof_check_violation_exits_one(capsys):
    code, out, _ = run_cli(capsys, "dof", "check", "--k", "4", "--n", "6", "--dof", "1-2=7")
    assert code == EXIT_FAILURE
    blob = json.loads(out)
    assert blob["member"] is False
    assert blob["witness"] is not None
    assert blob["max_value"] == "7"


def test_dof_sumdof(capsys):
    code, out, _ = run_cli(capsys, "dof", "sumdof", "--k", "4", "--n", "6")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["sum_dof"] == "12"


def test_dof_gap(capsys):
    code, out, _ = run_cli(capsys, "dof", "gap", "--k", "4", "--n", "6")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["gap_found"] is True
    assert blob["construction_feasible"] is False


def test_dof_vertices(capsys):
    code, out, _ = run_cli(capsys, "dof", "vertices-k3", "--n", "6")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["count"] == 12


def test_dof_check_sixteen_users(capsys):
    # the README's examples at the DP's user bound
    code, out, _ = run_cli(capsys, "dof", "check", "--k", "16", "--n", "6", "--dof", "uniform:1/40")
    blob = json.loads(out)
    assert code == EXIT_OK
    assert (blob["member"], blob["max_value"], blob["tight_permutations"]) == (True, "3", [])
    code, out, _ = run_cli(capsys, "dof", "check", "--k", "16", "--n", "6", "--dof", "1-2=7")
    assert code == EXIT_FAILURE
    assert json.loads(out)["witness"] == {"permutation": list(range(1, 17)), "value": "7"}
    code, _, err = run_cli(capsys, "dof", "check", "--k", "9", "--n", "1", "--dof", "uniform:1/36")
    assert code == EXIT_FAILURE and "TooLarge" in err


DOF_GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "dof_outputs.json").read_text())


@pytest.mark.parametrize("case", DOF_GOLDEN, ids=lambda case: " ".join(case["argv"]).removeprefix("dof "))
def test_dof_output_matches_golden(capsysbinary, case):
    # recorded with the K!-enumeration region tools, the K=6 and K=8 sumdof
    # and K=5 gap cases with the subset DP and cutting planes, and the plan
    # cases with the pair-keyed slot dicts: any faster oracle or relay-word
    # layout must reproduce the same bytes and exit codes (a dof case is named
    # by its arguments after `dof`, any other case by its whole argv)
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsysbinary.readouterr().out == case["stdout"].encode()


SIM_GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "sim_outputs.json").read_text())


@pytest.mark.parametrize("case", SIM_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_simulator_output_matches_golden(capsysbinary, case):
    # recorded with one channel set per draw: `simulate` and `mppi-check`
    # over the stacked channel block reproduce the same bytes and exit codes;
    # the 33-trial `mppi-check` and `sweep` cases cross two trial-block
    # boundaries, and the JSON genie sweep pins `power_violations` (15 at
    # 0 dB), which only the JSON report prints
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsysbinary.readouterr().out == case["stdout"].encode()


# ------------------------------------------------------------ plan / simulate


def test_plan_json(capsys):
    code, out, _ = run_cli(capsys, "plan", "--k", "4", "--n", "6", "--dof", "uniform:1")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["T"] == 1 and blob["padding"] == 0
    assert len(blob["slots"]) == 6


@pytest.mark.parametrize("n", ["0", "-1"])
def test_plan_needs_a_relay_antenna(capsys, n):
    code, out, err = run_cli(capsys, "plan", "--k", "4", "--n", n, "--dof", "uniform:0")
    assert code == EXIT_USAGE
    assert out == ""
    assert "need at least one relay antenna" in err
    # the vertex list refuses the same N with one usage line
    code, out, err = run_cli(capsys, "dof", "vertices-k3", "--n", n)
    assert (code, out, err) == (EXIT_USAGE, "", f"yrelay: usage error: need at least one relay antenna, got N={n}\n")


def test_plan_infeasible_exits_one(capsys):
    code, out, err = run_cli(capsys, "plan", "--k", "4", "--n", "6", "--dof", "1-2=7")
    assert code == EXIT_FAILURE
    assert out == ""
    assert "Infeasible" in err
    assert "Traceback" not in err
    # the 3-cycle point: a member of the region that pair slots cannot carry
    code, out, err = run_cli(capsys, "plan", "--k", "4", "--n", "6", "--dof", "1-2=3,2-3=3,3-1=3")
    assert (code, out) == (EXIT_FAILURE, "")
    assert "pair slots need 9 of 6 relay components" in err


def test_simulate_reports_round(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--k", "4", "--m", "6", "--n", "6",
        "--power-db", "40", "--seed", "3", "--no-noise",
    )
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["mode"] == "genie"
    assert max(blob["rel_errors"].values()) <= 1e-8


def test_simulate_uses_sweep_channel_seed(capsys):
    # simulate --seed S runs on the channels a sweep with master seed S draws
    # for its trial 0
    code, out, _ = run_cli(capsys, "simulate", "--k", "4", "--m", "6", "--n", "6",
                           "--power-db", "30", "--seed", "5", "--mode", "raw")
    assert code == EXIT_OK
    cfg = SystemConfig(K=4, M=6, N=6, P=db_to_linear(30.0))
    ch = sample_channels(cfg, derive_seed(5, SUBSEED_CHANNEL, 0))
    plan = build_stream_plan(DofVector.uniform(4, 1), cfg.N)
    res = run_round(cfg, ch, plan, seed=5, mode=RAW, noise=True)
    assert out == json.dumps(res.to_dict(0, 0), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("power_db", ["nan", "inf", "1e400"])
def test_simulate_rejects_non_finite_power(capsys, power_db):
    code, out, err = run_cli(capsys, "simulate", "--power-db", power_db)
    assert code == EXIT_USAGE
    assert out == ""
    assert "power must be positive and finite" in err


def test_simulate_rejects_power_beyond_float_range(capsys):
    # 4000 dB is finite, but 10^400 is not a float
    code, out, err = run_cli(capsys, "simulate", "--power-db", "4000")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "yrelay: usage error: power 4000.0 dB is too large for a float\n"


def test_sweep_rejects_power_beyond_float_range_before_any_trial(capsys, monkeypatch):
    # the first point (3000 dB) fits a float, so the sweep itself rejects 3100 dB
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(yrelay.harness, "sample_channel_block", no_trials)
    code, out, err = run_cli(capsys, "--quiet", "sweep", "--sweep-db", "3000:100:3200", "--trials", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "yrelay: usage error: power 3100.0 dB is too large for a float\n"
    # points that underflow to 0 W are refused as well
    code, out, err = run_cli(capsys, "--quiet", "sweep", "--sweep-db=-3300:10:-3280", "--trials", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "yrelay: usage error: sweep point -3300.0 dB is not a positive finite power (0.0 W)\n"


def test_sweep_recovery_scale_too_small_for_noise(capsys):
    # at -3230 dB the noise divided by the recovery scale (about 1e-162)
    # overflows the error norms; the sweep stops with the pair instead of
    # reporting inf errors (a RuntimeWarning from the package fails a test)
    args = ["--quiet", "sweep", "--k", "3", "--m", "3", "--n", "3", "--trials", "1"]
    code, out, err = run_cli(capsys, *args, "--sweep-db=-3230:10:-3210")
    assert code == EXIT_FAILURE
    assert out == ""
    assert err == ("yrelay: error: ScalarUnderflow: recovery scale gamma*beta*alpha = 1.089e-162 "
                   "for pair (2,1): error norm overflows\n")
    # noiseless rounds at those powers recover, and noisy ones at -3000 dB do
    for extra in (["--sweep-db=-3230:10:-3210", "--no-noise"], ["--sweep-db=-3000:10:-2980"]):
        code, out, _ = run_cli(capsys, *args, *extra)
        assert code == EXIT_OK
        assert "inf" not in out


def test_simulate_infeasible_exits_one(capsys):
    code, out, err = run_cli(capsys, "simulate", "--k", "4", "--n", "6", "--dof", "1-2=7")
    assert code == EXIT_FAILURE
    assert out == ""
    assert "Infeasible" in err


def test_mppi_check(capsys):
    code, out, _ = run_cli(capsys, "mppi-check", "--k", "3", "--n", "4", "--m", "6",
                           "--trials", "20", "--seed", "1")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["ok"] is True
    assert blob["max_diagonalization_residual"] <= 1e-9


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_mppi_check_needs_a_trial(capsys, trials):
    code, out, err = run_cli(capsys, "mppi-check", "--trials", trials)
    assert code == EXIT_USAGE
    assert out == ""
    assert "need at least one trial" in err


# ---------------------------------------------------------------------- sweep


def test_sweep_matches_golden_csv(capsys):
    code, out, _ = run_cli(capsys, *SWEEP_ARGS)
    assert code == EXIT_OK
    assert out.encode() == GOLDEN.read_bytes()


def test_sweep_matches_golden_ext_csv(capsys):
    # K=5, M=8, N=6 at T=4: wide uplink and tall downlink inverses. Genie
    # mode, so uplink power scaling does not reach these bytes.
    code, out, _ = run_cli(
        capsys, "--quiet", "sweep", "--k", "5", "--m", "8", "--n", "6", "--dof", "uniform:1/4",
        "--sweep-db", "10:10:30", "--trials", "4", "--seed", "42", "--mode", "genie", "--out", "csv",
    )
    assert code == EXIT_OK
    assert out.encode() == GOLDEN_EXT.read_bytes()


def test_sweep_db_takes_separate_negative_value(capsys):
    # argparse alone reads `-10:10:10` as a flag and exits 2
    base = ["--quiet", "sweep", "--k", "3", "--m", "4", "--n", "3", "--trials", "2"]
    code, separate, _ = run_cli(capsys, *base, "--sweep-db", "-10:10:10")
    assert code == EXIT_OK
    code, joined, _ = run_cli(capsys, *base, "--sweep-db=-10:10:10")
    assert code == EXIT_OK
    assert separate.encode() == joined.encode()
    assert [line.split(",")[0] for line in separate.splitlines()[2:5]] == ["-10.0", "0.0", "10.0"]
    # a start with no digit before its point
    code, separate, _ = run_cli(capsys, *base, "--sweep-db", "-.5:1:1.5")
    assert code == EXIT_OK
    code, joined, _ = run_cli(capsys, *base, "--sweep-db=-.5:1:1.5")
    assert code == EXIT_OK
    assert separate.encode() == joined.encode()
    assert [line.split(",")[0] for line in separate.splitlines()[2:4]] == ["-0.5", "0.5"]
    assert exit_code([*base, "--sweep-db", "-10:oops"]) == EXIT_USAGE


def test_value_options_take_separate_exponent_value(capsys):
    # argparse reads a value with an exponent (`-1e1`) as a flag and exits
    # 2 whatever option takes it; main joins it to the option as it does a
    # separate `--sweep-db` start
    small = ["--k", "3", "--m", "4", "--n", "3"]
    for command, flag, value, same in (
        (["simulate", *small], "--power-db", "-1e1", "-10"),
        (["sweep", *small, "--trials", "2"], "--sweep-db", "-1e1:10:30", "-10:10:30"),
    ):
        code, separate, _ = run_cli(capsys, "--quiet", *command, flag, value)
        assert code == EXIT_OK
        code, joined, _ = run_cli(capsys, "--quiet", *command, f"{flag}={value}")
        assert code == EXIT_OK
        assert separate == joined == run_cli(capsys, "--quiet", *command, f"{flag}={same}")[1]
    assert [line.split(",")[0] for line in separate.splitlines()[2:7]] == ["-10.0", "0.0", "10.0", "20.0", "30.0"]


def test_sweep_repeat_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, *SWEEP_ARGS)
    _, second, _ = run_cli(capsys, *SWEEP_ARGS)
    assert first == second


def test_sweep_json_output(capsys):
    args = [a if a != "csv" else "json" for a in SWEEP_ARGS]
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    blob = json.loads(out)
    assert len(blob["rows"]) == 3
    assert blob["provenance"]["seed"] == 42


def test_sweep_quiet_controls_stderr(capsys):
    _, _, err = run_cli(capsys, *SWEEP_ARGS)
    assert err == ""
    noisy_args = [a for a in SWEEP_ARGS if a != "--quiet"]
    _, _, err = run_cli(capsys, *noisy_args)
    assert "sweep:" in err


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--trials", "1"]])
def test_unallocatable_symbol_extension_exits_one(capsys, command):
    # a member point at T = 2^50: `plan` prints it, but the words of length
    # T*N cannot be allocated on any host, which is one named error line
    code, out, err = run_cli(capsys, "--quiet", *command, "--k", "3", "--m", "4", "--n", "3",
                             "--dof", "1-2=1/1125899906842624")
    assert (code, out) == (EXIT_FAILURE, "")
    assert err == ("yrelay: error: TooLarge: symbol extension T=1125899906842624: words of "
                   "T*N = 3377699720527872 entries do not fit\n")


@pytest.mark.parametrize("argv, error", [
    (["--k", "4", "--n", "6", "--dof", "1-2=3,2-3=3,3-1=3", "--trials", "2"], "Infeasible"),
    (["--k", "3", "--m", "4", "--n", "3", "--dof", "1-2=1/1125899906842624", "--trials", "1"], "TooLarge"),
])
def test_refused_sweep_prints_only_its_error(capsys, argv, error):
    # the point is refused before the progress line, which is not printed
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, out) == (EXIT_FAILURE, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"yrelay: error: {error}: ")


def test_sweep_infeasible_exits_one(capsys):
    code, _, err = run_cli(capsys, "--quiet", "sweep", "--k", "4", "--n", "6", "--m", "6",
                           "--dof", "1-2=7", "--sweep-db", "10:10:10", "--trials", "1")
    assert code == EXIT_FAILURE
    assert "Infeasible" in err


def child_env():
    """The environment of a child that imports the same source tree as this
    test, wherever pytest was started from."""
    src = str(pathlib.Path(yrelay.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_end_to_end():
    exe = shutil.which("yrelay")
    cmd = [exe] if exe else [sys.executable, "-m", "yrelay"]
    proc = subprocess.run(cmd + SWEEP_ARGS, capture_output=True, env=child_env())
    assert proc.returncode == EXIT_OK
    assert proc.stdout == GOLDEN.read_bytes()

    # `python -m yrelay` stands in for the script only while both call the
    # same function
    assert yrelay.__main__.main is main
    if tomllib is not None:
        scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
        assert scripts["yrelay"] == "yrelay.cli:main"


NUMPY_FREE_COMMANDS = [
    ["--version"],
    ["plan", "--k", "4", "--n", "6", "--dof", "1-2=3/2,2-1=1/2"],
    ["dof", "check", "--k", "4", "--n", "6", "--dof", "uniform:1"],
    ["dof", "sumdof", "--k", "4", "--n", "6"],
    ["dof", "gap", "--k", "4", "--n", "6"],
    ["dof", "vertices-k3", "--n", "6"],
]


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=" ".join)
def test_exact_commands_do_not_import_numpy(argv):
    # the exact core (alignment, dofregion, simplex) and the package root
    # stand on the standard library; only the simulator commands load numpy.
    # Their records are named tuples, so neither `dataclasses` nor the
    # `inspect` it imports is loaded either; -S keeps site hooks (.pth
    # files) from loading modules the package does not ask for
    script = (
        "import sys\n"
        "from yrelay.cli import main\n"
        "try:\n    code = main(sys.argv[1:])\nexcept SystemExit as exc:\n    code = exc.code\n"
        "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script, *argv], capture_output=True, env=child_env())
    assert proc.returncode == EXIT_OK
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == b"[]"


def test_start_up_loads_no_exact_core_module():
    # importing the package root and the CLI loads none of the exact core:
    # the root reads each exact-core name from its module when asked for,
    # and each command imports what it runs; -S keeps site hooks from
    # loading anything more
    core = ("yrelay.alignment", "yrelay.dofregion", "yrelay.simplex")
    script = (
        "import sys\n"
        "import yrelay, yrelay.cli\n"
        f"print([m for m in {core!r} if m in sys.modules], file=sys.stderr)\n"
        "from yrelay import *\n"
        "missing = [name for name in yrelay.__all__ if name not in globals()]\n"
        "print(missing, yrelay.is_member.__module__, yrelay.DofVector.__module__, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [b"[]", b"[] yrelay.dofregion yrelay.alignment"]


def test_dp_kernel_compiles_on_first_use_only():
    # importing the CLI compiles no ordering-DP kernel, so start-up pays for
    # none, and a one-shot `dof check` at K = 4 compiles exactly its own
    script = (
        "import sys\n"
        "from yrelay.cli import main\n"
        "from yrelay.dofregion import _dp_kernel\n"
        "print(_dp_kernel.cache_info().currsize, file=sys.stderr)\n"
        "code = main(sys.argv[1:])\n"
        "print(_dp_kernel.cache_info().currsize, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    argv = ["dof", "check", "--k", "4", "--n", "6", "--dof", "uniform:1"]
    proc = subprocess.run([sys.executable, "-S", "-c", script, *argv], capture_output=True, env=child_env())
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["member"] is True
    assert proc.stderr.splitlines()[-2:] == [b"0", b"1"]


# --------------------------------------------------------------------- config


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# experiment setup\nk = 3\nn = 2\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dof", "sumdof")
    assert code == EXIT_OK
    assert json.loads(out)["sum_dof"] == "4"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("k = 3\nn = 2\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dof", "sumdof", "--n", "3")
    assert code == EXIT_OK
    assert json.loads(out)["sum_dof"] == "6"


def test_config_parser_grammar(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("\n# comment only\nk = 4  # trailing comment\nmode = raw\n")
    assert load_config(str(cfg)) == {"k": "4", "mode": "raw"}


def test_config_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, _, err = run_cli(capsys, "--config", str(missing), "dof", "sumdof")
    assert code == EXIT_USAGE
    assert "config error" in err

    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    code, _, err = run_cli(capsys, "--config", str(bad), "dof", "sumdof")
    assert code == EXIT_USAGE

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("frobnicate = 1\n")
    code, _, err = run_cli(capsys, "--config", str(unknown), "dof", "sumdof")
    assert code == EXIT_USAGE
    assert "unknown config key" in err


def test_readme_experiment_cfg_runs(tmp_path, capsys):
    # the example file from the README, verbatim
    block = re.search(r"```ini\n(# experiment\.cfg\n.*?)```", README.read_text(), re.S)
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(block.group(1))
    code, from_file, _ = run_cli(capsys, "--config", str(cfg), "--quiet", "sweep", "--out", "json")
    assert code == EXIT_OK
    code, from_flags, _ = run_cli(
        capsys, "--quiet", "sweep", "--k", "4", "--m", "6", "--n", "6", "--dof", "uniform:1",
        "--sweep-db", "30:5:60", "--trials", "200", "--seed", "0", "--out", "json",
    )
    assert code == EXIT_OK
    assert from_file == from_flags
    assert len(json.loads(from_file)["rows"]) == 7

    # keys that `dof sumdof` has no flag for are ignored
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dof", "sumdof")
    assert code == EXIT_OK
    assert json.loads(out)["sum_dof"] == "12"


def test_config_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("mode = raw\nnoise = off\npower_db = 30\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "simulate")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert (blob["mode"], blob["noisy"]) == ("raw", False)
    code, out, _ = run_cli(capsys, "--config", str(cfg), "simulate", "--noise", "--mode", "genie")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert (blob["mode"], blob["noisy"]) == ("genie", True)


@pytest.mark.parametrize(
    "line, command",
    [
        ("sweep_db = oops", "sweep"),
        ("sweep_db = 0:1e-320:1", "sweep"),
        ("sweep_db = 0:1e-300:1", "sweep"),
        ("out = xml", "sweep"),
        ("k = x", "sweep"),
        ("noise = maybe", "sweep"),
        ("mode = foo", "simulate"),
        ("mode = foo", "sweep"),
        ("dof = banana", "plan"),
    ],
)
def test_bad_config_value_exits_two(tmp_path, capsys, line, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), command)
    assert code == EXIT_USAGE
    assert out == ""
    assert "config error" in err
    assert line.split(" = ")[0] in err
    assert "Traceback" not in err


def test_documented_config_keys_match_option_table():
    keys = list(OPTIONS)
    readme = re.search(r"Recognized keys: `([^`]+)`", README.read_text()).group(1)
    assert re.split(r",\s+", readme) == keys
    doc = re.search(r"with underscores \(([^)]+)\)", yrelay.cli.__doc__).group(1)
    assert re.split(r",\s+", doc) == keys


def exit_code(argv):
    # argparse reports its own failures through SystemExit(2); values parsed
    # after dispatch come back as a plain return code
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_usage_errors_exit_two(capsys):
    assert exit_code(["sweep", "--sweep-db", "oops"]) == EXIT_USAGE
    assert exit_code(["dof", "check", "--dof", "banana"]) == EXIT_USAGE
    assert exit_code(["not-a-command"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
