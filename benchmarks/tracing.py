"""Span tracing of yrelay from outside the package.

`Tracer.install()` replaces every public function of the traced modules, at
every module-level name a caller looks it up by (the defining module, the
modules that import it, and the package namespace), with a wrapper that
records one span: function, parent span, start and end in nanoseconds.
`Tracer.uninstall()` puts the originals back. Spans stay in memory until
`write_spans` dumps them.

Self time is a span's duration minus the durations of its direct children
(calls nest, so the children never overlap). A layer is a package module.
Named groups (`linalg.mppi`, `transceiver.uplink`, ...) collect the self
time of their tagged functions plus that of untagged helpers they call
inside the same layer, such as `as_complex_matrix` under an inverse.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import time

import numpy as np

LAYERS = ("linalg", "channel", "alignment", "transceiver", "harness", "simplex", "dofregion", "cli")

# Methods traced besides the module-level functions: report emission.
METHODS = {"harness": ("SweepReport.to_csv_bytes", "SweepReport.to_json_bytes")}

GROUPS = {
    "linalg.mppi": ("normalized_right_mppi", "normalized_left_mppi",
                    "right_pseudo_inverse", "left_pseudo_inverse"),
    "channel.sample": ("sample_channels", "complex_normal", "rng_for", "sample_awgn"),
    "channel.propagate": ("uplink_propagate", "downlink_propagate"),
    "alignment.plan": ("build_stream_plan",),
    "alignment.assemble": ("assemble_uplink_symbol",),
    "transceiver.precoder": ("build_precoders",),
    "transceiver.symbols": ("sample_stream_symbols",),
    "transceiver.uplink": ("uplink_precode", "relay_observe"),
    "transceiver.relay": ("network_coded_word", "relay_decode", "relay_transmit"),
    "transceiver.downlink": ("user_postcode", "user_recover"),
    "transceiver.snr": ("effective_snr", "expected_word_power"),
    "harness.sweep": ("run_sweep",),
    "harness.fit": ("fit_slope",),
    "harness.report": ("SweepReport.to_csv_bytes", "SweepReport.to_json_bytes"),
    "simplex.solve": ("solve_max",),
    "simplex.verify": ("verify_certificate",),
    "simplex.linear": ("solve_linear",),
    "dofregion.member": ("is_member", "permutation_constraint"),
    "dofregion.sumdof": ("sum_dof_max",),
    "dofregion.gap": ("find_construction_gap",),
    "dofregion.vertices": ("vertices_k3",),
    "cli.main": ("main",),
}

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("linalg.mppi_calls", "count"), ("linalg.mppi_self_s", "s"),
    ("linalg.mppi_reuse_ratio", "ratio"), ("linalg.self_s", "s"),
    ("channel.draws", "count"),
    ("channel.sample_self_s", "s"), ("channel.propagate_calls", "count"),
    ("channel.propagate_self_s", "s"), ("channel.self_s", "s"),
    ("alignment.plan_builds", "count"), ("alignment.plan_self_s", "s"),
    ("alignment.plan_reuse_ratio", "ratio"), ("alignment.assemble_self_s", "s"),
    ("alignment.self_s", "s"),
    ("transceiver.round_p50_ms", "ms"), ("transceiver.round_p99_ms", "ms"),
    ("transceiver.precoder_self_s", "s"), ("transceiver.symbols_self_s", "s"),
    ("transceiver.uplink_self_s", "s"), ("transceiver.relay_self_s", "s"),
    ("transceiver.downlink_self_s", "s"), ("transceiver.snr_self_s", "s"),
    ("transceiver.snr_calls", "count"), ("transceiver.self_s", "s"),
    ("harness.sweep_self_s", "s"), ("harness.fit_self_s", "s"),
    ("harness.report_self_s", "s"), ("harness.self_s", "s"),
    ("simplex.lp_solves", "count"), ("simplex.pivots", "count"), ("simplex.lp_rows", "count"),
    ("simplex.solve_self_s", "s"), ("simplex.verify_self_s", "s"),
    ("simplex.linear_solves", "count"), ("simplex.linear_self_s", "s"), ("simplex.self_s", "s"),
    ("dofregion.member_calls", "count"), ("dofregion.orderings_evaluated", "count"),
    ("dofregion.member_self_s", "s"), ("dofregion.sumdof_self_s", "s"),
    ("dofregion.gap_self_s", "s"), ("dofregion.vertices_self_s", "s"), ("dofregion.self_s", "s"),
    ("cli.main_self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
)

ROOT_LAYER = "bench"


def percentile(values, q):
    """Inclusive-method percentile q in (0, 100) of a non-empty sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _targets():
    """(layer, qualname, owner, attribute, function) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"yrelay.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                out.append((layer, name, None, name, obj))
        for qual in METHODS.get(layer, ()):
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is not None and attr in vars(cls):
                out.append((layer, qual, cls, attr, vars(cls)[attr]))
    return out


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.func_names = [f"{ROOT_LAYER}.pass", f"{ROOT_LAYER}.check"]
        self.func_layers = [ROOT_LAYER, ROOT_LAYER]
        self._wrappers = []  # (class or None, attribute, function, wrapper)
        for layer, qual, owner, attr, fn in _targets():
            self.func_names.append(f"{layer}.{qual}")
            self.func_layers.append(layer)
            self._wrappers.append((owner, attr, fn, self._wrap(len(self.func_names) - 1, qual, fn)))
        self._saved = []
        self.reset()

    def reset(self):
        self.funcs, self.parents, self.starts, self.ends = [], [], [], []
        self._stack = [-1]
        self.matrices = set()
        self.dofs = set()
        self.pivots = 0
        self.lp_rows = 0

    # ----------------------------------------------------------- recording
    def _open(self, func):
        idx = len(self.funcs)
        self.funcs.append(func)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, root):
        """Record a benchmark-side root span (`pass` or `check`) around a block."""
        idx = self._open(self.func_names.index(f"{ROOT_LAYER}.{root}"))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, func_id, qual, fn):
        tracer = self
        hook = {
            "normalized_right_mppi": self._on_mppi,
            "normalized_left_mppi": self._on_mppi,
            "build_stream_plan": self._on_plan,
            "solve_max": self._on_lp,
        }.get(qual)

        def traced(*args, **kwargs):
            idx = tracer._open(func_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qual)
        traced.__qualname__ = getattr(fn, "__qualname__", qual)
        traced.__doc__ = fn.__doc__
        return traced

    def _on_mppi(self, args, kwargs, result):
        m = np.asarray(args[0] if args else kwargs.get("h", kwargs.get("d")))
        self.matrices.add((m.shape, m.dtype.str, m.tobytes()))

    def _on_plan(self, args, kwargs, result):
        self.dofs.add((result.N, result.K, tuple(sorted(args[0].items()))))

    def _on_lp(self, args, kwargs, result):
        self.pivots += result.iterations
        self.lp_rows += len(args[1] if len(args) > 1 else kwargs["a"])

    # ------------------------------------------------------------ patching
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        import yrelay

        namespaces = [yrelay] + [importlib.import_module(f"yrelay.{m}") for m in LAYERS]
        for owner, attr, fn, wrapper in self._wrappers:
            if owner is not None:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for name, obj in list(vars(ns).items()):
                    if obj is fn:
                        self._saved.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # ------------------------------------------------------------ analysis
    def metrics(self):
        """Counts and self times of the recorded spans, keyed by metric name."""
        n = len(self.funcs)
        layers = self.func_layers
        # Names a later version of the package no longer defines are skipped.
        ids = {name: i for i, name in enumerate(self.func_names)}
        group_of_func = {}
        for group, quals in GROUPS.items():
            layer = group.split(".")[0]
            for qual in quals:
                if f"{layer}.{qual}" in ids:
                    group_of_func[ids[f"{layer}.{qual}"]] = group
        round_id = ids.get("transceiver.run_round")

        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]

        group = [None] * n
        layer_self, group_self, calls = {}, {}, {}
        round_ms = []
        for i in range(n):
            f = self.funcs[i]
            calls[f] = calls.get(f, 0) + 1
            if f in group_of_func:
                group[i] = group_of_func[f]
            else:
                p = self.parents[i]
                if p >= 0 and layers[self.funcs[p]] == layers[f]:
                    group[i] = group[p]
            dur = self.ends[i] - self.starts[i]
            own = dur - child[i]
            layer_self[layers[f]] = layer_self.get(layers[f], 0) + own
            if group[i] is not None:
                group_self[group[i]] = group_self.get(group[i], 0) + own
            if f == round_id:
                round_ms.append(dur / 1e6)

        def count(*quals):
            return sum(calls.get(ids.get(q), 0) for q in quals)

        def gsec(g):
            return group_self.get(g, 0) / 1e9

        mppi = count("linalg.normalized_right_mppi", "linalg.normalized_left_mppi")
        plans = count("alignment.build_stream_plan")
        out = {
            "linalg.mppi_calls": mppi,
            "linalg.mppi_self_s": gsec("linalg.mppi"),
            "linalg.mppi_reuse_ratio": len(self.matrices) / mppi if mppi else 0.0,
            "channel.draws": count("channel.sample_channels"),
            "channel.sample_self_s": gsec("channel.sample"),
            "channel.propagate_calls": count("channel.uplink_propagate", "channel.downlink_propagate"),
            "channel.propagate_self_s": gsec("channel.propagate"),
            "alignment.plan_builds": plans,
            "alignment.plan_self_s": gsec("alignment.plan"),
            "alignment.plan_reuse_ratio": len(self.dofs) / plans if plans else 0.0,
            "alignment.assemble_self_s": gsec("alignment.assemble"),
            "transceiver.round_p50_ms": percentile(round_ms, 50) if round_ms else 0.0,
            "transceiver.round_p99_ms": percentile(round_ms, 99) if round_ms else 0.0,
            "transceiver.snr_calls": count("transceiver.effective_snr"),
            "simplex.lp_solves": count("simplex.solve_max"),
            "simplex.pivots": self.pivots,
            "simplex.lp_rows": self.lp_rows,
            "simplex.linear_solves": count("simplex.solve_linear"),
            "dofregion.member_calls": count("dofregion.is_member"),
            "dofregion.orderings_evaluated": count("dofregion.permutation_constraint"),
            "cli.main_self_s": gsec("cli.main"),
        }
        for g in ("precoder", "symbols", "uplink", "relay", "downlink", "snr"):
            out[f"transceiver.{g}_self_s"] = gsec(f"transceiver.{g}")
        for g in ("sweep", "fit", "report"):
            out[f"harness.{g}_self_s"] = gsec(f"harness.{g}")
        for g in ("solve", "verify", "linear"):
            out[f"simplex.{g}_self_s"] = gsec(f"simplex.{g}")
        for g in ("member", "sumdof", "gap", "vertices"):
            out[f"dofregion.{g}_self_s"] = gsec(f"dofregion.{g}")
        for layer in LAYERS + (ROOT_LAYER,):
            out[f"{layer}.self_s"] = layer_self.get(layer, 0) / 1e9
        return out

    def write_spans(self, path):
        """Tab-separated spans: id, parent id (-1 for a root), name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (f, p, s, e) in enumerate(zip(self.funcs, self.parents, self.starts, self.ends)):
                fh.write(f"{i}\t{p}\t{self.func_names[f]}\t{s}\t{e}\n")
