"""Span tracer for the benchmark's traced run of ``selrec.cli.main``.

The tracer wraps, from outside the package, every public function of each
layer module and every public method and property of the classes defined
there, in the module and class namespaces, and rebinds the names that other
selrec modules imported.  Nothing under ``src/`` changes.  A handful of
probes read counts from the public return values at the same boundaries.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.  The traced run is single-threaded
(``--threads 1``), so one span stack suffices.

Run as a script it is the traced child process:

    PYTHONPATH=src python3 bench/tracer.py --summary S.json --spans S.npz \
        -- verify --config C.json --out DIR --threads 1
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "config", "measure", "sites", "rng", "partitions", "solvers", "duals", "moran")

# span names whose self time is the dual sampler and the duality evaluator
SAMPLERS = (
    "duals.ypir_simulate",
    "duals.ypir_vector_simulate",
    "duals.wpp_simulate",
    "duals.initiation_simulate",
)
EVALUATORS = (
    "duals._MixtureEvaluator.basis",
    "duals._MixtureEvaluator.value",
    "duals._MixtureEvaluator.value_for_counts",
    "duals._MixtureEvaluator.value_for_runtimes",
    "duals._PartitionEvaluator.value",
    "duals.ancestor_mixture",
    "duals.duality_counts",
    "duals.duality_partition",
    "duals.duality_runtimes",
)
FLAVORS = ("counts", "partition", "runtimes")
# flavors whose replicates go through the cached _MixtureEvaluator basis
CACHED_FLAVORS = ("counts", "runtimes")

# (metric, unit); BENCHMARK.json lists the same names as its per-layer metrics
PER_LAYER = (
    ("rng.spawn_stream.calls", "count"),
    ("rng.self_s", "s"),
    ("sites.calls", "count"),
    ("sites.self_s", "s"),
    ("partitions.calls", "count"),
    ("partitions.self_s", "s"),
    ("measure.boxtimes.calls", "count"),
    ("measure.tensor.calls", "count"),
    ("measure.project.calls", "count"),
    ("measure.self_s", "s"),
    ("duals.replicates", "count"),
    ("duals.reps_per_s.counts", "1/s"),
    ("duals.reps_per_s.partition", "1/s"),
    ("duals.reps_per_s.runtimes", "1/s"),
    ("duals.sample.self_s", "s"),
    ("duals.eval.self_s", "s"),
    ("duals.ypir_simulate.calls", "count"),
    ("duals.active_sets", "count"),
    ("duals.basis_hit_ratio", "ratio"),
    ("duals.self_s", "s"),
    ("solvers.rhs.calls", "count"),
    ("solvers.rhs.us_per_call", "us"),
    ("solvers.rhs.self_s", "s"),
    ("solvers.integrate_ode.self_s", "s"),
    ("solvers.recursive_solve.self_s", "s"),
    ("solvers.semigroup_solve.self_s", "s"),
    ("solvers.marginal_sre_solve.self_s", "s"),
    ("solvers.ld_decay_residual.self_s", "s"),
    ("solvers.write_csv.self_s", "s"),
    ("solvers.trajectory_mb", "MB"),
    ("solvers.self_s", "s"),
    ("moran.events", "count"),
    ("moran.events_per_s", "1/s"),
    ("moran.simulate.self_s", "s"),
    ("moran.sample_population.self_s", "s"),
    ("moran.self_s", "s"),
    ("config.from_file_s", "s"),
    ("setup.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "B"),
    ("trace.overhead_s", "s"),
)

class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records one span.  before(args, kwargs)
        runs ahead of the call; after(result, args, kwargs, seconds) runs
        after it and returns the result handed back to the caller."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                result = after(result, args, kwargs, ends[idx] - starts[idx])
            return result

        return traced

    def summarize(self) -> dict:
        """Calls, total and self seconds per span name."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int64)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[j]), "total_s": float(total[j]), "self_s": float(self_s[j])}
            for j, name in enumerate(self.names)
        }

    def write_spans(self, path: Path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )


class Probe:
    """Counts read from public return values at the traced boundaries."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.replicates = defaultdict(int)
        self.mc_seconds = defaultdict(float)
        self.active_sets = 0
        self._sets: list[set] = []
        self._arrays: dict[int, int] = {}
        self.events = 0

    # duals: one collector of started-site sets per Monte Carlo call, since
    # each call builds a fresh _MixtureEvaluator and so a fresh basis cache
    def mc_before(self, args, kwargs):
        self._sets.append(set())

    def mc_after(self, result, args, kwargs, seconds):
        sets = self._sets.pop()
        self.replicates[result.flavor] += result.replicates
        self.mc_seconds[result.flavor] += seconds
        if result.flavor in CACHED_FLAVORS:
            self.active_sets += len(sets)
        return result

    def counts_after(self, m, args, kwargs, seconds):
        if self._sets:
            self._sets[-1].add((m > 0).tobytes())
        return m

    def runtimes_after(self, state, args, kwargs, seconds):
        if self._sets:
            self._sets[-1].add(tuple(isinstance(e, float) for e in state.entries))
        return state

    # solvers
    def rhs_after(self, rhs, args, kwargs, seconds):
        return self.tracer.wrap("solvers.rhs", rhs)

    def trajectory_after(self, traj, args, kwargs, seconds):
        for level in getattr(traj, "levels", [traj]):
            self._arrays[id(level.values)] = level.values.nbytes
        return traj

    @property
    def trajectory_mb(self) -> float:
        return sum(self._arrays.values()) / 2**20

    # moran
    def moran_after(self, state, args, kwargs, seconds):
        before = kwargs["state"] if "state" in kwargs else args[1]
        self.events += _event_total(state.counters) - _event_total(before.counters)
        return state

    def hooks(self) -> dict:
        mc = (self.mc_before, self.mc_after)
        trajectory = (None, self.trajectory_after)
        return {
            "duals.mc_solution_estimate": mc,
            "duals.duality_check": mc,
            "duals.ypir_vector_simulate": (None, self.counts_after),
            "duals.initiation_simulate": (None, self.runtimes_after),
            "solvers.make_rhs": (None, self.rhs_after),
            "solvers.integrate_ode": trajectory,
            "solvers.recursive_solve": trajectory,
            "solvers.marginal_sre_solve": trajectory,
            "moran.moran_simulate": (None, self.moran_after),
        }


def _event_total(counters: dict) -> int:
    return sum(v for k, v in counters.items() if not k.startswith("_"))


def install(tracer: Tracer, hooks: dict) -> None:
    """Wrap every layer's public functions and class members, then rebind
    the wrapped functions wherever a selrec module imported them by name."""
    import selrec

    modules = [sys.modules[f"selrec.{layer}"] for layer in LAYERS]
    replaced = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                label = f"{layer}.{name}"
                replaced[obj] = tracer.wrap(label, obj, *hooks.get(label, (None, None)))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _wrap_class(tracer, f"{layer}.{obj.__name__}", obj)
    for mod in [selrec, *modules]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        label = f"{prefix}.{attr}"
        if isinstance(val, (staticmethod, classmethod)):
            setattr(cls, attr, type(val)(tracer.wrap(label, val.__func__)))
        elif isinstance(val, property):
            setattr(cls, attr, property(tracer.wrap(label, val.fget), val.fset, val.fdel, val.__doc__))
        elif inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(label, val))


def layer_metrics(spans: dict, probe: Probe, import_s: float, out_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and the reason for each metric the
    workload leaves empty."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def layer(prefix, key):
        return sum(v[key] for n, v in spans.items() if n.split(".", 1)[0] == prefix)

    rhs_calls = calls("solvers.rhs")
    cached_reps = sum(probe.replicates[f] for f in CACHED_FLAVORS)
    moran_s = spans.get("moran.moran_simulate", {}).get("total_s", 0.0)
    m = {
        "rng.spawn_stream.calls": calls("rng.spawn_stream"),
        "rng.self_s": layer("rng", "self_s"),
        "sites.calls": layer("sites", "calls"),
        "sites.self_s": layer("sites", "self_s"),
        "partitions.calls": layer("partitions", "calls"),
        "partitions.self_s": layer("partitions", "self_s"),
        "measure.boxtimes.calls": calls("measure.boxtimes"),
        "measure.tensor.calls": calls("measure.tensor"),
        "measure.project.calls": calls("measure.Measure.project"),
        "measure.self_s": layer("measure", "self_s"),
        "duals.replicates": sum(probe.replicates.values()),
        **{
            f"duals.reps_per_s.{f}": (
                probe.replicates[f] / probe.mc_seconds[f] if probe.replicates[f] else 0.0
            )
            for f in FLAVORS
        },
        "duals.sample.self_s": self_s(*SAMPLERS),
        "duals.eval.self_s": self_s(*EVALUATORS),
        "duals.ypir_simulate.calls": calls("duals.ypir_simulate"),
        "duals.active_sets": probe.active_sets,
        "duals.basis_hit_ratio": 1.0 - probe.active_sets / cached_reps if cached_reps else 0.0,
        "duals.self_s": layer("duals", "self_s"),
        "solvers.rhs.calls": rhs_calls,
        "solvers.rhs.us_per_call": 1e6 * self_s("solvers.rhs") / rhs_calls if rhs_calls else 0.0,
        "solvers.rhs.self_s": self_s("solvers.rhs"),
        "solvers.integrate_ode.self_s": self_s("solvers.integrate_ode"),
        "solvers.recursive_solve.self_s": self_s("solvers.recursive_solve"),
        "solvers.semigroup_solve.self_s": self_s("solvers.semigroup_solve"),
        "solvers.marginal_sre_solve.self_s": self_s("solvers.marginal_sre_solve"),
        "solvers.ld_decay_residual.self_s": self_s("solvers.ld_decay_residual"),
        "solvers.write_csv.self_s": self_s("solvers.Trajectory.write_csv"),
        "solvers.trajectory_mb": probe.trajectory_mb,
        "solvers.self_s": layer("solvers", "self_s"),
        "moran.events": probe.events,
        "moran.events_per_s": probe.events / moran_s if moran_s else 0.0,
        "moran.simulate.self_s": self_s("moran.moran_simulate"),
        "moran.sample_population.self_s": self_s("moran.sample_population"),
        "moran.self_s": layer("moran", "self_s"),
        "config.from_file_s": spans.get("config.ExperimentConfig.from_file", {}).get("total_s", 0.0),
        "setup.import_s": import_s,
        "cli.self_s": layer("cli", "self_s"),
        "cli.out_bytes": out_bytes,
    }
    absent = {}
    for f in FLAVORS:
        if not probe.replicates[f]:
            absent[f"duals.reps_per_s.{f}"] = f"no {f}-flavor Monte Carlo replicates"
    if not cached_reps:
        absent["duals.basis_hit_ratio"] = "no replicates went through the basis cache"
    if not rhs_calls:
        absent["solvers.rhs.us_per_call"] = "the RK4 vector field was never evaluated"
    if not moran_s:
        absent["moran.events_per_s"] = "no Moran simulation ran"
    for name, value in m.items():
        if value == 0 and name not in absent:
            absent[name] = "not exercised by this workload"
    return m, absent


def stress_groups(m: dict, config_self_s: float) -> dict:
    """Self seconds per group; the groups partition all traced time."""
    sample = m["duals.sample.self_s"]
    evaluate = m["duals.eval.self_s"]
    return {
        "sampling": sample + m["sites.self_s"] + m["rng.self_s"] + m["partitions.self_s"],
        "evaluation": m["measure.self_s"] + evaluate,
        "duals.other": m["duals.self_s"] - sample - evaluate,
        "solvers": m["solvers.self_s"],
        "moran.simulate": m["moran.simulate.self_s"],
        "moran.other": m["moran.self_s"] - m["moran.simulate.self_s"],
        "config": config_self_s,
        "cli": m["cli.self_s"],
    }


def _out_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process run of selrec.cli.main")
    parser.add_argument("--summary", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("selrec_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    selrec_argv = args.selrec_argv[1:] if args.selrec_argv[:1] == ["--"] else args.selrec_argv
    out = Path(selrec_argv[selrec_argv.index("--out") + 1])

    tic = time.perf_counter()
    import selrec.cli  # noqa: F401  (loads every layer module)

    import_s = time.perf_counter() - tic
    tracer = Tracer()
    probe = Probe(tracer)
    install(tracer, probe.hooks())
    rc = sys.modules["selrec.cli"].main(selrec_argv)

    spans = tracer.summarize()
    metrics, absent = layer_metrics(spans, probe, import_s, _out_bytes(out))
    config_self = sum(v["self_s"] for n, v in spans.items() if n.startswith("config."))
    summary = {
        "exit_code": rc,
        "metrics": metrics,
        "absent": absent,
        "groups": stress_groups(metrics, config_self),
        "main_s": spans.get("cli.main", {}).get("total_s", 0.0),
        "spans": spans,
    }
    args.summary.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    tracer.write_spans(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
