"""selrec benchmark: seeded CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload verify-n3 --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  The workload's config is generated
from --seed.  Each operation is one ``selrec`` CLI child process, timed from
spawn to exit, with its CPU time and peak RSS taken from ``os.wait4`` on that
child.  Operations repeat until --seconds have passed (at least three), and
every output is checked.  Set-up time is the median of several children that
only import ``selrec.cli`` and load the config.

With --trace 1 the same untraced operations run, followed by one traced
in-process run (bench/tracer.py) that yields the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  Everything the run writes goes to .bench_work/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 3
OP_TIMEOUT_S = 60.0
# every run ends well inside the 180 s a single run may take
RUN_DEADLINE_S = 165.0
SETUP_CODE = (
    "import sys, selrec.cli\n"
    "from selrec.config import ExperimentConfig\n"
    "ExperimentConfig.from_file(sys.argv[1])\n"
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def child_env() -> dict:
    """Fixed child environment: the checkout's sources, SELREC_THREADS
    unset, and single-threaded BLAS so that selrec's own --threads is the
    only parallelism (never more threads than the 2 CPUs the workloads
    assume)."""
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], log: Path, timeout: float) -> dict:
    """Run one child to completion; wall time from spawn to exit, CPU time
    and peak RSS of that child alone from wait4."""
    with log.open("wb") as fh:
        tic = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - tic
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "timed_out": not ready,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".bench_work" / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.started = time.perf_counter()
        self.ops: list[dict] = []
        self.report_bytes: bytes | None = None

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.w.make_config(self.seed)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n")

    def setup_sample(self, k: int) -> float:
        res = run_child(
            [sys.executable, "-c", SETUP_CODE, str(self.config_path)],
            self.work / f"setup{k}.log",
            min(OP_TIMEOUT_S, self.remaining()),
        )
        if res["exit_code"] != 0:
            raise BenchError(f"set-up child failed, see {self.work / f'setup{k}.log'}")
        return res["wall_s"]

    def selrec_argv(self, out: Path, traced: bool) -> list[str]:
        argv = [*self.w.argv, "--config", str(self.config_path), "--out", str(out)]
        if traced and "--threads" in argv:
            # one span stack: the traced run is single-threaded
            argv[argv.index("--threads") + 1] = "1"
        return argv

    def check(self, res: dict, out: Path, traced: bool) -> None:
        """Record the operation and why it failed (None when it did not)."""
        if res["timed_out"]:
            res["failure"] = "timed out"
        elif res["exit_code"] != 0:
            res["failure"] = f"exit code {res['exit_code']}"
        else:
            try:
                res["failure"] = self.w.check(out, self.config)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                res["failure"] = f"output unreadable: {exc!r}"
        if res["failure"] is None and self.w.name == "verify-n3":
            # verify reports are byte-identical across runs and thread counts
            blob = (out / "verify_report.json").read_bytes()
            if self.report_bytes is None:
                self.report_bytes = blob
            elif blob != self.report_bytes:
                res["failure"] = (
                    "verify_report.json differs from the first run's "
                    f"({'traced, --threads 1' if traced else 'untraced'})"
                )
        res["traced"] = traced
        self.ops.append(res)

    def operation(self, k: int) -> None:
        out = self.work / f"op{k}"
        argv = [sys.executable, "-m", "selrec.cli", *self.selrec_argv(out, traced=False)]
        res = run_child(argv, self.work / f"op{k}.log", min(OP_TIMEOUT_S, self.remaining()))
        self.check(res, out, traced=False)
        shutil.rmtree(out, ignore_errors=True)

    def traced_operation(self) -> tuple[dict, dict]:
        out = self.work / "traced"
        summary_path = self.work / "trace_summary.json"
        argv = [
            sys.executable, str(ROOT / "bench" / "tracer.py"),
            "--summary", str(summary_path), "--spans", str(self.work / "trace_spans.npz"),
            "--", *self.selrec_argv(out, traced=True),
        ]
        res = run_child(argv, self.work / "traced.log", min(OP_TIMEOUT_S * 2, self.remaining()))
        self.check(res, out, traced=True)
        shutil.rmtree(out, ignore_errors=True)
        if not summary_path.exists():
            raise BenchError(f"traced run failed, see {self.work / 'traced.log'}")
        return json.loads(summary_path.read_text()), res


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def print_ops(ops: list[dict]) -> None:
    for k, op in enumerate(ops):
        kind = "traced" if op["traced"] else "op"
        status = "ok" if op["failure"] is None else f"FAILED: {op['failure']}"
        print(
            f"  {kind} {k}: wall {op['wall_s']:.3f} s  cpu {op['cpu_s']:.3f} s  "
            f"peak rss {op['peak_rss_mb']:.1f} MB  {status}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "selrec" / "cli.py").is_file():
        print(f"bench: no selrec sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.prepare()
    meta = {**machine(), "loadavg_before": loadavg()}
    print(f"selrec bench: workload {run.w.name}, seed {run.seed}, "
          f"{run.seconds:g} s, trace {int(run.trace)}")
    print(f"  why: {run.w.why}")

    # warm-up: byte-compile the sources and fill the page cache; users do
    # not pay for either on every run
    run.setup_sample(-1)

    # set-up samples alternate with the operations, so that both see the
    # same spread of machine speed over the run
    setup = []
    tic = time.perf_counter()
    while len(run.ops) < MIN_OPS or time.perf_counter() - tic < run.seconds:
        if len(run.ops) >= MIN_OPS and run.remaining() < OP_TIMEOUT_S:
            break
        run.operation(len(run.ops))
        if not run.trace:
            setup.append(run.setup_sample(len(setup)))
    untraced = list(run.ops)
    walls = [op["wall_s"] for op in untraced]

    end_to_end = {
        "wall_s": (median(walls), "s"),
        "cpu_s": (median([op["cpu_s"] for op in untraced]), "s"),
        "peak_rss_mb": (median([op["peak_rss_mb"] for op in untraced]), "MB"),
    }
    if setup:
        end_to_end["setup_s"] = (median(setup), "s")

    layer = None
    if run.trace:
        summary, traced = run.traced_operation()
        layer = dict(summary["metrics"])
        layer["trace.overhead_s"] = traced["wall_s"] - median(walls)

    meta["loadavg_after"] = loadavg()
    failed = sum(op["failure"] is not None for op in run.ops)
    attempted = len(run.ops)
    fail_frac = failed / attempted

    print(f"  machine: nproc {meta['nproc']}, python {meta['python']}, numpy {meta['numpy']}, "
          f"scipy {meta['scipy']}")
    print(f"  loadavg: before {meta['loadavg_before']} | after {meta['loadavg_after']}")
    print_ops(run.ops)
    print(f"  end to end (medians of {len(untraced)} untraced operations"
          + (f", set-up of {len(setup)} children" if setup else "") + "):")
    for name, (value, unit) in end_to_end.items():
        print(f"    {name:<12} {value:12.4f} {unit}")
    print(f"    {'fail_frac':<12} {fail_frac:12.4f} ratio  ({failed} of {attempted} operations failed)")

    if layer is not None:
        print("  per layer (one traced in-process run, --threads 1):")
        for name, unit in PER_LAYER:
            note = summary["absent"].get(name)
            print(f"    {name:<36} {layer[name]:14.6g} {unit}" + (f"  ({note})" if note else ""))
        groups = summary["groups"]
        total = sum(groups.values()) or 1.0
        largest = max(groups, key=groups.get)
        intended = run.w.stresses
        print(f"  self time by group (intended: {intended}, largest: {largest}"
              + ("" if largest == intended else "  <-- NOT the intended layer") + "):")
        for name, secs in sorted(groups.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<16} {secs:9.3f} s  {100 * secs / total:5.1f} %")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (run.work / "result.json").write_text(json.dumps(
        {**result, "fail_frac": fail_frac, "machine": meta, "operations": run.ops,
         "setup_samples_s": setup, "config": run.config}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
