"""Command line front end.

Subcommands: solve, dual, moran, verify, asymptotics, ld.  Every output
file records the configuration hash and the library version; reports from
`verify` are byte-identical for a fixed (config, seed) regardless of thread
count or repetition.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 verification failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import FIELDS, ConfigError, ExperimentConfig, check
from .duals import (
    _FLAVORS,
    _canonical_start,
    _check_line_counts,
    _duality_function,
    _flavor_estimates,
    ancestor_mixture,
)
from .measure import (
    Measure,
    ProbabilityMeasure,
    boxtimes,
    cond_fit,
    cond_unfit,
    fit_fraction,
    l1_distance,
)
from .moran import lln_convergence
from .partitions import decode, encode
from .rng import spawn_stream
from .solvers import (
    SolverError,
    SolverSettings,
    Trajectory,
    asymptotic_limit,
    equilibration_time,
    integrate_ode,
    ld_decay_residuals,
    recursive_solve,
    selection_flow,
    semigroup_path,
    semigroup_solve,
    yule_pgf,
)

VALIDATION_EXIT = 1
NUMERICAL_EXIT = 2
VERIFICATION_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(VALIDATION_EXIT, f"{self.prog}: error: {message}\n")


class _Run(NamedTuple):
    """What a command made: its output files by name, the lines it prints
    and its exit code.  A file is a dict (JSON), a Trajectory, or a
    (columns, rows) table of numbers (CSV)."""

    files: dict
    summary: str
    code: int = 0


def _check_out(out: Path) -> None:
    """Refuse an --out that is, or lies under, something other than a
    directory, before any work starts."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {out}: {path} is not a directory")
            return


def _write_outputs(out: Path, exp: ExperimentConfig, files: dict) -> None:
    """Write every file of a run under out, each stamped with the config
    hash and the package version.  Every JSON file is serialised first, and
    one that holds a NaN or an infinity, which JSON has no token for, is
    refused as a numerical failure before out is made."""
    config_hash = exp.config_hash
    provenance = f"# selrec {__version__} config {config_hash}\n"
    texts = {}
    for name, payload in files.items():
        if isinstance(payload, dict):
            stamped = {**payload, "config_hash": config_hash, "version": __version__}
            try:
                texts[name] = json.dumps(stamped, sort_keys=True, indent=2, allow_nan=False) + "\n"
            except ValueError as exc:
                raise SolverError(f"{name} holds a non-finite number: {exc}") from exc
    path = out
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in files.items():
            path = out / name
            with path.open("w") as fh:
                if name in texts:
                    fh.write(texts[name])
                elif isinstance(payload, Trajectory):
                    fh.write(provenance)
                    fh.write(f"# sites {','.join(str(a) for a in payload.sites)}\n")
                    payload.write_csv(fh)
                else:
                    columns, rows = payload
                    fh.write(provenance + ",".join(columns) + "\n")
                    for row in rows:
                        fh.write(",".join(repr(float(v)) for v in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path}: {exc.strerror or exc}") from exc


def _seed_and_replicates(args, exp: ExperimentConfig, field="replicates") -> tuple[int, int]:
    """A Monte Carlo command's seed and replicate count: each flag when
    given, checked by the rule of its config field, else the field."""
    return tuple(
        getattr(exp, name) if getattr(args, flag) is None
        else check(f"--{flag}", getattr(args, flag), FIELDS[name].kind, FIELDS[name].bound)
        for flag, name in (("seed", "seed"), ("replicates", field))
    )


# -- solve ---------------------------------------------------------------


def _comparison_times(settings: SolverSettings) -> list[float]:
    grid = settings.grid()
    idx = sorted({0, settings.grid_steps // 4, settings.grid_steps // 2,
                  3 * settings.grid_steps // 4, settings.grid_steps})
    return [float(grid[j]) for j in idx]


# each solver by name, called with the output times: its rows at those times
_SOLVERS = {
    "ode": lambda exp, times: integrate_ode(exp.cfg, exp.omega0, exp.settings, times),
    "recursion": lambda exp, times: recursive_solve(exp.cfg, exp.omega0, exp.settings, times),
    "semigroup": lambda exp, times: Trajectory(
        np.asarray(times), exp.cfg.sites,
        np.vstack([m.values for m in semigroup_path(exp.cfg, exp.omega0, times)])),
}


def cmd_solve(args, exp: ExperimentConfig) -> _Run:
    method = args.method
    meta: dict = {"method": method, "settings": dataclasses.asdict(exp.settings)}
    solved: dict[str, Trajectory] = {}
    runtimes: dict[str, float] = {}
    wanted = tuple(_SOLVERS) if method == "all" else (method,)
    times = exp.output_times
    if times is None:
        times = _comparison_times(exp.settings)
    for name in wanted:
        tic = time.perf_counter()
        solved[name] = _SOLVERS[name](exp, times)
        runtimes[name] = time.perf_counter() - tic
    meta["runtimes_seconds"] = runtimes
    if "ode" in solved:
        meta["ode_mass_drift"] = solved["ode"].mass_drift
    if method == "all":
        table = []
        # row j of every trajectory in solved is its row at times[j]
        for j, t in enumerate(times):
            row = {"t": t}
            for a, b in itertools.combinations(wanted, 2):
                diff = solved[a].values[j] - solved[b].values[j]
                row[f"l1_{a}_{b}"] = float(np.abs(diff).sum())
            table.append(row)
        meta["pairwise_l1"] = table
        meta["max_pairwise_l1"] = max(
            v for row in table for k, v in row.items() if k != "t"
        )
    files = {f"solve_{name}.csv": traj for name, traj in solved.items()}
    files["solve_meta.json"] = meta
    return _Run(files, f"solve: wrote {len(wanted)} trajectory file(s) to {Path(args.out)}")


# -- dual ------------------------------------------------------------------


def cmd_dual(args, exp: ExperimentConfig) -> _Run:
    seed, replicates = _seed_and_replicates(args, exp)
    flavors = _FLAVORS if exp.dual_flavor == "all" else (exp.dual_flavor,)
    t = exp.settings.t_max
    _check_line_counts(exp.cfg, t, flavors)
    reference = semigroup_solve(exp.cfg, exp.omega0, t)
    results = {}
    worst = 0.0
    estimates = _flavor_estimates(exp.cfg, exp.omega0, t, replicates, seed, flavors)
    for flavor, est in estimates.items():
        z = est.z_scores(reference)
        worst = max(worst, float(np.max(np.abs(z))))
        results[flavor] = {
            "estimate": est.mean.to_dict(),
            "stderr": [float(v) for v in est.stderr],
            "z_vs_ode": [float(v) for v in z],
            "max_abs_z": float(np.max(np.abs(z))),
        }
    payload = {
        "t": t,
        "replicates": replicates,
        "seed": seed,
        "reference": reference.to_dict(),
        "flavors": results,
        "max_abs_z": worst,
        "z_threshold": exp.z_threshold,
    }
    return _Run({"dual_estimates.json": payload},
                f"dual: max |z| vs forward solution {worst:.3f} over {flavors}")


# -- moran -------------------------------------------------------------------


def cmd_moran(args, exp: ExperimentConfig) -> _Run:
    seed, replicates = _seed_and_replicates(args, exp, "moran_replicates")
    report = lln_convergence(
        exp.cfg,
        exp.omega0,
        exp.settings.t_max,
        exp.moran_population_sizes,
        replicates,
        seed,
    )
    payload = {"t": exp.settings.t_max, **report.to_dict()}
    summary = (
        "moran: mean l1 "
        + ", ".join(
            f"N={N}: {d:.4g}"
            for N, d in zip(report.population_sizes, report.mean_distance)
        )
        + "; slope " + ("n/a" if report.slope is None else f"{report.slope:.3f}")
    )
    return _Run({"moran_lln.json": payload}, summary)


# -- asymptotics ----------------------------------------------------------------


def cmd_asymptotics(args, exp: ExperimentConfig) -> _Run:
    try:
        limit = asymptotic_limit(exp.cfg, exp.omega0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    T = equilibration_time(exp.cfg, exp.omega0, eps=5e-5)
    T = max(T, exp.settings.t_max)
    times = np.linspace(0.0, T, exp.settings.grid_steps + 1).tolist()
    dist = [l1_distance(m, limit) for m in semigroup_path(exp.cfg, exp.omega0, times)]
    payload = {
        "limit": limit.to_dict(),
        "horizon": float(T),
        "final_distance": dist[-1],
    }
    files = {
        "asymptotics_convergence.csv": (["t", "l1_to_limit"], zip(times, dist)),
        "asymptotics_limit.json": payload,
    }
    return _Run(files,
                f"asymptotics: distance {dist[-1]:.3e} to the product limit at t={T:.3g}")


# -- linkage decay ---------------------------------------------------------------


def cmd_ld(args, exp: ExperimentConfig) -> _Run:
    # the residuals cover the whole grid; no solution row is read
    _, residuals = ld_decay_residuals(exp.cfg, exp.omega0, exp.settings, ())
    times = exp.settings.grid()
    levels = []
    for level, res in enumerate(residuals, start=1):
        norms = res["lhs_norms"]
        rate = res["rate"]
        fitted = float("nan")
        floor = max(1e-12, 1e-6 * float(norms.max()), 1e-6 * float(res["below_norms"].max()))
        ok = (norms > floor) & (res["below_norms"] > floor)
        # a slope needs two distinct times: at t_max 0 every grid time is 0
        if rate > 0.0 and np.unique(times[ok]).size >= 2:
            ratio = np.log(norms[ok] / res["below_norms"][ok])
            fitted = float(np.polyfit(times[ok], ratio, 1)[0])
        levels.append({
            "level": level,
            "site": res["site"],
            "nominal_rate": rate,
            "fitted_rate": None if np.isnan(fitted) else -fitted,
            "max_relative_error": res["max_relative_error"],
        })
    columns = ["t"] + [f"level_{row['level']}" for row in levels]
    rows = zip(times, *(res["lhs_norms"] for res in residuals))
    summary = "ld: " + "; ".join(
        f"site {row['site']}: nominal {row['nominal_rate']:.3g}, fitted "
        + (f"{row['fitted_rate']:.3g}" if row["fitted_rate"] is not None else "n/a")
        for row in levels
    )
    return _Run({"ld_norms.csv": (columns, rows), "ld_rates.json": {"levels": levels}},
                summary)


# -- verify -----------------------------------------------------------------------


def _gate(name: str, worst: float, tol: float, **report) -> dict:
    """A threshold check: it passes when worst <= tol."""
    return {"name": name, "passed": bool(worst <= tol), **report, "tolerance": tol}


def _check_solver_agreement(
    exp: ExperimentConfig, ode_traj: Trajectory, rec_traj: Trajectory
) -> dict:
    t = exp.settings.t_max
    ode = ode_traj.final()
    rec = rec_traj.final()
    semi = semigroup_solve(exp.cfg, exp.omega0, t)
    pair = {
        "ode_recursion": l1_distance(ode, rec),
        "ode_semigroup": l1_distance(ode, semi),
        "recursion_semigroup": l1_distance(rec, semi),
    }
    return _gate("solver_agreement", max(pair.values()), exp.agreement_tol,
                 pairwise_l1={k: float(v) for k, v in pair.items()})


def _check_product_algebra(exp: ExperimentConfig, seed: int) -> dict:
    rng = spawn_stream(seed, 101)
    cfg = exp.cfg
    worst = 0.0
    for _ in range(50):
        sets = []
        for _ in range(3):
            k = int(rng.integers(1, cfg.n + 1))
            sets.append(tuple(sorted(rng.choice(cfg.sites, size=k, replace=False))))
        mus = []
        for sites_ in sets:
            v = rng.random(2 ** len(sites_))
            mus.append(ProbabilityMeasure(sites_, v / v.sum()))
        left = boxtimes(boxtimes(mus[0], mus[1]), mus[2])
        right = boxtimes(mus[0], boxtimes(mus[1], mus[2]))
        worst = max(worst, float(np.abs(left.values - right.values).sum()))
    return _gate("product_associativity", worst, 1e-12, max_deviation=worst)


def _check_ld_identity(residuals: list[dict]) -> dict:
    worst = max([0.0, *(res["max_relative_error"] for res in residuals)])
    return _gate("ld_decay_identity", worst, 1e-4, max_relative_error=worst)


def _check_selection_duality(exp: ExperimentConfig) -> dict:
    cfg = exp.cfg
    nu = exp.omega0
    f0 = fit_fraction(nu, cfg.i_star)
    worst = 0.0
    for t in (0.3, 1.0):
        for k in (1, 2, 5):
            lhs = ancestor_mixture(cfg, k, selection_flow(cfg, nu, t))
            g = yule_pgf(cfg.s, t, 1.0 - f0)
            y = g ** k
            rhs = cond_unfit(nu, cfg.i_star).scale(y).add(
                cond_fit(nu, cfg.i_star).scale(1.0 - y)
            )
            worst = max(worst, l1_distance(lhs, rhs))
    return _gate("selection_duality_closed_form", worst, 1e-12, max_l1=worst)


def _mc_time(exp: ExperimentConfig) -> float:
    """The time of verify's Monte Carlo checks."""
    return min(1.0, exp.settings.t_max) if exp.settings.t_max > 0 else 1.0


def _check_mc(exp: ExperimentConfig, seed: int, replicates: int) -> list[dict]:
    """Duality checks, then solution estimates, of the three flavors against
    the closed form at one time.  Each sampler draws once per seed: the
    partition entries take the counts draws, and the partition duality
    check keeps its own forward side, `duality_partition`."""
    cfg = exp.cfg
    t = _mc_time(exp)
    reps = min(replicates, 50_000)
    reference = semigroup_solve(cfg, exp.omega0, t)
    forward = {f: _duality_function(cfg, _canonical_start(cfg, f), reference) for f in _FLAVORS}
    z = {}
    for check, offset in (("duality_mc", 7), ("solution_mc", 13)):
        estimates = _flavor_estimates(cfg, exp.omega0, t, reps, seed + offset, _FLAVORS)
        for flavor, est in estimates.items():
            target = forward[flavor] if check == "duality_mc" else reference
            z[f"{check}_{flavor}"] = float(np.max(np.abs(est.z_scores(target))))
    return [_gate(name, v, exp.z_threshold, max_abs_z=v, replicates=reps)
            for name, v in z.items()]


def _check_marginals(exp: ExperimentConfig, full: Trajectory) -> dict:
    """Every subset's marginal model, solved in closed form, against the
    projection of the full ODE solution."""
    cfg = exp.cfg
    final = full.final()
    worst = 0.0
    others = [i for i in cfg.sites if i != cfg.i_star]
    for mask in range(2 ** len(others)):
        subset = [cfg.i_star] + [a for j, a in enumerate(others) if (mask >> j) & 1]
        model = cfg.marginal(subset)
        start = Measure(model.sites, exp.omega0.project(subset).values)
        sub = semigroup_solve(model, start, exp.settings.t_max)
        proj = final.project(subset)
        worst = max(worst, l1_distance(sub, Measure(model.sites, proj.values)))
    return _gate("marginal_consistency", worst, exp.agreement_tol, max_l1=worst)


def _check_encoding(exp: ExperimentConfig, seed: int) -> dict:
    rng = spawn_stream(seed, 29)
    cfg = exp.cfg
    bad = 0
    for _ in range(200):
        m = rng.integers(0, 4, size=cfg.n)
        m[cfg.i_star - 1] = rng.integers(1, 5)
        wp = decode(m, cfg)
        if not np.array_equal(encode(wp, cfg), m):
            bad += 1
    return {
        "name": "encode_decode_roundtrip",
        "passed": bool(bad == 0),
        "failures": bad,
        "trials": 200,
    }


def cmd_verify(args, exp: ExperimentConfig) -> _Run:
    seed, replicates = _seed_and_replicates(args, exp)
    _check_line_counts(exp.cfg, _mc_time(exp), _FLAVORS)
    # the forward problems on the config's own settings, shared by the checks;
    # they read the end points only
    ode = integrate_ode(exp.cfg, exp.omega0, exp.settings, (exp.settings.t_max,))
    # one pass of the recursion gives its end point and the level residuals
    rec, residuals = ld_decay_residuals(exp.cfg, exp.omega0, exp.settings, (exp.settings.t_max,))
    checks = [
        _check_solver_agreement(exp, ode, rec),
        _check_product_algebra(exp, seed),
        _check_ld_identity(residuals),
        _check_selection_duality(exp),
        *_check_mc(exp, seed, replicates),
        _check_marginals(exp, ode),
        _check_encoding(exp, seed),
    ]
    ok = all(c["passed"] for c in checks)
    lines = [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}" for c in checks]
    lines.append(f"verify: {'all checks passed' if ok else 'FAILURES present'}")
    return _Run({"verify_report.json": {"seed": seed, "passed": ok, "checks": checks}},
                "\n".join(lines), 0 if ok else VERIFICATION_EXIT)


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selrec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"selrec {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, monte_carlo, help_ in (
        ("solve", cmd_solve, False, "integrate the forward dynamics"),
        ("dual", cmd_dual, True, "Monte Carlo estimates from the dual processes"),
        ("moran", cmd_moran, True, "finite-population convergence study"),
        ("verify", cmd_verify, True, "deterministic verification suite"),
        ("asymptotics", cmd_asymptotics, False, "long-time product limit"),
        ("ld", cmd_ld, False, "linkage decay along the recursion"),
    ):
        p = subs.add_parser(name, help=help_)
        if name == "solve":
            p.add_argument("--method", choices=[*_SOLVERS, "all"], default="all")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")
        if monte_carlo:
            p.add_argument("--seed", type=int, default=None, help="seed override")
            p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored, as is SELREC_THREADS: Monte Carlo "
                            "streams are keyed by (seed, block) with a fixed block size, "
                            "so no result or timing depends on it")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        exp = ExperimentConfig.from_file(args.config)
        _check_out(Path(args.out))
        run = args.func(args, exp)
        # the command has returned before any file is written, so a run
        # that fails leaves no partial output beside an earlier run's files
        _write_outputs(Path(args.out), exp, run.files)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    print(run.summary)
    return run.code


if __name__ == "__main__":
    sys.exit(main())
