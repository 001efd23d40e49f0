"""Seeded workload definitions for the selrec benchmark.

Each workload is one ``selrec`` subcommand on a config generated from the
benchmark seed, plus a check of the files the command writes.  The program
only ever sees the generated JSON.

Rates are drawn stratified: the k-th of m crossover sites gets a rate from
the k-th of m equal slices of the range, and the rates are then placed on
the sites in a seeded random order.  The amount of work (how often sites
start, how many distinct started-site sets the duality evaluator caches, how
many Moran events fire) depends mostly on the multiset of rates, so
stratifying keeps the work per seed steady while the values still change
with the seed.

Replicate counts go into the config, never through ``--replicates``:
``selrec verify`` ignores that flag and always reads ``replicates`` from the
config.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"selrec-bench:{name}:{seed}")


def _dirichlet(rng: random.Random, k: int) -> list[float]:
    """Random probability vector with k entries: Dirichlet(1), each weight
    floored at 1e-3 before normalising so that no type is vanishingly rare."""
    g = [rng.gammavariate(1.0, 1.0) + 1e-3 for _ in range(k)]
    total = sum(g)
    return [x / total for x in g]


def _stratified_rates(rng: random.Random, m: int, lo: float, hi: float) -> list[float]:
    width = (hi - lo) / m
    return [lo + width * (k + rng.random()) for k in range(m)]


def _place_rates(rng: random.Random, rates: list[float], i_star: int) -> list[float]:
    """Crossover rates in seeded random site order; 0 at the selected site."""
    rates = list(rates)
    rng.shuffle(rates)
    rates.insert(i_star - 1, 0.0)
    return rates


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def verify_config(seed: int, replicates: int = 4000) -> dict:
    rng = _rng(seed, "verify-n3")
    return {
        "n": 3,
        "i_star": 2,
        "s": 0.8,
        "rho": [rng.uniform(0.8, 1.0), 0.0, rng.uniform(0.4, 0.6)],
        "initial": {"vector": _dirichlet(rng, 8)},
        "t_max": 1.0,
        "grid_steps": 512,
        "quad_tol": 1e-7,
        "seed": _mc_seed(rng),
        "replicates": replicates,
        "dual_flavor": "all",
        "z_threshold": 4.5,
        "agreement_tol": 1e-5,
    }


def dual_config(seed: int, n: int = 10, replicates: int = 1500) -> dict:
    # Two crossover sites get rate 0 and the others start with probability
    # 0.55 to 0.75 by t=1, so the sampled started-site sets cover all 2^(n-3)
    # possibilities in nearly every run: the basis cache fills completely and
    # its cost no longer hinges on which rare large sets a seed happens to hit.
    rng = _rng(seed, "dual-n10")
    i_star = (n + 1) // 2
    return {
        "n": n,
        "i_star": i_star,
        "s": 0.8,
        "rho": _place_rates(rng, _stratified_rates(rng, n - 3, 0.8, 1.4) + [0.0, 0.0], i_star),
        "initial": {"vector": _dirichlet(rng, 2**n)},
        "t_max": 1.0,
        "grid_steps": 64,
        "quad_tol": 1e-7,
        "seed": _mc_seed(rng),
        "replicates": replicates,
        "dual_flavor": "counts",
        "z_threshold": 4.5,
    }


def solve_config(seed: int, n: int = 12, grid_steps: int = 128) -> dict:
    rng = _rng(seed, "solve-n12")
    i_star = n // 2
    return {
        "n": n,
        "i_star": i_star,
        "s": 0.8,
        "rho": _place_rates(rng, _stratified_rates(rng, n - 1, 0.05, 0.4), i_star),
        "initial": {"vector": _dirichlet(rng, 2**n)},
        "t_max": 1.0,
        "grid_steps": grid_steps,
        "quad_tol": 1e-5,
        "seed": _mc_seed(rng),
        "agreement_tol": 1e-4,
    }


def moran_config(seed: int, population_sizes=(10_000, 100_000), replicates: int = 2) -> dict:
    # The rates are scaled to sum 1.8.  That fixes the event rate
    # N * (1 + s + sum(rho)) and the share of recombination events, which
    # cost more per event than the others.
    rng = _rng(seed, "moran-n4")
    rates = _stratified_rates(rng, 3, 0.2, 1.0)
    rates = [1.8 * r / sum(rates) for r in rates]
    return {
        "n": 4,
        "i_star": 2,
        "s": 0.8,
        "rho": _place_rates(rng, rates, 2),
        "initial": {"vector": _dirichlet(rng, 16)},
        "t_max": 1.0,
        "grid_steps": 64,
        "quad_tol": 1e-7,
        "seed": _mc_seed(rng),
        "moran_population_sizes": list(population_sizes),
        "moran_replicates": replicates,
    }


# -- output checks: each returns None when the output is correct, else why not


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_verify(out: Path, config: dict) -> str | None:
    report = _read_json(out / "verify_report.json")
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or not report["passed"]:
        return f"verify checks failed: {failed}"
    return None


def check_dual(out: Path, config: dict) -> str | None:
    z = _read_json(out / "dual_estimates.json")["max_abs_z"]
    if not z <= config["z_threshold"]:
        return f"max |z| {z} exceeds z_threshold {config['z_threshold']}"
    return None


def check_solve(out: Path, config: dict) -> str | None:
    l1 = _read_json(out / "solve_meta.json")["max_pairwise_l1"]
    if not l1 <= config["agreement_tol"]:
        return f"max pairwise l1 {l1} exceeds agreement_tol {config['agreement_tol']}"
    return None


def check_moran(out: Path, config: dict) -> str | None:
    dist = _read_json(out / "moran_lln.json")["mean_distance"]
    if not dist[-1] < dist[0]:
        return f"mean l1 does not shrink with the population size: {dist}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    make_config: Callable[..., dict]
    check: Callable[[Path, dict], str | None]
    # the self-time group (see tracer.stress_groups) it is meant to dominate
    stresses: str
    # sizes for the quick smoke test; the defaults of make_config are the
    # benchmark sizes
    tiny: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-n3",
            why=(
                "the canonical user run on the shipped example shape; sampler-bound "
                "(ypir_simulate, spawn_stream, resetting_rates), basis cache always hot"
            ),
            argv=("verify", "--threads", "2"),
            make_config=verify_config,
            stresses="sampling",
            check=check_verify,
            tiny={"replicates": 200},
        ),
        Workload(
            name="dual-n10",
            why=(
                "evaluation-bound: boxtimes builds bases for many distinct started-site "
                "sets, the cache sets peak memory; a faster sampler shows little here"
            ),
            argv=("dual",),
            make_config=dual_config,
            stresses="evaluation",
            check=check_dual,
            tiny={"n": 5, "replicates": 100},
        ),
        Workload(
            name="solve-n12",
            why=(
                "solver- and output-bound: RK4 rhs, the level recursion and the "
                "trajectory CSV writer at n=12"
            ),
            argv=("solve", "--method", "all"),
            make_config=solve_config,
            stresses="solvers",
            check=check_solve,
            tiny={"n": 5, "grid_steps": 64},
        ),
        Workload(
            name="moran-n4",
            why="the Moran per-event loop, measured by no other workload",
            argv=("moran",),
            make_config=moran_config,
            stresses="moran.simulate",
            check=check_moran,
            tiny={"population_sizes": (100, 2000), "replicates": 2},
        ),
    )
}
