"""Experiment configuration: JSON loading, validation, hashing.

All rates are per unit time.  The initial condition is given either as a
full probability vector over the 2^n sequences (smallest site in the least
significant bit) or as independent per-site marginals.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measure import MASS_TOL, NEG_TOL, ProbabilityMeasure, product_measure
from .sites import SiteConfig
from .solvers import SolverSettings, grid_index


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_KNOWN_KEYS = {
    "n",
    "i_star",
    "s",
    "rho",
    "initial",
    "t_max",
    "grid_steps",
    "ode_step",
    "quad_tol",
    "output_times",
    "seed",
    "replicates",
    "dual_flavor",
    "z_threshold",
    "agreement_tol",
    "moran_population_sizes",
    "moran_replicates",
}


@dataclass
class ExperimentConfig:
    raw: dict
    cfg: SiteConfig
    omega0: ProbabilityMeasure
    settings: SolverSettings
    output_times: list[float] | None
    seed: int
    replicates: int
    dual_flavor: str
    z_threshold: float
    agreement_tol: float
    moran_population_sizes: list[int]
    moran_replicates: int

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key in ("n", "i_star", "s", "rho", "initial"):
            if key not in raw:
                raise ConfigError(f"missing required config field: {key}")
        try:
            cfg = SiteConfig(
                n=_integer("n", raw["n"]),
                i_star=_integer("i_star", raw["i_star"]),
                s=float(raw["s"]),
                rho=tuple(float(r) for r in raw["rho"]),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from exc
        omega0 = _parse_initial(cfg, raw["initial"])
        try:
            settings = SolverSettings(
                t_max=float(raw.get("t_max", 1.0)),
                grid_steps=_integer("grid_steps", raw.get("grid_steps", 512)),
                ode_step=(
                    float(raw["ode_step"])
                    if raw.get("ode_step") is not None
                    else None
                ),
                quad_tol=float(raw.get("quad_tol", 1e-7)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid solver settings: {exc}") from exc
        times = raw.get("output_times")
        if times is not None:
            times = [float(t) for t in times]
            if not times:
                raise ConfigError(
                    "output_times is empty: give at least one time, or null "
                    "for the comparison times"
                )
            if not all(0 <= t <= settings.t_max + 1e-12 for t in times):
                raise ConfigError("output_times must lie in [0, t_max]")
            grid = settings.grid()
            for t in times:
                try:
                    grid_index(grid, t)
                except ValueError as exc:
                    spacing = settings.t_max / settings.grid_steps
                    raise ConfigError(f"output {exc} of spacing {spacing!r}") from None
        flavor = str(raw.get("dual_flavor", "counts"))
        if flavor not in ("counts", "partition", "runtimes", "all"):
            raise ConfigError(f"unknown dual_flavor: {flavor}")
        sizes = [_integer("moran_population_sizes", N)
                 for N in raw.get("moran_population_sizes", [100, 1000])]
        if any(N < 1 for N in sizes):
            raise ConfigError("moran_population_sizes must be >= 1")
        return cls(
            raw=raw,
            cfg=cfg,
            omega0=omega0,
            settings=settings,
            output_times=times,
            seed=_integer("seed", raw.get("seed", 0)),
            replicates=_integer("replicates", raw.get("replicates", 10_000)),
            dual_flavor=flavor,
            z_threshold=_finite("z_threshold", raw.get("z_threshold", 4.0)),
            agreement_tol=_finite("agreement_tol", raw.get("agreement_tol", 1e-5)),
            moran_population_sizes=sizes,
            moran_replicates=_integer("moran_replicates", raw.get("moran_replicates", 10)),
        )


def _integer(key: str, value) -> int:
    """An integer field; a boolean or a number with a fractional part is
    refused rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _finite(key: str, value) -> float:
    """A real field; NaN and +-Infinity are refused."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


def _parse_initial(cfg: SiteConfig, raw) -> ProbabilityMeasure:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError(
            'initial must be {"vector": [...]} or {"product": [[p0, p1], ...]}'
        )
    if "vector" in raw:
        vals = np.asarray(raw["vector"], dtype=float)
        if vals.shape != (2 ** cfg.n,):
            raise ConfigError(
                f"initial vector needs 2^n = {2 ** cfg.n} entries, got {vals.size}"
            )
        if vals.min(initial=0.0) < -NEG_TOL:
            raise ConfigError("initial vector has a negative entry")
        total = float(vals.sum())
        if not abs(total - 1.0) <= MASS_TOL:
            raise ConfigError(
                f"initial vector mass {total!r} deviates from 1 beyond {MASS_TOL}"
            )
        return ProbabilityMeasure(cfg.sites, vals / total)
    if "product" in raw:
        margs = raw["product"]
        if len(margs) != cfg.n:
            raise ConfigError(f"product initial needs {cfg.n} per-site marginals")
        ones = []
        for j, pair in enumerate(margs):
            pair = np.asarray(pair, dtype=float)
            if pair.shape != (2,):
                raise ConfigError(f"marginal {j} must be a pair [p0, p1]")
            if pair.min() < -NEG_TOL:
                raise ConfigError(f"marginal {j} has a negative entry")
            total = float(pair.sum())
            if not abs(total - 1.0) <= MASS_TOL:
                raise ConfigError(f"marginal {j} mass {total!r} deviates from 1")
            ones.append(float(pair[1]) / total)
        return product_measure(cfg.sites, ones)
    raise ConfigError('initial must contain exactly one of "vector" or "product"')
