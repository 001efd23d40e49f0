"""Experiment configuration: JSON loading, validation, hashing.

All rates are per unit time.  The initial condition is given either as a
full probability vector over the 2^n sequences (smallest site in the least
significant bit) or as independent per-site marginals.
"""
from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .duals import _FLAVORS
from .measure import MASS_TOL, NEG_TOL, ProbabilityMeasure, product_measure
from .sites import SiteConfig
from .solvers import SolverSettings, _grid_rows


# CPython's built-in SHA-256 rather than hashlib's: hashlib maps OpenSSL's
# libcrypto, a few MB resident.  numpy.random would load it too (through
# secrets and hmac), but rng imports it without them, so no command does
try:
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10, 3.11
    except ImportError:  # a build configured without the built-in hashes
        from hashlib import sha256 as _sha256


class ConfigError(ValueError):
    """Invalid experiment configuration."""


REQUIRED = object()  # the default of a key that has none

FLAVORS = (*_FLAVORS, "all")


class Field(NamedTuple):
    """One config key: its kind ("integer", "number", "integers" or "numbers"
    for a list of either, "flavor" or "initial"), its default, the bound that
    `check` holds it to (none where SiteConfig or SolverSettings checks the
    range), and the commands that read it."""

    kind: str
    default: object = REQUIRED
    bound: str | None = None
    read_by: tuple[str, ...] = ("solve", "dual", "moran", "verify", "asymptotics", "ld")


FIELDS = {
    "n": Field("integer"),
    "i_star": Field("integer"),
    "s": Field("number"),
    "rho": Field("numbers"),
    "initial": Field("initial"),
    "t_max": Field("number", 1.0),
    "grid_steps": Field("integer", 512, read_by=("solve", "verify", "asymptotics", "ld")),
    "quad_tol": Field("number", 1e-7, read_by=("solve", "verify", "ld")),
    "output_times": Field("numbers", None, read_by=("solve",)),
    "seed": Field("integer", 0, ">= 0", ("dual", "moran", "verify")),
    "replicates": Field("integer", 10_000, ">= 1", ("dual", "verify")),
    "dual_flavor": Field("flavor", "counts", read_by=("dual",)),
    "z_threshold": Field("number", 4.0, "> 0", ("dual", "verify")),
    "agreement_tol": Field("number", 1e-5, "> 0", ("verify",)),
    "moran_population_sizes": Field("integers", [100, 1000], ">= 1", ("moran",)),
    "moran_replicates": Field("integer", 10, ">= 2", ("moran",)),
}


def check(source: str, value, kind: str, bound: str | None = None):
    """value read as a config value of kind, else a ConfigError naming
    source.  A boolean is no number, and an integer has no fractional part.
    A bound (">= k" or "> k") holds for a number and for every entry of a
    list; a bounded list needs an entry and a bounded real must be finite."""
    if kind in ("integers", "numbers"):
        # one pass over the types, not a check per entry of a 2^n vector
        if not isinstance(value, list) or not set(map(type, value)) <= {int, float} or (
                bound and not value):
            raise ConfigError(f"{source} must be a {'non-empty ' if bound else ''}list of "
                              f"{kind}, got {reprlib.repr(value)}")
        if kind == "integers" or bound:
            return [check(source, v, kind[:-1], bound) for v in value]
    elif kind == "flavor":
        if value not in FLAVORS:
            raise ConfigError(f"{source} must be one of {', '.join(FLAVORS)}, got {value!r}")
        return value
    elif type(value) not in (int, float) or (
            kind == "integer" and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{source} must be {'an integer' if kind == 'integer' else 'a number'}"
                          f", got {value!r}")
    try:
        if kind == "numbers":
            return list(map(float, value))
        value = int(value) if kind == "integer" else float(value)
    except OverflowError:
        raise ConfigError(f"{source} is beyond the float range") from None
    if bound:
        relation, limit = bound.split()
        within = value > float(limit) if relation == ">" else value >= float(limit)
        if not within or value == math.inf:
            finite = "a finite number " if kind == "number" else ""
            raise ConfigError(f"{source} must be {finite}{bound}, got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    # SHA-256 hex digest of the config's canonical JSON: sorted keys, ","
    # and ":" separators.  Taken once on loading; the parsed JSON, its 2^n
    # initial entries included, is not kept
    config_hash: str
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

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        p = Path(path)
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(FIELDS)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        values = {}
        for key, field in FIELDS.items():
            value = raw.get(key, field.default)
            if value is REQUIRED:
                raise ConfigError(f"missing required config field: {key}")
            # null stands for the default only where the default is null
            if field.kind != "initial" and (value is not None or field.default is not None):
                value = check(key, value, field.kind, field.bound)
            values[key] = value
        try:
            cfg = SiteConfig(**{k: values.pop(k) for k in ("n", "i_star", "s", "rho")})
        except ValueError as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from exc
        omega0 = _parse_initial(cfg, values.pop("initial"))
        try:
            settings = SolverSettings(
                **{k: values.pop(k) for k in ("t_max", "grid_steps", "quad_tol")})
        except ValueError as exc:
            raise ConfigError(f"invalid solver settings: {exc}") from exc
        times = values["output_times"]
        if times is not None:
            if not times:
                raise ConfigError("output_times is empty: give at least one time, "
                                  "or null for the comparison times")
            if not all(0 <= t <= settings.t_max + 1e-12 for t in times):
                raise ConfigError("output_times must lie in [0, t_max]")
            try:
                _grid_rows(settings.grid(), times)
            except ValueError as exc:
                spacing = settings.t_max / settings.grid_steps
                raise ConfigError(f"output {exc} of spacing {spacing!r}") from None
        canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        return cls(config_hash=_sha256(canon.encode()).hexdigest(),
                   cfg=cfg, omega0=omega0, settings=settings, **values)


def _parse_initial(cfg: SiteConfig, raw) -> ProbabilityMeasure:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError('initial must be {"vector": [...]} or {"product": [[p0, p1], ...]}')
    if "vector" in raw:
        vals = np.asarray(check("initial vector", raw["vector"], "numbers"))
        if vals.shape != (2 ** cfg.n,):
            raise ConfigError(f"initial vector needs 2^n = {2 ** cfg.n} entries, got {vals.size}")
        if vals.min(initial=0.0) < -NEG_TOL:
            raise ConfigError("initial vector has a negative entry")
        total = float(vals.sum())
        if not abs(total - 1.0) <= MASS_TOL:
            raise ConfigError(f"initial vector mass {total!r} deviates from 1 beyond {MASS_TOL}")
        return ProbabilityMeasure(cfg.sites, vals / total)
    if "product" in raw:
        margs = raw["product"]
        if not isinstance(margs, list) or len(margs) != cfg.n:
            raise ConfigError(f"initial product needs {cfg.n} per-site marginals, "
                              f"got {reprlib.repr(margs)}")
        ones = []
        for j, pair in enumerate(margs):
            pair = np.asarray(check(f"initial marginal {j}", pair, "numbers"))
            if pair.shape != (2,):
                raise ConfigError(f"initial marginal {j} must be a pair [p0, p1]")
            if pair.min() < -NEG_TOL:
                raise ConfigError(f"initial marginal {j} has a negative entry")
            total = float(pair.sum())
            if not abs(total - 1.0) <= MASS_TOL:
                raise ConfigError(f"initial marginal {j} mass {total!r} deviates from 1")
            ones.append(float(pair[1]) / total)
        return product_measure(cfg.sites, ones)
    raise ConfigError('initial must contain exactly one of "vector" or "product"')
