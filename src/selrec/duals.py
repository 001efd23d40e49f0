"""Genealogical dual processes and stochastic representations.

Three equivalent pictures of the ancestry of a sampled individual:

* a vector of per-site line counts, each evolving independently as a
  branching count with initiation and resetting,
* a weighted interval partition of the sites,
* a vector of per-site run times (elapsed time since the count last reset),
  with an undefined marker for counts that never started.

Each picture pairs with the forward dynamics through a duality function;
Monte Carlo averages of these functions reproduce the deterministic
solution.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .measure import (
    Measure,
    ProbabilityMeasure,
    boxtimes,
    cond_fit,
    cond_unfit,
    fit_fraction,
    tensor,
)
from .partitions import WeightedPartition, decode, encode
from .rng import spawn_stream
from .sites import SiteConfig
from .solvers import (
    _DualityChain,
    _check_time,
    _integral,
    _renewal_density,
    _started_mass_pgf,
    logistic_fit_fraction,
    selection_flow,
    semigroup_solve,
    yule_pgf,
)


# -- single-site line count -----------------------------------------------

def _site_rates(cfg: SiteConfig, i: int) -> tuple[float, float, float]:
    return cfg.s, cfg.rho_of(i), cfg.resetting_rate(i)


def ypir_simulate(cfg: SiteConfig, i: int, k0: int, t: float, rng) -> int:
    """Exact event-by-event run of one site's line count up to time t.

    From 0 the count jumps to 1 at the site's crossover rate; a positive
    count k branches to k+1 at rate s*k and resets to 1 at the site's
    resetting rate.
    """
    if k0 < 0:
        raise ValueError("count must be >= 0")
    _check_time(t)
    s, rho, r = _site_rates(cfg, i)
    k = int(k0)
    clock = 0.0
    while True:
        total = rho if k == 0 else s * k + r
        if total <= 0.0:
            return k
        clock += rng.exponential(1.0 / total)
        if clock > t:
            return k
        if k == 0:
            k = 1
        elif rng.random() * total < s * k:
            k += 1
        else:
            k = 1


def ypir_vector_simulate(cfg: SiteConfig, m0, t: float, rng) -> np.ndarray:
    """Independent line counts at every site, started from m0."""
    m0 = np.asarray(m0, dtype=np.int64)
    if m0.shape != (cfg.n,):
        raise ValueError(f"need one count per site, length {cfg.n}")
    return np.array(
        [ypir_simulate(cfg, i, int(m0[i - 1]), t, rng) for i in cfg.sites],
        dtype=np.int64,
    )


# Line counts are drawn as int64.  A count started from m0 has mean about
# m0*exp(s*t); keeping that below exp(MAX_LOG_COUNT) ~ 1e13 keeps every draw
# far from 2^63 (~exp(43.7)), where geometric and negative-binomial draws wrap.
MAX_LOG_COUNT = 30.0


def _check_count_growth(cfg: SiteConfig, m0: np.ndarray, t: float) -> None:
    log_count = cfg.s * t + math.log(max(1, int(m0.max(initial=0))))
    if log_count > MAX_LOG_COUNT:
        raise ValueError(
            f"s*t = {cfg.s * t:.4g} with start counts up to {int(m0.max())}: the "
            f"mean line count m0*exp(s*t) must stay below exp({MAX_LOG_COUNT:g})"
        )


def _renewal_age(rng, size: int, rho: float, r: float, t: float, running: bool) -> np.ndarray:
    """Per replicate, the time back from t to one site's last renewal.

    Seen backward from t the resets form a Poisson process, so the last one
    lies at distance E ~ Exp(r).  A site running from time 0 has age E, or
    inf when E > t (no reset at all); an idle site starts at T ~ Exp(rho)
    and has age min(E, t - T), or nan when it has not started by t.
    """
    back = rng.exponential(1.0 / r, size) if r > 0.0 else np.full(size, np.inf)
    if running:
        return np.where(back <= t, back, np.inf)
    if rho == 0.0:
        return np.full(size, np.nan)
    start = rng.exponential(1.0 / rho, size)
    return np.where(start <= t, np.minimum(back, t - start), np.nan)


def ypir_block_simulate(cfg: SiteConfig, m0, t: float, rng, size: int) -> np.ndarray:
    """Exact line counts at time t for `size` independent replicates, all
    started from m0; one row per replicate, one column per site.

    Drawn site by site: after a renewal of age u the count is geometric
    with parameter exp(-s*u); a count that ran from m0 without a reset is
    m0 plus a negative binomial with parameter exp(-s*t).
    """
    m0 = np.asarray(m0, dtype=np.int64)
    if m0.shape != (cfg.n,):
        raise ValueError(f"need one count per site, length {cfg.n}")
    if np.any(m0 < 0):
        raise ValueError("counts must be >= 0")
    _check_time(t)
    _check_count_growth(cfg, m0, t)
    out = np.zeros((size, cfg.n), dtype=np.int64)
    resetting = cfg.resetting_rates()
    for i in cfg.sites:
        k0 = int(m0[i - 1])
        age = _renewal_age(rng, size, cfg.rho[i - 1], resetting[i - 1], t, k0 > 0)
        col = out[:, i - 1]
        renewed = np.isfinite(age)
        col[renewed] = rng.geometric(np.exp(-cfg.s * age[renewed]))
        if k0 > 0:
            held = np.isinf(age)
            col[held] = k0 + rng.negative_binomial(k0, math.exp(-cfg.s * t), int(held.sum()))
    return out


def _negbin_pmf(m: int, sigma: float, n: int) -> float:
    """Trials up to the m-th success."""
    if n < m:
        return 0.0
    if sigma >= 1.0:
        return 1.0 if n == m else 0.0
    if sigma <= 0.0:
        return 0.0
    return math.exp(
        math.lgamma(n)
        - math.lgamma(m)
        - math.lgamma(n - m + 1)
        + m * math.log(sigma)
        + (n - m) * math.log1p(-sigma)
    )


@dataclass(frozen=True)
class IntDistribution:
    """Distribution on nonnegative integers, truncated with reported tail."""

    probs: np.ndarray
    tail: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def support_end(self) -> int:
        return self.probs.size - 1

    def pgf(self, x: float) -> float:
        return float(np.polyval(self.probs[::-1], x))

    def mean(self) -> float:
        return float(self.probs @ np.arange(self.probs.size))

    def tv_distance(self, other: "IntDistribution") -> float:
        """Upper bound on total variation, counting both truncation tails."""
        k = max(self.probs.size, other.probs.size)
        p = np.zeros(k)
        q = np.zeros(k)
        p[: self.probs.size] = self.probs
        q[: other.probs.size] = other.probs
        return 0.5 * (float(np.abs(p - q).sum()) + self.tail + other.tail)

    @classmethod
    def point_mass(cls, n: int) -> "IntDistribution":
        p = np.zeros(n + 1)
        p[n] = 1.0
        return cls(p)


_COUNT_BATCH = 64


def _renewed_masses(s: float, rho: float, r: float, t: float, idle: bool):
    """Yield, for n = 1, 2, ..., the chance that one site's count renewed by
    time t and has since grown to n: the integral over the renewal age u of
    its density times sigma * (1 - sigma)^(n - 1), sigma = exp(-s*u).  An
    idle count starts at rate rho; after that, or when running from time 0,
    it resets at rate r.  Counts come in batches; within one the geometric
    factor is carried on the node vector from each count to the next."""
    for n in itertools.count(1, _COUNT_BATCH):
        def batch(u, n=n):
            q = -np.expm1(-s * u)
            geo = np.empty((_COUNT_BATCH, u.size))
            geo[0] = _renewal_density(rho, r, t, u, idle) * np.exp(-s * u) * q ** (n - 1)
            geo[1:] = q
            return np.cumprod(geo, axis=0, out=geo)

        yield from _integral(batch, t, max(s, rho, r)).tolist()


def ypir_semigroup(
    cfg: SiteConfig,
    i: int,
    m0: int,
    t: float,
    tail_tol: float = 1e-12,
    n_max: int = 100_000,
) -> IntDistribution:
    """Law of one site's line count at time t, started from m0.

    Conditioning on the last renewal collapses the law to one-dimensional
    integrals: with no renewal the count is a negative binomial of the
    start, after a renewal of age u it is geometric with parameter
    exp(-s*u).  Truncated once the accounted mass reaches 1 - tail_tol.
    """
    if m0 < 0:
        raise ValueError("count must be >= 0")
    _check_time(t)
    if t == 0.0:
        return IntDistribution.point_mass(m0)
    s, rho, r = _site_rates(cfg, i)
    sigma_t = math.exp(-s * t)
    renewed = _renewed_masses(s, rho, r, t, idle=m0 == 0)
    probs = [math.exp(-rho * t) if m0 == 0 else 0.0]
    cum = probs[0]
    small = 0
    for n, p in zip(range(1, n_max + 1), renewed):
        if m0 > 0:
            p += math.exp(-r * t) * _negbin_pmf(m0, sigma_t, n)
        probs.append(p)
        cum += p
        if 1.0 - cum < tail_tol:
            break
        small = small + 1 if p < tail_tol / 100.0 and n > m0 else 0
        if small >= 3:
            break
    return IntDistribution(np.array(probs), tail=max(0.0, 1.0 - cum))


def ypir_pgf(cfg: SiteConfig, i: int, m0: int, t: float, x: float) -> float:
    """E[x^(count at t)] started from m0, for x in [0, 1]."""
    if m0 < 0:
        raise ValueError("count must be >= 0")
    _check_time(t)
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    s, rho, r = _site_rates(cfg, i)
    if m0 == 0:
        return math.exp(-rho * t) + _started_mass_pgf(s, rho, r, t, x)
    return math.exp(-r * t) * yule_pgf(s, t, x) ** m0 + _started_mass_pgf(s, rho, r, t, x, False)


def ypir_stationary(
    cfg: SiteConfig,
    i: int,
    m0: int = 1,
    tail_tol: float = 1e-12,
    n_max: int = 1_000_000,
) -> IntDistribution:
    """Long-time law of one site's line count.

    Needs s > 0.  A site that never initiates (zero crossover rate) stays
    at 0 forever when started there; otherwise the limit law does not
    depend on the start: it is Yule-Simon with shape alpha = resetting
    rate / s, P(N = 1) = alpha / (alpha + 1) and P(N = m + 1) =
    P(N = m) * m / (m + alpha + 1), whose tail P(N > n) = n * B(n, alpha + 1)
    has a closed form.  The support ends at the first n whose tail falls
    below tail_tol, or at n_max.
    """
    if cfg.s <= 0.0:
        raise ValueError("the stationary law needs s > 0")
    s, rho, r = _site_rates(cfg, i)
    if rho == 0.0 and m0 == 0:
        return IntDistribution.point_mass(0)
    if r <= 0.0:
        raise ValueError(
            f"site {i} has no resetting; its count grows without a stationary law"
        )
    alpha = r / s

    def tail(n):
        return math.exp(math.log(n) + math.lgamma(n) + math.lgamma(alpha + 1.0)
                        - math.lgamma(n + alpha + 1.0))

    end = 1 + bisect.bisect_left(range(1, n_max), True, key=lambda n: tail(n) < tail_tol)
    m = np.arange(1.0, end)
    steps = np.concatenate(([alpha / (alpha + 1.0)], m / (m + alpha + 1.0)))
    return IntDistribution(np.concatenate(([0.0], np.cumprod(steps))), tail=tail(end))


# -- weighted partition picture ---------------------------------------------

def wpp_simulate(cfg: SiteConfig, wp: WeightedPartition, t: float, rng) -> WeightedPartition:
    """Run the weighted-partition process by running the equivalent
    independent per-site counts and decoding the result."""
    m = ypir_vector_simulate(cfg, encode(wp, cfg), t, rng)
    return decode(m, cfg)


# -- run-time picture ---------------------------------------------------------

class _DeltaType:
    """Marker for a count that has not started; distinct from every real."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Delta"


DELTA = _DeltaType()


@dataclass(frozen=True)
class InitiationState:
    """Per-site run times; DELTA marks a site whose count never started.

    The selected site always carries a real value.
    """

    entries: tuple

    def __post_init__(self):
        ent = []
        for e in self.entries:
            if e is DELTA:
                ent.append(DELTA)
            else:
                e = float(e)
                if not math.isfinite(e) or e < 0.0:
                    raise ValueError("run times must be finite and >= 0")
                ent.append(e)
        object.__setattr__(self, "entries", tuple(ent))

    def require_selected_real(self, cfg: SiteConfig) -> None:
        if len(self.entries) != cfg.n:
            raise ValueError(f"need one entry per site, length {cfg.n}")
        if self.entries[cfg.i_star - 1] is DELTA:
            raise ValueError("the selected site must carry a real run time")

    @classmethod
    def initial(cls, cfg: SiteConfig) -> "InitiationState":
        return cls(tuple(0.0 if i == cfg.i_star else DELTA for i in cfg.sites))

    def to_list(self) -> list:
        return ["Delta" if e is DELTA else float(e) for e in self.entries]

    @classmethod
    def from_list(cls, items: Iterable) -> "InitiationState":
        return cls(tuple(DELTA if x == "Delta" else float(x) for x in items))


def initiation_simulate(
    cfg: SiteConfig, state: InitiationState, t: float, rng
) -> InitiationState:
    """Advance every site's run time by t.

    An unstarted site starts (value 0) at its crossover rate; a running
    value drifts upward at unit speed and drops to 0 at the site's
    resetting rate.
    """
    state.require_selected_real(cfg)
    _check_time(t)
    out = []
    for i in cfg.sites:
        e = state.entries[i - 1]
        _, rho, r = _site_rates(cfg, i)
        clock = 0.0
        if e is DELTA:
            if rho == 0.0:
                out.append(DELTA)
                continue
            clock = rng.exponential(1.0 / rho)
            if clock > t:
                out.append(DELTA)
                continue
            e = 0.0
        val = float(e)
        if r > 0.0:
            while True:
                wait = rng.exponential(1.0 / r)
                if clock + wait > t:
                    break
                clock += wait
                val = 0.0
        out.append(val + (t - clock))
    return InitiationState(tuple(out))


def initiation_block_simulate(
    cfg: SiteConfig, state: InitiationState, t: float, rng, size: int
) -> np.ndarray:
    """Exact run times at time t for `size` independent replicates, all
    started from state; one row per replicate, one column per site, nan
    where the site has not started (DELTA)."""
    state.require_selected_real(cfg)
    _check_time(t)
    out = np.empty((size, cfg.n))
    resetting = cfg.resetting_rates()
    for i in cfg.sites:
        e = state.entries[i - 1]
        age = _renewal_age(rng, size, cfg.rho[i - 1], resetting[i - 1], t, e is not DELTA)
        out[:, i - 1] = age if e is DELTA else np.where(np.isinf(age), e + t, age)
    return out


# -- duality functions ----------------------------------------------------------

def ancestor_mixture(cfg: SiteConfig, k: int, nu: Measure) -> Measure:
    """Type law of an individual whose ancestry holds k potential lines:
    the unfit conditional survives only if all k lines are unfit."""
    if k < 0:
        raise ValueError("count must be >= 0")
    if k == 0:
        return Measure((), [1.0])
    y = (1.0 - fit_fraction(nu, cfg.i_star)) ** k
    b = cond_fit(nu, cfg.i_star)
    d = cond_unfit(nu, cfg.i_star)
    return Measure(nu.sites, y * d.values + (1.0 - y) * b.values)


def runtime_for_count(cfg: SiteConfig, f0: float, k: int) -> float:
    """Run time whose selection flow thins the unfit mass exactly as k
    independent lines would."""
    if not (0.0 < f0 < 1.0):
        raise ValueError("f0 must lie strictly between 0 and 1")
    if k < 1:
        raise ValueError("count must be >= 1")
    if k == 1:
        return 0.0
    if cfg.s == 0.0:
        raise ValueError("without selection only k = 1 has a matching run time")
    L = math.log1p(-f0)
    a = (1 - k) * L
    return (a + math.log1p(-math.exp(k * L)) - math.log(f0)) / cfg.s


def runtimes_from_counts(cfg: SiteConfig, f0: float, m) -> InitiationState:
    """Translate a count vector into the matching run-time state."""
    m = np.asarray(m, dtype=np.int64)
    entries = tuple(
        DELTA if k == 0 else runtime_for_count(cfg, f0, int(k)) for k in m
    )
    return InitiationState(entries)


def _validate_counts(cfg: SiteConfig, m) -> np.ndarray:
    m = np.asarray(m, dtype=np.int64)
    if m.shape != (cfg.n,):
        raise ValueError(f"need one count per site, length {cfg.n}")
    if np.any(m < 0):
        raise ValueError("counts must be >= 0")
    if m[cfg.i_star - 1] < 1:
        raise ValueError("the selected site must carry a positive count")
    return m


def duality_counts(
    cfg: SiteConfig, m, nu: Measure, order: Sequence[int] | None = None
) -> ProbabilityMeasure:
    """Duality function of the line-count picture.

    One ancestor-mixture factor per site with a positive count, restricted
    to the site's tail and multiplied outward from the selected site; the
    value does not depend on which compatible order is used.
    """
    m = _validate_counts(cfg, m)
    order = cfg.ordering(order)
    if nu.sites != cfg.sites:
        raise ValueError("nu must live on the full site set")
    acc = None
    for i in order:
        k = int(m[i - 1])
        if k == 0:
            continue
        factor = ancestor_mixture(cfg, k, nu).project(cfg.tail(i))
        acc = factor if acc is None else boxtimes(acc, factor)
    return ProbabilityMeasure(acc.sites, acc.values)


def duality_partition(cfg: SiteConfig, wp: WeightedPartition, nu: Measure) -> ProbabilityMeasure:
    """Duality function of the weighted-partition picture: independent
    blocks, each drawn from the ancestor mixture of its weight."""
    if wp.n != cfg.n:
        raise ValueError("partition size does not match the configuration")
    if nu.sites != cfg.sites:
        raise ValueError("nu must live on the full site set")
    out = Measure((), [1.0])
    for block, v in zip(wp.partition.blocks, wp.weights):
        out = tensor(out, ancestor_mixture(cfg, v, nu).project(block))
    return ProbabilityMeasure(out.sites, out.values)


def duality_runtimes(
    cfg: SiteConfig, theta: InitiationState, nu: Measure, order: Sequence[int] | None = None
) -> ProbabilityMeasure:
    """Duality function of the run-time picture: one selection-flow factor
    per started site, restricted to the site's tail."""
    theta.require_selected_real(cfg)
    if nu.sites != cfg.sites:
        raise ValueError("nu must live on the full site set")
    order = cfg.ordering(order)
    acc = None
    for i in order:
        e = theta.entries[i - 1]
        if e is DELTA:
            continue
        factor = selection_flow(cfg, nu, float(e)).project(cfg.tail(i))
        acc = factor if acc is None else boxtimes(acc, factor)
    return ProbabilityMeasure(acc.sites, acc.values)


def _duality_function(cfg: SiteConfig, start, nu: Measure) -> ProbabilityMeasure:
    """The duality function of the start's picture, evaluated at nu."""
    if isinstance(start, WeightedPartition):
        return duality_partition(cfg, start, nu)
    if isinstance(start, InitiationState):
        return duality_runtimes(cfg, start, nu)
    return duality_counts(cfg, start, nu)


# -- Monte Carlo representation --------------------------------------------------

# Replicates are drawn in blocks of this many, block b from stream (seed, b),
# so the draws depend on neither scheduling nor thread count.
BLOCK = 4096

# A block's duality values are evaluated and reduced in chunks of rows of at
# most this many bytes (one row at least), so a run holds a block's drawn
# states (BLOCK * n numbers) and a few chunks, whatever n and the replicates.
_CHUNK_BYTES = 1 << 20


# The partition picture is the count picture under `encode`, so a partition
# flavor draws the counts of its encoded start: two samplers, three flavors.
_SAMPLERS = {"counts": "counts", "partition": "counts", "runtimes": "runtimes"}
_FLAVORS = tuple(_SAMPLERS)


def _dual_rows(cfg, omega0, start, t, replicates, seed):
    """Per-replicate duality values from a count vector or an
    InitiationState start, handed back in chunks: pairs of replicate
    indices and their rows, at most _CHUNK_BYTES of rows each.  The rows
    are one buffer, which the next chunk overwrites.

    Each block's states are sorted stably by started-site set and cut into
    chunks in that order, so a chunk holds its states grouped by started
    set, and a group that crosses a chunk boundary is split between two
    chunks.  The start and the line-count growth are checked before this
    returns; a block's dual states at time t are drawn when its first chunk
    is asked for.  A partition start enters as its `encode`d counts.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    runtimes = isinstance(start, InitiationState)
    if runtimes:
        start.require_selected_real(cfg)
    else:
        _check_count_growth(cfg, start, t)
    f0 = fit_fraction(omega0, cfg.i_star)
    mixer = _DualityChain(cfg, omega0)
    width = 1 << cfg.n
    per_chunk = min(BLOCK, replicates, max(1, _CHUNK_BYTES // (8 * width)))
    # bit i - 1 of a started-set key marks site i
    bits = 1 << np.arange(cfg.n)

    def chunks():
        # one buffer for every chunk: fresh pages would fault on each write
        buf = np.empty((per_chunk, width))
        for b, lo in enumerate(range(0, replicates, BLOCK)):
            rng = spawn_stream(seed, b)
            size = min(BLOCK, replicates - lo)
            if runtimes:
                theta = initiation_block_simulate(cfg, start, t, rng, size)
                started = ~np.isnan(theta)
                dweights = 1.0 - logistic_fit_fraction(cfg.s, f0, theta)
            else:
                m = ypir_block_simulate(cfg, start, t, rng, size)
                started = m > 0
                dweights = mixer.y ** m
            keys = started @ bits
            order = np.argsort(keys, kind="stable")
            keys, dweights = keys[order], dweights[order]
            for a in range(0, size, per_chunk):
                stop = min(size, a + per_chunk)
                rows = buf[:stop - a]
                # the chunk's runs of states with one started set
                turns = np.flatnonzero(keys[a + 1:stop] != keys[a:stop - 1]) + a + 1
                edges = [a, *turns.tolist(), stop]
                for p, q in zip(edges, edges[1:]):
                    mixer.value(int(keys[p]), dweights[p:q], rows[p - a:q - a])
                yield lo + order[a:stop], rows

    return chunks()


def _check_line_counts(cfg: SiteConfig, t: float, flavors) -> None:
    """Refuse, before any work, a time t at which a flavor drawing line
    counts would draw them near int64 overflow."""
    if any(_SAMPLERS[f] == "counts" for f in flavors):
        _check_count_growth(cfg, _canonical_start(cfg, "counts"), t)


def _canonical_start(cfg: SiteConfig, flavor: str):
    if flavor == "counts":
        m = np.zeros(cfg.n, dtype=np.int64)
        m[cfg.i_star - 1] = 1
        return m
    if flavor == "partition":
        return WeightedPartition.initial(cfg.n)
    return InitiationState.initial(cfg)


@dataclass
class MCEstimate:
    """Monte Carlo estimate of the forward solution at one time."""

    mean: Measure
    stderr: np.ndarray
    flavor: str
    replicates: int
    seed: int

    def z_scores(self, reference: Measure) -> np.ndarray:
        # stderr is floored so that cells with (near) zero sample variance
        # compare at absolute precision instead of dividing by rounding dust
        diff = self.mean.values - reference.values
        return diff / np.maximum(self.stderr, 1e-13)


def _estimate(cfg: SiteConfig, chunks, flavor: str, seed: int) -> MCEstimate:
    """Mean and standard error over the (replicate indices, rows) chunks of
    _dual_rows, whose rows are consumed: the deviations overwrite them.

    Each chunk is reduced in two passes and merged into the running mean
    and sum of squared deviations with Chan's pairwise update, so a single
    chunk gives exactly the two-pass result.  The replicate indices are not
    read: the moments do not depend on which replicate a row belongs to.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for _, rows in chunks:
        size = rows.shape[0]
        bmean = rows.sum(axis=0) / size
        rows -= bmean
        bm2 = np.square(rows, out=rows).sum(axis=0)
        # from an empty start the update returns bmean and bm2 bit for bit
        delta = bmean - mean
        count += size
        mean = mean + delta * (size / count)
        m2 = m2 + bm2 + np.square(delta) * ((count - size) * size / count)
    var = m2 / max(1, count - 1)
    return MCEstimate(
        mean=Measure(cfg.sites, mean),
        stderr=np.sqrt(var / count),
        flavor=flavor,
        replicates=count,
        seed=seed,
    )


def mc_solution_estimate(
    cfg: SiteConfig,
    omega0: Measure,
    t: float,
    replicates: int,
    seed: int,
    flavor: str = "counts",
) -> MCEstimate:
    """Estimate the solution at time t by averaging a duality function over
    independent dual runs from the single-individual start; the partition
    flavor returns the counts draws."""
    if flavor not in _SAMPLERS:
        raise ValueError(f"flavor must be one of {_FLAVORS}")
    if omega0.sites != cfg.sites:
        raise ValueError("initial measure must live on the full site set")
    _check_time(t)
    start = _canonical_start(cfg, _SAMPLERS[flavor])
    chunks = _dual_rows(cfg, omega0, start, t, replicates, seed)
    return _estimate(cfg, chunks, flavor, seed)


def _flavor_estimates(cfg, omega0, t, replicates, seed, flavors) -> dict[str, MCEstimate]:
    """mc_solution_estimate of each flavor, with each sampler run once."""
    drawn = {s: mc_solution_estimate(cfg, omega0, t, replicates, seed, s)
             for s in dict.fromkeys(_SAMPLERS[f] for f in flavors)}
    return {f: replace(drawn[_SAMPLERS[f]], flavor=f) for f in flavors}


@dataclass
class DualityReport:
    """Comparison of a dual Monte Carlo average with the forward value."""

    flavor: str
    lhs: Measure
    mc_mean: Measure
    stderr: np.ndarray
    z: np.ndarray
    max_abs_z: float
    replicates: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "forward_value": self.lhs.to_dict(),
            "mc_mean": self.mc_mean.to_dict(),
            "stderr": [float(v) for v in self.stderr],
            "z": [float(v) for v in self.z],
            "max_abs_z": float(self.max_abs_z),
            "replicates": self.replicates,
            "seed": self.seed,
        }


def duality_check(
    cfg: SiteConfig,
    omega0: Measure,
    start,
    t: float,
    replicates: int,
    seed: int,
) -> DualityReport:
    """Verify one duality relation by Monte Carlo.

    The forward side evaluates the duality function with the fixed start at
    the solution at time t; the dual side averages the function, applied to
    the time-t dual state, over the initial measure.
    """
    if isinstance(start, WeightedPartition):
        flavor, drawn = "partition", encode(start, cfg)
    elif isinstance(start, InitiationState):
        flavor, drawn = "runtimes", start
    else:
        flavor, drawn = "counts", _validate_counts(cfg, start)
    # checks the start before the forward solve; draws come when estimated
    chunks = _dual_rows(cfg, omega0, drawn, t, replicates, seed)
    lhs = _duality_function(cfg, start, semigroup_solve(cfg, omega0, t))
    est = _estimate(cfg, chunks, flavor, seed)
    z = est.z_scores(lhs)
    return DualityReport(
        flavor=flavor,
        lhs=lhs,
        mc_mean=est.mean,
        stderr=est.stderr,
        z=z,
        max_abs_z=float(np.max(np.abs(z))) if z.size else 0.0,
        replicates=replicates,
        seed=seed,
    )
