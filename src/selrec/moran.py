"""Finite-population Moran model whose empirical type frequencies converge
to the deterministic dynamics as the population grows.

Types are bit-encoded sequences (bit j-1 holds the letter at site j).
Reproduction arrows are laid down type-blindly: neutral arrows at rate 1/N
per ordered pair, selective arrows at rate s/N per ordered pair that only
fire when the would-be parent is fit, and recombination arrows at rate
rho_i/N^2 per ordered triple, the offspring taking the head letters from
the first parent and the tail letters from the second.

The simulation draws whole chunks of events at once and applies them in
conflict-free runs: within a run no event reads or overwrites an individual
that an earlier event of the run writes, so a few numpy gathers and one
scatter per run reproduce the event-by-event realisation exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measure import ProbabilityMeasure, l1_distance
from .sites import SiteConfig
from .solvers import _check_time, semigroup_solve
from .rng import spawn_stream

_EVENT_CHUNK = 1 << 16


@dataclass
class MoranState:
    """Population of N bit-encoded types plus bookkeeping."""

    types: np.ndarray
    clock: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.types.size)


def sample_population(cfg: SiteConfig, N: int, omega0, rng) -> MoranState:
    """Independent draws from omega0."""
    if N < 1:
        raise ValueError("population size must be >= 1")
    if omega0.sites != cfg.sites:
        raise ValueError("initial measure must live on the full site set")
    p = np.clip(omega0.values, 0.0, None)
    p = p / p.sum()
    types = rng.choice(2 ** cfg.n, size=N, p=p).astype(np.int64)
    return MoranState(types=types)


def moran_simulate(
    cfg: SiteConfig,
    state: MoranState,
    t: float,
    rng,
    event_log: bool = False,
) -> MoranState:
    """Exact simulation over a window of length t.

    The total arrow rate is constant in the type configuration, so the
    event times form a Poisson stream; kinds and participants are drawn
    independently, chunk by chunk, and the arrows applied in order.
    Selective arrows are filtered on use: they copy only from a fit parent.

    The events are applied in runs.  A run starts at the first event not yet
    applied and takes at most ``2 * sqrt(N) + 1`` events; it ends before the
    first event whose offspring, parent or (for recombination) second
    parent is an individual that an earlier event of the run writes to.
    Within a run every write target is therefore distinct and no event
    reads a value written inside the run, so gathering all parents first
    and then scattering all offspring gives the population, counters and
    event log of applying the events one at a time.  Individuals are picked
    uniformly, so a run typically meets its first conflict after about
    sqrt(N) events; a longer window would only add work.
    """
    _check_time(t)
    N = state.size
    sites = cfg.crossover_sites
    kinds = ["neutral", "selective"] + [f"recombination_{i}" for i in sites]
    rates = np.array([float(N), cfg.s * N] + [cfg.rho_of(i) * N for i in sites])
    total = float(rates.sum())
    # per kind: the letters taken from the parent and from the second
    # parent; neutral and selective offspring copy the whole parent
    head = np.array(
        [2 ** cfg.n - 1] * 2 + [_bit_mask(cfg.head(i)) for i in sites], dtype=np.int64
    )
    tail = np.array([0, 0] + [_bit_mask(cfg.tail(i)) for i in sites], dtype=np.int64)
    fit_bit = cfg.i_star - 1
    types = state.types.copy()
    counters = dict(state.counters)
    log: list[tuple] = []
    n_events = rng.poisson(total * t) if total > 0.0 and t > 0.0 else 0
    times = np.sort(rng.uniform(0.0, t, size=n_events)) if event_log else None
    window = int(2.0 * np.sqrt(N)) + 1
    # first_write[x] is the first position in the current window that writes
    # to x, or `window` when none does
    first_write = np.full(N, window, dtype=np.int32)
    done = 0
    while done < n_events:
        chunk = min(_EVENT_CHUNK, n_events - done)
        kind_idx = rng.choice(rates.size, size=chunk, p=rates / total)
        alpha = rng.integers(0, N, size=chunk)
        beta = rng.integers(0, N, size=chunk)
        gamma = rng.integers(0, N, size=chunk)
        for k, count in enumerate(np.bincount(kind_idx, minlength=rates.size).tolist()):
            if count:
                counters[kinds[k]] = counters.get(kinds[k], 0) + count
        if event_log:
            log.extend(zip(
                times[done:done + chunk].tolist(),
                [kinds[k] for k in kind_idx.tolist()],
                alpha.tolist(),
                beta.tolist(),
                gamma.tolist(),
            ))
        _apply_in_runs(
            types, first_write, window, fit_bit, head, tail, kind_idx, alpha, beta, gamma
        )
        done += chunk
    out = MoranState(types=types, clock=state.clock + t, counters=counters)
    if event_log:
        out.counters["_event_log"] = log
    return out


def _apply_in_runs(
    types, first_write, window, fit_bit, head, tail, kind_idx, alpha, beta, gamma
):
    """Apply one chunk of events to types in place, one conflict-free run
    of at most `window` events at a time (see moran_simulate).  Its views
    of the chunk die on return, before the next chunk is drawn."""
    steps = np.arange(window, dtype=np.int32)
    chunk = kind_idx.size
    start = 0
    while start < chunk:
        stop = min(start + window, chunk)
        k = kind_idx[start:stop]
        a = alpha[start:stop]
        b = beta[start:stop]
        g = np.where(k >= 2, gamma[start:stop], b)
        pos = steps[: stop - start]
        np.minimum.at(first_write, a, pos)
        clash = (first_write[a] < pos) | (first_write[b] < pos) | (first_write[g] < pos)
        first_write[a] = window
        # the first event never clashes, so argmax 0 means no clash
        run = int(clash.argmax()) or stop - start
        k, a, b, g = k[:run], a[:run], b[:run], g[:run]
        parent = types[b]
        offspring = (parent & head[k]) | (types[g] & tail[k])
        keep = (k != 1) | ((parent >> fit_bit) & 1 == 0)
        types[a[keep]] = offspring[keep]
        start += run


def _bit_mask(sites) -> int:
    return sum(1 << (a - 1) for a in sites)


def empirical_measure(cfg: SiteConfig, state: MoranState) -> ProbabilityMeasure:
    """Type frequencies as a probability measure on the full site set."""
    counts = np.bincount(state.types, minlength=2 ** cfg.n)
    return ProbabilityMeasure(cfg.sites, counts / state.size)


@dataclass
class LLNReport:
    """Distance to the deterministic solution across population sizes."""

    population_sizes: list[int]
    mean_distance: list[float]
    stderr: list[float]
    slope: float | None
    replicates: int
    seed: int
    # total Moran events per population size, summed over replicates
    events: list[int]

    def to_dict(self) -> dict:
        return {
            "population_sizes": self.population_sizes,
            "mean_distance": self.mean_distance,
            "stderr": self.stderr,
            "slope": self.slope,
            "replicates": self.replicates,
            "seed": self.seed,
            "events": self.events,
        }


def lln_convergence(
    cfg: SiteConfig,
    omega0,
    t: float,
    population_sizes,
    replicates: int,
    seed: int,
) -> LLNReport:
    """Mean l1 distance between the empirical measure at time t and the
    deterministic solution, per population size, with a fitted log-log
    slope (None unless there are two distinct sizes and every mean distance
    is positive)."""
    _check_time(t)
    if replicates < 2:
        raise ValueError("need at least two replicates")
    sizes = [int(N) for N in population_sizes]
    if any(N < 1 for N in sizes):
        raise ValueError("population sizes must be >= 1")
    target = semigroup_solve(cfg, omega0, t)
    dist = np.empty((len(sizes), replicates))
    events = [0] * len(sizes)
    for a, N in enumerate(sizes):
        for rep in range(replicates):
            rng = spawn_stream(seed, a, rep)
            pop = sample_population(cfg, N, omega0, rng)
            pop = moran_simulate(cfg, pop, t, rng)
            events[a] += sum(pop.counters.values())
            dist[a, rep] = l1_distance(empirical_measure(cfg, pop), target)
    mean = dist.mean(axis=1)
    stderr = dist.std(axis=1, ddof=1) / np.sqrt(replicates)
    # a slope needs two distinct sizes, as ld's fitted rate needs two times,
    # and a positive mean distance at each: a one-type start is met exactly
    slope = None
    if len(set(sizes)) >= 2 and (mean > 0.0).all():
        slope = float(np.polyfit(np.log(sizes), np.log(mean), 1)[0])
    return LLNReport(
        population_sizes=sizes,
        mean_distance=[float(v) for v in mean],
        stderr=[float(v) for v in stderr],
        slope=slope,
        replicates=replicates,
        seed=seed,
        events=events,
    )
