"""Finite-population Moran model whose empirical type frequencies converge
to the deterministic dynamics as the population grows.

Types are bit-encoded sequences (bit j-1 holds the letter at site j).
Reproduction arrows are laid down type-blindly: neutral arrows at rate 1/N
per ordered pair, selective arrows at rate s/N per ordered pair that only
fire when the would-be parent is fit, and recombination arrows at rate
rho_i/N^2 per ordered triple, the offspring taking the head letters from
the first parent and the tail letters from the second.

A population is one array of types in the narrowest unsigned integer type
that holds n bits: one byte per individual up to n = 8, two up to 16, four
beyond.  The simulation draws whole chunks of events at once and applies
them in conflict-free runs: within a run no event reads or overwrites an
individual that an earlier event of the run writes, so a few numpy gathers,
one bit blend and one scatter per run reproduce the event-by-event
realisation exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measure import ProbabilityMeasure, l1_distance
from .sites import SiteConfig
from .solvers import _check_time, least_squares_slope, semigroup_solve
from .rng import spawn_stream

_EVENT_CHUNK = 1 << 16
_DRAW_PIECE = 1 << 13


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
    """Independent draws from omega0, in the narrowest unsigned integer
    type that holds n bits: uint8 up to n = 8, uint16 up to 16, uint32
    beyond."""
    if N < 1:
        raise ValueError("population size must be >= 1")
    if omega0.sites != cfg.sites:
        raise ValueError("initial measure must live on the full site set")
    p = np.clip(omega0.values, 0.0, None)
    p = p / p.sum()
    types = np.empty(N, dtype=np.min_scalar_type((1 << cfg.n) - 1))
    return MoranState(types=_choice_into(types, rng, p))


def _choice_into(out, rng, p):
    """Fill out with independent draws from range(p.size) weighted by p,
    `_DRAW_PIECE` at a time, and return it.  One cumulative sum of p serves
    every piece, and each draw is the index that one uniform falls at in
    it, as in numpy's Generator.choice: so the values and the generator's
    next draw are those of one rng.choice(p.size, size=out.size, p=p),
    which would also hold an out-sized uniform array and an out-sized int64
    index array, and which rebuilds the sum on each call."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for piece in np.split(out, range(_DRAW_PIECE, out.size, _DRAW_PIECE)):
        piece[...] = cdf.searchsorted(rng.random(piece.size), side="right")
    return out


def moran_simulate(
    cfg: SiteConfig,
    state: MoranState,
    t: float,
    rng,
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
    and then scattering all offspring gives the population and counters of
    applying the events one at a time.  Individuals are picked uniformly,
    so a run typically meets its first conflict after about sqrt(N)
    events; a longer window would only add work.

    The population keeps its dtype, and the masks are built in it.
    Besides its input, the simulation holds at once the population copy
    (the input's itemsize per individual: 1, 2 or 4 bytes from
    sample_population), the int16 first-write array (2 bytes per
    individual; int32 once the window reaches 2^15, at N above 2.68e8) and
    one chunk of at most `_EVENT_CHUNK` events: a uint8 kind, three int64
    participants and the kind's head and stop masks in the population's
    dtype, 27 bytes per event up to n = 8, 29 up to 16 and 33 beyond.  A
    chunk is freed before the next one is drawn.
    """
    _check_time(t)
    N = state.size
    sites = cfg.crossover_sites
    kinds = ["neutral", "selective"] + [f"recombination_{i}" for i in sites]
    rates = np.array([float(N), cfg.s * N] + [cfg.rho_of(i) * N for i in sites])
    total = float(rates.sum())
    types = state.types.copy()
    head, stop_bit = _kind_masks(cfg, types.dtype)
    counters = dict(state.counters)
    n_events = rng.poisson(total * t) if total > 0.0 and t > 0.0 else 0
    window = int(2.0 * np.sqrt(N)) + 1
    # first_write[x] is the first position in the current window that writes
    # to x, or `window` when none does
    first_write = np.full(N, window, dtype=np.int16 if window < 1 << 15 else np.int32)

    def draw_and_apply(chunk):
        # the chunk's arrays are locals, so they are freed on return,
        # before the next chunk is drawn
        kind_idx = _choice_into(np.empty(chunk, dtype=np.uint8), rng, rates / total)
        # counted before the participants are drawn: bincount works on an
        # intp copy of the kinds, as large as one participant array
        for k, count in enumerate(np.bincount(kind_idx, minlength=rates.size).tolist()):
            if count:
                counters[kinds[k]] = counters.get(kinds[k], 0) + count
        alpha = rng.integers(0, N, size=chunk)
        beta = rng.integers(0, N, size=chunk)
        gamma = rng.integers(0, N, size=chunk)
        # a non-recombinant takes its own offspring as second parent: under
        # the full head mask it copies its parent, and a stopped selective
        # event keeps the offspring's value.  The run check already covers
        # the offspring, so this adds no clash
        np.copyto(gamma, alpha, where=kind_idx < 2)
        _apply_in_runs(types, first_write, window, head[kind_idx], stop_bit[kind_idx],
                       alpha, beta, gamma)

    for done in range(0, n_events, _EVENT_CHUNK):
        draw_and_apply(min(_EVENT_CHUNK, n_events - done))
    return MoranState(types=types, clock=state.clock + t, counters=counters)


def _apply_in_runs(types, first_write, window, head, stop, alpha, beta, gamma):
    """Apply one chunk of events to types in place, one conflict-free run
    of at most `window` events at a time (see moran_simulate).  Event j
    writes to alpha[j] the letters of its parent types[beta[j]] that
    head[j] marks and the other letters of types[gamma[j]]; when the parent
    carries a bit of stop[j], all letters come from types[gamma[j]].  It
    holds only views of the chunk and per-run arrays of at most `window`
    entries; the chunk itself belongs to the caller, which frees it before
    drawing the next one."""
    steps = np.arange(window, dtype=first_write.dtype)
    chunk = alpha.size
    start = 0
    while start < chunk:
        limit = min(start + window, chunk)
        a = alpha[start:limit]
        b = beta[start:limit]
        g = gamma[start:limit]
        pos = steps[: limit - start]
        np.minimum.at(first_write, a, pos)
        # an event clashes when a position before its own writes to one of
        # its individuals
        seen = np.minimum(first_write[a], first_write[b])
        np.minimum(seen, first_write[g], out=seen)
        first_write[a] = window
        # the first event never clashes, so argmax 0 means no clash
        end = start + (int((seen < pos).argmax()) or limit - start)
        run = slice(start, end)
        parent = types[beta[run]]
        second = types[gamma[run]]
        # a stopped event takes nothing from its parent
        mask = np.where(parent & stop[run], 0, head[run])
        mask &= parent ^ second
        types[alpha[run]] = second ^ mask
        start = end


def _kind_masks(cfg: SiteConfig, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Per event kind, in the population's dtype: the bit mask of the
    letters an offspring takes from its parent (the rest come from the
    second parent), and the bit that stops the event when the parent
    carries it.  Neutral and selective offspring copy the whole parent, a
    recombinant takes the head of its site's cut; only a selective event
    stops, at an unfit parent."""
    heads = (cfg.split(i).sides(cfg.n)[0] for i in cfg.crossover_sites)
    # bits lo - 1 .. hi - 1 hold the head sites lo..hi
    head = [(1 << cfg.n) - 1] * 2 + [(1 << hi) - (1 << lo - 1) for lo, hi in heads]
    stop_bit = [0, 1 << cfg.i_star - 1] + [0] * (len(head) - 2)
    # built wide, then cast: a mask keeps the bits that the dtype can hold,
    # which are all the bits its types can carry
    return (np.array(head, dtype=np.int64).astype(dtype),
            np.array(stop_bit, dtype=np.int64).astype(dtype))


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
        slope = least_squares_slope(np.log(sizes), np.log(mean))
    return LLNReport(
        population_sizes=sizes,
        mean_distance=[float(v) for v in mean],
        stderr=[float(v) for v in stderr],
        slope=slope,
        replicates=replicates,
        seed=seed,
        events=events,
    )
