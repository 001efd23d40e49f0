import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selrec import (
    MoranState,
    ProbabilityMeasure,
    SiteConfig,
    SolverSettings,
    delta,
    empirical_measure,
    integrate_ode,
    l1_distance,
    lln_convergence,
    logistic_fit_fraction,
    moran_simulate,
    sample_population,
    spawn_stream,
)
from selrec.moran import _DRAW_PIECE, _EVENT_CHUNK, _choice_into

from conftest import traced_peak


def _moran_events_reference(
    cfg: SiteConfig,
    state: MoranState,
    t: float,
    rng,
    event_log: bool = False,
) -> MoranState:
    """Event-by-event Moran simulation: the oracle for moran_simulate."""
    if t < 0:
        raise ValueError("t must be >= 0")
    N = state.size
    kinds = ["neutral", "selective"] + [f"recombination_{i}" for i in cfg.crossover_sites]
    rates = np.array(
        [float(N), cfg.s * N] + [cfg.rho_of(i) * N for i in cfg.crossover_sites]
    )
    total = float(rates.sum())
    types = state.types.copy()
    counters = dict(state.counters)
    log: list[tuple] = []
    fit_bit = cfg.i_star - 1
    masks = {
        i: (
            sum(1 << (a - 1) for a in cfg.head(i)),
            sum(1 << (a - 1) for a in cfg.tail(i)),
        )
        for i in cfg.crossover_sites
    }
    n_events = rng.poisson(total * t) if total > 0.0 and t > 0.0 else 0
    times = np.sort(rng.uniform(0.0, t, size=n_events)) if event_log else None
    done = 0
    while done < n_events:
        chunk = min(_EVENT_CHUNK, n_events - done)
        kind_idx = rng.choice(rates.size, size=chunk, p=rates / total)
        alpha = rng.integers(0, N, size=chunk)
        beta = rng.integers(0, N, size=chunk)
        gamma = rng.integers(0, N, size=chunk)
        for j in range(chunk):
            k = int(kind_idx[j])
            a, b, g = int(alpha[j]), int(beta[j]), int(gamma[j])
            kind = kinds[k]
            counters[kind] = counters.get(kind, 0) + 1
            if k == 0:
                types[a] = types[b]
            elif k == 1:
                parent = int(types[b])
                if (parent >> fit_bit) & 1 == 0:
                    types[a] = parent
            else:
                site = cfg.crossover_sites[k - 2]
                head_mask, tail_mask = masks[site]
                types[a] = (int(types[b]) & head_mask) | (int(types[g]) & tail_mask)
            if event_log:
                log.append((float(times[done + j]), kind, a, b, g))
        done += chunk
    out = MoranState(types=types, clock=state.clock + t, counters=counters)
    if event_log:
        out.counters["_event_log"] = log
    return out


def test_sample_population_validation():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    nu = ProbabilityMeasure((1, 2), [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError):
        sample_population(cfg, 0, nu, spawn_stream(1, 0))
    with pytest.raises(ValueError):
        sample_population(cfg, 5, ProbabilityMeasure((1,), [0.5, 0.5]), spawn_stream(1, 0))


def test_sample_population_point_mass():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    nu = delta((1, 2), {1: 1, 2: 0})
    pop = sample_population(cfg, 40, nu, spawn_stream(1, 1))
    assert np.all(pop.types == 1)


def test_single_individual_never_changes():
    cfg = SiteConfig(n=2, i_star=1, s=0.9, rho=(0.0, 0.8))
    nu = ProbabilityMeasure((1, 2), [0.25, 0.25, 0.25, 0.25])
    pop = sample_population(cfg, 1, nu, spawn_stream(2, 0))
    before = pop.types.copy()
    after = moran_simulate(cfg, pop, 5.0, spawn_stream(2, 1))
    assert np.array_equal(after.types, before)
    assert after.clock == 5.0


def test_monomorphic_population_invariant():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    pop = MoranState(types=np.full(200, 5, dtype=np.int64))
    out = moran_simulate(cfg, pop, 2.0, spawn_stream(3, 0))
    assert np.all(out.types == 5)


def test_zero_window_is_identity():
    cfg = SiteConfig(n=2, i_star=1, s=0.9, rho=(0.0, 0.8))
    nu = ProbabilityMeasure((1, 2), [0.4, 0.1, 0.2, 0.3])
    pop = sample_population(cfg, 100, nu, spawn_stream(4, 0))
    out = moran_simulate(cfg, pop, 0.0, spawn_stream(4, 1))
    assert np.array_equal(out.types, pop.types)
    with pytest.raises(ValueError):
        moran_simulate(cfg, pop, -1.0, spawn_stream(4, 2))


def test_empirical_measure_counts():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    pop = MoranState(types=np.array([0, 0, 1, 3], dtype=np.int64))
    emp = empirical_measure(cfg, pop)
    assert np.allclose(emp.values, [0.5, 0.25, 0.0, 0.25])


def test_event_counters_match_rates():
    # arrows are laid down type-blindly, so each kind is a thinned Poisson
    # stream with a known intensity
    cfg = SiteConfig(n=2, i_star=1, s=0.7, rho=(0.0, 0.6))
    nu = ProbabilityMeasure((1, 2), [0.25, 0.25, 0.25, 0.25])
    N, t = 500, 2.0
    pop = sample_population(cfg, N, nu, spawn_stream(5, 0))
    out = moran_simulate(cfg, pop, t, spawn_stream(5, 1))
    for kind, lam in (
        ("neutral", N * t),
        ("selective", 0.7 * N * t),
        ("recombination_2", 0.6 * N * t),
    ):
        count = out.counters.get(kind, 0)
        assert abs(count - lam) < 3.0 * math.sqrt(lam), kind


def test_event_log_ordered_and_complete():
    cfg = SiteConfig(n=2, i_star=1, s=0.5, rho=(0.0, 0.4))
    nu = ProbabilityMeasure((1, 2), [0.25, 0.25, 0.25, 0.25])
    pop = sample_population(cfg, 30, nu, spawn_stream(6, 0))
    out = moran_simulate(cfg, pop, 1.5, spawn_stream(6, 1), event_log=True)
    log = out.counters["_event_log"]
    times = [e[0] for e in log]
    assert times == sorted(times)
    assert all(0.0 <= u <= 1.5 for u in times)
    counted = sum(v for k, v in out.counters.items() if k != "_event_log")
    assert counted == len(log)


def test_fit_fraction_tracks_logistic_growth():
    # single site, large population: the empirical fit share follows the
    # deterministic curve
    cfg = SiteConfig(n=1, i_star=1, s=0.8, rho=(0.0,))
    f0, t, N, reps = 0.3, 1.0, 10000, 8
    nu = ProbabilityMeasure((1,), [f0, 1.0 - f0])
    target = logistic_fit_fraction(0.8, f0, t)
    vals = []
    for rep in range(reps):
        rng = spawn_stream(7, rep)
        pop = sample_population(cfg, N, nu, rng)
        out = moran_simulate(cfg, pop, t, rng)
        vals.append(empirical_measure(cfg, out).values[0])
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - target) < 3.5 * se


def test_large_population_near_deterministic_solution():
    cfg = SiteConfig(n=2, i_star=1, s=0.9, rho=(0.0, 0.7))
    nu = ProbabilityMeasure((1, 2), [0.35, 0.15, 0.05, 0.45])
    t = 0.8
    ref = integrate_ode(
        cfg, nu, SolverSettings(t_max=t, grid_steps=256, quad_tol=1e-9)
    ).final_probability()
    rng = spawn_stream(8, 0)
    pop = sample_population(cfg, 20000, nu, rng)
    out = moran_simulate(cfg, pop, t, rng)
    assert l1_distance(empirical_measure(cfg, out), ref) < 0.05


def test_lln_report_shrinks_with_population():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    nu = ProbabilityMeasure((1, 2), [0.35, 0.15, 0.05, 0.45])
    report = lln_convergence(cfg, nu, 1.0, (200, 2000), replicates=6, seed=9)
    assert report.mean_distance[0] > report.mean_distance[1]
    assert report.slope < -0.2
    d = report.to_dict()
    assert d["population_sizes"] == [200, 2000]
    assert len(d["mean_distance"]) == 2


def test_lln_validation():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    nu = ProbabilityMeasure((1, 2), [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError):
        lln_convergence(cfg, nu, 1.0, (100,), replicates=1, seed=1)
    with pytest.raises(ValueError):
        lln_convergence(cfg, nu, 1.0, (0, 100), replicates=3, seed=1)



def _oracle_cfg(case, n):
    # s = 0 in a third of the cases; a site other than the selected one gets
    # rate 0 with probability 0.3
    rng = np.random.default_rng(100 + case)
    i_star = int(rng.integers(1, n + 1))
    rho = tuple(
        0.0 if i == i_star or rng.random() < 0.3 else float(rng.uniform(0.1, 2.0))
        for i in range(1, n + 1)
    )
    s = 0.0 if case % 3 == 0 else float(rng.uniform(0.1, 2.0))
    return SiteConfig(n=n, i_star=i_star, s=s, rho=rho)


# event rate of the last case: 20000 * (1 + 1.5 + 1.8) * 2.0 events per unit
# time, so several chunks of _EVENT_CHUNK events run
ORACLE_CASES = [
    (_oracle_cfg(c, n=(c + c // 6) % 6 + 1), N, 0.4 if N == 20000 else 3.0)
    for c, N in enumerate([1, 2, 3, 37, 500, 20000] * 2)
] + [(SiteConfig(n=4, i_star=2, s=1.5, rho=(0.9, 0.0, 0.0, 0.9)), 20000, 2.0)]


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_batched_events_match_event_loop(case):
    cfg, N, t = ORACLE_CASES[case]
    nu = ProbabilityMeasure(
        cfg.sites, np.random.default_rng(case).dirichlet(np.ones(2 ** cfg.n))
    )
    pop = sample_population(cfg, N, nu, spawn_stream(40, case))
    before = pop.types.copy()
    for event_log in (False, True):
        got = moran_simulate(cfg, pop, t, spawn_stream(41, case), event_log=event_log)
        want = _moran_events_reference(
            cfg, pop, t, spawn_stream(41, case), event_log=event_log
        )
        assert np.array_equal(got.types, want.types)
        assert got.counters == want.counters
        assert got.clock == want.clock
    assert np.array_equal(pop.types, before)
    assert pop.counters == {} and pop.clock == 0.0
    if case == len(ORACLE_CASES) - 1:
        assert len(got.counters["_event_log"]) > 2 * _EVENT_CHUNK


# the moran-n4 benchmark's model shape: n=4, s=0.8, crossover rates summing
# to 1.8, so N = 10**5 over t = 1 draws about 3.6e5 events, six chunks
MORAN_N4 = SiteConfig(n=4, i_star=2, s=0.8, rho=(0.5, 0.0, 0.6, 0.7))
MORAN_N4_START = ProbabilityMeasure(
    MORAN_N4.sites, np.random.default_rng(4).dirichlet(np.ones(16))
)


def test_sample_population_holds_one_population():
    # the population is 0.8 MB of int64; drawing it whole held a uniform
    # and an index array of the same size besides, and then a copy
    peak = traced_peak(
        lambda: sample_population(MORAN_N4, 10**5, MORAN_N4_START, spawn_stream(50, 0))
    )
    assert peak <= 1.0e6


def test_moran_simulate_holds_one_chunk():
    # the population copy (0.8 MB), the first-write array (0.4 MB) and one
    # chunk of drawn events (1.6 MB); the chunk before it is freed first
    pop = sample_population(MORAN_N4, 10**5, MORAN_N4_START, spawn_stream(50, 1))
    peak = traced_peak(lambda: moran_simulate(MORAN_N4, pop, 1.0, spawn_stream(50, 2)))
    assert peak <= 3.5e6


@pytest.mark.parametrize(
    "m", [1, _DRAW_PIECE - 1, _DRAW_PIECE, _DRAW_PIECE + 1, _EVENT_CHUNK + 3]
)
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_piecewise_choice_matches_one_draw(m, dtype):
    p = np.array([0.05, 0.0, 0.25, 0.3, 0.4])
    whole, pieces = np.random.default_rng(m), np.random.default_rng(m)
    want = whole.choice(p.size, size=m, p=p)
    got = _choice_into(np.empty(m, dtype=dtype), pieces, p)
    assert got.dtype == dtype
    assert np.array_equal(got, want)
    assert pieces.random() == whole.random()


@st.composite
def _moran_cases(draw):
    n = draw(st.integers(1, 4))
    i_star = draw(st.integers(1, n))
    rate = st.one_of(st.just(0.0), st.floats(0.01, 4.0))
    rho = tuple(0.0 if i == i_star else draw(rate) for i in range(1, n + 1))
    cfg = SiteConfig(n=n, i_star=i_star, s=draw(rate), rho=rho)
    types = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=60))
    return cfg, types, draw(st.floats(0.0, 2.0)), draw(st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, database=None, deadline=None)
@given(_moran_cases())
def test_batched_events_match_event_loop_on_generated_models(case):
    cfg, types, t, seed = case
    pop = MoranState(types=np.array(types, dtype=np.int64), clock=0.5)
    for event_log in (False, True):
        got = moran_simulate(cfg, pop, t, spawn_stream(seed, 0), event_log=event_log)
        want = _moran_events_reference(
            cfg, pop, t, spawn_stream(seed, 0), event_log=event_log
        )
        assert got.types.dtype == want.types.dtype
        assert np.array_equal(got.types, want.types)
        assert got.counters == want.counters
        assert got.clock == want.clock
    assert pop.types.tolist() == types
    assert pop.counters == {} and pop.clock == 0.5
