import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    fit_bit = cfg.i_star - 1
    masks = {
        i: (
            sum(1 << (a - 1) for a in cfg.head(i)),
            sum(1 << (a - 1) for a in cfg.tail(i)),
        )
        for i in cfg.crossover_sites
    }
    n_events = rng.poisson(total * t) if total > 0.0 and t > 0.0 else 0
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
        done += chunk
    return MoranState(types=types, clock=state.clock + t, counters=counters)


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


# event rate of case 12: 20000 * (1 + 1.5 + 1.8) * 2.0 events per unit time,
# so several chunks of _EVENT_CHUNK events run.  Cases 13-19 hold types of
# 16 and 32 bits, and 16 and 19 also run several chunks at one size.  The
# last entry of a case is whether it runs several chunks
ORACLE_CASES = [
    (_oracle_cfg(c, n=(c + c // 6) % 6 + 1), N, 0.4 if N == 20000 else 3.0, False)
    for c, N in enumerate([1, 2, 3, 37, 500, 20000] * 2)
] + [(SiteConfig(n=4, i_star=2, s=1.5, rho=(0.9, 0.0, 0.0, 0.9)), 20000, 2.0, True)] + [
    (_oracle_cfg(20 + c, n), N, t, N == 20000)
    for c, (n, N, t) in enumerate([
        (9, 37, 3.0), (12, 500, 1.0), (16, 37, 3.0), (14, 20000, 0.8),
        (17, 37, 3.0), (20, 500, 1.0), (18, 20000, 0.8),
    ])
]


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_batched_events_match_event_loop(case):
    cfg, N, t, several_chunks = ORACLE_CASES[case]
    nu = ProbabilityMeasure(
        cfg.sites, np.random.default_rng(case).dirichlet(np.ones(2 ** cfg.n))
    )
    pop = sample_population(cfg, N, nu, spawn_stream(40, case))
    before = pop.types.copy()
    got = moran_simulate(cfg, pop, t, spawn_stream(41, case))
    want = _moran_events_reference(cfg, pop, t, spawn_stream(41, case))
    assert got.types.dtype == want.types.dtype == pop.types.dtype
    assert np.array_equal(got.types, want.types)
    assert got.counters == want.counters
    assert got.clock == want.clock
    assert np.array_equal(pop.types, before)
    assert pop.counters == {} and pop.clock == 0.0
    if several_chunks:
        assert sum(got.counters.values()) > 2 * _EVENT_CHUNK


@pytest.mark.parametrize(
    "n, dtype",
    [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
     (17, np.uint32), (20, np.uint32)],
)
def test_sample_population_takes_the_narrowest_type(n, dtype):
    # the all-ones type is the largest value the dtype must hold
    cfg = SiteConfig(n=n, i_star=1, s=0.5, rho=(0.0,) + (0.5,) * (n - 1))
    pop = sample_population(cfg, 5, delta(cfg.sites, dict.fromkeys(cfg.sites, 1)),
                            spawn_stream(44, n))
    assert pop.types.dtype == dtype
    assert pop.types.tolist() == [2 ** n - 1] * 5


def test_moran_simulate_keeps_the_population_dtype():
    # the same realisation from an int64 copy of a uint8 population, in
    # int64, and neither input changes
    cfg = SiteConfig(n=4, i_star=3, s=1.2, rho=(0.7, 0.4, 0.0, 0.9))
    nu = ProbabilityMeasure(cfg.sites, np.random.default_rng(45).dirichlet(np.ones(16)))
    narrow = sample_population(cfg, 3000, nu, spawn_stream(45, 0))
    wide = MoranState(types=narrow.types.astype(np.int64))
    before = wide.types.copy()
    got_narrow = moran_simulate(cfg, narrow, 2.0, spawn_stream(45, 1))
    got_wide = moran_simulate(cfg, wide, 2.0, spawn_stream(45, 1))
    assert narrow.types.dtype == got_narrow.types.dtype == np.uint8
    assert got_wide.types.dtype == np.int64
    assert np.array_equal(got_wide.types, got_narrow.types)
    assert not np.array_equal(got_wide.types, before)
    assert np.array_equal(wide.types, before)
    assert np.array_equal(narrow.types, before)


# the moran-n4 benchmark's model shape: n=4, s=0.8, crossover rates summing
# to 1.8, so N = 10**5 over t = 1 draws about 3.6e5 events, six chunks
MORAN_N4 = SiteConfig(n=4, i_star=2, s=0.8, rho=(0.5, 0.0, 0.6, 0.7))
MORAN_N4_START = ProbabilityMeasure(
    MORAN_N4.sites, np.random.default_rng(4).dirichlet(np.ones(16))
)


def test_sample_population_holds_one_population():
    # the population is 0.1 MB of uint8 (0.236 MB peak measured, with one
    # piece's uniforms and indices); drawing it whole held a uniform and an
    # index array of eight bytes per individual besides, and then a copy
    peak = traced_peak(
        lambda: sample_population(MORAN_N4, 10**5, MORAN_N4_START, spawn_stream(50, 0))
    )
    assert peak <= 0.3e6


def test_moran_simulate_holds_one_chunk():
    # the population copy (0.1 MB of uint8), the int16 first-write array
    # (0.2 MB) and one chunk of drawn events with their masks (1.8 MB);
    # the chunk before it is freed first.  2.14 MB peak measured
    pop = sample_population(MORAN_N4, 10**5, MORAN_N4_START, spawn_stream(50, 1))
    peak = traced_peak(lambda: moran_simulate(MORAN_N4, pop, 1.0, spawn_stream(50, 2)))
    assert peak <= 2.5e6


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


@pytest.mark.parametrize("n", [4, 12])
def test_population_draws_are_those_of_one_choice(n):
    # the pieces search one cumulative sum of the law, as numpy's
    # Generator.choice does: a change to choice's draws fails here
    cfg = SiteConfig(n=n, i_star=1, s=0.5, rho=(0.0,) + (0.3,) * (n - 1))
    nu = ProbabilityMeasure(cfg.sites, np.random.default_rng(n).dirichlet(np.ones(2 ** n)))
    N = 2 * _DRAW_PIECE + 5
    whole, pieces = spawn_stream(7, n), spawn_stream(7, n)
    want = whole.choice(2 ** n, size=N, p=nu.values / nu.values.sum())
    got = sample_population(cfg, N, nu, pieces).types
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


@given(_moran_cases())
def test_batched_events_match_event_loop_on_generated_models(case):
    cfg, types, t, seed = case
    pop = MoranState(types=np.array(types, dtype=np.int64), clock=0.5)
    got = moran_simulate(cfg, pop, t, spawn_stream(seed, 0))
    want = _moran_events_reference(cfg, pop, t, spawn_stream(seed, 0))
    assert got.types.dtype == want.types.dtype
    assert np.array_equal(got.types, want.types)
    assert got.counters == want.counters
    assert got.clock == want.clock
    assert pop.types.tolist() == types
    assert pop.counters == {} and pop.clock == 0.5
