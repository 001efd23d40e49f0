import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chi2_contingency, chisquare, ks_2samp

from selrec import (
    DELTA,
    InitiationState,
    IntDistribution,
    IntervalPartition,
    Measure,
    ProbabilityMeasure,
    SiteConfig,
    WeightedPartition,
    ancestor_mixture,
    cond_fit,
    cond_unfit,
    decode,
    duality_check,
    duality_counts,
    duality_partition,
    duality_runtimes,
    encode,
    fit_fraction,
    initiation_block_simulate,
    initiation_simulate,
    integrate_ode,
    lln_convergence,
    l1_distance,
    logistic_fit_fraction,
    mc_solution_estimate,
    moran_simulate,
    product_measure,
    runtime_for_count,
    runtimes_from_counts,
    sample_population,
    selection_flow,
    semigroup_solve,
    spawn_stream,
    wpp_simulate,
    ypir_block_simulate,
    ypir_pgf,
    ypir_semigroup,
    ypir_simulate,
    ypir_stationary,
    ypir_vector_simulate,
)
from selrec.duals import _CHUNK_BYTES, BLOCK, _canonical_start, _dual_rows
from selrec.solvers import SolverSettings, _DualityChain, _gauss_legendre, _started_mass_pgf

from conftest import traced_peak


def random_prob(sites, rng):
    v = rng.random(2 ** len(sites))
    return ProbabilityMeasure(tuple(sites), v / v.sum())


def master_law(s, rho, r, m0, t, trunc=450):
    """Transient law of one line count from the truncated generator matrix.

    Independent of the renewal decomposition used by ypir_semigroup; the
    reset flux out of state 1 is silent, so it only appears for k >= 2.
    """
    q = np.zeros((trunc + 1, trunc + 1))
    if rho > 0.0:
        q[0, 1] += rho
        q[0, 0] -= rho
    for k in range(1, trunc):
        q[k, k + 1] += s * k
        q[k, k] -= s * k
    for k in range(2, trunc + 1):
        q[k, 1] += r
        q[k, k] -= r
    p0 = np.zeros(trunc + 1)
    p0[m0] = 1.0
    return p0 @ expm(q * t)


# frozen from the generator-matrix computation above (600-state truncation)
MASTER_A = [0.0, 0.4145753276712222, 0.14814106929755066, 0.08483678201789056,
            0.06035998755876696, 0.047649921532274625]          # s=1, rho=r=0.8, m0=2, t=1.5
MASTER_B = [0.38289288597511734, 0.39318883509419555, 0.11739890907840521,
            0.04993276012715807, 0.02464890684019344, 0.013205992427660004]  # same rates, m0=0, t=1.2
MASTER_C = [0.0, 0.5325918010068972, 0.24893777450712679, 0.11635555684372731,
            0.05438554126716617, 0.025420247894951214]          # s=0.7, no initiation/reset, m0=1, t=0.9


# -- run times matched to counts ------------------------------------------------


def test_runtime_for_count_one_is_zero():
    cfg = SiteConfig(n=1, i_star=1, s=1.3, rho=(0.0,))
    for f0 in (0.05, 0.3, 0.5, 0.9):
        assert runtime_for_count(cfg, f0, 1) == 0.0


def test_runtime_defining_equation():
    # the flow run for the matched time thins the unfit mass to its k-th power
    for s in (0.4, 1.3):
        cfg = SiteConfig(n=1, i_star=1, s=s, rho=(0.0,))
        for f0 in (0.1, 0.37, 0.5, 0.83, 0.95):
            for k in range(1, 7):
                th = runtime_for_count(cfg, f0, k)
                y = 1.0 - logistic_fit_fraction(s, f0, th)
                assert abs(y - (1.0 - f0) ** k) < 1e-12


def test_runtime_bisection_oracle():
    cfg = SiteConfig(n=1, i_star=1, s=1.0, rho=(0.0,))
    assert abs(runtime_for_count(cfg, 0.5, 2) - math.log(3.0)) < 1e-12

    cfg2 = SiteConfig(n=1, i_star=1, s=0.7, rho=(0.0,))
    f0, k = 0.3, 3
    target = (1.0 - f0) ** k
    lo, hi = 0.0, 80.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - logistic_fit_fraction(0.7, f0, mid) > target:
            lo = mid
        else:
            hi = mid
    assert abs(runtime_for_count(cfg2, f0, k) - 0.5 * (lo + hi)) < 1e-10


def test_runtime_for_count_validation():
    cfg = SiteConfig(n=1, i_star=1, s=1.0, rho=(0.0,))
    with pytest.raises(ValueError):
        runtime_for_count(cfg, 0.0, 2)
    with pytest.raises(ValueError):
        runtime_for_count(cfg, 1.0, 2)
    with pytest.raises(ValueError):
        runtime_for_count(cfg, 0.5, 0)
    flat = SiteConfig(n=1, i_star=1, s=0.0, rho=(0.0,))
    assert runtime_for_count(flat, 0.5, 1) == 0.0
    with pytest.raises(ValueError):
        runtime_for_count(flat, 0.5, 2)


def test_runtimes_from_counts_layout():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.6, 0.0, 0.4))
    st = runtimes_from_counts(cfg, 0.5, [0, 1, 2])
    assert st.entries[0] is DELTA
    assert st.entries[1] == 0.0
    assert abs(st.entries[2] - math.log(3.0)) < 1e-12


# -- count process, event level --------------------------------------------------


def test_count_simulate_absorbing_without_rates():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.0))
    rng = spawn_stream(5, 0)
    assert ypir_simulate(cfg, 2, 0, 50.0, rng) == 0


def test_count_simulate_validation():
    cfg = SiteConfig(n=1, i_star=1, s=1.0, rho=(0.0,))
    rng = spawn_stream(5, 1)
    with pytest.raises(ValueError):
        ypir_simulate(cfg, 1, -1, 1.0, rng)
    with pytest.raises(ValueError):
        ypir_simulate(cfg, 1, 0, -1.0, rng)


def test_count_simulate_seed_reproducible():
    cfg = SiteConfig(n=2, i_star=1, s=0.9, rho=(0.0, 0.7))
    a = [ypir_simulate(cfg, 2, 1, 2.0, spawn_stream(42, i)) for i in range(50)]
    b = [ypir_simulate(cfg, 2, 1, 2.0, spawn_stream(42, i)) for i in range(50)]
    assert a == b


def test_count_simulate_bernoulli_when_static():
    # without branching the count only initiates, resets keep it at 1
    cfg = SiteConfig(n=2, i_star=1, s=0.0, rho=(0.0, 0.8))
    t, runs = 1.1, 20000
    hits = sum(
        ypir_simulate(cfg, 2, 0, t, spawn_stream(73, i)) for i in range(runs)
    )
    p = 1.0 - math.exp(-0.8 * t)
    se = math.sqrt(p * (1.0 - p) / runs)
    assert abs(hits / runs - p) < 3.0 * se


def test_count_vector_shape_and_selected_growth():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.5, 0.0, 0.5))
    rng = spawn_stream(9, 0)
    m = ypir_vector_simulate(cfg, [0, 1, 0], 1.0, rng)
    assert m.shape == (3,)
    assert m[1] >= 1
    with pytest.raises(ValueError):
        ypir_vector_simulate(cfg, [0, 1], 1.0, rng)


# -- count process, one-time law --------------------------------------------------


def test_semigroup_point_mass_at_zero_time():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.8))
    d = ypir_semigroup(cfg, 2, 3, 0.0)
    assert d.probs[3] == 1.0 and d.probs.sum() == 1.0


def test_semigroup_pure_growth_closed_form():
    # no initiation or reset at the selected site: geometric from one line,
    # negative binomial from several
    cfg = SiteConfig(n=1, i_star=1, s=0.8, rho=(0.0,))
    t = 1.3
    sig = math.exp(-0.8 * t)
    d1 = ypir_semigroup(cfg, 1, 1, t)
    for n in range(1, min(30, d1.support_end + 1)):
        assert abs(d1.probs[n] - sig * (1.0 - sig) ** (n - 1)) < 1e-12
    d3 = ypir_semigroup(cfg, 1, 3, t)
    for n in range(3, min(30, d3.support_end + 1)):
        ref = math.comb(n - 1, 2) * sig ** 3 * (1.0 - sig) ** (n - 3)
        assert abs(d3.probs[n] - ref) < 1e-12


def test_semigroup_matches_frozen_master_law():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.8))
    da = ypir_semigroup(cfg, 2, 2, 1.5)
    np.testing.assert_allclose(da.probs[:6], MASTER_A, atol=1e-10)
    db = ypir_semigroup(cfg, 2, 0, 1.2)
    np.testing.assert_allclose(db.probs[:6], MASTER_B, atol=1e-10)
    cfg_c = SiteConfig(n=1, i_star=1, s=0.7, rho=(0.0,))
    dc = ypir_semigroup(cfg_c, 1, 1, 0.9)
    np.testing.assert_allclose(dc.probs[:6], MASTER_C, atol=1e-10)


def test_semigroup_matches_master_law_distinct_rates():
    # initiation 0.8, reset 1.3 at the outer site of a three-site chain
    cfg = SiteConfig(n=3, i_star=1, s=0.9, rho=(0.0, 0.5, 0.8))
    assert cfg.resetting_rate(3) == pytest.approx(1.3)
    for m0, t in ((0, 1.0), (2, 1.0), (1, 0.4)):
        d = ypir_semigroup(cfg, 3, m0, t)
        ref = master_law(0.9, 0.8, 1.3, m0, t, trunc=300)
        k = min(d.probs.size, 40)
        np.testing.assert_allclose(d.probs[:k], ref[:k], atol=1e-9)


def test_semigroup_mass_accounting():
    cfg = SiteConfig(n=2, i_star=1, s=1.2, rho=(0.0, 0.6))
    d = ypir_semigroup(cfg, 2, 1, 2.0)
    assert abs(d.probs.sum() + d.tail - 1.0) < 1e-9
    assert d.tail < 1e-10


def test_pgf_consistent_with_semigroup():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.8))
    for m0, t in ((0, 0.9), (2, 1.4)):
        d = ypir_semigroup(cfg, 2, m0, t)
        for x in (0.3, 0.7, 1.0):
            assert abs(ypir_pgf(cfg, 2, m0, t, x) - d.pgf(x)) < d.tail + 1e-9


def test_pgf_pure_growth_is_moebius_map():
    cfg = SiteConfig(n=1, i_star=1, s=1.1, rho=(0.0,))
    t, y = 0.8, 0.45
    sig = math.exp(-1.1 * t)
    g = sig * y / (1.0 - (1.0 - sig) * y)
    assert abs(ypir_pgf(cfg, 1, 1, t, y) - g) < 1e-12
    assert abs(ypir_pgf(cfg, 1, 3, t, y) - g ** 3) < 1e-12
    with pytest.raises(ValueError):
        ypir_pgf(cfg, 1, 1, t, 1.5)


def test_pgf_refuses_negative_time_and_count():
    cfg = SiteConfig(n=2, i_star=1, s=0.8, rho=(0.0, 0.6))
    with pytest.raises(ValueError, match="t must be >= 0"):
        ypir_pgf(cfg, 2, 0, -1.0, 0.5)
    with pytest.raises(ValueError, match="count must be >= 0"):
        ypir_pgf(cfg, 2, -1, 1.0, 0.5)


_TIMED = {
    "ypir_simulate": lambda cfg, nu, t, rng: ypir_simulate(cfg, 1, 1, t, rng),
    "ypir_block_simulate": lambda cfg, nu, t, rng: ypir_block_simulate(cfg, [0, 1, 0], t,
                                                                       rng, 4),
    "ypir_semigroup": lambda cfg, nu, t, rng: ypir_semigroup(cfg, 1, 1, t),
    "ypir_pgf": lambda cfg, nu, t, rng: ypir_pgf(cfg, 1, 1, t, 0.5),
    "initiation_simulate": lambda cfg, nu, t, rng: initiation_simulate(
        cfg, InitiationState.initial(cfg), t, rng),
    "initiation_block_simulate": lambda cfg, nu, t, rng: initiation_block_simulate(
        cfg, InitiationState.initial(cfg), t, rng, 4),
    "moran_simulate": lambda cfg, nu, t, rng: moran_simulate(
        cfg, sample_population(cfg, 10, nu, rng), t, rng),
    "selection_flow": lambda cfg, nu, t, rng: selection_flow(cfg, nu, t),
    "semigroup_solve": lambda cfg, nu, t, rng: semigroup_solve(cfg, nu, t),
    "mc_solution_estimate": lambda cfg, nu, t, rng: mc_solution_estimate(cfg, nu, t, 10, 1),
    "lln_convergence": lambda cfg, nu, t, rng: lln_convergence(cfg, nu, t, [10], 2, 1),
}


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("name", list(_TIMED))
def test_every_timed_routine_refuses_a_bad_time(name, t):
    # one message for a negative, NaN or infinite time, before any draw
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = product_measure(cfg.sites, [0.3, 0.6, 0.2])
    with pytest.raises(ValueError, match="t must be >= 0"):
        _TIMED[name](cfg, nu, t, spawn_stream(1, 0))


def test_gauss_legendre_closed_forms_match_quad():
    # scipy's adaptive quad is the reference for the panel rule; the fixed
    # draw has r*t ~ 900, where one 64-node panel on [0, t] is off by ~1e-7
    from numpy.polynomial.legendre import leggauss
    from scipy.integrate import quad

    nodes, weights = _gauss_legendre()
    ref_nodes, ref_weights = leggauss(nodes.size)
    assert np.abs(nodes - ref_nodes).max() < 1e-15
    assert np.abs(weights - ref_weights).max() < 1e-15

    def integral(f, t):
        return quad(f, 0.0, t, epsabs=1e-15, epsrel=1e-13, limit=500)[0]

    rng = np.random.default_rng(2718)
    draws = [(3.0, 0.25, 18.0, 50.0, 0.35)]
    for t_hi in (2.0, 20.0, 100.0, 400.0) * 3:
        rho = rng.uniform(0.0, 1.0)
        draws.append((rng.uniform(0.0, 5.0), rho, rng.uniform(rho, 20.0),
                      rng.uniform(0.0, t_hi), rng.uniform(0.0, 1.0)))
    for draw, (s, rho, r, t, x) in enumerate(draws):
        # site 3 initiates at rho and resets at rho + (r - rho)
        cfg = SiteConfig(n=3, i_star=1, s=s, rho=(0.0, r - rho, rho))

        def age(u):
            return math.exp(-r * u) * (
                rho * math.exp(-rho * (t - u)) + r * (1.0 - math.exp(-rho * (t - u)))
            )

        def yule(u):
            sig = math.exp(-s * u)
            return sig * x / (1.0 - (1.0 - sig) * x)

        def geom(u, n):
            sig = math.exp(-s * u)
            return sig * (1.0 - sig) ** (n - 1)

        started = integral(lambda u: age(u) * yule(u), t)
        if draw == 0:
            gx, gw = leggauss(64)
            one_panel = sum(0.5 * t * wk * age(uk) * yule(uk)
                            for uk, wk in zip(0.5 * t * (gx + 1.0), gw))
            assert abs(one_panel - started) > 1e-10
        assert abs(_started_mass_pgf(s, rho, r, t, x) - started) < 1e-13
        assert abs(ypir_pgf(cfg, 3, 0, t, x) - (math.exp(-rho * t) + started)) < 1e-13
        renewed = integral(lambda u: r * math.exp(-r * u) * yule(u), t)
        for m0 in (1, 3):
            held = math.exp(-r * t) * yule(t) ** m0
            assert abs(ypir_pgf(cfg, 3, m0, t, x) - (held + renewed)) < 1e-13

        sig_t = math.exp(-s * t)
        for m0 in (0, 2):
            law = ypir_semigroup(cfg, 3, m0, t, n_max=12)
            for n in range(1, law.probs.size):
                if m0 == 0:
                    ref = integral(lambda u: age(u) * geom(u, n), t)
                else:
                    ref = integral(lambda u: r * math.exp(-r * u) * geom(u, n), t)
                    if n >= m0:
                        ref += (math.exp(-r * t) * math.comb(n - 1, m0 - 1)
                                * sig_t ** m0 * (1.0 - sig_t) ** (n - m0))
                assert abs(law.probs[n] - ref) < 1e-13, (draw, m0, n)


def _chisq_pvalue(dist, sample, runs):
    probs = np.append(dist.probs, dist.tail)
    obs = np.bincount(np.minimum(sample, probs.size - 1), minlength=probs.size).astype(float)
    exp = probs * runs
    dead = exp == 0.0
    assert not obs[dead].any()
    obs, exp = obs[~dead], exp[~dead]
    while exp.size > 2 and exp[-1] < 5.0:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    exp *= obs.sum() / exp.sum()
    return chisquare(obs, exp).pvalue


def test_simulated_counts_match_semigroup_law():
    cfg = SiteConfig(n=3, i_star=2, s=0.9, rho=(0.7, 0.0, 0.4))
    runs = 20000
    idx = 0
    for site in cfg.sites:
        # the selected site never leaves 0, so it is started from 1 up
        points = ((1, 0.8), (2, 1.2), (3, 0.6)) if site == 2 else ((0, 0.8), (1, 1.2), (3, 0.6))
        for m0, t in points:
            sample = np.array(
                [ypir_simulate(cfg, site, m0, t, spawn_stream(311, idx, rep))
                 for rep in range(runs)]
            )
            idx += 1
            p = _chisq_pvalue(ypir_semigroup(cfg, site, m0, t), sample, runs)
            assert p > 0.01, f"site {site}, start {m0}, t {t}: p={p:.4f}"


def test_block_counts_match_semigroup_law():
    # site 2 is selected (no initiation, no reset); site 4 never initiates
    # but resets through site 3's crossovers
    cfg = SiteConfig(n=4, i_star=2, s=0.9, rho=(0.5, 0.0, 0.7, 0.0))
    t, runs = 1.0, 20000
    for m0 in (0, 1, 3):
        sample = ypir_block_simulate(cfg, [m0] * 4, t, spawn_stream(331, m0), runs)
        for site in cfg.sites:
            col = sample[:, site - 1]
            if m0 == 0 and cfg.rho_of(site) == 0.0:
                assert not col.any()
                continue
            p = _chisq_pvalue(ypir_semigroup(cfg, site, m0, t), col, runs)
            assert p > 0.001, f"site {site}, start {m0}: p={p:.4f}"


def test_block_counts_refuse_overflowing_growth():
    cfg = SiteConfig(n=2, i_star=1, s=2.0, rho=(0.0, 0.5))
    nu = ProbabilityMeasure((1, 2), [0.35, 0.15, 0.05, 0.45])
    with pytest.raises(ValueError, match="exp\\(s\\*t\\)"):
        ypir_block_simulate(cfg, [1, 0], 16.0, spawn_stream(337, 0), 10)
    with pytest.raises(ValueError):
        ypir_block_simulate(cfg, [10**6, 0], 9.0, spawn_stream(337, 1), 10)
    for flavor in ("counts", "partition"):
        with pytest.raises(ValueError):
            mc_solution_estimate(cfg, nu, 16.0, replicates=10, seed=337, flavor=flavor)
    with pytest.raises(ValueError):
        duality_check(cfg, nu, [1, 0], 16.0, replicates=10, seed=337)
    # run times carry no integer draws, and a growth just inside the bound runs
    mc_solution_estimate(cfg, nu, 16.0, replicates=10, seed=337, flavor="runtimes")
    mc_solution_estimate(cfg, nu, 14.9, replicates=10, seed=337)


# -- stationary law ---------------------------------------------------------------


def test_stationary_leading_entry_and_recursion():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.8))
    alpha = 0.8
    d = ypir_stationary(cfg, 2)
    assert d.probs[0] == 0.0
    assert abs(d.probs[1] - alpha / (1.0 + alpha)) < 1e-15
    for m in range(1, 200):
        assert abs(d.probs[m + 1] / d.probs[m] - m / (m + alpha + 1.0)) < 1e-12
    assert abs(d.probs.sum() + d.tail - 1.0) < 1e-9


def test_stationary_requires_selection_and_resetting():
    flat = SiteConfig(n=2, i_star=1, s=0.0, rho=(0.0, 0.8))
    with pytest.raises(ValueError):
        ypir_stationary(flat, 2)
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.8))
    with pytest.raises(ValueError):
        ypir_stationary(cfg, 1)
    still = SiteConfig(n=2, i_star=2, s=1.0, rho=(0.0, 0.0))
    assert ypir_stationary(still, 1, m0=0).probs[0] == 1.0


def test_stationary_is_long_time_limit():
    # heavy tail forces a loose truncation; both tails enter the distance bound
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 1.6))
    late = ypir_semigroup(cfg, 2, 1, 8.0, tail_tol=1e-5)
    limit = ypir_stationary(cfg, 2, tail_tol=1e-5)
    assert late.tv_distance(limit) < 1e-3


# -- partition process -------------------------------------------------------------


def test_partition_process_frozen_without_rates():
    cfg = SiteConfig(n=3, i_star=2, s=0.0, rho=(0.0, 0.0, 0.0))
    wp = WeightedPartition(IntervalPartition(((1,), (2, 3))), (2, 1))
    out = wpp_simulate(cfg, wp, 10.0, spawn_stream(12, 0))
    assert out == wp


def test_partition_marginal_law_without_selection():
    # with s = 0 the weights stay 1 and each boundary is cut independently
    cfg = SiteConfig(n=3, i_star=2, s=0.0, rho=(0.4, 0.0, 0.9))
    t, runs = 0.7, 8000
    p1 = 1.0 - math.exp(-0.4 * t)
    p3 = 1.0 - math.exp(-0.9 * t)
    expected = {
        ((1, 2, 3),): (1 - p1) * (1 - p3),
        ((1,), (2, 3)): p1 * (1 - p3),
        ((1, 2), (3,)): (1 - p1) * p3,
        ((1,), (2,), (3,)): p1 * p3,
    }
    counts = Counter()
    for rep in range(runs):
        out = wpp_simulate(cfg, WeightedPartition.initial(3), t, spawn_stream(88, rep))
        assert all(v == 1 for v in out.weights)
        counts[out.partition.blocks] += 1
    keys = sorted(expected)
    obs = np.array([counts[k] for k in keys], dtype=float)
    exp = np.array([expected[k] * runs for k in keys])
    assert chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 0.01


def _wpp_direct(cfg, wp, t, rng):
    """Reference event loop over (block, boundary) pairs.

    A straddled block splits, the far part starts again at weight 1; a
    block entirely beyond the boundary resets to 1; silent draws advance
    the clock only.
    """
    blocks = [frozenset(b) for b in wp.partition.blocks]
    weights = list(wp.weights)
    rates = [(i, cfg.rho_of(i), frozenset(cfg.tail(i)))
             for i in cfg.sites if cfg.rho_of(i) > 0.0]
    cross = sum(r for _, r, _ in rates)
    clock = 0.0
    while True:
        total = cfg.s * sum(weights) + cross * len(blocks)
        if total <= 0.0:
            break
        clock += rng.exponential(1.0 / total)
        if clock > t:
            break
        u = rng.random() * total
        if u < cfg.s * sum(weights):
            for j, v in enumerate(weights):
                u -= cfg.s * v
                if u < 0.0:
                    weights[j] += 1
                    break
            continue
        u -= cfg.s * sum(weights)
        j = min(int(u // cross), len(blocks) - 1)
        u -= j * cross
        tail = None
        for _, r, tl in rates:
            u -= r
            if u < 0.0:
                tail = tl
                break
        far = blocks[j] & tail
        if not far:
            continue
        if far == blocks[j]:
            weights[j] = 1
        else:
            blocks[j] = blocks[j] - tail
            blocks.insert(j + 1, far)
            weights.insert(j + 1, 1)
    order = sorted(range(len(blocks)), key=lambda q: min(blocks[q]))
    part = IntervalPartition(tuple(tuple(sorted(blocks[q])) for q in order))
    return WeightedPartition(part, tuple(weights[q] for q in order))


def test_partition_process_matches_direct_event_loop():
    cfg = SiteConfig(n=3, i_star=1, s=0.7, rho=(0.0, 0.8, 0.5))
    wp0 = WeightedPartition(IntervalPartition(((1,), (2, 3))), (2, 3))
    t, runs = 0.9, 4000

    def key(wp):
        return (wp.partition.blocks, tuple(min(v, 5) for v in wp.weights))

    direct = Counter(key(_wpp_direct(cfg, wp0, t, spawn_stream(577, 0, r))) for r in range(runs))
    viacnt = Counter(key(wpp_simulate(cfg, wp0, t, spawn_stream(577, 1, r))) for r in range(runs))
    keys = sorted(set(direct) | set(viacnt))
    table = np.array([[direct[k] for k in keys], [viacnt[k] for k in keys]], dtype=float)
    keep = table.sum(axis=0) >= 10
    pooled = np.concatenate(
        [table[:, keep], table[:, ~keep].sum(axis=1, keepdims=True)], axis=1
    ) if (~keep).any() else table[:, keep]
    assert chi2_contingency(pooled).pvalue > 0.01


def test_encoded_start_round_trip():
    cfg = SiteConfig(n=3, i_star=1, s=0.7, rho=(0.0, 0.8, 0.5))
    wp0 = WeightedPartition(IntervalPartition(((1,), (2, 3))), (2, 3))
    m = encode(wp0, cfg)
    assert list(m) == [2, 3, 0]
    assert decode(m, cfg) == wp0


# -- run-time process ----------------------------------------------------------------


def test_initiation_pure_drift_without_rates():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.0, 0.0, 0.0))
    st = InitiationState((DELTA, 0.25, 1.0))
    out = initiation_simulate(cfg, st, 0.75, spawn_stream(3, 0))
    assert out.entries[0] is DELTA
    assert out.entries[1] == pytest.approx(1.0, abs=1e-15)
    assert out.entries[2] == pytest.approx(1.75, abs=1e-15)


def test_initiation_selected_site_always_runs():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    out = initiation_simulate(cfg, InitiationState.initial(cfg), 1.3, spawn_stream(4, 0))
    assert out.entries[0] == pytest.approx(1.3, abs=1e-15)
    with pytest.raises(ValueError):
        initiation_simulate(cfg, InitiationState((DELTA, 0.0)), 1.0, spawn_stream(4, 1))


def test_initiation_holding_probability():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.6))
    t, runs = 1.1, 20000
    held = sum(
        initiation_simulate(cfg, InitiationState.initial(cfg), t, spawn_stream(19, r)).entries[1] is DELTA
        for r in range(runs)
    )
    p = math.exp(-0.6 * t)
    se = math.sqrt(p * (1.0 - p) / runs)
    assert abs(held / runs - p) < 3.0 * se


def test_initiation_age_law():
    # started value: exponential age below t, the remainder sits at exactly t
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.6))
    t, x, runs = 1.2, 0.5, 20000
    vals = [
        initiation_simulate(cfg, InitiationState((0.0, 0.0)), t, spawn_stream(23, r)).entries[1]
        for r in range(runs)
    ]
    atom = sum(1 for v in vals if abs(v - t) < 1e-12) / runs
    p_atom = math.exp(-0.6 * t)
    assert abs(atom - p_atom) < 3.0 * math.sqrt(p_atom * (1 - p_atom) / runs)
    tail = sum(1 for v in vals if v > x) / runs
    p_tail = math.exp(-0.6 * x)
    assert abs(tail - p_tail) < 3.0 * math.sqrt(p_tail * (1 - p_tail) / runs)


def test_block_runtimes_match_event_loop():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    st = InitiationState((DELTA, 0.1, 0.3))
    t, runs = 0.8, 5000
    block = initiation_block_simulate(cfg, st, t, spawn_stream(347, 0), runs)
    loop = np.array([
        [-1.0 if e is DELTA else e
         for e in initiation_simulate(cfg, st, t, spawn_stream(347, 1, r)).entries]
        for r in range(runs)
    ])
    block = np.where(np.isnan(block), -1.0, block)
    for site in cfg.sites:
        p = ks_2samp(block[:, site - 1], loop[:, site - 1]).pvalue
        assert p > 0.001, f"site {site}: p={p:.4f}"


def test_initiation_state_serialization():
    st = InitiationState((0.5, DELTA, 1.25))
    items = st.to_list()
    assert items == [0.5, "Delta", 1.25]
    assert InitiationState.from_list(json.loads(json.dumps(items))) == st


# -- duality functions ----------------------------------------------------------------


def test_ancestor_mixture_small_counts():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    nu = random_prob((1, 2), spawn_stream(31, 0))
    unit = ancestor_mixture(cfg, 0, nu)
    assert unit.sites == () and unit.values[0] == 1.0
    assert np.allclose(ancestor_mixture(cfg, 1, nu).values, nu.values, atol=1e-14)


def test_ancestor_mixture_many_lines_condition_on_fit():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    nu = random_prob((1, 2), spawn_stream(31, 1))
    big = ancestor_mixture(cfg, 500, nu)
    assert np.allclose(big.values, cond_fit(nu, 1).values, atol=1e-12)


def test_duality_counts_unit_start_returns_nu():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.6, 0.0, 0.4))
    nu = random_prob((1, 2, 3), spawn_stream(37, 0))
    out = duality_counts(cfg, [0, 1, 0], nu)
    assert np.allclose(out.values, nu.values, atol=1e-13)


def test_duality_counts_validation():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    nu = random_prob((1, 2), spawn_stream(37, 1))
    with pytest.raises(ValueError):
        duality_counts(cfg, [0, 1], nu)
    with pytest.raises(ValueError):
        duality_counts(cfg, [1, -1], nu)
    with pytest.raises(ValueError):
        duality_counts(cfg, [1], nu)
    with pytest.raises(ValueError):
        duality_counts(cfg, [1, 1], nu, order=(2, 1))


def test_duality_counts_order_invariance():
    cfg = SiteConfig(n=4, i_star=2, s=1.0, rho=(0.5, 0.0, 0.7, 0.3))
    rng = spawn_stream(41, 0)
    nu = random_prob((1, 2, 3, 4), rng)
    m = [2, 1, 0, 3]
    vals = [
        duality_counts(cfg, m, nu, order=o).values
        for o in ((2, 1, 3, 4), (2, 3, 1, 4), (2, 3, 4, 1))
    ]
    assert np.allclose(vals[0], vals[1], atol=1e-14)
    assert np.allclose(vals[0], vals[2], atol=1e-14)


def test_duality_counts_matches_partition_function():
    rng = spawn_stream(43, 0)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        i_star = int(rng.integers(1, n + 1))
        rho = [float(rng.uniform(0.1, 1.0)) for _ in range(n)]
        rho[i_star - 1] = 0.0
        cfg = SiteConfig(n=n, i_star=i_star, s=1.0, rho=tuple(rho))
        cuts = [i for i in range(2, n + 1) if rng.random() < 0.5]
        part = IntervalPartition.from_cuts(n, cuts)
        wp = WeightedPartition(part, tuple(int(rng.integers(1, 5)) for _ in part.blocks))
        nu = random_prob(cfg.sites, rng)
        a = duality_partition(cfg, wp, nu)
        b = duality_counts(cfg, encode(wp, cfg), nu)
        assert np.allclose(a.values, b.values, atol=1e-12)


def test_duality_runtimes_initial_state_returns_nu():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.6, 0.0, 0.4))
    nu = random_prob((1, 2, 3), spawn_stream(47, 0))
    out = duality_runtimes(cfg, InitiationState.initial(cfg), nu)
    assert np.allclose(out.values, nu.values, atol=1e-13)


def test_duality_runtimes_all_zero_gives_full_product():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.6, 0.0, 0.4))
    nu = random_prob((1, 2, 3), spawn_stream(47, 1))
    out = duality_runtimes(cfg, InitiationState((0.0, 0.0, 0.0)), nu)
    ref = product_measure((1, 2, 3), [nu.project({i}).values[1] for i in (1, 2, 3)])
    assert np.allclose(out.values, ref.values, atol=1e-13)


def test_duality_runtimes_selected_only_is_flow():
    cfg = SiteConfig(n=2, i_star=1, s=1.1, rho=(0.0, 0.5))
    nu = random_prob((1, 2), spawn_stream(47, 2))
    st = InitiationState((0.9, DELTA))
    out = duality_runtimes(cfg, st, nu)
    assert np.allclose(out.values, selection_flow(cfg, nu, 0.9).values, atol=1e-13)


def test_counts_and_matched_runtimes_agree_pointwise():
    # evaluated against the same measure the two pictures coincide for
    # every count vector
    cfg = SiteConfig(n=3, i_star=2, s=0.9, rho=(0.7, 0.0, 0.4))
    rng = spawn_stream(53, 0)
    for _ in range(30):
        nu = random_prob(cfg.sites, rng)
        m = rng.integers(0, 5, size=3)
        m[1] = rng.integers(1, 5)
        th = runtimes_from_counts(cfg, fit_fraction(nu, 2), m)
        a = duality_counts(cfg, m, nu)
        b = duality_runtimes(cfg, th, nu)
        assert np.allclose(a.values, b.values, atol=1e-12)


def test_matched_runtime_only_covers_unit_counts():
    # after time t the k-line picture thins the unfit mass through the
    # k-th power of the one-line map, the run-time picture through the
    # composed flow; the curves cross only at k in {0, 1}
    cfg = SiteConfig(n=1, i_star=1, s=1.0, rho=(0.0,))
    f0, t, k = 0.5, math.log(2.0), 2
    y0 = 1.0 - f0
    lines_side = ypir_pgf(cfg, 1, k, t, y0)
    th = runtime_for_count(cfg, f0, k)
    drift_side = 1.0 - logistic_fit_fraction(1.0, f0, t + th)
    assert abs(lines_side - 1.0 / 9.0) < 1e-12
    assert abs(drift_side - 1.0 / 7.0) < 1e-12
    assert drift_side - lines_side > 0.03


# -- pure selection duality -------------------------------------------------------


def test_pure_selection_duality_analytic():
    # moment identity checked through the generating function, no sampling
    cfg = SiteConfig(n=2, i_star=1, s=0.9, rho=(0.0, 0.0))
    rng = spawn_stream(59, 0)
    for _ in range(20):
        nu = random_prob((1, 2), rng)
        f0 = fit_fraction(nu, 1)
        for k in (1, 2, 5):
            for t in (0.3, 1.0):
                lhs = (1.0 - logistic_fit_fraction(0.9, f0, t)) ** k
                rhs = ypir_pgf(cfg, 1, k, t, 1.0 - f0)
                assert abs(lhs - rhs) < 1e-12


def test_pure_selection_duality_measure_level():
    cfg = SiteConfig(n=2, i_star=1, s=0.9, rho=(0.0, 0.0))
    nu = random_prob((1, 2), spawn_stream(59, 1))
    t, k = 0.7, 3
    flowed = selection_flow(cfg, nu, t)
    lhs = ancestor_mixture(cfg, k, flowed)
    y = ypir_pgf(cfg, 1, k, t, 1.0 - fit_fraction(nu, 1))
    rhs = y * cond_unfit(nu, 1).values + (1.0 - y) * cond_fit(nu, 1).values
    assert np.allclose(lhs.values, rhs, atol=1e-12)


def test_pure_selection_duality_monte_carlo():
    cfg = SiteConfig(n=1, i_star=1, s=0.9, rho=(0.0,))
    mu = ProbabilityMeasure((1,), [0.35, 0.65])
    report = duality_check(cfg, mu, [2], 0.8, replicates=20000, seed=61)
    assert report.flavor == "counts"
    assert report.max_abs_z < 3.0


# -- Monte Carlo solution estimates -------------------------------------------------


def test_mc_estimate_frozen_dynamics_is_exact():
    cfg = SiteConfig(n=2, i_star=1, s=0.0, rho=(0.0, 0.0))
    nu = random_prob((1, 2), spawn_stream(67, 0))
    for flavor in ("counts", "partition", "runtimes"):
        est = mc_solution_estimate(cfg, nu, 2.0, replicates=64, seed=67, flavor=flavor)
        assert l1_distance(est.mean, nu) < 1e-14
        # replicates are identical; the reduction leaves rounding dust only
        assert np.all(est.stderr < 1e-15)


def test_mc_estimate_validation():
    cfg = SiteConfig(n=1, i_star=1, s=1.0, rho=(0.0,))
    nu = ProbabilityMeasure((1,), [0.4, 0.6])
    with pytest.raises(ValueError):
        mc_solution_estimate(cfg, nu, 1.0, replicates=0, seed=1)
    with pytest.raises(ValueError):
        mc_solution_estimate(cfg, nu, 1.0, replicates=10, seed=1, flavor="other")


def test_mc_estimate_pure_selection_against_flow():
    cfg = SiteConfig(n=2, i_star=1, s=1.2, rho=(0.0, 0.0))
    nu = random_prob((1, 2), spawn_stream(71, 0))
    est = mc_solution_estimate(cfg, nu, 1.0, replicates=20000, seed=71)
    z = est.z_scores(selection_flow(cfg, nu, 1.0))
    assert np.max(np.abs(z)) < 3.0


def test_mc_estimate_all_flavors_against_ode():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    vals = np.array([0.22, 0.05, 0.08, 0.15, 0.10, 0.04, 0.06, 0.30])
    nu = ProbabilityMeasure((1, 2, 3), vals)
    t = 0.9
    ref = integrate_ode(
        cfg, nu, SolverSettings(t_max=t, grid_steps=512, quad_tol=1e-9)
    ).final_probability()
    for flavor in ("counts", "partition", "runtimes"):
        est = mc_solution_estimate(cfg, nu, t, replicates=15000, seed=79, flavor=flavor)
        z = est.z_scores(ref)
        assert np.max(np.abs(z)) < 3.0, flavor


def _stacked_rows(cfg, nu, start, t, replicates, seed):
    """The rows of _dual_rows, each put back at its replicate index; every
    replicate must come back exactly once."""
    out = np.empty((replicates, 2 ** cfg.n))
    seen = np.zeros(replicates, dtype=np.int64)
    for idx, rows in _dual_rows(cfg, nu, start, t, replicates, seed):
        out[idx] = rows
        seen[idx] += 1
    assert np.all(seen == 1)
    return out


def _drawn_start(cfg, flavor):
    # the start whose draws the flavor's sampler takes: a partition enters
    # as its encoded counts
    start = _canonical_start(cfg, flavor)
    return encode(start, cfg) if flavor == "partition" else start


def test_mc_estimate_repeat_runs_identical():
    # two blocks, so the merge of block moments runs too
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = random_prob((1, 2, 3), spawn_stream(83, 0))
    for flavor in ("counts", "partition", "runtimes"):
        kw = dict(replicates=BLOCK + 5, seed=83, flavor=flavor)
        one = mc_solution_estimate(cfg, nu, 0.7, **kw)
        two = mc_solution_estimate(cfg, nu, 0.7, **kw)
        assert np.array_equal(one.mean.values, two.mean.values)
        assert np.array_equal(one.stderr, two.stderr)


def _two_pass_reference(est, rows):
    """Compare an estimate with the exactly rounded (fsum) two-pass mean
    and standard error of the stacked rows.  Any float summation of reps
    positive terms may be off from them by (reps - 1) units of roundoff,
    which a wrong merge weight exceeds by orders of magnitude."""
    reps = rows.shape[0]
    rtol = reps * np.finfo(float).eps
    mean = np.array([math.fsum(col) / reps for col in rows.T])
    m2 = np.array([math.fsum(np.square(col - mu)) for col, mu in zip(rows.T, mean)])
    assert est.replicates == reps
    assert np.allclose(est.mean.values, mean, rtol=rtol, atol=0.0), est.flavor
    assert np.allclose(est.stderr, np.sqrt(m2 / (reps - 1) / reps), rtol=rtol, atol=0.0), est.flavor


def test_streamed_moments_match_two_pass_reduction():
    # three blocks, each one chunk
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = random_prob((1, 2, 3), spawn_stream(359, 0))
    reps = 2 * BLOCK + 7
    for flavor in ("counts", "partition", "runtimes"):
        est = mc_solution_estimate(cfg, nu, 0.7, replicates=reps, seed=359, flavor=flavor)
        _two_pass_reference(est, _stacked_rows(cfg, nu, _drawn_start(cfg, flavor), 0.7, reps, 359))


def test_streamed_moments_match_two_pass_reduction_across_chunks():
    # n = 12: a chunk holds 32 rows, and the largest started-set group of
    # the block is split over at least two chunks
    n, i_star, reps, seed = 12, 5, 600, 379
    rng = spawn_stream(seed, n)
    rho = tuple(0.0 if i == i_star else float(rng.uniform(0.1, 0.4)) for i in range(1, n + 1))
    cfg = SiteConfig(n=n, i_star=i_star, s=0.9, rho=rho)
    nu = random_prob(cfg.sites, rng)
    t = 0.7
    m = ypir_block_simulate(cfg, _canonical_start(cfg, "counts"), t, spawn_stream(seed, 0), reps)
    theta = initiation_block_simulate(
        cfg, InitiationState.initial(cfg), t, spawn_stream(seed, 0), reps
    )
    bits = 1 << np.arange(n)
    for flavor, started in (("counts", m > 0), ("runtimes", ~np.isnan(theta))):
        keys = started @ bits
        largest = np.bincount(keys).argmax()
        chunks = [np.any(keys[idx] == largest)
                  for idx, _ in _dual_rows(cfg, nu, _canonical_start(cfg, flavor), t, reps, seed)]
        assert len(chunks) == -(-reps // (_CHUNK_BYTES // (8 * 2 ** n))), flavor
        assert sum(chunks) >= 2, flavor
        est = mc_solution_estimate(cfg, nu, t, replicates=reps, seed=seed, flavor=flavor)
        _two_pass_reference(est, _stacked_rows(cfg, nu, _canonical_start(cfg, flavor), t, reps, seed))


@pytest.mark.parametrize("replicates", [BLOCK, 2 * BLOCK + 1])
def test_mc_estimate_holds_chunks_not_blocks(replicates):
    # at n = 12 a block of rows is 4096 x 4096 x 8 B = 134 MB; a run holds
    # a few 1 MB chunks, the drawn states of a block and the interval
    # marginals of b and d
    n, i_star = 12, 5
    rng = spawn_stream(373, n)
    rho = tuple(0.0 if i == i_star else float(rng.uniform(0.3, 1.5)) for i in range(1, n + 1))
    cfg = SiteConfig(n=n, i_star=i_star, s=0.9, rho=rho)
    nu = random_prob(cfg.sites, rng)
    for flavor in ("counts", "runtimes"):
        peak = traced_peak(lambda: mc_solution_estimate(cfg, nu, 1.0, replicates, 373, flavor))
        assert peak <= 8 * 2 ** 20, (flavor, peak / 2 ** 20)


def test_dual_rows_extend_block_by_block():
    # one more replicate opens a second block and leaves the first unchanged
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = random_prob((1, 2, 3), spawn_stream(349, 0))
    for flavor in ("counts", "partition", "runtimes"):
        start = _drawn_start(cfg, flavor)
        full = _stacked_rows(cfg, nu, start, 0.7, BLOCK, 349)
        more = _stacked_rows(cfg, nu, start, 0.7, BLOCK + 1, 349)
        assert np.array_equal(full, more[:BLOCK])


def test_dual_rows_match_per_state_duality_functions():
    # the grouped evaluation reproduces the duality functions state by
    # state: selected site inside, first and last, a zero-rate site, n = 6
    for cfg in (
        SiteConfig(n=4, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5, 0.3)),
        SiteConfig(n=4, i_star=1, s=0.8, rho=(0.0, 0.9, 0.5, 0.3)),
        SiteConfig(n=5, i_star=5, s=0.8, rho=(0.4, 0.7, 0.5, 0.3, 0.0)),
        SiteConfig(n=5, i_star=3, s=0.8, rho=(0.6, 0.0, 0.0, 0.8, 0.5)),
        SiteConfig(n=6, i_star=4, s=1.1, rho=(0.5, 0.3, 0.8, 0.0, 0.6, 0.4)),
    ):
        _check_rows_against_duality_functions(cfg)
    # degenerate partitions: one site; only the selected site started (no
    # site can start); every site started, each in a one-site block, with
    # the selected site inside, first and last
    for cfg, started in (
        (SiteConfig(n=1, i_star=1, s=0.8, rho=(0.0,)), (True,)),
        (SiteConfig(n=4, i_star=3, s=0.8, rho=(0.0,) * 4), (False, False, True, False)),
        (SiteConfig(n=5, i_star=3, s=0.8, rho=(9.0, 9.0, 0.0, 9.0, 9.0)), (True,) * 5),
        (SiteConfig(n=5, i_star=1, s=0.8, rho=(0.0, 9.0, 9.0, 9.0, 9.0)), (True,) * 5),
        (SiteConfig(n=5, i_star=5, s=0.8, rho=(9.0, 9.0, 9.0, 9.0, 0.0)), (True,) * 5),
    ):
        for seen in _check_rows_against_duality_functions(cfg):
            assert started in seen, cfg


def _check_rows_against_duality_functions(cfg):
    """Compare the rows of every flavor with the duality functions of the
    drawn states; returns the started-site patterns drawn by the counts
    and by the run-time sampler."""
    nu = random_prob(cfg.sites, spawn_stream(353, 0))
    t, reps = 0.9, 300
    m = ypir_block_simulate(cfg, _canonical_start(cfg, "counts"), t, spawn_stream(353, 0), reps)
    theta = initiation_block_simulate(
        cfg, InitiationState.initial(cfg), t, spawn_stream(353, 0), reps
    )
    rows = {f: _stacked_rows(cfg, nu, _drawn_start(cfg, f), t, reps, 353)
            for f in ("counts", "partition", "runtimes")}
    for r in range(reps):
        states = {
            "counts": duality_counts(cfg, m[r], nu),
            "partition": duality_partition(cfg, decode(m[r], cfg), nu),
            "runtimes": duality_runtimes(cfg, InitiationState(tuple(
                DELTA if np.isnan(v) else v for v in theta[r])), nu),
        }
        for f, ref in states.items():
            assert np.allclose(rows[f][r], ref.values, rtol=0.0, atol=1e-13), (cfg, f, r)
    return ({tuple(row) for row in (m > 0).tolist()},
            {tuple(row) for row in (~np.isnan(theta)).tolist()})


def _overwrite_chain_rows(cfg, nu, started, dweights):
    """The duality values of drawn states as the closed form's overwrite
    chain builds them, one state at a time: the mixture with the selected
    site's unfit weight on all sites, then, outward, each further started
    site's tail overwritten with the mixture of its weight."""
    chain = _DualityChain(cfg, nu)
    out = np.empty((len(started), 2 ** cfg.n))
    for r, (on, g) in enumerate(zip(started, dweights)):
        acc = chain.start(g[cfg.i_star - 1])
        for i in chain.order[1:]:
            if on[i - 1]:
                acc = chain.overwrite(acc, i, 1.0 - g[i - 1], g[i - 1])
        out[r] = acc
    return out


@pytest.mark.parametrize("n, i_star", [(6, 1), (10, 4), (12, 12)])
def test_dual_rows_meet_the_overwrite_chain(n, i_star):
    # the block products against the overwrite chain on the same draws,
    # for both samplers; the partition flavor draws the counts
    rng = spawn_stream(367, n)
    rho = tuple(0.0 if i == i_star else float(rng.uniform(0.3, 1.5)) for i in range(1, n + 1))
    cfg = SiteConfig(n=n, i_star=i_star, s=0.9, rho=rho)
    nu = random_prob(cfg.sites, rng)
    t, reps, seed = 1.0, 400, 367
    y = 1.0 - fit_fraction(nu, i_star)
    m = ypir_block_simulate(cfg, _canonical_start(cfg, "counts"), t, spawn_stream(seed, 0), reps)
    theta = initiation_block_simulate(
        cfg, InitiationState.initial(cfg), t, spawn_stream(seed, 0), reps
    )
    drawn = {
        "counts": (m > 0, y ** m),
        "runtimes": (~np.isnan(theta), 1.0 - logistic_fit_fraction(cfg.s, 1.0 - y, theta)),
    }
    for flavor, (started, dweights) in drawn.items():
        rows = _stacked_rows(cfg, nu, _canonical_start(cfg, flavor), t, reps, seed)
        ref = _overwrite_chain_rows(cfg, nu, started, dweights)
        assert len({tuple(r) for r in started.tolist()}) > 10, flavor
        gap = np.abs(rows - ref).sum(axis=1)
        assert gap.max() <= 1e-14, (flavor, gap.max())


@pytest.mark.parametrize("i_star", range(1, 7))
def test_every_started_set_meets_the_overwrite_chain(i_star):
    # every started set that holds the selected site, at n = 6: its block
    # products against the overwrite chain on random weights, and the
    # partition that a count vector with that started set cuts goes
    # through decode and encode unchanged
    n, rows = 6, 3
    rng = spawn_stream(379, i_star)
    cfg = SiteConfig(n=n, i_star=i_star, s=0.9,
                     rho=tuple(0.0 if i == i_star else 0.7 for i in range(1, n + 1)))
    nu = random_prob(cfg.sites, rng)
    chain = _DualityChain(cfg, nu)
    sets = [k for k in range(1 << n) if k >> (i_star - 1) & 1]
    assert len(sets) == 1 << (n - 1)
    for started in sets:
        on = np.array([started >> j & 1 for j in range(n)], dtype=bool)
        dweights = rng.uniform(size=(rows, n))
        out = np.empty((rows, 1 << n))
        chain.value(started, dweights, out)
        ref = _overwrite_chain_rows(cfg, nu, np.tile(on, (rows, 1)), dweights)
        gap = np.abs(out - ref).sum(axis=1)
        assert gap.max() <= 1e-14, (started, gap.max())
        m = on * rng.integers(1, 5, size=n)
        assert np.array_equal(encode(decode(m, cfg), cfg), m), started


# -- duality checks against the forward flow -----------------------------------------


def test_duality_check_zero_time_exact():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.6))
    nu = random_prob((1, 2), spawn_stream(89, 0))
    report = duality_check(cfg, nu, [1, 2], 0.0, replicates=200, seed=89)
    # both sides agree at rounding scale; the floored standard error keeps
    # the z scores from blowing the dust up
    assert np.allclose(report.lhs.values, report.mc_mean.values, atol=1e-14)
    assert report.max_abs_z < 0.1


def test_duality_check_counts_flavor():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = random_prob((1, 2, 3), spawn_stream(97, 0))
    report = duality_check(cfg, nu, [1, 2, 0], 0.9, replicates=20000, seed=97)
    assert report.flavor == "counts"
    assert report.max_abs_z < 3.0


def test_duality_check_partition_flavor():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = random_prob((1, 2, 3), spawn_stream(101, 0))
    wp = WeightedPartition(IntervalPartition(((1,), (2, 3))), (2, 1))
    report = duality_check(cfg, nu, wp, 0.8, replicates=20000, seed=101)
    assert report.flavor == "partition"
    assert report.max_abs_z < 3.0


def test_duality_check_runtimes_flavor():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = random_prob((1, 2, 3), spawn_stream(103, 0))
    st = InitiationState((0.4, 0.1, DELTA))
    report = duality_check(cfg, nu, st, 0.8, replicates=20000, seed=103)
    assert report.flavor == "runtimes"
    assert report.max_abs_z < 3.0


def test_duality_check_report_serializes():
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.6))
    nu = random_prob((1, 2), spawn_stream(107, 0))
    report = duality_check(cfg, nu, [1, 1], 0.5, replicates=500, seed=107)
    blob = json.dumps(report.to_dict())
    data = json.loads(blob)
    assert data["flavor"] == "counts"
    assert len(data["z"]) == 4
    assert data["replicates"] == 500


def test_two_pictures_estimate_the_same_solution():
    # the count picture and the run-time picture are started from the
    # single-individual state and must land on the same forward solution
    cfg = SiteConfig(n=2, i_star=1, s=1.1, rho=(0.0, 0.7))
    nu = ProbabilityMeasure((1, 2), [0.35, 0.15, 0.05, 0.45])
    t, reps = 0.8, 20000
    a = mc_solution_estimate(cfg, nu, t, replicates=reps, seed=109, flavor="counts")
    b = mc_solution_estimate(cfg, nu, t, replicates=reps, seed=113, flavor="runtimes")
    se = np.sqrt(a.stderr ** 2 + b.stderr ** 2)
    z = (a.mean.values - b.mean.values) / np.maximum(se, 1e-13)
    assert np.max(np.abs(z)) < 3.0
