import json

import numpy as np
import pytest

from selrec import (
    Measure,
    ProbabilityMeasure,
    SiteConfig,
    boxtimes,
    cond_fit,
    cond_unfit,
    delta,
    fit_fraction,
    fitness_projection,
    l1_distance,
    partition_recombinator,
    product_measure,
    recombinator,
    spawn_stream,
    tensor,
    uniform,
)
from selrec.measure import UNIT, Split, add_cut_products, scalar


def random_prob(sites, rng):
    v = rng.random(2 ** len(sites))
    return ProbabilityMeasure(tuple(sites), v / v.sum())


def test_point_mass_marginal():
    nu = delta((1, 2), (0, 1))
    m = nu.project({2})
    assert m.sites == (2,)
    assert np.allclose(m.values, [0.0, 1.0])


def test_uniform_marginal():
    nu = uniform((1, 2))
    m = nu.project({1})
    assert np.allclose(m.values, [0.5, 0.5])


def test_empty_projection_is_total_mass():
    rng = spawn_stream(0, 1)
    nu = random_prob((1, 2, 3), rng)
    m = nu.project(frozenset())
    assert m.is_scalar()
    assert m.mass() == pytest.approx(1.0)


def test_projection_composes():
    rng = spawn_stream(0, 2)
    for _ in range(20):
        nu = random_prob((1, 2, 3, 4), rng)
        A, B = {1, 3}, {1, 2, 3}
        lhs = nu.project(B).project(A)
        rhs = nu.project(A & B)
        assert np.allclose(lhs.values, rhs.values, atol=1e-14)


def test_tensor_of_point_masses():
    nu = tensor(delta((1,), (0,)), delta((2,), (1,)))
    assert nu == delta((1, 2), (0, 1))


def test_tensor_with_scalar_unit():
    rng = spawn_stream(0, 3)
    nu = random_prob((1, 2), rng)
    assert tensor(UNIT, nu).allclose(nu)
    assert tensor(nu, UNIT).allclose(nu)


def test_tensor_of_uniforms():
    got = tensor(uniform((1,)), uniform((2,)))
    assert got.allclose(uniform((1, 2)))


def test_tensor_rejects_overlap():
    rng = spawn_stream(0, 4)
    with pytest.raises(ValueError):
        tensor(random_prob((1, 2), rng), random_prob((2, 3), rng))


def test_boxtimes_cancellation():
    # second factor wins when its sites cover the first
    rng = spawn_stream(0, 5)
    for _ in range(50):
        mu = random_prob((1, 2), rng)
        nu = random_prob((1, 2, 3), rng)
        assert boxtimes(mu, nu).allclose(nu)


def test_boxtimes_disjoint_is_tensor():
    rng = spawn_stream(0, 6)
    mu = random_prob((1,), rng)
    nu = random_prob((2, 3), rng)
    assert boxtimes(mu, nu).allclose(tensor(mu, nu))


def test_boxtimes_associative():
    rng = spawn_stream(0, 7)
    all_sites = (1, 2, 3, 4)
    for _ in range(200):
        ms = []
        for _ in range(3):
            k = int(rng.integers(1, 5))
            sites = tuple(sorted(rng.choice(all_sites, size=k, replace=False)))
            ms.append(random_prob(sites, rng))
        a = boxtimes(boxtimes(ms[0], ms[1]), ms[2])
        b = boxtimes(ms[0], boxtimes(ms[1], ms[2]))
        assert a.sites == b.sites
        assert np.abs(a.values - b.values).max() < 1e-12


def test_boxtimes_disjoint_commutes():
    rng = spawn_stream(0, 8)
    mu = random_prob((1, 4), rng)
    nu = random_prob((2,), rng)
    assert boxtimes(mu, nu).allclose(boxtimes(nu, mu))


def test_recombinator_fixes_products():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.5, 0.0, 0.5))
    nu = product_measure((1, 2, 3), [0.2, 0.6, 0.9])
    head, tail = cfg.head_tail(3)
    assert recombinator(nu, head, tail).allclose(nu)


def test_recombinator_idempotent():
    rng = spawn_stream(0, 9)
    cfg = SiteConfig(n=4, i_star=2, s=1.0, rho=(0.5, 0.0, 0.5, 0.5))
    for i in (1, 3, 4):
        head, tail = cfg.head_tail(i)
        for _ in range(20):
            nu = random_prob(cfg.sites, rng)
            once = recombinator(nu, head, tail)
            twice = recombinator(once, head, tail)
            assert twice.allclose(once)
            assert once.mass() == pytest.approx(1.0)


def test_recombinator_two_sites():
    # half mass on (0,0), half on (1,1): both marginals uniform
    nu = Measure((1, 2), np.array([0.5, 0.0, 0.0, 0.5]))
    got = recombinator(nu, {1}, {2})
    assert got.allclose(uniform((1, 2)))


def assert_split_matches_recombinator(sites, head, tail, rng):
    V = rng.random((5, 2 ** len(sites)))
    split = Split(sites, head, tail)
    via_marginals = split.product(split.head(V), split.tail(V))
    for row, m in zip(V, via_marginals):
        expect = recombinator(Measure(sites, row), head, tail).values
        assert np.array_equal(m, expect)


def test_split_kernel_matches_recombinator_at_every_crossover():
    # every crossover cuts the sites into two contiguous bit ranges
    rng = spawn_stream(0, 12)
    for n in range(1, 9):
        for i_star in range(1, n + 1):
            cfg = SiteConfig(n=n, i_star=i_star, s=1.0, rho=(0.0,) * n)
            for i in cfg.crossover_sites:
                assert_split_matches_recombinator(cfg.sites, *cfg.head_tail(i), rng)


def test_split_kernel_on_marginal_subset():
    rng = spawn_stream(0, 13)
    cfg = SiteConfig(n=8, i_star=4, s=1.0, rho=(0.3,) * 3 + (0.0,) + (0.3,) * 4)
    A = (1, 3, 4, 6, 7)
    for i in cfg.marginal_rates(A):
        head, tail = cfg.head_tail(i)
        assert_split_matches_recombinator(A, head & set(A), tail & set(A), rng)


def test_split_refuses_non_contiguous_blocks():
    with pytest.raises(ValueError, match="contiguous"):
        Split((1, 2, 3), {1, 3}, {2})
    with pytest.raises(ValueError, match="partition"):
        Split((1, 2, 3), {1}, {2})


def test_cut_products_refuse_cuts_outside_the_sites():
    v = np.full(8, 0.125)
    for bad in ({0: 1.0}, {3: 1.0}):
        with pytest.raises(ValueError, match="n_lo"):
            add_cut_products(np.zeros(8), v, bad)
    # a strided out would be reshaped into a copy and the sum lost
    with pytest.raises(ValueError, match="flat vectors"):
        add_cut_products(np.zeros(16)[::2], v, {1: 1.0})


def test_partition_recombinator_identity_and_single_cut():
    rng = spawn_stream(0, 10)
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.5, 0.0, 0.5))
    nu = random_prob(cfg.sites, rng)
    assert partition_recombinator(nu, [set(cfg.sites)]).allclose(nu)
    head, tail = cfg.head_tail(3)
    assert partition_recombinator(nu, [head, tail]).allclose(
        recombinator(nu, head, tail))


def test_partition_recombinator_singletons():
    rng = spawn_stream(0, 11)
    nu = random_prob((1, 2, 3), rng)
    got = partition_recombinator(nu, [{1}, {2}, {3}])
    expect = tensor(tensor(nu.project({1}), nu.project({2})), nu.project({3}))
    assert got.allclose(expect)


def test_conditioning_on_point_mass():
    nu = delta((1, 2), (0, 1))  # fit at site 1
    assert fit_fraction(nu, 1) == pytest.approx(1.0)
    assert cond_fit(nu, 1).allclose(nu)
    assert cond_unfit(nu, 1).allclose(nu)  # complement rule


def test_conditioning_single_site():
    nu = ProbabilityMeasure((1,), np.array([0.3, 0.7]))
    assert fit_fraction(nu, 1) == pytest.approx(0.3)
    assert cond_fit(nu, 1).allclose(delta((1,), (0,)))
    assert cond_unfit(nu, 1).allclose(delta((1,), (1,)))


def test_fitness_projection_right_multiplicative():
    rng = spawn_stream(0, 12)
    for _ in range(50):
        mu = random_prob((1, 2, 3), rng)
        nu = random_prob((3,), rng)  # sites away from the selected site 1
        lhs = fitness_projection(boxtimes(mu, nu), 1)
        rhs = boxtimes(fitness_projection(mu, 1), nu)
        assert lhs.allclose(rhs)
        assert fit_fraction(boxtimes(mu, nu), 1) == pytest.approx(
            fit_fraction(mu, 1))


def test_fitness_projection_idempotent():
    rng = spawn_stream(0, 13)
    mu = random_prob((1, 2), rng)
    once = fitness_projection(mu, 1)
    assert fitness_projection(once, 1).allclose(once)


def test_l1_distance():
    rng = spawn_stream(0, 14)
    nu = random_prob((1, 2), rng)
    assert l1_distance(nu, nu) == 0.0
    assert l1_distance(delta((1,), (0,)), delta((1,), (1,))) == pytest.approx(2.0)


def test_probability_measure_validation():
    with pytest.raises(ValueError):
        ProbabilityMeasure((1,), np.array([0.4, 0.4]))
    with pytest.raises(ValueError):
        ProbabilityMeasure((1,), np.array([1.5, -0.5]))
    for bad in ([np.nan, 0.5], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="total mass"):
            ProbabilityMeasure((1,), np.array(bad))
    # tiny negativity from roundoff is tolerated
    ProbabilityMeasure((1,), np.array([1.0 + 1e-13, -1e-13]))


def test_measure_immutable():
    nu = uniform((1, 2))
    with pytest.raises(ValueError):
        nu.values[0] = 0.9
    with pytest.raises(AttributeError):
        nu.sites = (3,)


def test_json_round_trip():
    rng = spawn_stream(0, 15)
    nu = random_prob((2, 5, 7), rng)
    s = nu.to_json()
    parsed = json.loads(s)
    assert parsed["sites"] == [2, 5, 7]
    back = Measure.from_json(s)
    assert back.sites == nu.sites
    assert np.allclose(back.values, nu.values, atol=0)


def test_scalar_arithmetic():
    c = scalar(0.25)
    assert c.is_scalar() and c.mass() == pytest.approx(0.25)
    nu = uniform((1,))
    assert boxtimes(c, nu).mass() == pytest.approx(0.25)
