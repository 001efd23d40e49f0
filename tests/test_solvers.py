import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import cumulative_trapezoid

import selrec.solvers
from selrec import (
    GridTooCoarseError,
    Measure,
    ProbabilityMeasure,
    SiteConfig,
    SolverSettings,
    Trajectory,
    asymptotic_limit,
    cond_fit,
    cond_unfit,
    delta,
    equilibration_time,
    fitness_projection,
    fit_fraction,
    integrate_ode,
    l1_distance,
    ld_decay_residuals,
    linkage_disequilibrium,
    logistic_fit_fraction,
    marginal_sre_solve,
    product_measure,
    recombinator,
    recursive_solve,
    selection_flow,
    semigroup_path,
    semigroup_solve,
    spawn_stream,
    sre_rhs,
    stationary_count_pgf,
    uniform,
    ypir_stationary,
)
from selrec.measure import Split
from selrec.solvers import (
    _BLOCK_BYTES,
    SolverError,
    _cumulative_trapezoid,
    grid_index,
    make_rhs,
)

from conftest import traced_peak


def random_prob(sites, rng):
    v = rng.random(2 ** len(sites))
    return ProbabilityMeasure(tuple(sites), v / v.sum())


def random_cfg(rng, n_max=4, allow_zero_rho=True):
    n = int(rng.integers(1, n_max + 1))
    i_star = int(rng.integers(1, n + 1))
    s = float(rng.uniform(0.1, 2.0))
    lo = 0.0 if allow_zero_rho else 0.05
    rho = [float(rng.uniform(lo, 2.0)) for _ in range(n)]
    rho[i_star - 1] = 0.0
    return SiteConfig(n=n, i_star=i_star, s=s, rho=tuple(rho))


def _reference_levels(cfg, nu, times, permutation):
    """Every level of the recursion on the grid times, each built whole
    from the one below.  Level 0 is the selection-only flow; level k adds
    site permutation[k] at rate rho as decay * below + head(below) times
    the trapezoid integral of rho * decay * tail(below), with decay =
    exp(-rho * t); a zero-rate site is skipped, its level being the one
    below.  The solvers build the same levels one row block at a time from
    coefficient columns, with no skip, so they agree to rounding."""
    fv = fitness_projection(nu, cfg.i_star).values
    f0 = float(fv.sum())
    e = np.exp(np.minimum(cfg.s * times, 500.0))
    level = (e[:, None] * fv + (nu.values - fv)) / (e * f0 + (1.0 - f0))[:, None]
    levels = [level]
    for i in permutation[1:]:
        rate = cfg.rho_of(i)
        if rate != 0.0:
            split = cfg.split(i)
            decay = np.exp(-rate * times)
            integ = cumulative_trapezoid((rate * decay)[:, None] * split.tail(level), x=times,
                                         axis=0, initial=0.0)
            level = decay[:, None] * level + split.product(split.head(level), integ)
        levels.append(level)
    return levels


def levels_of(cfg, nu, settings, permutation=None):
    """Every level of the reference recursion on the settings' grid, with
    the grid and the site order."""
    times = settings.grid()
    perm = cfg.ordering(permutation)
    return times, perm, _reference_levels(cfg, nu, times, perm)


# the initial vector of configs/example.json
EXAMPLE_VECTOR = [0.22, 0.05, 0.08, 0.15, 0.10, 0.04, 0.06, 0.30]


# -- selection flow ------------------------------------------------------------


def test_selection_flow_identity_at_zero():
    rng = spawn_stream(101, 0)
    nu = random_prob((1, 2), rng)
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.4))
    assert selection_flow(cfg, nu, 0.0).allclose(nu)


def test_selection_flow_fit_fraction_value():
    """Fit fraction 1/2 reaches 2/3 after time ln 2 at unit strength."""
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.4))
    nu = product_measure((1, 2), [0.5, 0.3])
    out = selection_flow(cfg, nu, math.log(2.0))
    assert fit_fraction(out, 1) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert logistic_fit_fraction(1.0, 0.5, math.log(2.0)) == pytest.approx(
        2.0 / 3.0, abs=1e-14)


def test_selection_flow_fixed_points():
    cfg = SiteConfig(n=2, i_star=1, s=1.3, rho=(0.0, 0.4))
    rng = spawn_stream(101, 1)
    for bit in (0, 1):
        # all mass on one fitness class
        v = rng.random(4)
        if bit == 0:
            v[[1, 3]] = 0.0
        else:
            v[[0, 2]] = 0.0
        nu = ProbabilityMeasure((1, 2), v / v.sum())
        assert selection_flow(cfg, nu, 3.0).allclose(nu)


def test_selection_flow_preserves_conditionals():
    rng = spawn_stream(101, 2)
    cfg = SiteConfig(n=3, i_star=2, s=0.9, rho=(0.3, 0.0, 0.2))
    nu = random_prob((1, 2, 3), rng)
    out = selection_flow(cfg, nu, 1.7)
    assert cond_fit(out, 2).allclose(cond_fit(nu, 2), atol=1e-12)


def test_selection_flow_large_time_saturates():
    cfg = SiteConfig(n=1, i_star=1, s=2.0, rho=(0.0,))
    nu = ProbabilityMeasure((1,), np.array([0.2, 0.8]))
    out = selection_flow(cfg, nu, 1e6)
    assert out.allclose(delta((1,), (0,)), atol=1e-12)


# -- right hand side ------------------------------------------------------------


def test_rhs_vanishes_at_fixed_points():
    # product measure with all mass fit: both generators are zero
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.5, 0.0, 0.7))
    nu = product_measure((1, 2, 3), [0.4, 0.0, 0.8])
    assert np.abs(sre_rhs(cfg, nu).values).max() < 1e-14


def test_rhs_zero_for_product_when_no_selection():
    cfg = SiteConfig(n=3, i_star=2, s=0.0, rho=(0.5, 0.0, 0.7))
    nu = product_measure((1, 2, 3), [0.4, 0.6, 0.8])
    assert np.abs(sre_rhs(cfg, nu).values).max() < 1e-14


def test_rhs_conserves_mass():
    rng = spawn_stream(101, 3)
    for _ in range(1000):
        cfg = random_cfg(rng)
        nu = random_prob(cfg.sites, rng)
        assert abs(sre_rhs(cfg, nu).mass()) < 1e-12


def test_vector_field_matches_per_cut_recombinator():
    # the bound is fixed up front at about 8 n eps times the size of the
    # terms summed; an index slip in the prefix/suffix sweep is of the size
    # of the terms themselves
    rng = spawn_stream(101, 41)
    for n in range(1, 11):
        for i_star in range(1, n + 1):
            for s in (0.0, 0.9):
                rho = rng.uniform(0.1, 1.0, n)
                rho[rng.random(n) < 0.3] = 0.0
                rho[i_star - 1] = 0.0
                cfg = SiteConfig(n=n, i_star=i_star, s=s, rho=tuple(rho))
                nu = random_prob(cfg.sites, rng)
                fv = fitness_projection(nu, i_star).values
                expect = s * (fv - fv.sum() * nu.values)
                scale = s * np.abs(nu.values).max()
                for i in cfg.crossover_sites:
                    R = recombinator(nu, *cfg.head_tail(i)).values
                    expect = expect + cfg.rho_of(i) * (R - nu.values)
                    scale += cfg.rho_of(i) * (np.abs(R).max() + np.abs(nu.values).max())
                got = make_rhs(cfg)(nu.values)
                assert np.abs(got - expect).max() <= 1e-14 * scale


def test_vector_field_without_rates_is_the_selection_term_exactly():
    # the zero-rate recombination terms add exact zeros: every bit of the
    # selection term stays, and at s = 0 no -0.0 appears
    rng = spawn_stream(101, 42)
    for n, i_star in ((1, 1), (4, 2)):
        for s in (0.0, 1.3):
            cfg = SiteConfig(n=n, i_star=i_star, s=s, rho=(0.0,) * n)
            nu = random_prob(cfg.sites, rng)
            fv = fitness_projection(nu, i_star).values
            expect = np.zeros(2 ** n)
            if s:
                expect += s * (fv - float(fv.sum()) * nu.values)
            got = make_rhs(cfg)(nu.values)
            assert got.tobytes() == expect.tobytes()
            if s == 0.0:
                assert not np.signbit(got).any()


# -- ODE integration -------------------------------------------------------------


_ODE_DIGESTS = """
import hashlib
import numpy as np
from selrec import ProbabilityMeasure, SiteConfig, SolverSettings, integrate_ode
for n in (12, 14):
    rng = np.random.default_rng(n)
    rho = tuple(0.0 if i == 1 else float(rng.uniform(0.1, 0.5)) for i in range(1, n + 1))
    cfg = SiteConfig(n=n, i_star=1, s=0.7, rho=rho)
    nu = ProbabilityMeasure(cfg.sites, rng.dirichlet(np.ones(2 ** n)))
    settings = SolverSettings(t_max=0.05, grid_steps=2, quad_tol=1e-3)
    values = integrate_ode(cfg, nu, settings).values
    print(n, hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_ode_bits_independent_of_blas_threads():
    # OpenBLAS splits a dot product over its threads above about 10^4
    # entries (n = 14), and the split changes the summation order
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _ODE_DIGESTS],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.append(proc.stdout)
    assert len(digests[0].splitlines()) == 2
    assert digests[0] == digests[1]


def test_ode_halves_the_step_after_a_collapsed_run():
    # two grid cells over [0, 20]: the run with one substep per cell
    # collapses, and the step is halved until the runs converge on the
    # closed form
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    traj = integrate_ode(cfg, nu, SolverSettings(t_max=20.0, grid_steps=2, quad_tol=1e-7))
    for t in (10.0, 20.0):
        assert l1_distance(traj.at_time(t), semigroup_solve(cfg, nu, t)) < 1e-6


def count_calls(monkeypatch, name):
    """A list that grows by the positional arguments of each call of the
    solvers function name."""
    calls = []
    real = getattr(selrec.solvers, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(selrec.solvers, name, wrapper)
    return calls


def off_rate_closed_form(monkeypatch):
    """Plant a defect in the closed form only: semigroup_path solves a
    model that has crossover sites with the first one's rate 1 % high."""
    real = selrec.solvers.semigroup_path

    def planted(cfg, omega0, times):
        rho = list(cfg.rho)
        for i in cfg.crossover_sites[:1]:
            rho[i - 1] *= 1.01
        return real(dataclasses.replace(cfg, rho=tuple(rho)), omega0, times)

    monkeypatch.setattr(selrec.solvers, "semigroup_path", planted)


def test_ode_returns_its_first_run_within_tolerance_of_the_closed_form(monkeypatch):
    # the example model at 512 steps: one substep per cell already meets
    # quad_tol against the closed form, so no run confirms it
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    runs = count_calls(monkeypatch, "_rk4_run")
    traj = integrate_ode(cfg, nu, SolverSettings(t_max=1.0, grid_steps=512, quad_tol=1e-7))
    assert len(runs) == 1
    assert l1_distance(traj.final(), semigroup_solve(cfg, nu, 1.0)) < 1e-7


def test_ode_refuses_a_converged_run_away_from_the_closed_form(monkeypatch):
    # the second run agrees with the first but not with the closed form:
    # SolverError names the gap instead of halving the step 20 times
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    off_rate_closed_form(monkeypatch)
    runs = count_calls(monkeypatch, "_rk4_run")
    with pytest.raises(SolverError, match=r"converged \S+ in l1 away from the closed form"):
        integrate_ode(cfg, nu, SolverSettings(t_max=1.0, grid_steps=512, quad_tol=1e-7))
    assert len(runs) == 2


@pytest.mark.parametrize(
    "t_max, steps, times",
    [(1.0, 512, [0.75, 0.0, 0.25, 0.75, 1.0]),
     # the first run collapses and the step is halved
     (20.0, 2, [20.0, 0.0, 10.0, 20.0]),
     (0.0, 4, [0.0, 0.0])],
    ids=["example", "halved", "t-max-0"],
)
def test_ode_rows_at_times_equal_the_full_runs_rows(t_max, steps, times):
    # times out of order, repeated and at t = 0: the stored rows are the
    # whole-grid run's rows at those times, with its mass drift, bit for bit
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    settings = SolverSettings(t_max=t_max, grid_steps=steps, quad_tol=1e-7)
    full = integrate_ode(cfg, nu, settings)
    rows = integrate_ode(cfg, nu, settings, times)
    idx = [grid_index(full.times, t) for t in times]
    assert np.array_equal(rows.times, full.times[idx])
    assert np.array_equal(rows.values, full.values[idx])
    assert rows.mass_drift == full.mass_drift and rows.sites == cfg.sites


def test_ode_refuses_a_time_off_the_grid_before_any_step(monkeypatch):
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    runs = count_calls(monkeypatch, "_rk4_run")
    with pytest.raises(ValueError, match="not on the solver grid"):
        integrate_ode(cfg, nu, SolverSettings(t_max=1.0, grid_steps=4), [0.5, 0.3])
    assert runs == []


def test_ode_constant_when_all_rates_vanish():
    cfg = SiteConfig(n=2, i_star=1, s=0.0, rho=(0.0, 0.0))
    rng = spawn_stream(101, 4)
    nu = random_prob((1, 2), rng)
    traj = integrate_ode(cfg, nu, SolverSettings(t_max=2.0, grid_steps=32))
    assert np.abs(traj.values - nu.values[None, :]).max() < 1e-14


def test_ode_matches_selection_flow():
    rng = spawn_stream(101, 5)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        i_star = int(rng.integers(1, n + 1))
        cfg = SiteConfig(n=n, i_star=i_star, s=float(rng.uniform(0.2, 2.0)),
                         rho=(0.0,) * n)
        nu = random_prob(cfg.sites, rng)
        traj = integrate_ode(cfg, nu,
                             SolverSettings(t_max=1.0, grid_steps=256, quad_tol=1e-10))
        assert l1_distance(traj.final(), selection_flow(cfg, nu, 1.0)) < 1e-8


def test_ode_matches_pure_recombination_closed_form():
    """Two sites, no selection: exponential relaxation onto the product."""
    rng = spawn_stream(101, 6)
    rho = 0.9
    cfg = SiteConfig(n=2, i_star=1, s=0.0, rho=(0.0, rho))
    nu = random_prob((1, 2), rng)
    R = recombinator(nu, *cfg.head_tail(2))
    st = SolverSettings(t_max=1.5, grid_steps=600, quad_tol=1e-10)
    traj = integrate_ode(cfg, nu, st)
    for t in (0.5, 1.0, 1.5):
        w = math.exp(-rho * t)
        expect = nu.scale(w).add(R.scale(1.0 - w))
        assert l1_distance(traj.at_time(t), expect) < 1e-9


def test_trajectory_time_lookup():
    cfg = SiteConfig(n=1, i_star=1, s=1.0, rho=(0.0,))
    nu = uniform((1,))
    traj = integrate_ode(cfg, nu, SolverSettings(t_max=1.0, grid_steps=10))
    assert traj.index_of_time(0.5) == 5
    with pytest.raises(ValueError):
        traj.index_of_time(0.55)


def _grid_solver_calls():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    settings = SolverSettings(t_max=1.0, grid_steps=8, quad_tol=1e-3)
    traj = Trajectory(settings.grid(), cfg.sites, np.zeros((9, 8)))
    return {
        "integrate_ode": lambda t: integrate_ode(cfg, nu, settings, [0.5, t]),
        "recursive_solve": lambda t: recursive_solve(cfg, nu, settings, [0.5, t]),
        "ld_decay_residuals": lambda t: ld_decay_residuals(cfg, nu, settings, [0.5, t]),
        "at_time": traj.at_time,
    }


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(_grid_solver_calls()))
def test_grid_times_refuse_non_finite_values(name, t):
    # NaN and infinity compare false with the grid's tolerance: they must
    # not be taken for the row at t = 0
    with pytest.raises(ValueError, match="not on the solver grid"):
        _grid_solver_calls()[name](t)


# -- recursion --------------------------------------------------------------------

def test_trapezoid_prefix_sum_matches_scipy_bits(monkeypatch):
    times = np.linspace(0.0, 0.7, 129)  # steps unequal in the last bits
    y = spawn_stream(101, 31).random((129, 64))
    assert np.array_equal(
        _cumulative_trapezoid(y, times),
        cumulative_trapezoid(y, x=times, axis=0, initial=0.0),
    )
    # the levels built in row blocks of 1, 2, 7 and all 129 rows: the same
    # bits at every block size, within 1e-13 in l1 per row of the reference
    # built whole on SciPy's integral; with the selected site first the
    # first tail is n - 1 sites wide
    cfg = SiteConfig(n=7, i_star=1, s=0.8, rho=(0.0, 0.7, 0.4, 0.9, 0.3, 0.6, 0.5))
    nu = random_prob(cfg.sites, spawn_stream(101, 32))
    settings = SolverSettings(t_max=0.7, grid_steps=128, quad_tol=1e-3)
    expect = levels_of(cfg, nu, settings)[2][-1]
    row = 2 ** cfg.n * 8
    first = None
    for rows in (1, 2, 7, 129):
        monkeypatch.setattr(selrec.solvers, "_BLOCK_BYTES", rows * row)
        got = recursive_solve(cfg, nu, settings).values
        assert np.abs(got - expect).sum(axis=1).max() <= 1e-13, rows
        first = got if first is None else first
        assert np.array_equal(got, first), rows


def test_tail_only_recursion_level_matches_full_array_formula():
    # a level integrates rate * decay * (tail marginal of the level below);
    # by linearity that is the tail marginal of the full-array integral
    rng = spawn_stream(101, 43)
    for n, i_star in ((2, 1), (4, 2), (6, 4)):
        rho = tuple(0.0 if i == i_star else float(rng.uniform(0.2, 1.5))
                    for i in range(1, n + 1))
        cfg = SiteConfig(n=n, i_star=i_star, s=0.8, rho=rho)
        nu = random_prob(cfg.sites, rng)
        times, perm, levels = levels_of(
            cfg, nu, SolverSettings(t_max=1.0, grid_steps=128, quad_tol=1e-4)
        )
        for k in range(1, n):
            i = perm[k]
            rate = cfg.rho_of(i)
            split = cfg.split(i)
            prev = levels[k - 1]
            decay = np.exp(-rate * times)
            full = _cumulative_trapezoid((rate * decay)[:, None] * prev, times)
            expect = decay[:, None] * prev + split.product(split.head(prev), split.tail(full))
            assert np.abs(levels[k] - expect).max() < 1e-14


def test_recursion_levels_degenerate_without_rate():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.0, 0.0, 0.8))
    rng = spawn_stream(101, 7)
    nu = random_prob(cfg.sites, rng)
    _, _, levels = levels_of(cfg, nu, SolverSettings(t_max=1.0, grid_steps=512,
                                                     quad_tol=1e-5))
    # permutation (2, 1, 3): site 1 has rate zero, level 1 equals level 0
    assert np.array_equal(levels[1], levels[0])
    # and the engine's residual at site 1 compares two levels of equal bits
    _, residuals = ld_decay_residuals(cfg, nu, SolverSettings(t_max=1.0, grid_steps=512,
                                                               quad_tol=1e-5), ())
    assert residuals[0]["site"] == 1 and residuals[0]["max_abs_error"] == 0.0
    assert np.array_equal(residuals[0]["lhs_norms"], residuals[0]["below_norms"])


def _residual_out_of_place(cfg, i, times, level, below):
    # the residual of ld_decay_residuals at site i on the rows of level and
    # the level below, with a fresh array for every step
    rate = cfg.rho_of(i)
    split = cfg.split(i)

    def deviation(W):
        return W - split.product(split.head(W), split.tail(W))

    lhs = deviation(level)
    dev_below = deviation(below)
    rhs = np.exp(-rate * times)[:, None] * dev_below
    norms = np.abs(lhs).sum(axis=1)
    err = np.abs(lhs - rhs).sum(axis=1)
    return {
        "site": i,
        "rate": rate,
        "max_abs_error": float(err.max()),
        "max_relative_error": float(err.max() / max(float(norms.max()), 1e-30)),
        "lhs_norms": norms,
        "below_norms": np.abs(dev_below).sum(axis=1),
    }


def test_streamed_walk_equals_the_level_list_bit_for_bit():
    # the solution and every residual of the row-block engine against the
    # same quantities from the whole-level reference, on random models with
    # n <= 8, a zero-rate crossover site and n = 1 (no residuals).  The
    # engine integrates coefficient columns, not the levels' tail
    # marginals, so the levels agree within 1e-13 in l1 per row and the
    # residuals within 1e-13, not bit for bit
    rng = spawn_stream(101, 44)
    cfgs = [random_cfg(rng, n_max=8) for _ in range(6)]
    cfgs += [SiteConfig(n=4, i_star=2, s=0.9, rho=(0.7, 0.0, 0.0, 1.3)),
             SiteConfig(n=1, i_star=1, s=0.6, rho=(0.0,))]
    for cfg in cfgs:
        nu = random_prob(cfg.sites, rng)
        settings = SolverSettings(t_max=1.0, grid_steps=64, quad_tol=1e-3)
        times, perm, levels = levels_of(cfg, nu, settings)
        rec = recursive_solve(cfg, nu, settings)
        sol, residuals = ld_decay_residuals(cfg, nu, settings)
        assert np.abs(rec.values - levels[-1]).sum(axis=1).max() <= 1e-13
        assert np.abs(sol.values - levels[-1]).sum(axis=1).max() <= 1e-13
        assert np.array_equal(rec.times, times) and rec.sites == cfg.sites
        assert len(residuals) == cfg.n - 1
        for k, got in enumerate(residuals, start=1):
            expect = _residual_out_of_place(cfg, perm[k], times, levels[k], levels[k - 1])
            assert got.keys() == expect.keys()
            assert (got["site"], got["rate"]) == (expect["site"], expect["rate"])
            for key in ("lhs_norms", "below_norms"):
                assert np.abs(got[key] - expect[key]).max() <= 1e-13, (cfg, k, key)
            assert abs(got["max_abs_error"] - expect["max_abs_error"]) <= 1e-13
            scale = max(float(expect["lhs_norms"].max()), 1e-30)
            gap = abs(got["max_relative_error"] - expect["max_relative_error"])
            assert gap <= 2e-13 / scale, (cfg, k)
        # a zero-rate site leaves the level as it is: no error, equal norms
        for got in residuals:
            if got["rate"] == 0.0:
                assert got["max_abs_error"] == 0.0
                assert np.array_equal(got["lhs_norms"], got["below_norms"])


def test_streamed_walk_equals_the_level_list_bit_for_bit_in_one_row_blocks(monkeypatch):
    # the levels and residuals built one row at a time: the random models
    # above fit one default block, so this is the per-row side of the check
    monkeypatch.setattr(selrec.solvers, "_BLOCK_BYTES", 1)
    test_streamed_walk_equals_the_level_list_bit_for_bit()


def _budget_model(i_star=5):
    # n = 10; with the selected site in the middle every tail marginal is
    # at most 2^5 wide, with it first or last the first tail is 2^9 wide
    rng = spawn_stream(101, 45)
    rho = tuple(0.0 if i == i_star else float(rng.uniform(0.2, 0.8)) for i in range(1, 11))
    cfg = SiteConfig(n=10, i_star=i_star, s=0.8, rho=rho)
    return cfg, random_prob(cfg.sites, rng), SolverSettings(t_max=1.0, grid_steps=256,
                                                            quad_tol=1e-4)


@pytest.mark.parametrize(
    "solver, i_star",
    [pytest.param(solver, i_star, id=name if i_star == 5 else f"{name}-i_star-{i_star}")
     for solver, name in ((recursive_solve, "recursive_solve"),
                          (ld_decay_residuals, "ld_decay_residuals"))
     for i_star in (1, 5, 10)],
)
def test_recursion_holds_two_levels_and_row_blocks(solver, i_star):
    # the whole grid's rows are the one level held, and the residuals add
    # row blocks and grid columns only: well under the two levels the name
    # allows
    cfg, nu, settings = _budget_model(i_star)
    peak = traced_peak(lambda: solver(cfg, nu, settings))
    assert peak <= _rows_blocks_and_columns(cfg, settings, settings.grid_steps + 1), peak


def _rows_blocks_and_columns(cfg, settings, rows) -> int:
    """What the recursion may hold: full vectors at rows grid rows,
    six row blocks (a block, the one below it, a product and the residual's
    two deviations), O(n * grid) grid columns (each site's decay and tail
    integral columns, the arms' coefficients and the residual norms), and
    the closed-form check's vectors, within 24 rows."""
    row = 2 ** cfg.n * 8
    block = max(1, _BLOCK_BYTES // row) * row
    columns = (3 * cfg.n + 16) * (settings.grid_steps + 1) * 8
    return rows * row + 6 * block + columns + 24 * row


@pytest.mark.parametrize("times", ["end", "no-rows"])
@pytest.mark.parametrize("i_star", [1, 5, 10])
def test_ld_residuals_hold_row_blocks_and_grid_columns(i_star, times):
    # verify's end point and ld's no rows: one row held, well under one
    # level of 257 rows (the whole grid is the test above)
    cfg, nu, settings = _budget_model(i_star)
    times = {"end": (settings.t_max,), "no-rows": ()}[times]
    peak = traced_peak(lambda: ld_decay_residuals(cfg, nu, settings, times))
    bound = _rows_blocks_and_columns(cfg, settings, 1)
    assert peak <= bound < (settings.grid_steps + 1) * 2 ** cfg.n * 8, peak


@pytest.mark.parametrize("i_star", [1, 5, 10])
def test_recursion_without_times_holds_one_level(i_star):
    # every grid row through _level_rows: one level of returned rows and,
    # beside it, a block, the block below it and a product, with every
    # site's grid columns, within four row blocks and 16 grid columns; and
    # the closed-form check's vectors within 24 rows
    cfg, nu, settings = _budget_model(i_star)
    row = 2 ** cfg.n * 8
    level = (settings.grid_steps + 1) * row
    block = max(1, _BLOCK_BYTES // row) * row
    grid_columns = 16 * (settings.grid_steps + 1) * 8
    peak = traced_peak(lambda: recursive_solve(cfg, nu, settings))
    assert peak <= level + 4 * block + grid_columns + 24 * row, peak / level


def test_ode_holds_the_requested_rows():
    cfg, nu, settings = _budget_model()
    row = 2 ** cfg.n * 8
    for times in ([1.0], [0.5, 0.0, 1.0, 0.5] * 10):
        peak = traced_peak(lambda: integrate_ode(cfg, nu, settings, times))
        assert peak <= (len(times) + 24) * row, (len(times), peak / row)
    # the whole grid, as the budget's contrast
    peak = traced_peak(lambda: integrate_ode(cfg, nu, settings))
    assert peak >= (settings.grid_steps + 1) * row


def test_linkage_disequilibrium_needs_a_crossover_site():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.6, 0.0, 0.4))
    with pytest.raises(ValueError):
        linkage_disequilibrium(cfg, 2, uniform(cfg.sites))


def test_recursion_initial_condition_every_level():
    cfg = SiteConfig(n=3, i_star=1, s=0.7, rho=(0.0, 0.5, 0.9))
    rng = spawn_stream(101, 8)
    nu = random_prob(cfg.sites, rng)
    _, _, levels = levels_of(cfg, nu, SolverSettings(t_max=1.0, grid_steps=256,
                                                     quad_tol=1e-5))
    for lev in levels:
        assert np.allclose(lev[0], nu.values, atol=1e-14)


def test_recursion_matches_ode():
    rng = spawn_stream(101, 9)
    for _ in range(8):
        cfg = random_cfg(rng)
        nu = random_prob(cfg.sites, rng)
        t = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        fine = SolverSettings(t_max=t, grid_steps=int(4000 * max(1.0, t)),
                              quad_tol=1e-6)
        rec = recursive_solve(cfg, nu, fine)
        ode = integrate_ode(cfg, nu, SolverSettings(t_max=t, grid_steps=512,
                                                    quad_tol=1e-9))
        assert l1_distance(rec.final(), ode.final()) < 1e-6


def test_recursion_permutation_invariant():
    cfg = SiteConfig(n=4, i_star=2, s=1.1, rho=(0.6, 0.0, 0.8, 0.3))
    rng = spawn_stream(101, 10)
    nu = random_prob(cfg.sites, rng)
    st = SolverSettings(t_max=1.0, grid_steps=4000, quad_tol=1e-6)
    sol1 = recursive_solve(cfg, nu, st, permutation=(2, 1, 3, 4)).final()
    sol2 = recursive_solve(cfg, nu, st, permutation=(2, 3, 1, 4)).final()
    sol3 = recursive_solve(cfg, nu, st, permutation=(2, 3, 4, 1)).final()
    assert l1_distance(sol1, sol2) < 1e-8
    assert l1_distance(sol1, sol3) < 1e-8


def test_settings_refuse_non_finite_times():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_max must be finite"):
            SolverSettings(t_max=bad)


def test_default_settings_pass_the_recursion_grid_check():
    # the default quad_tol is one the recursion's check against the closed
    # form at the default 512 steps can meet (about 5.2e-8 here, against a
    # bound of 10 * 1e-7)
    cfg = SiteConfig(n=2, i_star=1, s=0.8, rho=(0.0, 0.6))
    nu = product_measure(cfg.sites, [0.5, 0.7])
    rec = recursive_solve(cfg, nu, SolverSettings(t_max=1.0))
    assert rec.final_probability().sites == cfg.sites


def test_recursion_rejects_invalid_permutation():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.5, 0.0, 0.5))
    nu = uniform(cfg.sites)
    with pytest.raises(ValueError):
        recursive_solve(cfg, nu, SolverSettings(t_max=1.0), permutation=(1, 2, 3))


def test_recursion_coarse_grid_raises():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(2.0, 0.0, 2.0))
    rng = spawn_stream(101, 11)
    nu = random_prob(cfg.sites, rng)
    with pytest.raises(GridTooCoarseError):
        recursive_solve(cfg, nu, SolverSettings(t_max=5.0, grid_steps=8,
                                                quad_tol=1e-9))


def test_recursion_half_grid_check_never_compares_a_grid_with_itself():
    # the check's reference is the closed form, never the run's own grid:
    # this 2-step run is 0.014 off the closed form in l1
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    with pytest.raises(GridTooCoarseError):
        recursive_solve(cfg, nu, SolverSettings(t_max=1.0, grid_steps=2, quad_tol=1e-7))


def test_recursion_names_a_disagreement_that_more_steps_do_not_shrink(monkeypatch):
    # a closed form with one rate 1 % off: four times the steps leave the
    # distance where it was, and the message says what that means
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    off_rate_closed_form(monkeypatch)
    gaps = []
    for steps in (512, 2048):
        with pytest.raises(GridTooCoarseError) as err:
            recursive_solve(cfg, nu, SolverSettings(t_max=1.0, grid_steps=steps,
                                                    quad_tol=1e-7))
        msg = str(err.value)
        assert "increase grid_steps" in msg
        assert ("if the distance does not shrink with more steps, the recursion "
                "and the closed form disagree") in msg
        gaps.append(float(re.search(r"ends (\S+) in l1", msg).group(1)))
    assert gaps[1] > 0.9 * gaps[0] > 1e-3


def test_recursion_walks_the_levels_once(monkeypatch):
    # the end point is checked against the closed form, not a second pass:
    # each solver runs the engine once, and its rows pass once through the
    # levels, in row blocks
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    settings = SolverSettings(t_max=1.0, grid_steps=512, quad_tol=1e-7)
    walks = count_calls(monkeypatch, "_walk_levels")
    blocks = count_calls(monkeypatch, "_row_blocks")
    recursive_solve(cfg, nu, settings)
    assert len(walks) == 1 and blocks == [(513, 8)]
    blocks.clear()
    ld_decay_residuals(cfg, nu, settings)
    # the residuals are taken on the engine's own blocks, not split again
    assert len(walks) == 2 and blocks == [(513, 8)]


# -- semigroup solution -------------------------------------------------------------


def test_semigroup_reduces_to_selection_flow():
    rng = spawn_stream(101, 12)
    cfg = SiteConfig(n=3, i_star=3, s=1.4, rho=(0.0, 0.0, 0.0))
    nu = random_prob(cfg.sites, rng)
    got = semigroup_solve(cfg, nu, 1.3)
    assert l1_distance(got, selection_flow(cfg, nu, 1.3)) < 1e-10


def test_semigroup_with_all_mass_fit():
    rng = spawn_stream(101, 13)
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.7))
    v = rng.random(4)
    v[[1, 3]] = 0.0  # nothing unfit
    nu = ProbabilityMeasure((1, 2), v / v.sum())
    got = semigroup_solve(cfg, nu, 1.0)
    ode = integrate_ode(cfg, nu, SolverSettings(t_max=1.0, grid_steps=512,
                                                quad_tol=1e-10))
    assert l1_distance(got, ode.final()) < 1e-8


def test_semigroup_matches_ode():
    rng = spawn_stream(101, 14)
    for _ in range(6):
        drawn = random_cfg(rng)
        nu = random_prob(drawn.sites, rng)
        for cfg in (drawn, dataclasses.replace(drawn, s=0.0)):
            for t in (0.5, 1.0, 2.0):
                got = semigroup_solve(cfg, nu, t)
                ode = integrate_ode(cfg, nu, SolverSettings(t_max=t, grid_steps=512,
                                                            quad_tol=1e-10))
                assert l1_distance(got, ode.final()) < 1e-5


def test_semigroup_path_equals_one_solve_per_time():
    # one duality chain for every time gives the bits of a solve per time
    rng = spawn_stream(101, 45)
    for _ in range(4):
        cfg = random_cfg(rng, n_max=6)
        nu = random_prob(cfg.sites, rng)
        times = [0.0, 0.25, 1.0, 0.0, 3.5]
        got = list(semigroup_path(cfg, nu, times))
        assert len(got) == len(times)
        for t, m in zip(times, got):
            assert np.array_equal(m.values, semigroup_solve(cfg, nu, t).values)
    with pytest.raises(ValueError):
        list(semigroup_path(cfg, nu, [1.0, -0.5]))


def test_semigroup_without_selection():
    rng = spawn_stream(101, 15)
    cfg = SiteConfig(n=2, i_star=1, s=0.0, rho=(0.0, 0.9))
    nu = random_prob((1, 2), rng)
    got = semigroup_solve(cfg, nu, 1.0)
    w = math.exp(-0.9)
    R = recombinator(nu, *cfg.head_tail(2))
    expect = nu.scale(w).add(R.scale(1.0 - w))
    assert l1_distance(got, expect) < 1e-10


# -- linkage decay ---------------------------------------------------------------


def test_ld_zero_for_product_initial():
    # exactly zero in the dynamics; numerically bounded by the grid error
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.6, 0.0, 0.4))
    nu = product_measure((1, 2, 3), [0.3, 0.5, 0.8])
    times, perm, levels = levels_of(cfg, nu, SolverSettings(t_max=1.0, grid_steps=4000,
                                                            quad_tol=1e-6))
    j = grid_index(times, 1.0)
    for level in (1, 2):
        ld = linkage_disequilibrium(cfg, perm[level], Measure(cfg.sites, levels[level][j]))
        assert np.abs(ld.values).max() < 1e-9


def test_ld_initial_value():
    rng = spawn_stream(101, 16)
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.6, 0.0, 0.4))
    nu = random_prob(cfg.sites, rng)
    times, perm, levels = levels_of(cfg, nu, SolverSettings(t_max=1.0, grid_steps=256,
                                                            quad_tol=1e-5))
    j = grid_index(times, 0.0)
    for level in (1, 2):
        i = perm[level]
        expect = nu.sub(recombinator(nu, *cfg.head_tail(i)))
        got = linkage_disequilibrium(cfg, i, Measure(cfg.sites, levels[level][j]))
        assert np.allclose(got.values, expect.values, atol=1e-12)


def test_ld_exponential_decay_identity():
    rng = spawn_stream(101, 17)
    for _ in range(10):
        cfg = random_cfg(rng)
        if cfg.n == 1:
            continue
        nu = random_prob(cfg.sites, rng)
        _, residuals = ld_decay_residuals(
            cfg, nu, SolverSettings(t_max=2.0, grid_steps=2000, quad_tol=1e-6)
        )
        assert len(residuals) == cfg.n - 1
        for level, res in enumerate(residuals, start=1):
            assert res["max_relative_error"] < 1e-4, (cfg, level)


@pytest.mark.parametrize("block_bytes", [1, _BLOCK_BYTES], ids=["one-row", "default"])
def test_residuals_merged_over_blocks_equal_one_whole_call(monkeypatch, block_bytes):
    # the engine takes _deviation_norms on every row block, just below and
    # above each level, and builds each site's residual from the blocks'
    # norms: the bits of the out-of-place formulas on the whole grid's
    # rows; site 3 has rate zero
    monkeypatch.setattr(selrec.solvers, "_BLOCK_BYTES", block_bytes)
    cfg = SiteConfig(n=4, i_star=2, s=0.9, rho=(0.7, 0.0, 0.0, 1.3))
    nu = random_prob(cfg.sites, spawn_stream(101, 48))
    settings = SolverSettings(t_max=1.0, grid_steps=64, quad_tol=1e-3)
    calls = count_calls(monkeypatch, "_deviation_norms")
    _, residuals = ld_decay_residuals(cfg, nu, settings, ())
    blocks = settings.grid_steps + 1 if block_bytes == 1 else 1
    assert len(calls) == blocks * len(residuals) == blocks * (cfg.n - 1)
    times = settings.grid()
    for k, res in enumerate(residuals):
        # one call per site in each block, the blocks in row order
        mine = calls[k::len(residuals)]
        decay, level, below = (np.concatenate([args[j] for args in mine]) for j in (1, 2, 3))
        assert np.array_equal(decay, np.exp(-res["rate"] * times))
        expect = _residual_out_of_place(cfg, res["site"], times, level, below)
        assert res.keys() == expect.keys()
        for key, value in expect.items():
            assert np.array_equal(res[key], value), (res["site"], key)


def test_residuals_take_each_head_marginal_once(monkeypatch):
    # each level, zero-rate site 3 included, is built from the head marginal
    # of the level below, and its residual reads that one rather than
    # taking it again:
    # per row block, each level takes two head marginals, its own and that
    # of the level below (the same bits at a zero rate, site 3)
    cfg = SiteConfig(n=4, i_star=2, s=0.9, rho=(0.7, 0.0, 0.0, 1.3))
    nu = random_prob(cfg.sites, spawn_stream(101, 48))
    settings = SolverSettings(t_max=1.0, grid_steps=64, quad_tol=1e-3)
    heads = []
    real_head = Split.head
    monkeypatch.setattr(Split, "head", lambda split, V: heads.append(V.shape) or real_head(split, V))
    ld_decay_residuals(cfg, nu, settings, ())
    assert [shape for shape in heads if len(shape) == 2] == [(65, 16)] * 2 * (cfg.n - 1)


def test_each_site_is_split_once_per_walk(monkeypatch):
    # each crossover site's Split (and decay column) is built once, in the
    # engine's first pass, zero-rate site 3 included: the residuals over
    # one-row blocks build as many as over one default block, and no more
    # than the solve alone
    cfg = SiteConfig(n=4, i_star=2, s=0.9, rho=(0.7, 0.0, 0.0, 1.3))
    nu = random_prob(cfg.sites, spawn_stream(101, 48))
    settings = SolverSettings(t_max=1.0, grid_steps=64, quad_tol=1e-3)
    real_init = Split.__init__
    made = []
    monkeypatch.setattr(Split, "__init__",
                        lambda split, *args: made.append(args) or real_init(split, *args))

    def splits(solver, block_bytes):
        monkeypatch.setattr(selrec.solvers, "_BLOCK_BYTES", block_bytes)
        made.clear()
        solver(cfg, nu, settings, ())
        return len(made)

    count = splits(ld_decay_residuals, _BLOCK_BYTES)
    assert splits(ld_decay_residuals, 1) == count == splits(recursive_solve, _BLOCK_BYTES)


def test_every_crossover_site_takes_the_general_update(monkeypatch):
    # zero-rate site 3 included: the closed form overwrites the tail at
    # every crossover site in canonical order, and the recursion's row step
    # builds one product per crossover site in every row block
    cfg = SiteConfig(n=4, i_star=2, s=0.9, rho=(0.7, 0.0, 0.0, 1.3))
    nu = random_prob(cfg.sites, spawn_stream(101, 48))
    chain = selrec.solvers._DualityChain
    real_overwrite = chain.overwrite
    overwritten = []
    monkeypatch.setattr(chain, "overwrite", lambda self, out, i, wb, wd: (
        overwritten.append(i) or real_overwrite(self, out, i, wb, wd)))
    semigroup_solve(cfg, nu, 1.0)
    assert overwritten == [1, 3, 4]
    real_product = Split.product
    products = []
    monkeypatch.setattr(Split, "product", lambda split, head, tail: (
        products.append((split.n_lo, head.ndim)) or real_product(split, head, tail)))
    monkeypatch.setattr(selrec.solvers, "_BLOCK_BYTES", 1)
    settings = SolverSettings(t_max=1.0, grid_steps=64, quad_tol=1e-3)
    recursive_solve(cfg, nu, settings)
    # row blocks hold 2-d arrays; the closed form that checks the end point
    # works on one vector
    rows = [n_lo for n_lo, ndim in products if ndim == 2]
    # sites 1, 3 and 4 cut off their lowest 1, 2 and 3 sites
    assert rows == [1, 2, 3] * (settings.grid_steps + 1)


@st.composite
def _solver_cases(draw):
    n = draw(st.integers(1, 6))
    i_star = draw(st.integers(1, n))
    rate = st.one_of(st.just(0.0), st.floats(1e-2, 4.0))
    rho = tuple(0.0 if i == i_star else draw(rate) for i in range(1, n + 1))
    cfg = SiteConfig(n=n, i_star=i_star, s=draw(rate), rho=rho)
    return cfg, draw(st.floats(0.0, 2.0, exclude_min=True)), draw(st.integers(0, 2 ** 32 - 1))


@given(_solver_cases())
def test_grid_solvers_meet_the_closed_form_on_generated_models(case):
    # zero rates and s = 0 take the general update in all three engines:
    # each grid solver ends near the closed form or refuses, and at a
    # zero-rate site the recursion's level equals the level below, so the
    # residual is exactly 0
    cfg, t, seed = case
    nu = ProbabilityMeasure(cfg.sites, np.random.default_rng(seed).dirichlet(np.ones(2 ** cfg.n)))
    settings = SolverSettings(t_max=t, grid_steps=128, quad_tol=1e-5)
    exact = semigroup_solve(cfg, nu, t).values
    try:
        ode = integrate_ode(cfg, nu, settings)
    except SolverError:
        pass
    else:
        assert np.abs(ode.values[-1] - exact).sum() < settings.quad_tol
    try:
        rec, residuals = ld_decay_residuals(cfg, nu, settings)
    except GridTooCoarseError:
        return
    assert np.abs(rec.values[-1] - exact).sum() <= 10.0 * settings.quad_tol
    assert [res["site"] for res in residuals] == list(cfg.canonical_permutation()[1:])
    for res in residuals:
        if res["rate"] == 0.0:
            assert res["max_abs_error"] == 0.0
            assert res["lhs_norms"].tobytes() == res["below_norms"].tobytes()


def test_product_start_residuals_are_the_trapezoid_deviation():
    # configs/example.json's model on a product start, each site (0.3, 0.7):
    # the dynamics keep it a product, so every linkage deviation vanishes in
    # exact arithmetic, and the residuals read the trapezoid's own deviation
    # from a product, about 1e-7, not rounding.  So the relative error is
    # about 1 and verify's ld_decay_identity fails on such a start
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = product_measure(cfg.sites, [0.7, 0.7, 0.7])
    settings = SolverSettings(t_max=1.0, grid_steps=512, quad_tol=1e-7)
    times, perm, levels = levels_of(cfg, nu, settings)
    _, residuals = ld_decay_residuals(cfg, nu, settings, ())
    assert [res["site"] for res in residuals] == [1, 3]
    for k, got in enumerate(residuals, start=1):
        expect = _residual_out_of_place(cfg, perm[k], times, levels[k], levels[k - 1])
        assert abs(got["max_abs_error"] - expect["max_abs_error"]) <= 1e-14
        assert np.abs(got["lhs_norms"] - expect["lhs_norms"]).max() <= 1e-14
    assert [round(res["max_abs_error"], 9) for res in residuals] == [1.53e-7, 1.23e-7]
    assert [round(res["lhs_norms"].max(), 9) for res in residuals] == [1.53e-7, 2.16e-7]
    assert residuals[0]["max_relative_error"] > 0.99


def test_ld_norm_ratio_is_exponential():
    rng = spawn_stream(101, 18)
    cfg = SiteConfig(n=3, i_star=1, s=0.8, rho=(0.0, 0.7, 1.1))
    nu = random_prob(cfg.sites, rng)
    rec, residuals = ld_decay_residuals(
        cfg, nu, SolverSettings(t_max=1.0, grid_steps=2000, quad_tol=1e-6)
    )
    res = residuals[0]
    j = rec.index_of_time(1.0)
    ratio = res["lhs_norms"][j] / res["below_norms"][j]
    assert ratio == pytest.approx(math.exp(-0.7), abs=1e-5)


# -- asymptotics -----------------------------------------------------------------


def test_asymptotic_limit_all_fit():
    rng = spawn_stream(101, 19)
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.5, 0.0, 0.5))
    v = rng.random(8)
    v[[2, 3, 6, 7]] = 0.0  # only fit states populated
    nu = ProbabilityMeasure(cfg.sites, v / v.sum())
    limit = asymptotic_limit(cfg, nu)
    expect = product_measure(cfg.sites, [
        float(nu.project({i}).values[1]) for i in cfg.sites])
    assert l1_distance(limit, expect) < 1e-12


def test_asymptotic_limit_matches_long_run():
    rng = spawn_stream(101, 20)
    for _ in range(4):
        cfg = random_cfg(rng, n_max=3, allow_zero_rho=False)
        nu = random_prob(cfg.sites, rng)
        limit = asymptotic_limit(cfg, nu)
        T = equilibration_time(cfg, nu, eps=1e-4)
        traj = integrate_ode(cfg, nu, SolverSettings(t_max=T, grid_steps=256,
                                                     quad_tol=1e-8))
        assert l1_distance(traj.final(), limit) < 1e-3, cfg


def test_a_fit_fraction_lost_in_one_minus_f0_is_refused():
    # 1 - 1e-20 is 1.0, so y^k would keep every ancestor unfit and the fit
    # class at 0 for all t, where the selection flow lets it take over
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, [1e-20, 1.0, 0.0, 0.0])
    assert fit_fraction(selection_flow(cfg, nu, 60.0), 1) > 0.8
    for solve in (lambda: semigroup_solve(cfg, nu, 60.0), lambda: asymptotic_limit(cfg, nu)):
        with pytest.raises(ValueError, match="fit fraction 1e-20 is lost"):
            solve()


def test_equilibration_time_at_a_subnormal_fit_fraction():
    # the odds (1 - f0) / f0 overflow; their logarithm is about 713.8
    cfg = SiteConfig(n=2, i_star=1, s=2.0, rho=(0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, [1e-310, 1.0, 0.0, 0.0])
    T = equilibration_time(cfg, nu, eps=1e-4)
    assert T == pytest.approx((math.log(1e4) - math.log(1e-310)) / 2.0, rel=1e-14)


def test_asymptotic_limit_is_the_product_of_one_site_mixtures():
    # each site's marginal is (1 - gamma_i)*b + gamma_i*d, with gamma_i the
    # stationary pgf at the unfit mass (0 at the selected site), and the
    # sites are independent
    rng = spawn_stream(101, 40)
    for k in range(9):
        n = int(rng.integers(1, 9))
        i_star = (1, n, int(rng.integers(1, n + 1)))[k % 3]
        rho = [float(rng.uniform(0.05, 2.0)) for _ in range(n)]
        rho[i_star - 1] = 0.0
        cfg = SiteConfig(n=n, i_star=i_star, s=float(rng.uniform(0.1, 2.0)), rho=tuple(rho))
        nu = random_prob(cfg.sites, rng)
        y = 1.0 - fit_fraction(nu, i_star)
        b, d = cond_fit(nu, i_star), cond_unfit(nu, i_star)
        expect = np.ones(1)
        for i in cfg.sites:
            if i == i_star:
                gamma = 1.0 if y == 0.0 else 0.0
            else:
                gamma = stationary_count_pgf(cfg.resetting_rate(i) / cfg.s, y)
            one = (1.0 - gamma) * b.project({i}).values + gamma * d.project({i}).values
            # the smallest site sits in the least significant bit
            expect = np.kron(one, expect)
        got = asymptotic_limit(cfg, nu).values
        assert np.abs(got - expect).max() <= 1e-15, cfg


def test_asymptotic_limit_requires_positive_rates():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.5, 0.0, 0.0))
    nu = uniform(cfg.sites)
    with pytest.raises(ValueError, match="site"):
        asymptotic_limit(cfg, nu)


def test_stationary_pgf_endpoints():
    assert stationary_count_pgf(0.7, 0.0) == 0.0
    assert stationary_count_pgf(0.7, 1.0) == 1.0
    # series at small x is dominated by the single-line term x*alpha/(1+alpha)
    x = 1e-8
    got = stationary_count_pgf(2.0, x)
    assert got == pytest.approx(x * 2.0 / 3.0, rel=1e-6)


def test_stationary_pgf_matches_stationary_law():
    # the closed form against the independently summed stationary law
    for alpha in (3.0, 5.0, 7.5, 20.0):
        cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, alpha))
        law = ypir_stationary(cfg, 2)
        for x in (0.1, 0.5, 0.9, 0.99, 0.999):
            assert abs(stationary_count_pgf(alpha, x) - law.pgf(x)) < 1e-11


# -- marginal dynamics -----------------------------------------------------------


def test_marginal_full_set_matches_ode():
    rng = spawn_stream(101, 21)
    cfg = random_cfg(rng, n_max=4)
    nu = random_prob(cfg.sites, rng)
    st = SolverSettings(t_max=1.0, grid_steps=512, quad_tol=1e-9)
    full = integrate_ode(cfg, nu, st)
    marg = marginal_sre_solve(cfg, nu, cfg.sites, st)
    assert l1_distance(full.final(), marg.final()) < 1e-10


def test_marginal_consistency_all_subsets():
    rng = spawn_stream(101, 22)
    cfg = SiteConfig(n=4, i_star=2, s=1.2, rho=(0.7, 0.0, 0.9, 0.4))
    nu = random_prob(cfg.sites, rng)
    st = SolverSettings(t_max=1.0, grid_steps=512, quad_tol=1e-9)
    full = integrate_ode(cfg, nu, st)
    others = [i for i in cfg.sites if i != cfg.i_star]
    for mask in range(2 ** len(others)):
        A = {cfg.i_star} | {a for j, a in enumerate(others) if (mask >> j) & 1}
        marg = marginal_sre_solve(cfg, nu, A, st)
        assert l1_distance(full.final().project(A), marg.final()) < 1e-6, A


def test_marginal_model_in_closed_form_matches_projection():
    # the marginal on every subset holding the selected site solves the
    # relabelled model cfg.marginal(A), checked with the exact engine alone
    rng = spawn_stream(101, 25)
    for _ in range(8):
        cfg = random_cfg(rng, n_max=7)
        nu = random_prob(cfg.sites, rng)
        t = float(rng.uniform(0.2, 2.0))
        full = semigroup_solve(cfg, nu, t)
        others = [i for i in cfg.sites if i != cfg.i_star]
        for mask in range(2 ** len(others)):
            A = sorted({cfg.i_star} | {a for j, a in enumerate(others) if (mask >> j) & 1})
            model = cfg.marginal(A)
            marg = semigroup_solve(model, Measure(model.sites, nu.project(A).values), t)
            proj = full.project(A)
            assert float(np.abs(marg.values - proj.values).sum()) < 1e-12, (cfg, A)
    with pytest.raises(ValueError, match="selected site"):
        cfg.marginal(others)


def test_marginal_selected_site_is_logistic():
    rng = spawn_stream(101, 23)
    cfg = SiteConfig(n=3, i_star=2, s=0.9, rho=(0.5, 0.0, 0.8))
    nu = random_prob(cfg.sites, rng)
    st = SolverSettings(t_max=2.0, grid_steps=512, quad_tol=1e-9)
    marg = marginal_sre_solve(cfg, nu, {2}, st)
    f0 = fit_fraction(nu, 2)
    expect = logistic_fit_fraction(0.9, f0, 2.0)
    assert marg.final().values[0] == pytest.approx(expect, abs=1e-9)


def test_marginal_requires_selected_site():
    cfg = SiteConfig(n=3, i_star=2, s=0.9, rho=(0.5, 0.0, 0.8))
    nu = uniform(cfg.sites)
    with pytest.raises(ValueError, match="selected site"):
        marginal_sre_solve(cfg, nu, {1, 3}, SolverSettings(t_max=1.0))


def test_single_site_marginals_constant_without_selection():
    rng = spawn_stream(101, 24)
    cfg = SiteConfig(n=3, i_star=2, s=0.0, rho=(0.6, 0.0, 0.9))
    nu = random_prob(cfg.sites, rng)
    traj = integrate_ode(cfg, nu, SolverSettings(t_max=2.0, grid_steps=256,
                                                 quad_tol=1e-9))
    for i in cfg.sites:
        before = nu.project({i}).values
        after = traj.final().project({i}).values
        assert np.allclose(before, after, atol=1e-9)


def test_naive_marginal_fails_away_from_selected_site():
    """With selection on, a subset without the selected site is not closed:
    the recombination-only (constant) marginal prediction is visibly wrong."""
    cfg = SiteConfig(n=2, i_star=1, s=1.5, rho=(0.0, 0.8))
    nu = Measure((1, 2), np.array([0.45, 0.05, 0.05, 0.45]))
    nu = ProbabilityMeasure((1, 2), nu.values)
    traj = integrate_ode(cfg, nu, SolverSettings(t_max=1.0, grid_steps=512,
                                                 quad_tol=1e-9))
    naive = nu.project({2})
    true = traj.final().project({2})
    assert l1_distance(true, naive) > 1e-3


@pytest.mark.parametrize("k", range(13))
def test_column_labels_equal_the_per_bit_construction(k):
    traj = Trajectory([0.0], tuple(range(1, k + 1)), np.zeros((1, 2 ** k)))
    per_bit = [
        "p_" + "".join(str((idx >> j) & 1) for j in range(k)) for idx in range(2 ** k)
    ]
    assert traj.column_labels() == per_bit


@pytest.mark.parametrize("solver", [recursive_solve, ld_decay_residuals],
                         ids=["recursive_solve", "ld_decay_residuals"])
def test_recursion_rows_at_times_are_copies_in_order(monkeypatch, solver):
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure(cfg.sites, EXAMPLE_VECTOR)
    settings = SolverSettings(t_max=1.0, grid_steps=8, quad_tol=1e-3)
    # the whole grid without times, against the whole-level reference
    whole, _ = ld_decay_residuals(cfg, nu, settings)
    reference = levels_of(cfg, nu, settings)[2][-1]
    assert np.abs(whole.values - reference).sum(axis=1).max() <= 1e-13

    # both solvers build their rows in the one engine, one row at a time
    # through the levels: any rows they return are the whole grid's bits
    def rows_of(times=None):
        got = solver(cfg, nu, settings, times)
        return got[0] if isinstance(got, tuple) else got

    every = rows_of()
    assert every.times.tolist() == whole.times.tolist()
    assert np.array_equal(every.values, whole.values)

    # out of order, repeated and t = 0; 0.25 + 1e-12 lies on the grid point
    # 0.25 within grid_index's tolerance
    rows = rows_of([0.75, 0.25 + 1e-12, 0.0, 0.75])
    assert rows.times.tolist() == [0.75, 0.25, 0.0, 0.75]
    assert np.array_equal(rows.values, whole.values[[6, 2, 0, 6]])
    assert rows.sites == cfg.sites
    # a copy of the rows, not a view that would keep the engine's rows alive
    assert rows.values.base is None
    # the end point alone, as verify asks for it
    end = rows_of((1.0,))
    assert end.values.shape == (1, 8) and np.array_equal(end.values[0], whole.values[-1])
    assert end.values.base is None
    integrals = count_calls(monkeypatch, "_cumulative_trapezoid")
    with pytest.raises(ValueError, match="not on the solver grid"):
        rows_of([0.5, 0.3])
    # refused before the first pass builds any column
    assert integrals == []


def random_valid_order(cfg, rng) -> tuple:
    """The selected site, then the outward orders of its two arms
    interleaved at random: any order the partial order allows."""
    arms = [list(range(cfg.i_star - 1, 0, -1)), list(range(cfg.i_star + 1, cfg.n + 1))]
    order = [cfg.i_star]
    while any(arms):
        open_arms = [arm for arm in arms if arm]
        order.append(open_arms[int(rng.integers(len(open_arms)))].pop(0))
    assert cfg.is_valid_ordering(tuple(order))
    return tuple(order)


def assert_rows_meet_the_whole_grid(cfg, nu, settings, times, permutation=None):
    """recursive_solve at times, and without times, against the same rows
    of ld_decay_residuals' whole grid, bit for bit (one engine builds them
    all, row by row), and of the whole-level reference within 1e-13 in l1
    per row (the engine sums in another order, so the bits may differ)."""
    rows = recursive_solve(cfg, nu, settings, times, permutation=permutation)
    every = recursive_solve(cfg, nu, settings, permutation=permutation)
    whole, _ = ld_decay_residuals(cfg, nu, settings, permutation=permutation)
    reference = levels_of(cfg, nu, settings, permutation)[2][-1]
    idx = [grid_index(whole.times, t) for t in times]
    assert rows.times.tolist() == whole.times[idx].tolist()
    assert every.times.tolist() == whole.times.tolist()
    assert rows.sites == cfg.sites and rows.values.shape == (len(times), 2 ** cfg.n)
    assert np.array_equal(rows.values, whole.values[idx])
    assert np.array_equal(every.values, whole.values)
    gap = np.abs(whole.values - reference).sum(axis=1)
    assert gap.max() <= 1e-13, (cfg, permutation, gap.max())


def test_recursion_rows_meet_the_whole_grid_walk(monkeypatch):
    # random models with n <= 8, the selected site first, last and inside,
    # zero-rate sites and random valid orders; out-of-order, repeated and
    # t = 0 times that leave most of the grid out
    rng = spawn_stream(101, 46)
    walks = count_calls(monkeypatch, "_walk_levels")
    for case in range(36):
        n = int(rng.integers(1, 9))
        i_star = (1, n, int(rng.integers(1, n + 1)))[case % 3]
        rho = [0.0 if i == i_star or rng.random() < 0.2 else float(rng.uniform(0.05, 2.0))
               for i in range(1, n + 1)]
        cfg = SiteConfig(n=n, i_star=i_star, s=float(rng.uniform(0.0, 2.0)), rho=tuple(rho))
        nu = random_prob(cfg.sites, rng)
        settings = SolverSettings(t_max=float(rng.choice([0.5, 1.0, 2.0])), grid_steps=128,
                                  quad_tol=1e-3)
        grid = settings.grid()
        times = [float(t) for t in rng.choice(grid, 4)]
        times += [0.0, times[0]]
        permutation = None if case % 2 else random_valid_order(cfg, rng)
        walks.clear()
        assert_rows_meet_the_whole_grid(cfg, nu, settings, times, permutation)
        # one pass of the engine per solver call; the reference runs none
        assert len(walks) == 3


def test_recursion_rows_of_every_valid_order_and_a_start_off_mass_one():
    cfg = SiteConfig(n=5, i_star=3, s=1.3, rho=(0.6, 0.0, 0.0, 1.1, 0.4))
    rng = spawn_stream(101, 47)
    v = rng.random(2 ** cfg.n)
    v /= v.sum()
    v[3] += 5e-10
    # a ProbabilityMeasure may be off mass 1 by up to MASS_TOL; the rows
    # path carries this start's mass, it does not assume 1
    nu = ProbabilityMeasure(cfg.sites, v)
    assert nu.mass() - 1.0 > 4e-10
    settings = SolverSettings(t_max=1.5, grid_steps=96, quad_tol=1e-3)
    times = [1.5, 0.5, 0.0, 0.5, 1.0]
    orders = {random_valid_order(cfg, rng) for _ in range(60)}
    assert len(orders) == 6
    for order in sorted(orders):
        assert_rows_meet_the_whole_grid(cfg, nu, settings, times, order)
    one = SiteConfig(n=1, i_star=1, s=0.7, rho=(0.0,))
    assert_rows_meet_the_whole_grid(one, uniform(one.sites), settings, [0.5, 0.0])


def test_recursion_rows_path_raises_grid_too_coarse(monkeypatch):
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(2.0, 0.0, 2.0))
    nu = random_prob(cfg.sites, spawn_stream(101, 11))
    blocks = count_calls(monkeypatch, "_row_blocks")
    with pytest.raises(GridTooCoarseError):
        recursive_solve(cfg, nu, SolverSettings(t_max=5.0, grid_steps=8, quad_tol=1e-9),
                        [0.0, 2.5])
    # the engine went through the levels at the rows of t = 0, 2.5 and the
    # end point only, not the whole grid
    assert blocks == [(3, 8)]


@pytest.mark.parametrize("i_star", [1, 5, 10])
def test_recursion_rows_hold_the_asked_rows(i_star):
    # solve's five times on n = 10: full vectors at the held rows R (the
    # asked ones and the end point) and, beside them, one product of at
    # most |R| rows; over the whole grid each site's decay and two integral
    # columns, two coefficient columns per arm and a few grid-wide scalars
    # (3 n + 16 grid columns); and the closed-form check's vectors, within
    # the 24 rows that the ODE's budget leaves them.  A whole-grid walk of
    # two levels holds 565-590 rows here.
    cfg, nu, settings = _budget_model(i_star)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    row = 2 ** cfg.n * 8
    held = 2 * len(times) * row
    grid_columns = (3 * cfg.n + 16) * (settings.grid_steps + 1) * 8
    peak = traced_peak(lambda: recursive_solve(cfg, nu, settings, times))
    assert peak <= held + grid_columns + 24 * row, peak / row
