"""Acceptance gate: one test per criterion, one printed line each.

Run with -s to see the lines; every tolerance is asserted as stated, no
criterion is weakened.  Statistical checks use fixed seeds.
"""
import json
import math
import time

import numpy as np
from scipy.stats import chisquare

from selrec import (
    DELTA,
    InitiationState,
    ProbabilityMeasure,
    SiteConfig,
    SolverSettings,
    duality_check,
    equilibration_time,
    asymptotic_limit,
    fit_fraction,
    integrate_ode,
    l1_distance,
    ld_decay_residuals,
    lln_convergence,
    logistic_fit_fraction,
    marginal_sre_solve,
    mc_solution_estimate,
    recursive_solve,
    selection_flow,
    semigroup_solve,
    spawn_stream,
    ypir_pgf,
    ypir_semigroup,
    ypir_simulate,
    ypir_stationary,
)
from selrec.cli import main


def _line(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def random_prob(sites, rng):
    v = rng.random(2 ** len(sites))
    return ProbabilityMeasure(tuple(sites), v / v.sum())


def random_instance(rng, rho_low=0.0):
    n = int(rng.integers(1, 5))
    i_star = int(rng.integers(1, n + 1))
    s = float(rng.uniform(0.1, 2.0))
    rho = [float(rng.uniform(rho_low, 2.0)) for _ in range(n)]
    rho[i_star - 1] = 0.0
    return SiteConfig(n=n, i_star=i_star, s=s, rho=tuple(rho))


def test_criterion_01_solver_triple_agreement():
    t0 = time.monotonic()
    worst = 0.0
    times = (0.5, 1.0, 2.0, 5.0)
    for k in range(50):
        rng = spawn_stream(9101, k)
        cfg = random_instance(rng)
        omega0 = random_prob(cfg.sites, rng)
        t = times[int(rng.integers(0, 4))]
        ode = integrate_ode(
            cfg, omega0, SolverSettings(t_max=t, grid_steps=512, quad_tol=1e-7)
        ).final_probability()
        rec = recursive_solve(
            cfg, omega0,
            SolverSettings(t_max=t, grid_steps=int(4000 * max(1.0, t)), quad_tol=1e-6),
        ).final_probability()
        semi = semigroup_solve(cfg, omega0, t)
        worst = max(
            worst,
            l1_distance(ode, rec),
            l1_distance(ode, semi),
            l1_distance(rec, semi),
        )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    _line(1, "solver triple agreement", ok, f"max pairwise l1 {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 60.0


def test_criterion_02_pure_selection_closed_form():
    worst = 0.0
    for k in range(20):
        rng = spawn_stream(9102, k)
        n = int(rng.integers(1, 5))
        i_star = int(rng.integers(1, n + 1))
        s = float(rng.uniform(0.1, 2.0))
        cfg = SiteConfig(n=n, i_star=i_star, s=s, rho=(0.0,) * n)
        omega0 = random_prob(cfg.sites, rng)
        ode = integrate_ode(
            cfg, omega0, SolverSettings(t_max=1.0, grid_steps=512, quad_tol=1e-10)
        ).final_probability()
        worst = max(worst, l1_distance(ode, selection_flow(cfg, omega0, 1.0)))
    ok = worst <= 1e-8
    _line(2, "pure selection closed form", ok, f"max l1 {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_03_ld_decay_identity():
    worst = 0.0
    for k in range(10):
        rng = spawn_stream(9103, k)
        cfg = random_instance(rng)
        if cfg.n == 1:
            cfg = SiteConfig(n=2, i_star=1, s=cfg.s, rho=(0.0, float(rng.uniform(0.1, 2.0))))
        omega0 = random_prob(cfg.sites, rng)
        _, residuals = ld_decay_residuals(
            cfg, omega0, SolverSettings(t_max=1.0, grid_steps=4000, quad_tol=1e-6)
        )
        for res in residuals:
            worst = max(worst, res["max_relative_error"])
    ok = worst <= 1e-4
    _line(3, "linkage deviation decay", ok, f"max relative error {worst:.2e}")
    assert worst <= 1e-4


def test_criterion_04_pure_selection_duality():
    # analytic part: the thinning identity through the generating function
    cfg = SiteConfig(n=2, i_star=1, s=0.9, rho=(0.0, 0.0))
    rng = spawn_stream(9104, 0)
    worst = 0.0
    for _ in range(20):
        nu = random_prob((1, 2), rng)
        f0 = fit_fraction(nu, 1)
        for kk in (1, 2, 5):
            for t in (0.3, 1.0):
                lhs = (1.0 - logistic_fit_fraction(0.9, f0, t)) ** kk
                rhs = ypir_pgf(cfg, 1, kk, t, 1.0 - f0)
                worst = max(worst, abs(lhs - rhs))
    mc = duality_check(
        SiteConfig(n=1, i_star=1, s=0.9, rho=(0.0,)),
        ProbabilityMeasure((1,), [0.35, 0.65]),
        [2], 0.8, replicates=100_000, seed=9104,
    )
    ok = worst <= 1e-12 and mc.max_abs_z < 3.0
    _line(4, "pure selection duality", ok, f"analytic {worst:.1e}, MC max |z| {mc.max_abs_z:.2f}")
    assert worst <= 1e-12
    assert mc.max_abs_z < 3.0


def test_criterion_05_full_duality():
    t0 = time.monotonic()
    worst = 0.0
    for k in range(5):
        rng = spawn_stream(9105, k)
        n = int(rng.integers(2, 4))
        i_star = int(rng.integers(1, n + 1))
        rho = [float(rng.uniform(0.1, 1.2)) for _ in range(n)]
        rho[i_star - 1] = 0.0
        cfg = SiteConfig(n=n, i_star=i_star, s=float(rng.uniform(0.3, 1.5)), rho=tuple(rho))
        nu = random_prob(cfg.sites, rng)
        t = float(rng.uniform(0.3, 1.2))
        m = rng.integers(0, 3, size=n)
        m[i_star - 1] = max(1, int(m[i_star - 1]))
        counts = duality_check(cfg, nu, m, t, replicates=100_000, seed=9105 + k)
        entries = [
            float(rng.uniform(0.0, 0.8)) if (i == i_star or rng.random() < 0.5) else DELTA
            for i in cfg.sites
        ]
        runtimes = duality_check(
            cfg, nu, InitiationState(tuple(entries)), t,
            replicates=100_000, seed=9205 + k,
        )
        worst = max(worst, counts.max_abs_z, runtimes.max_abs_z)
    elapsed = time.monotonic() - t0
    ok = worst < 3.0 and elapsed < 300.0
    _line(5, "full duality", ok, f"max |z| {worst:.2f}, {elapsed:.1f}s")
    assert worst < 3.0
    assert elapsed < 300.0


def test_criterion_06_stochastic_representation():
    cfg = SiteConfig(n=3, i_star=2, s=0.8, rho=(0.9, 0.0, 0.5))
    nu = ProbabilityMeasure((1, 2, 3), [0.22, 0.05, 0.08, 0.15, 0.10, 0.04, 0.06, 0.30])
    t = 1.0
    ref = integrate_ode(
        cfg, nu, SolverSettings(t_max=t, grid_steps=512, quad_tol=1e-9)
    ).final_probability()
    worst = 0.0
    for flavor in ("counts", "partition", "runtimes"):
        est = mc_solution_estimate(cfg, nu, t, replicates=100_000, seed=9106, flavor=flavor)
        worst = max(worst, float(np.max(np.abs(est.z_scores(ref)))))
    ok = worst < 3.0
    _line(6, "stochastic representation", ok, f"max |z| {worst:.2f}")
    assert worst < 3.0


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


def test_criterion_07_count_law_chi_square():
    runs = 100_000
    worst_p = 1.0
    sets = (
        (SiteConfig(n=2, i_star=1, s=0.9, rho=(0.0, 0.7)), 2),
        (SiteConfig(n=3, i_star=1, s=0.6, rho=(0.0, 0.4, 0.7)), 3),
    )
    idx = 0
    for cfg, site in sets:
        for m0, t in ((0, 0.8), (1, 1.2), (3, 0.6)):
            sample = np.array(
                [ypir_simulate(cfg, site, m0, t, spawn_stream(9107, idx, rep))
                 for rep in range(runs)]
            )
            idx += 1
            p = _chisq_pvalue(ypir_semigroup(cfg, site, m0, t), sample, runs)
            worst_p = min(worst_p, p)
    ok = worst_p > 0.01
    _line(7, "count law chi square", ok, f"min p {worst_p:.3f}, {runs} runs per point")
    assert worst_p > 0.01


def test_criterion_08_asymptotics():
    worst = 0.0
    for k in range(10):
        rng = spawn_stream(9108, k)
        cfg = random_instance(rng, rho_low=0.15)
        if cfg.n == 1:
            cfg = SiteConfig(n=2, i_star=1, s=cfg.s, rho=(0.0, float(rng.uniform(0.15, 2.0))))
        omega0 = random_prob(cfg.sites, rng)
        limit = asymptotic_limit(cfg, omega0)
        T = equilibration_time(cfg, omega0, eps=1e-4)
        traj = integrate_ode(
            cfg, omega0,
            SolverSettings(t_max=T, grid_steps=max(512, int(64 * T)), quad_tol=1e-7),
        )
        worst = max(worst, l1_distance(traj.final_probability(), limit))
    alpha_err = 0.0
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.0))
    for alpha in (0.3, 0.8, 1.7):
        c = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, alpha))
        p1 = ypir_stationary(c, 2).probs[1]
        alpha_err = max(alpha_err, abs(p1 - alpha / (1.0 + alpha)))
    ok = worst <= 1e-3 and alpha_err <= 1e-12
    _line(8, "asymptotic product limit", ok, f"max l1 {worst:.2e}, p(1) error {alpha_err:.1e}")
    assert worst <= 1e-3
    assert alpha_err <= 1e-12


def test_criterion_09_marginal_consistency():
    cfg = SiteConfig(n=4, i_star=2, s=1.1, rho=(0.7, 0.0, 0.4, 0.9))
    rng = spawn_stream(9109, 0)
    omega0 = random_prob(cfg.sites, rng)
    settings = SolverSettings(t_max=1.0, grid_steps=512, quad_tol=1e-9)
    full = integrate_ode(cfg, omega0, settings).final_probability()
    worst = 0.0
    subsets = [
        A for size in range(1, 5)
        for A in __import__("itertools").combinations(cfg.sites, size)
        if cfg.i_star in A
    ]
    for A in subsets:
        marg = marginal_sre_solve(cfg, omega0, A, settings).final_probability()
        worst = max(worst, l1_distance(marg, full.project(A)))

    # counterexample: without the selected site the marginal fitness term
    # cannot be expressed through the marginal alone; the naive equation
    # (same form, pooled rates) misses by a visible margin
    c2 = SiteConfig(n=2, i_star=1, s=1.5, rho=(0.0, 0.8))
    w0 = ProbabilityMeasure((1, 2), [0.45, 0.05, 0.05, 0.45])
    truth = integrate_ode(c2, w0, settings).final_probability().project((2,))
    naive_cfg = SiteConfig(n=1, i_star=1, s=1.5, rho=(0.0,))
    naive = integrate_ode(
        naive_cfg, ProbabilityMeasure((1,), w0.project((2,)).values), settings
    ).final_probability()
    gap = float(np.abs(truth.values - naive.values).sum())
    ok = worst <= 1e-6 and gap >= 1e-3
    _line(9, "marginal consistency", ok, f"max l1 {worst:.2e}, counterexample gap {gap:.2e}")
    assert worst <= 1e-6
    assert gap >= 1e-3


def test_criterion_10_moran_lln():
    t0 = time.monotonic()
    cfg = SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, 0.5))
    nu = ProbabilityMeasure((1, 2), [0.35, 0.15, 0.05, 0.45])
    report = lln_convergence(
        cfg, nu, 1.0, (100, 1000, 10000), replicates=20, seed=9110
    )
    elapsed = time.monotonic() - t0
    decreasing = (
        report.mean_distance[0] > report.mean_distance[1] > report.mean_distance[2]
    )
    ok = decreasing and -0.65 <= report.slope <= -0.35 and elapsed < 300.0
    _line(10, "finite population convergence", ok,
          f"slope {report.slope:.3f}, {elapsed:.1f}s")
    assert decreasing
    assert -0.65 <= report.slope <= -0.35
    assert elapsed < 300.0


def test_criterion_11_deterministic_verification(tmp_path):
    raw = {
        "n": 2, "i_star": 1, "s": 0.8, "rho": [0.0, 0.6],
        "initial": {"vector": [0.35, 0.15, 0.05, 0.45]},
        "t_max": 0.75, "grid_steps": 256, "quad_tol": 1e-7,
        "seed": 11, "replicates": 4000, "dual_flavor": "all",
        "z_threshold": 4.5, "agreement_tol": 1e-5,
        "moran_population_sizes": [50, 200], "moran_replicates": 4,
    }
    cfgp = tmp_path / "exp.json"
    cfgp.write_text(json.dumps(raw))
    blobs = []
    for run, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / run
        code = main(["verify", "--config", str(cfgp), "--out", str(out),
                     "--threads", threads])
        assert code == 0
        blobs.append((out / "verify_report.json").read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    _line(11, "deterministic verification", identical,
          f"{len(blobs)} runs, report {len(blobs[0])} bytes")
    assert identical
