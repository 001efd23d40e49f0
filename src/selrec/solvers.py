"""Forward solvers for the selection-recombination dynamics.

Three independent routes to the same solution:

* a closed semigroup formula that assembles the solution from per-site
  line-counting laws: the exact engine,
* a generic fixed-step Runge-Kutta integrator that halves its step until
  its end point meets the closed form,
* a level-by-level recursion that peels off one crossover site at a time
  and only ever integrates scalar exponential weights; its end point is
  checked against the closed form.

All of them work on dense measure vectors as defined in ``measure``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .measure import (
    Measure,
    ProbabilityMeasure,
    Split,
    add_cut_products,
    cond_fit,
    cond_unfit,
    fit_fraction,
    fit_mask,
    fitness_projection,
    recombinator,
)
from .sites import SiteConfig

MAX_HALVINGS = 20


class SolverError(RuntimeError):
    """Numerical failure inside a solver."""


class GridTooCoarseError(SolverError):
    """Raised when the recursion's end point lies more than 10 * quad_tol
    in l1 from the closed form."""


@dataclass(frozen=True)
class SolverSettings:
    """Discretisation parameters shared by the grid-based solvers.

    t_max is the end time, grid_steps the number of grid intervals,
    ode_step the initial integrator step (defaults to the grid spacing)
    and quad_tol the l1 distance from the closed form at t_max that the
    integrator must reach, and a tenth of the recursion's bound.
    """

    t_max: float
    grid_steps: int = 512
    ode_step: float | None = None
    quad_tol: float = 1e-7

    def __post_init__(self):
        if not 0 <= self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and >= 0, got {self.t_max}")
        if not isinstance(self.grid_steps, int) or self.grid_steps < 2:
            raise ValueError("grid_steps must be an integer >= 2")
        if self.ode_step is not None and not 0 < self.ode_step < math.inf:
            raise ValueError(f"ode_step must be finite and positive, got {self.ode_step}")
        if not (0.0 < self.quad_tol <= 1e-3):
            raise ValueError("quad_tol must lie in (0, 1e-3]")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.grid_steps + 1)


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of the grid point at t, matched to a relative 1e-9."""
    j = int(np.argmin(np.abs(times - t)))
    if abs(times[j] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the solver grid")
    return j


class Trajectory:
    """Solution values on a fixed time grid."""

    def __init__(self, times, sites, values, mass_drift: float = 0.0):
        self.times = np.asarray(times, dtype=float)
        self.sites = tuple(sites)
        self.values = np.asarray(values, dtype=float)
        self.mass_drift = float(mass_drift)
        if self.values.shape != (self.times.size, 2 ** len(self.sites)):
            raise ValueError("trajectory shape does not match grid and sites")

    def index_of_time(self, t: float) -> int:
        return grid_index(self.times, t)

    def measure(self, j: int) -> Measure:
        return Measure(self.sites, self.values[j])

    def at_time(self, t: float) -> Measure:
        return self.measure(self.index_of_time(t))

    def final(self) -> Measure:
        return self.measure(self.times.size - 1)

    def final_probability(self) -> ProbabilityMeasure:
        v = self.values[-1]
        return ProbabilityMeasure(self.sites, v / v.sum())

    def at_times(self, times) -> "Trajectory":
        """The rows at the grid points of times, in their order: a copy, so
        the full array can be dropped.  Grid times and mass drift are kept,
        so a row written from it is the full trajectory's row."""
        idx = [self.index_of_time(t) for t in times]
        return Trajectory(self.times[idx], self.sites, self.values[idx], self.mass_drift)

    def column_labels(self) -> list[str]:
        # character j of a label is bit j of the index: the j-th site's letter
        k = len(self.sites)
        if not k:
            return ["p_"]
        return ["p_" + format(idx, f"0{k}b")[::-1] for idx in range(2 ** k)]

    def write_csv(self, fh) -> None:
        fh.write("t," + ",".join(self.column_labels()) + "\n")
        # one row of Python floats at a time: a whole-array tolist() would
        # hold about four times the array's bytes in float objects
        for t, row in zip(self.times.tolist(), self.values):
            fh.write(repr(t) + "," + ",".join(map(repr, row.tolist())) + "\n")


# -- right-hand side --------------------------------------------------------

def make_rhs(cfg: SiteConfig) -> Callable[[np.ndarray], np.ndarray]:
    """Vector field of the dynamics of cfg: the returned function maps a
    raw value vector to its time derivative."""
    s = cfg.s
    fmask = fit_mask(cfg.sites, cfg.i_star).astype(float)
    cuts = {
        Split(cfg.sites, *cfg.head_tail(i)).n_lo: cfg.rho_of(i)
        for i in cfg.crossover_sites
        if cfg.rho_of(i) != 0.0
    }
    total = sum(cuts.values())

    def rhs(v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape)
        if s:
            # an elementwise sum, not a BLAS dot: its bits must not depend
            # on the BLAS thread count
            vf = v * fmask
            f = float(vf.sum())
            out += s * (vf - f * v)
        if cuts:
            add_cut_products(out, v, cuts)
            out -= total * v
        return out

    return rhs


def sre_rhs(cfg: SiteConfig, nu: Measure) -> Measure:
    """Time derivative of the dynamics at nu (a signed measure of mass 0)."""
    if nu.sites != cfg.sites:
        raise ValueError("measure must live on the full site set")
    return Measure(nu.sites, make_rhs(cfg)(nu.values))


# -- selection-only flow ------------------------------------------------------

def selection_flow(cfg: SiteConfig, omega0: Measure, t: float) -> ProbabilityMeasure:
    """Exact solution when every crossover rate vanishes.

    Reweights the fit and unfit parts; the conditional distributions inside
    each part never move.
    """
    if cfg.i_star not in omega0.sites:
        raise ValueError("initial measure must cover the selected site")
    if t < 0:
        raise ValueError("t must be >= 0")
    st = cfg.s * t
    if st > 500.0:
        return ProbabilityMeasure(omega0.sites, cond_fit(omega0, cfg.i_star).values)
    e = math.exp(st)
    fv = fitness_projection(omega0, cfg.i_star).values
    f0 = float(fv.sum())
    vals = (e * fv + (omega0.values - fv)) / (e * f0 + (1.0 - f0))
    return ProbabilityMeasure(omega0.sites, vals)


def logistic_fit_fraction(s: float, f0: float, t):
    """Fit-sequence mass along the selection-only flow; t may be an array."""
    e = np.exp(np.minimum(s * t, 500.0))
    return e * f0 / (e * f0 + (1.0 - f0))


# -- Runge-Kutta integrator ---------------------------------------------------

def _rk4_run(rhs, v0: np.ndarray, grid: np.ndarray, substeps: int):
    """Values on the grid and the largest mass drift, or None once the mass
    collapses or stops being finite."""
    out = np.empty((grid.size, v0.size))
    out[0] = v0
    v = v0.copy()
    drift = 0.0
    for j in range(1, grid.size):
        dt = (grid[j] - grid[j - 1]) / substeps
        for _ in range(substeps):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * dt * k1)
            k3 = rhs(v + 0.5 * dt * k2)
            k4 = rhs(v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            m = v.sum()
            if not 0.0 < m < math.inf:
                return None
            drift = max(drift, abs(m - 1.0))
            v /= m
        out[j] = v
    return out, drift


def integrate_ode(cfg: SiteConfig, omega0: Measure, settings: SolverSettings) -> Trajectory:
    """Classic fourth-order integration with step halving.

    The first run whose endpoint lies within quad_tol in l1 of the closed
    form semigroup_solve at t_max is returned; otherwise the step is
    halved.  A run whose mass collapses or stops being finite is discarded,
    and a run that agrees with the one before it to within quad_tol but not
    with the closed form raises SolverError: the two routes disagree.  The
    mass is renormalised after every step and the largest drift is
    recorded on the trajectory.
    """
    if omega0.sites != cfg.sites:
        raise ValueError("initial measure must live on the full site set")
    rhs = make_rhs(cfg)
    grid = settings.grid()
    if settings.t_max == 0.0:
        vals = np.tile(omega0.values, (grid.size, 1))
        return Trajectory(grid, cfg.sites, vals)
    exact = semigroup_solve(cfg, omega0, settings.t_max).values
    cell = settings.t_max / settings.grid_steps
    step = settings.ode_step if settings.ode_step is not None else cell
    substeps = max(1, math.ceil(cell / step))
    prev_final = None
    for _ in range(MAX_HALVINGS + 1):
        run = _rk4_run(rhs, omega0.values, grid, substeps)
        if run is None:
            prev_final = None
        else:
            out, drift = run
            gap = float(np.abs(out[-1] - exact).sum())
            if gap < settings.quad_tol:
                return Trajectory(grid, cfg.sites, out, drift)
            if prev_final is not None and np.abs(out[-1] - prev_final).sum() < settings.quad_tol:
                raise SolverError(f"the ODE converged {gap:.3e} in l1 away from the closed form")
            # a copy of the endpoint, so the next run is the only trajectory
            prev_final = out[-1].copy()
            del out, run
        substeps *= 2
    raise SolverError(
        f"no convergence to {settings.quad_tol} after {MAX_HALVINGS} step halvings"
    )


# -- recursion over crossover sites -------------------------------------------

def recursive_solve(
    cfg: SiteConfig,
    omega0: Measure,
    settings: SolverSettings,
    permutation: Sequence[int] | None = None,
) -> Trajectory:
    """Solve by adding one crossover site per level.

    Each level couples the previous one through a single exponentially
    weighted time integral, evaluated by trapezoidal prefix sums on the
    grid.  Only the level being built and the one below it are held; the
    last level is the solution.  Its end point is compared with the closed
    form at t_max, and a distance beyond 10 * quad_tol in l1 raises
    GridTooCoarseError.
    """
    return _walk_levels(cfg, omega0, settings, permutation)


def ld_decay_residuals(
    cfg: SiteConfig,
    omega0: Measure,
    settings: SolverSettings,
    permutation: Sequence[int] | None = None,
) -> tuple[Trajectory, list[dict]]:
    """recursive_solve's solution and the ld_decay_residual of every level
    k = 1..n-1, each computed in the same pass while levels k-1 and k are
    held."""
    residuals = []
    return _walk_levels(cfg, omega0, settings, permutation, residuals), residuals


def _walk_levels(cfg, omega0, settings, permutation, residuals=None) -> Trajectory:
    """The one driver of the recursion.  Streams the levels on the settings'
    grid once, appending to residuals, when given, the ld_decay_residual of
    each level above the first; then checks the last level's end point
    against the closed form and returns the last level."""
    if omega0.sites != cfg.sites:
        raise ValueError("initial measure must live on the full site set")
    permutation = cfg.ordering(permutation)
    times = settings.grid()
    for k, level in enumerate(_recursion_levels(cfg, omega0, times, permutation)):
        if k and residuals is not None:
            residuals.append(ld_decay_residual(cfg, permutation[k], times, level, below))
        below = level
    exact = semigroup_solve(cfg, omega0, settings.t_max).values
    diff = float(np.abs(level[-1] - exact).sum())
    if diff > 10.0 * settings.quad_tol:
        raise GridTooCoarseError(
            f"the recursion ends {diff:.3e} in l1 from the closed form, "
            f"> 10 * {settings.quad_tol:.1e}; increase grid_steps"
        )
    return Trajectory(times, cfg.sites, level)


def _cumulative_trapezoid(y, times):
    """Trapezoid integrals of the rows of y from times[0] to each time, in
    the order of operations of the SciPy routine cumulative_trapezoid, to
    the bit (tests/test_solvers.py compares the two)."""
    out = np.zeros_like(y)
    np.cumsum(np.diff(times)[:, None] * (y[1:] + y[:-1]) / 2.0, axis=0, out=out[1:])
    return out


def _recursion_levels(cfg, omega0, times, permutation):
    """Yield the levels' values on the grid one at a time, each computed
    from the one before.  Level 0 is the selection-only flow, level k adds
    crossover site permutation[k].  A yielded array is never written
    again, so a caller may hold it while the next level is built."""
    s = cfg.s
    v0 = omega0.values
    fv = fitness_projection(omega0, cfg.i_star).values
    f0 = float(fv.sum())
    st = np.minimum(s * times, 500.0)
    e = np.exp(st)
    level = (e[:, None] * fv[None, :] + (v0 - fv)[None, :]) / (
        e * f0 + (1.0 - f0)
    )[:, None]
    yield level
    for i in permutation[1:]:
        rate = cfg.rho_of(i)
        if rate != 0.0:
            split = Split(cfg.sites, *cfg.head_tail(i))
            decay = np.exp(-rate * times)
            # the trapezoid is linear, so it integrates the tail marginal only
            integ = _cumulative_trapezoid(
                (rate * decay)[:, None] * split.tail(level), times
            )
            # decay * level + product, added into the product's fresh buffer
            # (IEEE addition commutes, so the bits are those of the sum)
            new = split.product(split.head(level), integ)
            new += decay[:, None] * level
            level = new
        yield level


def linkage_disequilibrium(cfg: SiteConfig, i: int, nu: Measure) -> Measure:
    """Deviation of nu from the product of its marginals on the two sides of
    a crossover at site i."""
    if i not in cfg.crossover_sites:
        raise ValueError(f"site {i} is not a crossover site of the model")
    head, tail = cfg.head_tail(i)
    return nu.sub(recombinator(nu, head, tail))


def ld_decay_residual(
    cfg: SiteConfig, i: int, times: np.ndarray, level: np.ndarray, below: np.ndarray
) -> dict:
    """Compare the product deviation at site i's cut of the level that adds
    site i with the exponentially damped deviation of the level below,
    across the whole grid.  level and below hold values on the grid times,
    one row per time; neither is written."""
    rate = cfg.rho_of(i)
    split = Split(cfg.sites, *cfg.head_tail(i))

    def deviation(W):
        out = split.product(split.head(W), split.tail(W))
        return np.subtract(W, out, out=out)

    # the same operations as lhs - decay * below and its norms, on two
    # buffers: each in-place step gives the bits of its out-of-place form
    rhs = deviation(below)
    below_norms = np.abs(rhs).sum(axis=1)
    rhs *= np.exp(-rate * times)[:, None]
    lhs = deviation(level)
    diff = np.subtract(lhs, rhs, out=rhs)
    err = np.abs(diff, out=diff).sum(axis=1)
    norms = np.abs(lhs, out=lhs).sum(axis=1)
    scale = max(float(norms.max()), 1e-30)
    return {
        "site": i,
        "rate": rate,
        "max_abs_error": float(err.max()),
        "max_relative_error": float(err.max() / scale),
        "lhs_norms": norms,
        "below_norms": below_norms,
    }


# -- closed semigroup solution ------------------------------------------------

def yule_pgf(s: float, t: float, x: float) -> float:
    """Generating function of the line count started from one line."""
    sig = math.exp(-min(s * t, 500.0))
    return sig * x / (1.0 - (1.0 - sig) * x) if x != 1.0 else 1.0


# Composite Gauss-Legendre rule: _GL_ORDER nodes per panel, and node arrays
# of at most _CHUNK_PANELS panels, so memory stays bounded for any t.
_GL_ORDER = 32
_CHUNK_PANELS = 256


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _GL_ORDER-point Gauss-Legendre rule on
    [-1, 1]: the roots of the Legendre polynomial P_n by Newton's method
    from Tricomi's estimates, with P_n and P_n' from the three-term
    recurrence, and weights 2 / ((1 - x^2) P_n'(x)^2).  Elementwise numpy:
    a LAPACK eigensolver (Golub-Welsch) would add about 1 MB of resident
    buffers to every run that reaches a closed form."""
    n = _GL_ORDER
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


def _integral(f, t: float, rate: float):
    """Integral of f over [0, t] on the composite rule.  f maps a node array
    to values along its last axis; leading axes give one integral each.  A
    panel spans at most 8 / rate, in which the fastest exponential of the
    integrand falls by at most e^8."""
    x, w = _gauss_legendre()
    panels = max(1, math.ceil(t * rate / 8.0))
    h = t / panels
    total = 0.0
    for first in range(0, panels, _CHUNK_PANELS):
        left = h * np.arange(first, min(panels, first + _CHUNK_PANELS))
        u = (left[:, None] + 0.5 * h * (x + 1.0)).ravel()
        # an elementwise sum, not a BLAS dot: its bits must not depend on the
        # BLAS thread count
        total = total + (np.tile(0.5 * h * w, left.size) * f(u)).sum(axis=-1)
    return total


def _renewal_density(rho: float, r: float, t: float, u: np.ndarray) -> np.ndarray:
    """Density of the age u of the last renewal at time t of a count started
    at 0: it starts at rate rho and afterwards resets at rate r."""
    return np.exp(-r * u) * (
        rho * np.exp(-rho * (t - u)) - r * np.expm1(-rho * (t - u))
    )


def _yule_pgf_nodes(s: float, u: np.ndarray, x: float) -> np.ndarray:
    """yule_pgf at an array of times, with numpy's exp (math.exp's bits
    differ in the last place, and yule_pgf keeps them)."""
    sig = np.exp(-np.minimum(s * u, 500.0))
    return sig * x / (1.0 - x + sig * x)


def _started_mass_pgf(s, rho, r, t, x):
    """E[x^N; N >= 1] for the count started at 0: the site fires once at
    rate rho, afterwards the count runs with resets at rate r; only the age
    since the last renewal matters."""
    return float(_integral(
        lambda u: _renewal_density(rho, r, t, u) * _yule_pgf_nodes(s, u, x),
        t, max(s, rho, r),
    ))


class _DualityChain:
    """The overwrite chain that builds every duality value at a measure nu.

    A value starts from the mixture (1 - g)*b + g*d of the fit and unfit
    conditionals b and d of nu.  Then, outward from the selected site, each
    started site i overwrites the tail of the value so far with a mixture
    wb*b_T + wd*d_T of the tail marginals of b and d.  The closed form takes
    expected weights, the Monte Carlo sampled ones and the long-time limit
    stationary ones.  Weights may be columns of shape (rows, 1), giving one
    value per row.
    """

    def __init__(self, cfg: SiteConfig, nu: Measure):
        # unfit mass: an ancestor with k lines is unfit with chance y^k
        self.y = 1.0 - fit_fraction(nu, cfg.i_star)
        b = cond_fit(nu, cfg.i_star)
        d = cond_unfit(nu, cfg.i_star)
        self.b, self.d = b.values, d.values
        self.order = cfg.canonical_permutation()
        # per crossover site: its split and the tail marginals of b and d
        self._tails = {}
        for i in self.order[1:]:
            head, tail = cfg.head_tail(i)
            self._tails[i] = (
                Split(cfg.sites, head, tail),
                b.project(tail).values,
                d.project(tail).values,
            )

    def start(self, g):
        """(1 - g)*b + g*d on all sites."""
        return (1.0 - g) * self.b + g * self.d

    def overwrite(self, out: np.ndarray, i: int, wb, wd) -> np.ndarray:
        """Each row of out with its tail at site i replaced: the head
        marginal of the row times wb*b_T + wd*d_T."""
        split, b, d = self._tails[i]
        return split.product(split.head(out), wb * b + wd * d)


def semigroup_solve(cfg: SiteConfig, omega0: Measure, t: float) -> ProbabilityMeasure:
    """Assemble the solution directly from per-site renewal laws; with
    s = 0 every count stays at its start and the same formula applies.

    The duality chain with expected weights: site i has started by t with
    chance p.  The value so far stays with weight 1 - p; the overwrite of
    the tail carries weight G = E[y^N; N >= 1] on d and p - G on b, where N
    is the site's line count."""
    return next(semigroup_path(cfg, omega0, (t,)))


def semigroup_path(cfg: SiteConfig, omega0: Measure, times: Iterable[float]):
    """Yield semigroup_solve at each of the times in turn, all from one
    duality chain, which is built at the first positive time."""
    if omega0.sites != cfg.sites:
        raise ValueError("initial measure must live on the full site set")
    times = list(times)
    if any(t < 0 for t in times):
        raise ValueError("t must be >= 0")
    chain = None
    for t in times:
        if t == 0.0:
            yield ProbabilityMeasure(omega0.sites, omega0.values)
            continue
        if chain is None:
            chain = _DualityChain(cfg, omega0)
            resets = cfg.resetting_rates()
        acc = chain.start(yule_pgf(cfg.s, t, chain.y))
        for i in chain.order[1:]:
            rho = cfg.rho_of(i)
            if rho == 0.0:
                continue
            p = 1.0 - math.exp(-rho * t)
            G = _started_mass_pgf(cfg.s, rho, float(resets[i - 1]), t, chain.y)
            acc = (1.0 - p) * acc + chain.overwrite(acc, i, p - G, G)
        yield ProbabilityMeasure(cfg.sites, acc / acc.sum())


# -- long-time limit ----------------------------------------------------------

def stationary_count_pgf(alpha: float, x: float) -> float:
    """Generating function of the stationary line-count law with shape
    alpha (reset rate over selection strength), evaluated at x in [0, 1];
    P(m + 1 lines) = P(m lines) * m / (m + alpha + 1) sums to a 2F1."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    from scipy.special import hyp2f1

    return x * alpha / (alpha + 1.0) * float(hyp2f1(1.0, 1.0, alpha + 2.0, x))


def asymptotic_limit(cfg: SiteConfig, omega0: Measure) -> ProbabilityMeasure:
    """Product-form long-time limit of the dynamics.

    Requires s > 0 and a positive rate at every crossover site, otherwise
    no unique product limit exists.
    """
    if omega0.sites != cfg.sites:
        raise ValueError("initial measure must live on the full site set")
    if cfg.s <= 0.0:
        raise ValueError("the long-time limit needs s > 0")
    zero = [i for i in cfg.crossover_sites if cfg.rho_of(i) == 0.0]
    if zero:
        raise ValueError(
            f"the long-time limit needs a positive crossover rate at every "
            f"site other than the selected one; zero at {zero}"
        )
    chain = _DualityChain(cfg, omega0)
    resets = cfg.resetting_rates()
    # every site has started, and each overwrite leaves only the site
    # itself of its tail: the limit is the product of one-site marginals
    out = chain.start(1.0 if chain.y == 0.0 else 0.0)
    for i in chain.order[1:]:
        gamma = stationary_count_pgf(float(resets[i - 1]) / cfg.s, chain.y)
        out = chain.overwrite(out, i, 1.0 - gamma, gamma)
    return ProbabilityMeasure(cfg.sites, out)


def equilibration_time(cfg: SiteConfig, omega0: Measure, eps: float = 1e-4) -> float:
    """Horizon after which the state should sit within O(eps) of the
    long-time limit; used to pick the end time of convergence runs."""
    if eps <= 0 or eps >= 1:
        raise ValueError("eps must lie in (0, 1)")
    log_eps = math.log(1.0 / eps)
    rates = [cfg.rho_of(i) for i in cfg.crossover_sites]
    T = max((log_eps / r for r in rates if r > 0), default=0.0)
    f0 = fit_fraction(omega0, cfg.i_star)
    if cfg.s > 0.0 and 0.0 < f0 < 1.0:
        T = max(T, (log_eps + max(0.0, math.log((1.0 - f0) / f0))) / cfg.s)
    return T


# -- marginal dynamics ---------------------------------------------------------

def marginal_sre_solve(
    cfg: SiteConfig,
    omega0: Measure,
    subset: Iterable[int],
    settings: SolverSettings,
) -> Trajectory:
    """Integrate the dynamics of the marginal on a subset of sites.

    The subset must contain the selected site; the marginal then follows
    the model cfg.marginal(subset), whose crossover sites pool the rates of
    the sites that cut the subset in the same place.  The result matches
    the projection of the full solution onto the subset.
    """
    A = tuple(sorted(set(subset)))
    model = cfg.marginal(A)
    if omega0.sites == cfg.sites:
        start = omega0.project(A)
    elif omega0.sites == A:
        start = omega0
    else:
        raise ValueError("initial measure must live on the full site set or on the subset")
    traj = integrate_ode(model, Measure(model.sites, start.values), settings)
    return Trajectory(traj.times, A, traj.values, traj.mass_drift)
