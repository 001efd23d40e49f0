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
from .partitions import _blocks
from .sites import SiteConfig

MAX_HALVINGS = 20
# bytes of one row block of the level recursion and its residuals: the
# recursion holds a few such blocks besides the rows it returns
_BLOCK_BYTES = 1 << 18


class SolverError(RuntimeError):
    """Numerical failure inside a solver."""


class GridTooCoarseError(SolverError):
    """Raised when the recursion's end point lies more than 10 * quad_tol
    in l1 from the closed form: the grid is too coarse, or, when the
    distance does not shrink with more steps, the two routes disagree."""


@dataclass(frozen=True)
class SolverSettings:
    """Discretisation parameters shared by the grid-based solvers.

    t_max is the end time, grid_steps the number of grid intervals and
    quad_tol the l1 distance from the closed form at t_max that the
    integrator must reach, and a tenth of the recursion's bound.
    """

    t_max: float
    grid_steps: int = 512
    quad_tol: float = 1e-7

    def __post_init__(self):
        if not 0 <= self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and >= 0, got {self.t_max}")
        if not isinstance(self.grid_steps, int) or self.grid_steps < 2:
            raise ValueError("grid_steps must be an integer >= 2")
        if not (0.0 < self.quad_tol <= 1e-3):
            raise ValueError("quad_tol must lie in (0, 1e-3]")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.grid_steps + 1)


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of the grid point at t, matched to a relative 1e-9; NaN and
    infinity are on no grid."""
    j = int(np.argmin(np.abs(times - t)))
    if not math.isfinite(t) or abs(times[j] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the solver grid")
    return j


def _grid_rows(grid: np.ndarray, times: Iterable[float] | None) -> np.ndarray:
    """The grid indices of times, in their order (every index for None);
    a time off the grid raises ValueError."""
    if times is None:
        return np.arange(grid.size)
    return np.array([grid_index(grid, t) for t in times], dtype=int)


def _check_time(t: float) -> None:
    """Refuse a negative, NaN or infinite time."""
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be >= 0 and finite, got {t}")


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

    def column_labels(self) -> list[str]:
        return _csv_header(len(self.sites))[2:-1].split(",")

    def write_csv(self, fh) -> None:
        fh.write(_csv_header(len(self.sites)))
        # one row of Python floats at a time: a whole-array tolist() would
        # hold about four times the array's bytes in float objects
        for t, row in zip(self.times.tolist(), self.values):
            fh.write(repr(t) + "," + ",".join(map(repr, row.tolist())) + "\n")


@functools.lru_cache(maxsize=1)
def _csv_header(k: int) -> str:
    """The header line of a trajectory CSV on k sites, built once per site
    count: t, then one label per index, whose character j is bit j of the
    index, the j-th site's letter."""
    if not k:
        return "t,p_\n"
    return "t," + ",".join("p_" + format(idx, f"0{k}b")[::-1] for idx in range(2 ** k)) + "\n"


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
    _check_time(t)
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

def _rk4_run(rhs, v0: np.ndarray, grid: np.ndarray, substeps: int, rows: np.ndarray):
    """The values at the grid indices rows, in their order, the end point
    and the largest mass drift over every step, or None once the mass
    collapses or stops being finite."""
    out = np.empty((rows.size, v0.size))
    out[rows == 0] = v0
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
        out[rows == j] = v
    return out, v, drift


def integrate_ode(
    cfg: SiteConfig,
    omega0: Measure,
    settings: SolverSettings,
    times: Iterable[float] | None = None,
) -> Trajectory:
    """Classic fourth-order integration with step halving, from one step
    per grid cell.

    The first run whose endpoint lies within quad_tol in l1 of the closed
    form semigroup_solve at t_max is returned; otherwise the step is
    halved.  A run whose mass collapses or stops being finite is discarded,
    and a run that agrees with the one before it to within quad_tol but not
    with the closed form raises SolverError: the two routes disagree.  The
    mass is renormalised after every step and the largest drift is
    recorded on the trajectory.

    With times, only the grid rows at those times are stored, in their
    order: the whole grid's rows at those times, bit for bit.  A time off
    the grid raises ValueError before any step.
    """
    if omega0.sites != cfg.sites:
        raise ValueError("initial measure must live on the full site set")
    rhs = make_rhs(cfg)
    grid = settings.grid()
    rows = _grid_rows(grid, times)
    if settings.t_max == 0.0:
        vals = np.tile(omega0.values, (rows.size, 1))
        return Trajectory(grid[rows], cfg.sites, vals)
    exact = semigroup_solve(cfg, omega0, settings.t_max).values
    substeps = 1
    prev_final = None
    for _ in range(MAX_HALVINGS + 1):
        run = _rk4_run(rhs, omega0.values, grid, substeps, rows)
        if run is None:
            prev_final = None
        else:
            out, final, drift = run
            gap = float(np.abs(final - exact).sum())
            if gap < settings.quad_tol:
                return Trajectory(grid[rows], cfg.sites, out, drift)
            if prev_final is not None and np.abs(final - prev_final).sum() < settings.quad_tol:
                raise SolverError(f"the ODE converged {gap:.3e} in l1 away from the closed form")
            # the end point alone, so the next run is the only trajectory
            prev_final = final
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
    times: Iterable[float] | None = None,
    *,
    permutation: Sequence[int] | None = None,
) -> Trajectory:
    """Solve by adding one crossover site per level.

    Each level couples the previous one through a single exponentially
    weighted time integral, evaluated by trapezoidal prefix sums on the
    grid; the last level is the solution.  Its end point is compared with
    the closed form at t_max, and a distance beyond 10 * quad_tol in l1
    raises GridTooCoarseError.

    With times, the returned rows are the last level's grid rows at those
    times, in their order; a time off the grid raises ValueError before any
    level.  Full vectors are built at those rows and the end point only
    (_walk_levels), and they are the same rows, bit for bit, as those of
    ld_decay_residuals.  None keeps the whole grid.
    """
    return _walk_levels(cfg, omega0, settings, times, permutation)


def ld_decay_residuals(
    cfg: SiteConfig,
    omega0: Measure,
    settings: SolverSettings,
    times: Iterable[float] | None = None,
    *,
    permutation: Sequence[int] | None = None,
) -> tuple[Trajectory, list[dict]]:
    """recursive_solve's solution at times and the residual of the decay
    identity D_k(t) = exp(-rho_i t) D_{k-1}(t) for every level k = 1..n-1
    on the whole grid, D being the product deviation at the cut of the
    site i that level k adds.  Each residual is a dict: site, rate,
    max_abs_error (the largest l1 norm over the rows of D_k -
    exp(-rho_i t) D_{k-1}), max_relative_error (that over the largest
    norm of D_k), and the per-row norms lhs_norms of D_k and below_norms
    of D_{k-1}.  One pass of the same engine: every grid row goes through
    the levels one row block at a time, and each residual is taken on the
    block just below and just above its level, so no level is ever held
    whole."""
    residuals = []
    return _walk_levels(cfg, omega0, settings, times, permutation, residuals), residuals


def _walk_levels(cfg, omega0, settings, times, permutation, residuals=None) -> Trajectory:
    """The recursion's one entry point.  Builds the last level at the rows
    asked for and the end point (_level_rows), passing every grid row
    through the levels when residuals is given, to which it then appends
    the residual of each level above the first.  Then checks the
    end point against the closed form and returns the rows at times."""
    if omega0.sites != cfg.sites:
        raise ValueError("initial measure must live on the full site set")
    permutation = cfg.ordering(permutation)
    grid = settings.grid()
    rows = _grid_rows(grid, times)
    # the rows held in full: the asked ones and the end point the check reads
    held = np.array(sorted({*rows.tolist(), grid.size - 1}))
    walked = held if residuals is None else np.arange(grid.size)
    out = _level_rows(cfg, omega0, grid, walked, held, permutation, residuals)
    exact = semigroup_solve(cfg, omega0, settings.t_max).values
    diff = float(np.abs(out[-1] - exact).sum())
    if diff > 10.0 * settings.quad_tol:
        raise GridTooCoarseError(
            f"the recursion ends {diff:.3e} in l1 from the closed form, "
            f"> 10 * {settings.quad_tol:.1e}; increase grid_steps, and if the "
            f"distance does not shrink with more steps, the recursion and the "
            f"closed form disagree"
        )
    values = out if times is None else out[np.searchsorted(held, rows)]
    return Trajectory(grid[rows], cfg.sites, values)


def _level_rows(cfg, omega0, times, walked, held, permutation, residuals):
    """The last level of the recursion at the grid rows held (ascending),
    built in two passes; no level is held whole.

    Of level k - 1, level k reads over the whole grid only the marginal on
    the tail of the site i = permutation[k] it adds.  Level 0 is alpha *
    fv + beta * (v0 - fv) at every time, so its marginal on a tail away
    from the selected site is alpha * fv_T + beta * rest_T, with fv_T and
    rest_T the tail marginals of fv and v0 - fv, and every level keeps that
    form on the tails still to be added.  Adding i at rate rho with decay d
    takes the coefficient columns c (one row alpha, beta per time) of

    * i's own arm, whose later tails lie inside i's tail, to
      d * c + mass * C, with C the trapezoid integral of rho * d * c (the
      coefficients of the tail integral I) and mass that of level k - 1;
    * the other arm, whose tails lie inside i's head, to
      (d + mass(I)) * c, the factor that also takes mass to level k's.

    A zero-rate site changes nothing, and any valid order works, since each
    arm's sites come outward in it.

    The first pass builds every site's columns d and C over the grid,
    O(n * grid) numbers.  The second takes the rows walked (ascending, a
    superset of held) one block at a time through level 0 and then every
    site, as product + d * level, a row's update reading that row's columns
    alone.  With residuals, _deviation_norms takes each site's per-row
    norms on every block just below and above its level, and each site's
    residual is built once from the blocks' norms."""
    v0 = omega0.values
    fv = fitness_projection(omega0, cfg.i_star).values
    rest = v0 - fv
    f0 = float(fv.sum())
    e = np.exp(np.minimum(cfg.s * times, 500.0))
    den = e * f0 + (1.0 - f0)
    # per arm, by the sign of i - i_star: one row of coefficients per time;
    # never written in place, so the arms may share level 0's array
    coef = dict.fromkeys((-1, 1), np.stack([e / den, 1.0 / den], axis=1))
    mass = (e * f0 + (float(v0.sum()) - f0)) / den
    steps = []
    for i in permutation[1:]:
        rate = cfg.rho_of(i)
        split = Split(cfg.sites, *cfg.head_tail(i))
        decay = np.exp(-rate * times)
        if rate == 0.0:
            steps.append((i, split, decay, None))
            continue
        arm = 1 if i > cfg.i_star else -1
        fv_t, rest_t = split.tail(fv), split.tail(rest)
        integ = _cumulative_trapezoid((rate * decay)[:, None] * coef[arm], times)
        # decay + mass(I)
        grow = decay + integ[:, 0] * float(fv_t.sum()) + integ[:, 1] * float(rest_t.sum())
        coef[arm] = decay[:, None] * coef[arm] + mass[:, None] * integ
        coef[-arm] = grow[:, None] * coef[-arm]
        mass = grow * mass
        steps.append((i, split, decay, (integ, fv_t, rest_t)))
    # the second pass reads only the columns in steps; the rest would stay
    # live beside its row blocks
    del coef, mass

    # where each walked row goes among the held ones, if it is held
    keep = np.isin(walked, held)
    dest = np.searchsorted(held, walked)
    out = np.empty((held.size, v0.size))
    norms = [[] for _ in steps]
    for r in _row_blocks(walked.size, v0.size):
        at = walked[r]
        level = e[at, None] * fv
        level += rest
        level /= den[at, None]
        for (i, split, decay, update), parts in zip(steps, norms):
            below, below_head = level, None
            if update is not None:
                integ, fv_t, rest_t = update
                c = integ[at]
                below_head = split.head(below)
                level = split.product(below_head, c[:, :1] * fv_t + c[:, 1:] * rest_t)
                level += decay[at, None] * below
            if residuals is not None:
                parts.append(_deviation_norms(split, decay[at], level, below, below_head))
        out[dest[r][keep[r]]] = level[keep[r]]
    if residuals is not None:
        for (i, *_), parts in zip(steps, norms):
            # a row's norms are its own, so the blocks' concatenation holds
            # the bits of the whole grid's rows taken at once
            err, lhs_norms, below_norms = (np.concatenate(part) for part in zip(*parts))
            worst = float(err.max())
            residuals.append({
                "site": i,
                "rate": cfg.rho_of(i),
                "max_abs_error": worst,
                "max_relative_error": worst / max(float(lhs_norms.max()), 1e-30),
                "lhs_norms": lhs_norms,
                "below_norms": below_norms,
            })
    return out


def _deviation_norms(split, decay_rows, level, below, below_head):
    """The residual of the decay identity at split's cut, row by row: the
    l1 norms of D(level) - decay_rows * D(below), of D(level) and of
    D(below), with D(W) = W - head(W) x tail(W) the product deviation of
    the rows of W.  below_head is below's head marginal as the level's
    update took it, or None (a zero-rate site) to take it here.  Neither
    level nor below is written."""

    def deviation(W, head):
        out = split.product(split.head(W) if head is None else head, split.tail(W))
        return np.subtract(W, out, out=out)

    # the same operations as lhs - decay * below and its norms, on two
    # buffers: each in-place step gives the bits of its out-of-place form
    rhs = deviation(below, below_head)
    below_norms = np.abs(rhs).sum(axis=1)
    rhs *= decay_rows[:, None]
    lhs = deviation(level, None)
    diff = np.subtract(lhs, rhs, out=rhs)
    return np.abs(diff, out=diff).sum(axis=1), np.abs(lhs, out=lhs).sum(axis=1), below_norms


def _cumulative_trapezoid(y, times):
    """Trapezoid integrals of the rows of y from times[0] to each time, in
    the order of operations of the SciPy routine cumulative_trapezoid, to
    the bit (tests/test_solvers.py compares the two)."""
    out = np.empty_like(y)
    out[0] = 0.0
    # dt * (y[1:] + y[:-1]) / 2.0 and its prefix sums, built in out
    step = np.add(y[1:], y[:-1], out=out[1:])
    step *= np.diff(times)[:, None]
    step /= 2.0
    np.cumsum(step, axis=0, out=step)
    return out


def _row_blocks(stop: int, width: int) -> list[slice]:
    """Consecutive ranges of the rows 0..stop-1 of an array of width floats
    per row, each of at most _BLOCK_BYTES (one row at least)."""
    rows = max(1, _BLOCK_BYTES // (width * 8))
    return [slice(a, min(a + rows, stop)) for a in range(0, stop, rows)]


def linkage_disequilibrium(cfg: SiteConfig, i: int, nu: Measure) -> Measure:
    """Deviation of nu from the product of its marginals on the two sides of
    a crossover at site i."""
    if i not in cfg.crossover_sites:
        raise ValueError(f"site {i} is not a crossover site of the model")
    head, tail = cfg.head_tail(i)
    return nu.sub(recombinator(nu, head, tail))


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
    """Every duality value at a measure nu: the mixture (1 - g)*b + g*d of
    the fit and unfit conditionals b and d of nu, laid over the interval
    partition that the started sites cut, with one cache of the interval
    marginals of b and d.

    The closed form and the long-time limit build a value as a chain: the
    mixture on all sites, then, outward from the selected site, each
    started site i overwrites the tail of the value so far with a mixture
    wb*b_T + wd*d_T of the tail marginals, with expected or stationary
    weights.  The Monte Carlo builds the values of sampled states as block
    products (value).
    """

    def __init__(self, cfg: SiteConfig, nu: Measure):
        f0 = fit_fraction(nu, cfg.i_star)
        # unfit mass: an ancestor with k lines is unfit with chance y^k
        self.y = 1.0 - f0
        if self.y == 1.0 and f0 > 0.0:
            # y^k would keep every ancestor unfit, and the fit class would
            # never grow
            raise ValueError(f"the fit fraction {f0!r} is lost in the unfit "
                             "mass 1 - f0, which the duality values are built from")
        self.b = cond_fit(nu, cfg.i_star).values
        self.d = cond_unfit(nu, cfg.i_star).values
        self.n, self.i_star = cfg.n, cfg.i_star
        self.order = cfg.canonical_permutation()
        self._splits = {i: Split(cfg.sites, *cfg.head_tail(i)) for i in self.order[1:]}
        # (lo, hi) -> the marginals of b and d on the sites lo..hi
        self._marginals = {}

    def _block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        key = (lo, hi)
        if key not in self._marginals:
            # site j is bit j - 1: the axes are sites above hi, lo..hi, below lo
            shape = (1 << (self.n - hi), 1 << (hi - lo + 1), 1 << (lo - 1))
            self._marginals[key] = tuple(
                v.reshape(shape).sum(axis=(0, 2)) for v in (self.b, self.d)
            )
        return self._marginals[key]

    def start(self, g):
        """(1 - g)*b + g*d on all sites."""
        return (1.0 - g) * self.b + g * self.d

    def overwrite(self, out: np.ndarray, i: int, wb, wd) -> np.ndarray:
        """Each row of out with its tail at site i replaced: the head
        marginal of the row times wb*b_T + wd*d_T."""
        b, d = self._block(i, self.n) if i > self.i_star else self._block(1, i)
        split = self._splits[i]
        return split.product(split.head(out), wb * b + wd * d)

    def value(self, started: int, dweights: np.ndarray, out: np.ndarray) -> None:
        """Write into out, a C-contiguous (states, 2^n) array, the duality
        values of states that share one started set, the bitmask started
        (bit i - 1 marks site i; the selected site is always in it).
        dweights holds one row of unfit weights per state, one column per
        site.  Each block B of the partition contributes the factor
        (1 - g)*b_B + g*d_B with the weight g of the site that anchors it,
        and the product of the factors, in site order, is the value."""
        acc = None
        for lo, hi, anchor in _blocks(started, self.n, self.i_star):
            b, d = self._block(lo, hi)
            g = dweights[:, anchor - 1, None]
            # the last block ends at site n; its product goes straight to out
            dest = out if hi == self.n else None
            if acc is None:
                acc = np.multiply(1.0 - g, b, out=dest)
                acc += g * d
                continue
            factor = (1.0 - g) * b
            factor += g * d
            # the sites so far are the low bits of the product
            shape = (len(g), factor.shape[1], acc.shape[1])
            acc = np.multiply(factor[:, :, None], acc[:, None, :],
                              out=None if dest is None else dest.reshape(shape))
            acc = acc.reshape(len(g), -1)


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
    for t in times:
        _check_time(t)
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
    # itself of its tail: the limit is the product of one-site marginals.
    # The selected site's count grows without bound, so its ancestor is fit
    # unless no fit mass exists, and then b is nu itself
    out = chain.start(0.0)
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
        ratio = (1.0 - f0) / f0
        # at a subnormal f0 the ratio overflows, and its logarithm does not
        log_ratio = math.log(ratio) if ratio < math.inf else math.log(1.0 - f0) - math.log(f0)
        T = max(T, (log_eps + max(0.0, log_ratio)) / cfg.s)
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
