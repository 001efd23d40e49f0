"""Signed measures on spaces of binary sequences over subsets of sites.

A measure over a site set A = {a_0 < a_1 < ...} is stored as a dense vector
of length 2^|A|.  Flat index i encodes the sequence whose letter at site a_j
is bit j of i, so the smallest site occupies the least significant bit.  The
empty site set gives a one-entry vector, i.e. a scalar; these appear as
neutral elements of the product operations.
"""
from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

MASS_TOL = 1e-9
NEG_TOL = 1e-12


class Measure:
    """Dense signed measure on the sequence space over a set of sites.

    Values are immutable after construction; every operation returns a new
    object.
    """

    __slots__ = ("sites", "values")

    def __init__(self, sites: Iterable[int], values):
        sites = tuple(sorted(set(int(a) for a in sites)))
        if any(a < 1 for a in sites):
            raise ValueError("site labels must be >= 1")
        if len(sites) > 20:
            raise ValueError("at most 20 sites are supported")
        vals = np.array(values, dtype=float)
        if vals.shape != (2 ** len(sites),):
            raise ValueError(
                f"need {2 ** len(sites)} values for {len(sites)} sites, "
                f"got shape {vals.shape}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("Measure is immutable")

    def __repr__(self):
        return f"Measure(sites={self.sites}, mass={self.mass():.6g})"

    # -- basics ------------------------------------------------------------

    def mass(self) -> float:
        return float(self.values.sum())

    def is_scalar(self) -> bool:
        return not self.sites

    def scale(self, c: float) -> "Measure":
        return Measure(self.sites, c * self.values)

    def add(self, other: "Measure") -> "Measure":
        if self.sites != other.sites:
            raise ValueError("measures live on different site sets")
        return Measure(self.sites, self.values + other.values)

    def sub(self, other: "Measure") -> "Measure":
        return self.add(other.scale(-1.0))

    # -- marginalisation and products ---------------------------------------

    def project(self, subset: Iterable[int]) -> "Measure":
        """Marginal over the sites in subset (intersected with own sites)."""
        keep = frozenset(subset) & frozenset(self.sites)
        k = len(self.sites)
        drop_axes = tuple(
            k - 1 - j for j, a in enumerate(self.sites) if a not in keep
        )
        arr = self.values.reshape((2,) * k) if k else self.values
        if drop_axes:
            arr = arr.sum(axis=drop_axes)
        return Measure(keep, np.asarray(arr).reshape(-1))

    def __eq__(self, other):
        return (
            isinstance(other, Measure)
            and self.sites == other.sites
            and np.array_equal(self.values, other.values)
        )

    def allclose(self, other: "Measure", atol: float = 1e-12) -> bool:
        return self.sites == other.sites and bool(
            np.allclose(self.values, other.values, rtol=0.0, atol=atol)
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"sites": list(self.sites), "values": [float(v) for v in self.values]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "Measure":
        return cls(d["sites"], d["values"])

    @classmethod
    def from_json(cls, s: str) -> "Measure":
        return cls.from_dict(json.loads(s))


class ProbabilityMeasure(Measure):
    """Measure with total mass 1 (within 1e-9) and no entry below -1e-12."""

    def __init__(self, sites, values):
        super().__init__(sites, values)
        m = self.mass()
        if not abs(m - 1.0) <= MASS_TOL:
            raise ValueError(f"total mass {m!r} deviates from 1 beyond {MASS_TOL}")
        if self.values.min(initial=0.0) < -NEG_TOL:
            raise ValueError(
                f"negative entry {self.values.min()!r} below -{NEG_TOL}"
            )


def sequence_index(sites: Sequence[int], letters) -> int:
    """Flat index of the sequence with the given letter at each site.

    letters is either a site->letter mapping or a sequence aligned with the
    ascending site order.
    """
    if not isinstance(letters, dict):
        if len(letters) != len(sites):
            raise ValueError("need one letter per site")
        letters = dict(zip(sites, letters))
    if set(letters) != set(sites):
        raise ValueError("letters must be given for exactly the measure's sites")
    idx = 0
    for j, a in enumerate(sites):
        bit = letters[a]
        if bit not in (0, 1):
            raise ValueError("letters are 0 or 1")
        idx |= bit << j
    return idx


def scalar(c: float) -> Measure:
    return Measure((), [c])


UNIT = scalar(1.0)


def delta(sites: Iterable[int], letters: dict[int, int]) -> ProbabilityMeasure:
    """Point mass on one sequence."""
    sites = tuple(sorted(set(sites)))
    vals = np.zeros(2 ** len(sites))
    vals[sequence_index(sites, letters)] = 1.0
    return ProbabilityMeasure(sites, vals)


def uniform(sites: Iterable[int]) -> ProbabilityMeasure:
    sites = tuple(sorted(set(sites)))
    k = len(sites)
    return ProbabilityMeasure(sites, np.full(2 ** k, 0.5 ** k))


def product_measure(sites: Iterable[int], one_probs: Sequence[float]) -> ProbabilityMeasure:
    """Independent-site measure; one_probs[j] is the chance of letter 1 at
    the j-th smallest site."""
    sites = tuple(sorted(set(sites)))
    if len(one_probs) != len(sites):
        raise ValueError("need one probability per site")
    out = UNIT
    for a, p in zip(sites, one_probs):
        if not (0.0 <= p <= 1.0):
            raise ValueError("per-site probabilities must lie in [0, 1]")
        out = tensor(out, Measure((a,), [1.0 - p, p]))
    return ProbabilityMeasure(out.sites, out.values)


def _expand(m: Measure, union: tuple[int, ...]) -> np.ndarray:
    """Reshape values for broadcasting over the union site set; relative
    axis order of own sites is preserved, so a plain reshape is enough."""
    kU = len(union)
    pos = {a: j for j, a in enumerate(union)}
    shape = [1] * kU if kU else [1]
    for a in m.sites:
        shape[kU - 1 - pos[a]] = 2
    return m.values.reshape(shape)


def tensor(mu: Measure, nu: Measure) -> Measure:
    """Product measure on the disjoint union of the two site sets."""
    overlap = set(mu.sites) & set(nu.sites)
    if overlap:
        raise ValueError(f"site sets overlap: {sorted(overlap)}")
    union = tuple(sorted(mu.sites + nu.sites))
    out = _expand(mu, union) * _expand(nu, union)
    return Measure(union, out.reshape(-1))


def boxtimes(mu: Measure, nu: Measure) -> Measure:
    """Overlap-aware product: the second factor wins on shared sites.

    Marginalises the first factor away from the overlap, then takes the
    product.  Associative; coincides with tensor on disjoint site sets and
    collapses to mass(mu) * nu when mu's sites are contained in nu's.
    """
    rest = frozenset(mu.sites) - frozenset(nu.sites)
    return tensor(mu.project(rest), nu)


def l1_distance(mu: Measure, nu: Measure) -> float:
    if mu.sites != nu.sites:
        raise ValueError("measures live on different site sets")
    return float(np.abs(mu.values - nu.values).sum())


# -- fitness decomposition --------------------------------------------------

def _fit_bit(sites: tuple[int, ...], i_star: int) -> int:
    if i_star not in sites:
        raise ValueError(f"selected site {i_star} not among sites {sites}")
    return sites.index(i_star)


def fit_mask(sites: tuple[int, ...], i_star: int) -> np.ndarray:
    """Boolean mask of sequences carrying letter 0 at the selected site."""
    j = _fit_bit(sites, i_star)
    idx = np.arange(2 ** len(sites))
    return (idx >> j) & 1 == 0


def fit_fraction(nu: Measure, i_star: int) -> float:
    """Mass carried by sequences with letter 0 at the selected site."""
    return float(nu.values[fit_mask(nu.sites, i_star)].sum())


def fitness_projection(nu: Measure, i_star: int) -> Measure:
    """Restriction of nu to the fit sequences (letter 0 at the selected
    site); not renormalised."""
    return Measure(nu.sites, nu.values * fit_mask(nu.sites, i_star))


def _conditional(nu: Measure, keep: np.ndarray) -> Measure:
    """nu restricted to the sequences in keep and renormalised; nu itself
    when they carry no mass.  It scales by 1 / m, and divides by the mass m
    only where 1 / m overflows, at a subnormal m."""
    part = nu.values * keep
    m = float(part.sum())
    if m == 0.0:
        return Measure(nu.sites, nu.values)
    inv = 1.0 / m
    return Measure(nu.sites, part / m if inv == np.inf else inv * part)


def cond_fit(nu: Measure, i_star: int) -> Measure:
    """Distribution conditional on being fit; equals nu itself when the fit
    part carries no mass."""
    return _conditional(nu, fit_mask(nu.sites, i_star))


def cond_unfit(nu: Measure, i_star: int) -> Measure:
    """Distribution conditional on being unfit; equals nu itself when the
    unfit part carries no mass."""
    return _conditional(nu, ~fit_mask(nu.sites, i_star))


# -- recombination ----------------------------------------------------------

def recombinator(nu: Measure, head: Iterable[int], tail: Iterable[int]) -> Measure:
    """Replace nu by the product of its head and tail marginals."""
    head = frozenset(head)
    tail = frozenset(tail)
    if head | tail != frozenset(nu.sites) or head & tail:
        raise ValueError("head and tail must partition the measure's sites")
    return tensor(nu.project(head), nu.project(tail))


def interval_marginal(V: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Marginal of every row of V on the sites lo..hi, for values of shape
    (..., 2^k) over the sites 1..k.  Site j is bit j - 1, so the axes of
    (..., 2^(k - hi), 2^(hi - lo + 1), 2^(lo - 1)) hold the sites above hi,
    lo..hi and below lo, and the marginal sums the outer two."""
    k = V.shape[-1].bit_length() - 1
    shape = V.shape[:-1] + (1 << (k - hi), 1 << (hi - lo + 1), 1 << (lo - 1))
    return V.reshape(shape).sum(axis=(-3, -1))


class Split:
    """Row-wise kernel for one crossover cut of the sites 1..k into a head
    and a tail: the n_lo lowest sites, the low bits of the flat index, and
    the rest.  head_low tells which of the two is the head.
    SiteConfig.split builds the cut of each site.

    A block marginal is an interval marginal, and the recombined state is
    the outer product of the two marginals.
    """

    __slots__ = ("n_lo", "head_low")

    def __init__(self, n_lo: int, head_low: bool):
        self.n_lo, self.head_low = n_lo, head_low

    def sides(self, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The (lo, hi) site intervals of the head and of the tail among the
        sites 1..k."""
        low, high = (1, self.n_lo), (self.n_lo + 1, k)
        return (low, high) if self.head_low else (high, low)

    def head(self, V: np.ndarray) -> np.ndarray:
        """Marginal of every row on the head sites."""
        return interval_marginal(V, *self.sides(V.shape[-1].bit_length() - 1)[0])

    def tail(self, V: np.ndarray) -> np.ndarray:
        """Marginal of every row on the tail sites."""
        return interval_marginal(V, *self.sides(V.shape[-1].bit_length() - 1)[1])

    def product(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """Row-wise product state of head and tail marginals."""
        lo, hi = (head, tail) if self.head_low else (tail, head)
        return (hi[..., :, None] * lo[..., None, :]).reshape(lo.shape[:-1] + (-1,))


def add_cut_products(out: np.ndarray, v: np.ndarray, cuts: dict[int, float]) -> None:
    """Add rate * (high marginal x low marginal) of v into out, in place, for
    every n_lo: rate in cuts, where n_lo is Split.n_lo of a cut: the number
    of lowest sites in its low block.

    The cuts of one site set are nested: the low marginals P_m (on the m
    lowest sites) come from halving off the top bit of the previous one,
    and the high marginals S_m (on the rest) from pairing off the lowest
    bit.  All of them together cost about two passes over v, where one
    Split per cut would cost two passes per cut.
    """
    if not cuts:
        return
    k = v.size.bit_length() - 1
    if v.size != 1 << k or out.shape != v.shape or not out.flags.c_contiguous:
        raise ValueError("out and v must be flat vectors of one length 2^k")
    lowest, highest = min(cuts), max(cuts)
    if lowest < 1 or highest >= k:
        raise ValueError("each cut needs 0 < n_lo < number of sites")
    low = {}
    p = v
    for m in range(k - 1, lowest - 1, -1):
        p = p[: 1 << m] + p[1 << m :]
        low[m] = p
    q = v
    for m in range(1, highest + 1):
        q = q[0::2] + q[1::2]
        if m in cuts:
            block = out.reshape(-1, 1 << m)
            block += (cuts[m] * q)[:, None] * low[m]


def partition_recombinator(nu: Measure, blocks: Iterable[Iterable[int]]) -> Measure:
    """Product of marginals over the blocks of a partition of the sites."""
    blocks = [frozenset(b) for b in blocks]
    seen: set[int] = set()
    for b in blocks:
        if b & seen:
            raise ValueError("blocks overlap")
        seen |= b
    if seen != set(nu.sites):
        raise ValueError("blocks must cover the measure's sites exactly")
    out: Measure = UNIT
    for b in blocks:
        out = tensor(out, nu.project(b))
    return out
