"""Site geometry for single-crossover recombination with one selected site.

Sites are numbered 1..n.  One distinguished site carries the selective
advantage; every other site is a potential crossover point.  A crossover at
site i separates the sequence into a head (the part containing the selected
site) and a tail (the part containing i).  The partial order used throughout
ranks sites by how far they sit from the selected site along their arm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SiteConfig:
    """Static description of one model instance.

    Parameters
    ----------
    n : int
        Number of sites, 1 <= n <= 20.
    i_star : int
        The selected site, in [1, n].
    s : float
        Selective advantage, >= 0.
    rho : tuple of float
        Crossover rates per site (index i-1 holds the rate of site i).
        The entry for the selected site must be 0; all entries >= 0.
    """

    n: int
    i_star: int
    s: float
    rho: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or not (1 <= self.n <= 20):
            raise ValueError(f"n must be an integer in [1, 20], got {self.n}")
        if not (1 <= self.i_star <= self.n):
            raise ValueError(f"i_star must lie in [1, {self.n}], got {self.i_star}")
        if not 0 <= self.s < math.inf:
            raise ValueError(f"selection strength s must be finite and >= 0, got {self.s}")
        rho = tuple(float(r) for r in self.rho)
        if len(rho) != self.n:
            raise ValueError(f"rho must have length n={self.n}, got {len(rho)}")
        if not all(0 <= r < math.inf for r in rho):
            raise ValueError(f"crossover rates rho must be finite and >= 0, got {rho}")
        if rho[self.i_star - 1] != 0.0:
            raise ValueError(
                f"the selected site {self.i_star} cannot be a crossover point; "
                f"rho[{self.i_star - 1}] must be 0"
            )
        object.__setattr__(self, "rho", rho)

    # -- basic site sets ---------------------------------------------------

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def crossover_sites(self) -> tuple[int, ...]:
        """All sites except the selected one."""
        return tuple(i for i in self.sites if i != self.i_star)

    def rho_of(self, i: int) -> float:
        self._check_site(i)
        return self.rho[i - 1]

    def _check_site(self, i: int) -> None:
        if not (1 <= i <= self.n):
            raise ValueError(f"site {i} out of range [1, {self.n}]")

    # -- partial order -----------------------------------------------------

    def precedes(self, i: int, j: int) -> bool:
        """True when j lies at least as far from the selected site as i,
        on the same arm (reflexively)."""
        self._check_site(i)
        self._check_site(j)
        return (self.i_star <= i <= j) or (self.i_star >= i >= j)

    def tail(self, i: int) -> frozenset[int]:
        """Sites separated from the selected site by a crossover at i
        (including i itself).  The tail of the selected site is everything."""
        self._check_site(i)
        if i == self.i_star:
            lo, hi = 1, self.n
        elif i > self.i_star:
            lo, hi = i, self.n
        else:
            lo, hi = 1, i
        return frozenset(range(lo, hi + 1))

    def head(self, i: int) -> frozenset[int]:
        """Complement of the tail; always contains the selected site
        unless i is the selected site itself (then it is empty)."""
        return frozenset(self.sites) - self.tail(i)

    def head_tail(self, i: int) -> tuple[frozenset[int], frozenset[int]]:
        t = self.tail(i)
        return frozenset(self.sites) - t, t

    def predecessor(self, i: int) -> int:
        """The neighbour of i one step closer to the selected site."""
        self._check_site(i)
        if i == self.i_star:
            raise ValueError("the selected site has no predecessor")
        return i - 1 if i > self.i_star else i + 1

    def canonical_permutation(self) -> tuple[int, ...]:
        """Deterministic ordering compatible with the partial order.

        Starts at the selected site, then by distance from it, ties broken
        towards the smaller site index.
        """
        return tuple(sorted(self.sites, key=lambda i: (abs(i - self.i_star), i)))

    def ordering(self, order=None) -> tuple[int, ...]:
        """The canonical permutation, or order itself once it is checked to
        be compatible with the partial order."""
        if order is None:
            return self.canonical_permutation()
        order = tuple(order)
        if not self.is_valid_ordering(order):
            raise ValueError(f"{order} is not ordered outward from the selected site")
        return order

    def is_valid_ordering(self, perm: tuple[int, ...]) -> bool:
        """Check that perm lists all sites and never places a site before
        one it succeeds in the partial order."""
        if sorted(perm) != list(self.sites):
            return False
        pos = {site: k for k, site in enumerate(perm)}
        for i in self.sites:
            for j in self.sites:
                if i != j and self.precedes(i, j) and pos[i] > pos[j]:
                    return False
        return True

    # -- derived rates -----------------------------------------------------

    def resetting_rates(self) -> np.ndarray:
        """Per site, the summed crossover rates of all sites between it and
        the selected site (inclusive).  Zero at the selected site."""
        r = np.zeros(self.n)
        for i in self.sites:
            lo, hi = min(i, self.i_star), max(i, self.i_star)
            r[i - 1] = sum(self.rho[j - 1] for j in range(lo, hi + 1))
        return r

    def resetting_rate(self, i: int) -> float:
        self._check_site(i)
        return float(self.resetting_rates()[i - 1])

    def marginal_rates(self, subset) -> dict[int, float]:
        """Effective crossover rates for the dynamics restricted to a subset
        of sites that holds the selected site.

        Crossover sites of the full system that cut the subset in the same
        place pool their rates: a subset site pools every site from itself
        up to, not including, its neighbour in the subset towards the
        selected site.  Keys are the crossover sites inside the subset, in
        ascending order; the selected site never appears as a key.
        """
        A = sorted(set(subset))
        if self.i_star not in A:
            raise ValueError(
                "the marginal dynamics is closed only for subsets containing "
                f"the selected site {self.i_star}"
            )
        for a in A:
            self._check_site(a)
        k = A.index(self.i_star)
        left = {a: sum(self.rho[a - 1 : b - 1]) for a, b in zip(A[:k], A[1:])}
        right = {b: sum(self.rho[a:b]) for a, b in zip(A[k:], A[k + 1 :])}
        return {**left, **right}

    def marginal(self, subset) -> "SiteConfig":
        """The model whose dynamics the marginal on subset follows, with the
        subset's sites relabelled 1..|subset| in ascending order.

        A measure over the subset and one over the relabelled sites share
        their value vector, since both put the j-th smallest site in bit
        j - 1 of the flat index.
        """
        rates = self.marginal_rates(subset)
        A = sorted(set(subset))
        return SiteConfig(
            n=len(A),
            i_star=A.index(self.i_star) + 1,
            s=self.s,
            rho=tuple(rates.get(a, 0.0) for a in A),
        )
