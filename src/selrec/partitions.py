"""Interval partitions of the site set and their integer-vector encoding.

The genealogical partition process lives on interval partitions with one
positive weight per block.  Such a state is encoded compactly as one integer
per site: the weight sits at the block's site closest to the selected site,
all other sites carry 0.  The selected site therefore always carries a
positive entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sites import SiteConfig


@dataclass(frozen=True)
class IntervalPartition:
    """Partition of {1..n} into intervals, stored left to right."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        if not blocks:
            raise ValueError("partition needs at least one block")
        flat = [i for b in blocks for i in b]
        n = len(flat)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError("blocks must partition 1..n")
        for b in blocks:
            if list(b) != list(range(b[0], b[-1] + 1)):
                raise ValueError(f"block {b} is not an interval")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return max(b[-1] for b in self.blocks)

    def block_of(self, i: int) -> tuple[int, ...]:
        for b in self.blocks:
            if b[0] <= i <= b[-1]:
                return b
        raise ValueError(f"site {i} not covered")

    @classmethod
    def trivial(cls, n: int) -> "IntervalPartition":
        return cls((tuple(range(1, n + 1)),))

    @classmethod
    def from_cuts(cls, n: int, cuts) -> "IntervalPartition":
        """Blocks obtained by cutting between i-1 and i for each i in cuts."""
        cuts = sorted(set(cuts))
        if any(c < 2 or c > n for c in cuts):
            raise ValueError("cut positions must lie in [2, n]")
        bounds = [1] + cuts + [n + 1]
        return cls(tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))


def anchor_site(block, i_star: int) -> int:
    """Site of the block closest to the selected site (the block's minimum
    in the distance order)."""
    return _anchor(min(block), max(block), i_star)


def _anchor(lo: int, hi: int, i_star: int) -> int:
    return i_star if lo <= i_star <= hi else lo if lo > i_star else hi


def _blocks(started: int, n: int, i_star: int):
    """(lo, hi, anchor) of each block, left to right, of the interval
    partition of 1..n that the started sites cut; bit i - 1 of started
    marks site i.  A started site on the left arm closes its block, one on
    the right arm opens it, so each block but the central one is anchored
    at a started site."""
    cuts = [i + 1 if i < i_star else i
            for i in range(1, n + 1) if i != i_star and started >> (i - 1) & 1]
    for lo, nxt in zip([1, *cuts], [*cuts, n + 1]):
        yield lo, nxt - 1, _anchor(lo, nxt - 1, i_star)


@dataclass(frozen=True)
class WeightedPartition:
    """Interval partition with one positive integer weight per block."""

    partition: IntervalPartition
    weights: tuple[int, ...]

    def __post_init__(self):
        w = tuple(int(v) for v in self.weights)
        if len(w) != len(self.partition.blocks):
            raise ValueError("need one weight per block")
        if any(v < 1 for v in w):
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.partition.n

    @classmethod
    def initial(cls, n: int) -> "WeightedPartition":
        """Single block covering everything, weight 1."""
        return cls(IntervalPartition.trivial(n), (1,))


def encode(wp: WeightedPartition, cfg: SiteConfig) -> np.ndarray:
    """Integer vector carrying each block's weight at its anchor site."""
    if wp.n != cfg.n:
        raise ValueError("partition size does not match the configuration")
    m = np.zeros(cfg.n, dtype=np.int64)
    for block, v in zip(wp.partition.blocks, wp.weights):
        m[anchor_site(block, cfg.i_star) - 1] = v
    return m


def decode(m, cfg: SiteConfig) -> WeightedPartition:
    """Inverse of encode; requires a positive entry at the selected site."""
    m = np.asarray(m, dtype=np.int64)
    if m.shape != (cfg.n,):
        raise ValueError(f"need a vector of length n={cfg.n}")
    if np.any(m < 0):
        raise ValueError("entries must be nonnegative")
    if m[cfg.i_star - 1] <= 0:
        raise ValueError("the selected site must carry a positive entry")
    started = sum(1 << j for j, v in enumerate(m.tolist()) if v > 0)
    blocks = list(_blocks(started, cfg.n, cfg.i_star))
    part = IntervalPartition(tuple(tuple(range(lo, hi + 1)) for lo, hi, _ in blocks))
    return WeightedPartition(part, tuple(int(m[a - 1]) for _, _, a in blocks))
