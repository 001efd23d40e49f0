import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selrec import SiteConfig
from selrec.measure import interval_marginal
from selrec.moran import _kind_masks
from selrec.partitions import _blocks


# -- the cut's former definitions, kept as references -------------------------


def reference_head_tail(cfg, i):
    """Head and tail of a crossover at i as SiteConfig once built them."""
    if i == cfg.i_star:
        lo, hi = 1, cfg.n
    elif i > cfg.i_star:
        lo, hi = i, cfg.n
    else:
        lo, hi = 1, i
    tail = frozenset(range(lo, hi + 1))
    return frozenset(cfg.sites) - tail, tail


class ReferenceSplit:
    """The Split kernel as it was once built: from the sorted sites and
    two frozensets, with the head and tail marginals summed over one axis
    of a two-axis reshape."""

    def __init__(self, sites, head, tail):
        sites = tuple(sorted(sites))
        head, tail = frozenset(head), frozenset(tail)
        assert head | tail == frozenset(sites) and not head & tail
        self.head_low = bool(sites) and sites[0] in head
        low = head if self.head_low else tail
        assert frozenset(sites[: len(low)]) == low
        self.n_lo = len(low)

    def _blocks(self, V):
        return V.reshape(V.shape[:-1] + (-1, 1 << self.n_lo))

    def head(self, V):
        return np.add.reduce(self._blocks(V), axis=-2 if self.head_low else -1)

    def tail(self, V):
        return np.add.reduce(self._blocks(V), axis=-1 if self.head_low else -2)

    def product(self, head, tail):
        lo, hi = (head, tail) if self.head_low else (tail, head)
        return (hi[..., :, None] * lo[..., None, :]).reshape(lo.shape[:-1] + (-1,))


def reference_block(v, n, lo, hi):
    """The duality chain's interval marginal of one value vector, as it was
    once taken."""
    shape = (1 << (n - hi), 1 << (hi - lo + 1), 1 << (lo - 1))
    return v.reshape(shape).sum(axis=(0, 2))


def reference_blocks(started, n, i_star):
    """(lo, hi) of the blocks that the started sites cut, by the former
    rule: a left-arm site closes its block, a right-arm site opens it."""
    cuts = [i + 1 if i < i_star else i
            for i in range(1, n + 1) if i != i_star and started >> (i - 1) & 1]
    return [(lo, nxt - 1) for lo, nxt in zip([1, *cuts], [*cuts, n + 1])]


def reference_resetting_rates(cfg):
    r = np.zeros(cfg.n)
    for i in cfg.sites:
        lo, hi = min(i, cfg.i_star), max(i, cfg.i_star)
        r[i - 1] = sum(cfg.rho[j - 1] for j in range(lo, hi + 1))
    return r


@st.composite
def _cut_cases(draw):
    n = draw(st.integers(1, 8))
    i_star = draw(st.integers(1, n))
    rho = tuple(0.0 if i == i_star else draw(st.floats(0.0, 4.0)) for i in range(1, n + 1))
    rows = draw(st.sampled_from([None, 1, 7, 64]))
    seed = draw(st.integers(0, 2**32 - 1))
    started = [draw(st.integers(0, 2**n - 1)) | 1 << (i_star - 1) for _ in range(4)]
    return SiteConfig(n=n, i_star=i_star, s=1.0, rho=rho), rows, seed, started


@given(_cut_cases())
def test_the_cut_of_each_site_keeps_its_former_definitions(case):
    cfg, rows, seed, started = case
    n = cfg.n
    rng = np.random.default_rng(seed)
    V = rng.random(2**n if rows is None else (rows, 2**n))
    full = (1 << n) - 1
    head_masks, tail_masks = [full, full], [0, 0]
    for i in cfg.crossover_sites:
        head, tail = reference_head_tail(cfg, i)
        assert (cfg.head(i), cfg.tail(i)) == (head, tail)
        split, ref = cfg.split(i), ReferenceSplit(cfg.sites, head, tail)
        assert np.array_equal(split.head(V), ref.head(V))
        assert np.array_equal(split.tail(V), ref.tail(V))
        assert np.array_equal(split.product(split.head(V), split.tail(V)),
                              ref.product(ref.head(V), ref.tail(V)))
        head_masks.append(sum(1 << (a - 1) for a in head))
        tail_masks.append(sum(1 << (a - 1) for a in tail))
    for lo, hi in itertools.combinations_with_replacement(range(1, n + 1), 2):
        got = interval_marginal(V, lo, hi)
        expect = [reference_block(v, n, lo, hi) for v in V.reshape(-1, 2**n)]
        assert np.array_equal(got.reshape(len(expect), -1), np.stack(expect))
    for mask in started:
        blocks = list(_blocks(mask, cfg))
        assert [(lo, hi) for lo, hi, _ in blocks] == reference_blocks(mask, n, cfg.i_star)
    # the Moran kernel's masks: the tail is the rest of the head's full
    # mask, and only a selective event stops
    head, stop_bit = _kind_masks(cfg, np.uint32)
    assert head.tolist() == head_masks and (head ^ full).tolist() == tail_masks
    assert stop_bit.tolist() == [0, 1 << cfg.i_star - 1] + [0] * (n - 1)
    assert np.array_equal(cfg.resetting_rates(), reference_resetting_rates(cfg))


def test_valid_ordering_matches_the_all_pairs_rule():
    # an ordering is valid when no site comes before one it succeeds
    for n in range(1, 7):
        for i_star in range(1, n + 1):
            cfg = SiteConfig(n=n, i_star=i_star, s=1.0, rho=(0.0,) * n)
            for perm in itertools.permutations(cfg.sites):
                pos = {site: k for k, site in enumerate(perm)}
                expect = all(pos[i] < pos[j] for i in cfg.sites for j in cfg.sites
                             if i != j and cfg.precedes(i, j))
                assert cfg.is_valid_ordering(perm) == expect


def test_validation():
    with pytest.raises(ValueError):
        SiteConfig(n=0, i_star=1, s=1.0, rho=())
    with pytest.raises(ValueError):
        SiteConfig(n=2, i_star=3, s=1.0, rho=(0.0, 0.0))
    with pytest.raises(ValueError):
        SiteConfig(n=2, i_star=1, s=-0.1, rho=(0.0, 0.0))
    with pytest.raises(ValueError):
        SiteConfig(n=2, i_star=1, s=1.0, rho=(0.5, 0.0))  # rho at selected site
    with pytest.raises(ValueError):
        SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, -1.0))
    with pytest.raises(ValueError):
        SiteConfig(n=21, i_star=1, s=1.0, rho=(0.0,) * 21)
    for s in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="selection strength s"):
            SiteConfig(n=2, i_star=1, s=s, rho=(0.0, 0.0))
        with pytest.raises(ValueError, match="crossover rates rho"):
            SiteConfig(n=2, i_star=1, s=1.0, rho=(0.0, s))


def test_head_tail_enumerated():
    cfg = SiteConfig(n=3, i_star=1, s=1.0, rho=(0.0, 0.1, 0.2))
    assert cfg.tail(2) == frozenset({2, 3})
    assert cfg.head(2) == frozenset({1})
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.1, 0.0, 0.2))
    assert cfg.tail(1) == frozenset({1})
    assert cfg.head(1) == frozenset({2, 3})
    assert cfg.tail(3) == frozenset({3})
    assert cfg.head(3) == frozenset({1, 2})


def test_head_tail_at_selected_site():
    for n, i_star in [(1, 1), (3, 2), (4, 4)]:
        cfg = SiteConfig(n=n, i_star=i_star, s=0.5, rho=tuple(
            0.0 if i == i_star else 0.3 for i in range(1, n + 1)))
        head, tail = cfg.head_tail(i_star)
        assert head == frozenset()
        assert tail == frozenset(cfg.sites)


def test_precedes_incomparable_across_selected_site():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.1, 0.0, 0.2))
    assert not cfg.precedes(1, 3)
    assert not cfg.precedes(3, 1)


def test_predecessor_linear_order():
    cfg = SiteConfig(n=3, i_star=1, s=1.0, rho=(0.0, 0.1, 0.2))
    assert cfg.predecessor(3) == 2
    assert cfg.predecessor(2) == 1
    with pytest.raises(ValueError):
        cfg.predecessor(1)


def test_selected_site_is_unique_minimum():
    for n, i_star in [(4, 1), (4, 2), (4, 4), (5, 3)]:
        cfg = SiteConfig(n=n, i_star=i_star, s=1.0, rho=tuple(
            0.0 if i == i_star else 0.2 for i in range(1, n + 1)))
        for j in cfg.sites:
            assert cfg.precedes(i_star, j)
            if j != i_star:
                assert not cfg.precedes(j, i_star)


def test_order_is_partial_order():
    cfg = SiteConfig(n=5, i_star=3, s=1.0, rho=(0.1, 0.2, 0.0, 0.3, 0.4))
    S = cfg.sites
    for i in S:
        assert cfg.precedes(i, i)
    for i in S:
        for j in S:
            if i != j:
                assert not (cfg.precedes(i, j) and cfg.precedes(j, i))
            for k in S:
                if cfg.precedes(i, j) and cfg.precedes(j, k):
                    assert cfg.precedes(i, k)


def test_canonical_permutation():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.1, 0.0, 0.2))
    assert cfg.canonical_permutation() == (2, 1, 3)
    cfg = SiteConfig(n=3, i_star=1, s=1.0, rho=(0.0, 0.1, 0.2))
    assert cfg.canonical_permutation() == (1, 2, 3)
    cfg = SiteConfig(n=4, i_star=4, s=1.0, rho=(0.1, 0.1, 0.1, 0.0))
    assert cfg.canonical_permutation() == (4, 3, 2, 1)


def test_canonical_permutation_nondecreasing():
    """Every prefix of the canonical permutation is closed under predecessors."""
    for n, i_star in [(4, 2), (5, 3), (6, 1), (6, 6)]:
        cfg = SiteConfig(n=n, i_star=i_star, s=1.0, rho=tuple(
            0.0 if i == i_star else 0.2 for i in range(1, n + 1)))
        perm = cfg.canonical_permutation()
        assert cfg.is_valid_ordering(perm)
        seen = set()
        for i in perm:
            if i != i_star:
                assert cfg.predecessor(i) in seen
            seen.add(i)


def test_resetting_rates():
    cfg = SiteConfig(n=3, i_star=1, s=1.0, rho=(0.0, 0.3, 0.5))
    assert np.allclose(cfg.resetting_rates(), [0.0, 0.3, 0.8])
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.7, 0.0, 0.4))
    assert np.allclose(cfg.resetting_rates(), [0.7, 0.0, 0.4])
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.0, 0.0, 0.0))
    assert np.allclose(cfg.resetting_rates(), [0.0, 0.0, 0.0])


def test_marginal_rates_full_set_is_identity():
    cfg = SiteConfig(n=4, i_star=2, s=1.0, rho=(0.1, 0.0, 0.2, 0.3))
    rates = cfg.marginal_rates(cfg.sites)
    for i in cfg.sites:
        if i != cfg.i_star:
            assert rates[i] == pytest.approx(cfg.rho_of(i))


def test_marginal_rates_pair_equals_resetting_rate():
    cfg = SiteConfig(n=4, i_star=2, s=1.0, rho=(0.1, 0.0, 0.2, 0.3))
    r = cfg.resetting_rates()
    for i in cfg.sites:
        if i == cfg.i_star:
            continue
        rates = cfg.marginal_rates({cfg.i_star, i})
        assert rates[i] == pytest.approx(r[i - 1])


def test_marginal_rates_pooling():
    # right arm: sites 2 and 3 both cut {1}|{3} out of A={1,3}
    cfg = SiteConfig(n=3, i_star=1, s=1.0, rho=(0.0, 0.4, 0.9))
    rates = cfg.marginal_rates({1, 3})
    assert rates[3] == pytest.approx(0.4 + 0.9)
    # left arm: sites 1 and 2 both cut {1}|{3} out of A={1,3}
    cfg = SiteConfig(n=3, i_star=3, s=1.0, rho=(0.4, 0.9, 0.0))
    rates = cfg.marginal_rates({1, 3})
    assert rates == {1: pytest.approx(0.4 + 0.9)}


def test_marginal_rates_refuse_subset_without_selected_site():
    cfg = SiteConfig(n=3, i_star=2, s=1.0, rho=(0.5, 0.0, 0.8))
    with pytest.raises(ValueError, match="selected site 2"):
        cfg.marginal_rates({1, 3})
    with pytest.raises(ValueError, match="selected site 2"):
        cfg.marginal({1, 3})


def test_marginal_model_relabels_the_subset():
    cfg = SiteConfig(n=6, i_star=3, s=0.7, rho=(0.1, 0.2, 0.0, 0.3, 0.4, 0.5))
    model = cfg.marginal({6, 1, 3, 4})
    assert model == SiteConfig(n=4, i_star=2, s=0.7, rho=(0.1 + 0.2, 0.0, 0.3, 0.4 + 0.5))
    assert cfg.marginal(cfg.sites) == cfg
    assert cfg.marginal({3}) == SiteConfig(n=1, i_star=1, s=0.7, rho=(0.0,))
