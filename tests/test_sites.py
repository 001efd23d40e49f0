import numpy as np
import pytest

from selrec import SiteConfig


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
