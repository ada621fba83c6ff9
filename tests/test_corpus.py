"""The corpus randomizers' redraws: a candidate too close to a knife edge to
certify its verdict is drawn again, and the config that comes back clears
the edge."""

import inspect
import random

import pytest

from didlab import corpus
from didlab.core import validate_scenario
from didlab.oracle import cell_table, pt_deviation
from didlab.scenarios import RoyIrreversible, RoyRepeated, StoppingType, build_joint


@pytest.mark.parametrize("cls", [RoyRepeated, RoyIrreversible])
def test_a_roy_candidate_that_keeps_parallel_trends_is_redrawn(monkeypatch, cls):
    """random_roy(pt=False) rejects a first pmf with both untreated-start
    cells populated and a deviation of 0, here a swap-symmetric one on the
    parallel-trends support."""
    draw, firsts = corpus._random_pmf, []

    def knife_edge_once(rng):
        if firsts:
            return draw(rng)
        firsts.append(corpus._symmetrized_pmf(rng, corpus._ROY_PT_SUPPORT))
        return firsts[0]

    monkeypatch.setattr(corpus, "_random_pmf", knife_edge_once)
    config = corpus.random_roy(0, pt=False, irreversible=cls is RoyIrreversible)
    first = cell_table(build_joint(cls(pmf=firsts[0])))
    assert min(first.prob(0, 0), first.prob(0, 1)) >= 0.01 and pt_deviation(first) <= 1e-12
    assert config.pmf != firsts[0] and pt_deviation(cell_table(build_joint(config))) > 1e-6


def test_an_informative_stopping_config_whose_residuals_cancel_is_redrawn(monkeypatch):
    """random_stopping(pt=False) rejects a first config whose deviation
    reads 0, as opposite-signed types' residuals can make it."""
    unpatched = corpus.random_stopping(0, pt=False)
    devs = []

    def zero_once(table):
        devs.append(pt_deviation(table) if devs else 0.0)
        return devs[-1]

    monkeypatch.setattr(corpus, "pt_deviation", zero_once)
    config = corpus.random_stopping(0, pt=False)
    assert len(devs) == 2 and devs[1] > 1e-6
    assert config != unpatched and validate_scenario(config).ok


def test_an_uninformative_type_at_its_period_1_knife_edge_is_redrawn():
    """A first candidate whose continuation mean c sits at k1 is redrawn: the
    test replays a copy of the stream to set k1 to that c."""
    rng = random.Random("knife-edge")
    replay = random.Random()
    replay.setstate(rng.getstate())
    support = corpus._stopping_support(replay)
    weights = [replay.uniform(0.2, 1.0) for _ in support]
    c = sum(w * y for w, y in zip(weights, support)) / sum(weights)  # tau = 0
    ty = corpus._uninformative_type(rng, 1.0, 0.0, c)
    y0s = list(ty._by_y0[0])
    assert y0s != support
    assert all(abs(ty._m(y0) - c) >= corpus.MARGIN for y0 in y0s)


@pytest.mark.parametrize("make", [corpus._uninformative_type, corpus._informative_type])
def test_a_stopping_type_at_its_period_0_knife_edge_is_redrawn(monkeypatch, make):
    """A candidate whose period-0 continuation value reads 0 is redrawn.
    The k0 each type randomizer draws keeps that value at least 0.2 above
    0, so the test makes the first candidate's read 0."""
    once, seen = inspect.getattr_static(StoppingType, "_cont0"), []
    real = once.func

    def zero_once(ty):
        seen.append(ty)
        return 0.0 if len(seen) == 1 else real(ty)

    monkeypatch.setattr(once, "func", zero_once)
    ty = make(random.Random("knife-edge"), 1.0, 0.0, 1.5)
    assert len(seen) == 2 and ty is seen[1] and ty != seen[0]
    assert ty._cont0 >= corpus.MARGIN
