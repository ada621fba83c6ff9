"""A learning type's Bernoulli beliefs against an independent Bayes-rule enumeration."""

import random

import pytest

from didlab.errors import LabError
from didlab.scenarios import ControlLearningType

from _brute import brute_posterior

TOL = 1e-12


def _learner(prior):
    return ControlLearningType(prob=1.0, prior=prior, mu_treat1=0.5, ktilde1=0.0)


def test_prior_mean():
    assert _learner(((0.2, 0.5), (0.8, 0.5)))._mean == pytest.approx(0.5, abs=TOL)
    assert _learner(((0.3, 1.0),))._mean == 0.3


def test_two_point_prior_hand_values():
    ty = _learner(((0.2, 0.5), (0.8, 0.5)))
    # success weight: .5*.8 theta=.8 vs .5*.2 theta=.2 -> (0.64+0.04)/1.0
    assert ty._post[1] == pytest.approx(0.68, abs=TOL)
    assert ty._post[0] == pytest.approx(0.32, abs=TOL)


def test_posterior_matches_brute_enumeration():
    rng = random.Random("posterior-check")
    for _ in range(200):
        k = rng.randint(1, 4)
        thetas = [rng.uniform(0.0, 1.0) for _ in range(k)]
        weights = [rng.uniform(0.1, 1.0) for _ in range(k)]
        total = sum(weights)
        prior = tuple((t, w / total) for t, w in zip(thetas, weights))
        ty = _learner(prior)
        for obs in (0, 1):
            assert ty._post[obs] == pytest.approx(brute_posterior(prior, obs), abs=TOL)


def test_impossible_observation_raises():
    """An observation the prior rules out has no posterior, and a decision
    on a state that shows it raises state-not-in-support."""
    for rate, impossible in ((0.0, 1), (1.0, 0)):
        ty = _learner(((rate, 1.0),))
        assert ty._post[impossible] is None and ty._post[1 - impossible] == rate
        assert ty._post_or_prior(impossible) == ty._mean == rate
        with pytest.raises(LabError) as err:
            ty._observed(0, (float(impossible), 0.0, 0.0, 0.0), 0)
        assert err.value.code == "state-not-in-support"


def test_posterior_mean_or_prior_falls_back():
    sure_fail = _learner(((0.0, 1.0),))
    assert sure_fail._post_or_prior(1) == 0.0  # falls back to prior mean
    assert sure_fail._post_or_prior(0) == 0.0
    ty = _learner(((0.2, 0.5), (0.8, 0.5)))
    assert ty._post_or_prior(1) == ty._post[1] and ty._post_or_prior(0) == ty._post[0]


def test_degenerate_two_sided_prior():
    ty = _learner(((0.0, 0.4), (1.0, 0.6)))
    assert ty._post == (0.0, 1.0)
    assert ty._post_or_prior(1) == 1.0
