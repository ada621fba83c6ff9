"""Bernoulli belief updating against an independent Bayes-rule enumeration."""

import random

import pytest

from didlab.errors import LabError
from didlab.scenarios import posterior_mean, posterior_mean_or_prior, prior_mean

from _brute import brute_posterior

TOL = 1e-12


def test_prior_mean():
    assert prior_mean(((0.2, 0.5), (0.8, 0.5))) == pytest.approx(0.5, abs=TOL)
    assert prior_mean(((0.3, 1.0),)) == 0.3


def test_two_point_prior_hand_values():
    prior = ((0.2, 0.5), (0.8, 0.5))
    # success weight: .5*.8 theta=.8 vs .5*.2 theta=.2 -> (0.64+0.04)/1.0
    assert posterior_mean(prior, [1]) == pytest.approx(0.68, abs=TOL)
    assert posterior_mean(prior, [0]) == pytest.approx(0.32, abs=TOL)


def test_posterior_sequences_accumulate():
    prior = ((0.2, 0.5), (0.8, 0.5))
    # two successes: weights .5*.64 vs .5*.04
    assert posterior_mean(prior, [1, 1]) == pytest.approx(
        (0.32 * 0.8 + 0.02 * 0.2) / 0.34, abs=TOL
    )
    # conflicting draws land back at the symmetric middle
    assert posterior_mean(prior, [1, 0]) == pytest.approx(0.5, abs=TOL)


def test_posterior_matches_brute_enumeration():
    rng = random.Random("posterior-check")
    for _ in range(200):
        k = rng.randint(1, 4)
        thetas = [rng.uniform(0.0, 1.0) for _ in range(k)]
        weights = [rng.uniform(0.1, 1.0) for _ in range(k)]
        total = sum(weights)
        prior = tuple((t, w / total) for t, w in zip(thetas, weights))
        for obs in (0, 1):
            assert posterior_mean(prior, [obs]) == pytest.approx(
                brute_posterior(prior, obs), abs=TOL
            )


def test_impossible_observation_raises():
    sure_fail = ((0.0, 1.0),)
    with pytest.raises(LabError) as err:
        posterior_mean(sure_fail, [1])
    assert err.value.code == "impossible-observation"
    sure_success = ((1.0, 1.0),)
    with pytest.raises(LabError):
        posterior_mean(sure_success, [0])


@pytest.mark.parametrize("obs", [2, -1, 0.5, None])
def test_a_non_binary_observation_is_a_value_error(obs):
    with pytest.raises(ValueError) as err:
        posterior_mean(((0.2, 0.5), (0.8, 0.5)), [1, obs])
    assert str(err.value) == f"Bernoulli observation must be 0/1, got {obs!r}"


def test_posterior_mean_or_prior_falls_back():
    sure_fail = ((0.0, 1.0),)
    assert posterior_mean_or_prior(sure_fail, 1) == 0.0  # falls back to prior mean
    assert posterior_mean_or_prior(sure_fail, 0) == 0.0
    prior = ((0.2, 0.5), (0.8, 0.5))
    assert posterior_mean_or_prior(prior, 1) == posterior_mean(prior, [1])


def test_degenerate_two_sided_prior():
    prior = ((0.0, 0.4), (1.0, 0.6))
    assert posterior_mean(prior, [1]) == 1.0
    assert posterior_mean(prior, [0]) == 0.0
    assert posterior_mean_or_prior(prior, 1) == 1.0
