"""Exact decision rules, checked on hand-worked latent states."""

import pytest

from didlab.core import CostTable, validate_scenario
from didlab.errors import LabError
from didlab.harness import oracle_block
from didlab.scenarios import (
    ControlArmLearning,
    ControlLearningType,
    NoLearning,
    NoLearningType,
    OptimalStopping,
    PastOutcomeSelection,
    RoyIrreversible,
    RoyRepeated,
    StoppingType,
    TreatedArmLearning,
    TreatedLearningType,
    build_joint,
    decide,
)

from _brute import brute_stopping_residual


def _state(y00, y01, y10, y11, u0_type=0):
    """A rule's input: the type index and the potential outcomes as floats."""
    return u0_type, (float(y00), float(y01), float(y10), float(y11))


# --- selection on the past outcome ------------------------------------------


def test_past_selection_treats_after_zero():
    cfg = PastOutcomeSelection(
        p_y00=0.6, trans_ctrl=((0.7, 0.3), (0.2, 0.8)), mean_y_treated=(0.5, 0.7)
    )
    tr = decide(cfg, *_state(0, 1, 1, 0))
    assert (tr.d0, tr.d1_given) == (0, (1, 1))
    tr = decide(cfg, *_state(1, 1, 1, 0))
    assert (tr.d0, tr.d1_given) == (0, (0, 0))
    with pytest.raises(LabError) as err:
        decide(cfg, *_state(0.5, 0, 0, 0))
    assert err.value.code == "state-not-in-support"


# --- known arm means ---------------------------------------------------------


def test_no_learning_cost_channels():
    joiner = NoLearningType(
        prob=1.0, mu=((0.5, 0.7), (0.55, 0.7)), costs=CostTable(k0=(0.0, 0.5)), beta=0.9
    )
    cfg = NoLearning(types=(joiner,))
    tr = decide(cfg, *_state(0, 0, 0, 0))
    # period 1: 0.7 beats 0.55 either way; period 0: 0.7 - 0.5 loses to 0.5
    assert tr.d1_given == (1, 1)
    assert tr.d0 == 0
    assert tr.gains == pytest.approx((0.7 - 0.5) - 0.5, abs=1e-12)
    assert tr.continuation[0] == tr.continuation[1] == pytest.approx(0.7)

    quitter = NoLearningType(
        prob=1.0,
        mu=((0.5, 0.8), (0.55, 0.7)),
        costs=CostTable(k1=((0.0, 0.3), (0.0, 0.3))),
        beta=0.9,
    )
    tr = decide(NoLearning(types=(quitter,)), *_state(0, 0, 0, 0))
    # 0.7 - 0.3 < 0.55 so treatment is dropped in period 1, but the period-0
    # gain 0.3 stands alone (equal continuation values cancel)
    assert tr.d1_given == (0, 0)
    assert tr.d0 == 1
    assert tr.gains == pytest.approx(0.3, abs=1e-12)

    with pytest.raises(LabError) as err:
        decide(cfg, *_state(0, 0, 0, 0, u0_type=5))
    assert err.value.code == "state-not-in-support"


# --- learning about the treated arm ------------------------------------------


def test_treated_learning_posterior_switches_the_period1_choice():
    ty = TreatedLearningType(
        prob=1.0,
        prior=((0.2, 0.5), (0.8, 0.5)),
        mu_ctrl=(0.25, 0.35),
        costs=CostTable(k0=(0.0, 0.05), k1=((0.0, 0.1), (0.0, 0.1))),
        beta=0.9,
    )
    cfg = TreatedArmLearning(types=(ty,))
    # untreated history keeps the prior mean 0.5: 0.5 - 0.1 >= 0.35 -> stay in
    # treated history updates: post(1)=0.68 -> in, post(0)=0.32 -> out
    tr_success = decide(cfg, *_state(0, 1, 0, 0))
    assert tr_success.d1_given == (1, 1)
    tr_failure = decide(cfg, *_state(0, 0, 0, 0))
    assert tr_failure.d1_given == (1, 0)
    # both histories share the period-0 entry decision
    assert tr_success.d0 == tr_failure.d0 == 1
    assert tr_success.gains == pytest.approx(
        (0.5 - 0.05 - 0.25) + 0.9 * (tr_success.continuation[1] - tr_success.continuation[0]),
        abs=1e-12,
    )
    # W1(untreated) = max(0.5 - 0.1, 0.35) = 0.4
    assert tr_success.continuation[0] == pytest.approx(0.4, abs=1e-12)
    # E[W1(treated)] = .5*max(.68-.1,.35) + .5*max(.32-.1,.35) = .5*.58+.5*.35
    assert tr_success.continuation[1] == pytest.approx(0.465, abs=1e-12)


def test_treated_learning_rejects_offgrid_treated_outcome():
    ty = TreatedLearningType(prob=1.0, prior=((0.5, 1.0),), mu_ctrl=(0.2, 0.2))
    with pytest.raises(LabError) as err:
        decide(TreatedArmLearning(types=(ty,)), *_state(0, 0.25, 0, 0))
    assert err.value.code == "state-not-in-support"


# --- learning about the untreated arm ----------------------------------------


def test_control_learning_flips_on_observed_outcome():
    ty = ControlLearningType(
        prob=1.0, prior=((0.2, 0.5), (0.8, 0.5)), mu_treat1=0.5, ktilde1=0.0
    )
    cfg = ControlArmLearning(types=(ty,))
    # a = 0.5 sits between l0 = 0.32 and l1 = 0.68: a valuable learner
    tr_low = decide(cfg, *_state(0, 0, 0, 0))
    assert tr_low.d0 == 0 and tr_low.d1_given[0] == 1
    tr_high = decide(cfg, *_state(1, 0, 1, 0))
    assert tr_high.d1_given[0] == 0
    # the counterfactual treated history never saw a draw: prior mean 0.5 <= a
    assert tr_low.d1_given[1] == 1 and tr_high.d1_given[1] == 1
    assert tr_low.continuation[0] == pytest.approx(0.5, abs=1e-12)
    assert tr_high.continuation[0] == pytest.approx(0.68, abs=1e-12)


# --- Roy selection ------------------------------------------------------------


def test_roy_repeated_compares_within_period():
    cfg = RoyRepeated(pmf=(((0, 1, 1, 0), 1.0),))
    tr = decide(cfg, *_state(0, 1, 1, 0))
    assert (tr.d0, tr.d1_given) == (1, (0, 0))
    tr = decide(cfg, *_state(1, 1, 0, 1))  # ties go to treatment
    assert (tr.d0, tr.d1_given) == (1, (1, 1))
    with pytest.raises(LabError):
        decide(cfg, *_state(0.5, 0, 0, 0))


def test_roy_irreversible_weighs_lockin():
    cfg = RoyIrreversible(pmf=(((0, 1, 1, 0), 1.0),), beta=0.9)
    # entering pays 1 now but forfeits min(y11 - y10, 0) = -1 later: 1 - .9 > 0
    tr = decide(cfg, *_state(0, 1, 1, 0))
    assert tr.d0 == 1
    assert tr.d1_given == (0, 1)  # treated stays treated by construction
    assert tr.gains == pytest.approx(1.0 - 0.9, abs=1e-12)
    # with beta closer to 1 the same comparison stays positive; flip outcomes
    tr = decide(cfg, *_state(1, 0, 0, 1))
    assert tr.d0 == 0
    assert tr.gains == pytest.approx(-1.0, abs=1e-12)


# --- optimal stopping ----------------------------------------------------------


def test_stopping_thresholds():
    ty = StoppingType(
        prob=1.0,
        k0=0.4,
        k1=0.8,
        beta=0.9,
        pmf=(((0.0, 0.75), 0.5), ((1.0, 0.75), 0.5)),
    )
    cfg = OptimalStopping(types=(ty,))
    # continuation through period 0: .5*(0+0) + .5*(1+0) - .4 = 0.1 > 0
    tr = decide(cfg, *_state(0.0, 0.0, 0.75, 0.0))
    assert tr.d0 == 0
    assert tr.gains == pytest.approx(0.1, abs=1e-12)
    # period 1: m = 0.75 <= k1 = 0.8 everywhere, so the unit stops at 1
    assert tr.d1_given == (1, 1)

    stopper = StoppingType(
        prob=1.0, k0=0.4, k1=0.8, beta=0.9, pmf=(((0.0, 0.35), 0.5), ((0.2, 0.35), 0.5))
    )
    tr = decide(OptimalStopping(types=(stopper,)), *_state(0.2, 0.0, 0.35, 0.0))
    assert tr.d0 == 1  # cont0 = 0.1 - 0.4 < 0
    assert tr.d1_given[1] == 1  # stopping is forever

    with pytest.raises(LabError) as err:
        decide(cfg, *_state(7.0, 0.0, 0.75, 0.0))
    assert err.value.code == "state-not-in-support"


def test_stopping_option_value_enters_period0():
    # m - k1 = 0.5 on one branch: continuing is worth beta * 0.5 extra there
    ty = StoppingType(
        prob=1.0, k0=2.2, k1=2.0, beta=0.9, pmf=(((1.0, 1.5), 0.5), ((3.0, 2.5), 0.5))
    )
    tr = decide(OptimalStopping(types=(ty,)), *_state(1.0, 0.0, 1.5, 0.0))
    assert tr.gains == pytest.approx(2.0 + 0.9 * 0.25 - 2.2, abs=1e-12)
    assert tr.d0 == 0
    assert tr.d1_given == (1, 1)  # this branch has m = 1.5 <= k1
    tr_hi = decide(OptimalStopping(types=(ty,)), *_state(3.0, 0.0, 2.5, 0.0))
    assert tr_hi.d1_given == (0, 1)


def test_stopping_passes_over_a_pmf_do_not_grow_with_its_support():
    # validate, build_joint and oracle_block group each pmf by y0 once per
    # config; a pass over the whole pmf per distinct y0 would be O(P^2)
    def passes(P):
        count = [0]

        class Pmf(tuple):
            def __iter__(self):
                count[0] += 1
                return super().__iter__()

        rows = Pmf(((i / P, i / P + (0.3 if i % 2 else -0.3)), 1.0 / P) for i in range(P))
        cfg = OptimalStopping(types=(StoppingType(prob=1.0, k0=0.2, k1=0.6, beta=0.9, pmf=rows),))
        assert validate_scenario(cfg).ok
        block = oracle_block(cfg)
        assert block["conditions"]["stopping_residual"] == pytest.approx(brute_stopping_residual(build_joint(cfg)), abs=1e-12)
        return count[0]

    assert passes(40) == passes(400)
