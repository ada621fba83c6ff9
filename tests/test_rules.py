"""Each validation rule, decide() guard and decoder shape error, one table row
per site that raises it, pinned to the rule or code, message and pointer;
and the common-trend check, in units of the outcomes."""

import json
import math
from itertools import count, islice

import pytest

from didlab.core import CostTable, LatentState, PotentialOutcomes, validate_scenario
from didlab.corpus import random_stopping
from didlab.errors import LabError
from didlab.oracle import check_conditions
from didlab.scenarios import (
    ControlArmLearning,
    ControlLearningType,
    NoLearning,
    NoLearningType,
    OptimalStopping,
    RoyIrreversible,
    RoyRepeated,
    StoppingType,
    TreatedArmLearning,
    TreatedLearningType,
    build_joint,
    scenario_from_json,
)

from test_harness import _scaled_stopping


def _no_learning(**kw):
    return NoLearning(types=(NoLearningType(prob=1.0, mu=((0.5, 0.5), (0.5, 0.5)), **kw),))


def _treated(**kw):
    return TreatedArmLearning(types=(TreatedLearningType(prob=1.0, prior=((0.5, 1.0),), mu_ctrl=(0.3, 0.5), **kw),))


def _control(prior=((0.5, 1.0),), ktilde1=0.0):
    return ControlArmLearning(types=(ControlLearningType(prob=1.0, prior=prior, mu_treat1=0.5, ktilde1=ktilde1),))


def _stopping(pmf=(((1.0, 1.0), 1.0),), k1=0.0, beta=0.9):
    return OptimalStopping(types=(StoppingType(prob=1.0, k0=0.0, k1=k1, beta=beta, pmf=pmf),))


# a config and the (rule, message, values) of each violation its report holds
_VIOLATIONS = {
    "no_learning beta": (_no_learning(beta=1.0), [("beta-range", "beta = 1.0 outside (0,1)", ("types[0]",))]),
    "treated_arm_learning beta": (_treated(beta=0.0), [("beta-range", "beta = 0.0 outside (0,1)", ("types[0]",))]),
    "roy_irreversible beta": (
        RoyIrreversible(pmf=(((0, 0, 0, 0), 1.0),), beta=1.0),
        [("beta-range", "beta = 1.0 outside (0,1)", (1.0,))],
    ),
    "optimal_stopping beta": (_stopping(beta=-0.5), [("beta-range", "beta = -0.5 outside (0,1)", ("types[0]",))]),
    "no_learning cost": (
        _no_learning(costs=CostTable(k0=(0.0, math.inf))),
        [("cost-not-finite", "non-finite cost in types[0]", (math.inf,))],
    ),
    "control_arm_learning ktilde1": (
        _control(ktilde1=-math.inf),
        [("cost-not-finite", "ktilde1 not finite in types[0]", (-math.inf,))],
    ),
    "optimal_stopping cost": (
        _stopping(k1=math.inf),
        [("cost-not-finite", "non-finite continuation cost in types[0]", ())],
    ),
    "pmf16 non-binary": (
        RoyRepeated(pmf=(((0, 0, 0, 2), 1.0),)),
        [("pmf-support", "potential outcomes must be binary, got (0, 0, 0, 2)", ((0, 0, 0, 2),))],
    ),
    "pmf16 duplicate": (
        RoyRepeated(pmf=(((0, 1, 0, 1), 0.5), ((0, 1, 0, 1), 0.5))),
        [("pmf-duplicate", "duplicate support point (0, 1, 0, 1)", ((0, 1, 0, 1),))],
    ),
    "optimal_stopping empty pmf": (
        _stopping(pmf=()),
        [
            ("pmf-sum", "probabilities at types[0].pmf sum to 0.0, not 1", (0.0,)),
            ("pmf-support", "types[0] has empty outcome support", ()),
        ],
    ),
    "optimal_stopping non-finite outcome": (
        _stopping(pmf=(((math.inf, 1.0), 1.0),)),
        [("pmf-support", "non-finite outcome pair in types[0]", (math.inf, 1.0))],
    ),
    # observing 0 is impossible, so l0 falls back to the prior mean, which is
    # the prior's weight sum, 1 + 5e-10: inside PMF_TOL, above l1 = 1.0
    "control_arm_learning band": (
        _control(prior=((1.0, 1.0000000005),)),
        [
            (
                "posterior-not-monotone",
                "types[0]: posterior mean after 0 (1.0000000005) exceeds posterior mean after 1 (1.0)",
                (1.0000000005, 1.0),
            )
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(_VIOLATIONS))
def test_each_rule_reports_its_code_message_and_values(case):
    config, expected = _VIOLATIONS[case]
    report = validate_scenario(config)
    assert [(v.rule, v.message, v.values) for v in report.violations] == expected


@pytest.mark.parametrize("k", [4, 6, 10, 100, 300])
def test_stopping_trends_compare_in_units_of_the_outcomes(k):
    """Scaling outcomes and costs by 10^k keeps every decision, so it keeps
    the first 40 multi-type corpus configs valid: the trends' rounding grows
    with the outcomes, and so does the tolerance."""
    seeds = islice((s for s in count() if len(random_stopping(s).types) > 1), 40)
    reports = [validate_scenario(scenario_from_json(json.loads(_scaled_stopping(s, k)))) for s in seeds]
    assert [r.violations for r in reports if not r.ok] == []


@pytest.mark.parametrize("k", [0, 4, 6, 10, 100, 300])
def test_stopping_trends_a_billionth_of_the_scale_apart_are_inconsistent(k):
    f = 10.0**k
    types = tuple(
        StoppingType(prob=0.5, k0=0.0, k1=0.0, beta=0.9, pmf=(((f, f * (2.0 + d)), 1.0),)) for d in (0.0, 1e-9)
    )
    report = validate_scenario(OptimalStopping(types=types))
    assert [v.rule for v in report.violations] == ["tau-inconsistent"]


def _state(y, u0_type=0):
    return LatentState(u0_type=u0_type, po=PotentialOutcomes.of(*y))


# a config, a latent state its decide() rejects, and the error's text
_GUARDS = {
    "no_learning type index": (_no_learning(), _state((0, 0, 0, 0), 1), "type index 1 out of range"),
    "treated_arm_learning type index": (_treated(), _state((0, 0, 0, 0), 1), "type index 1 out of range"),
    "control_arm_learning type index": (_control(), _state((0, 0, 0, 0), -1), "type index -1 out of range"),
    "optimal_stopping type index": (_stopping(), _state((1, 0, 1, 0), 2), "type index 2 out of range"),
    "control_arm_learning non-binary": (_control(), _state((0.5, 0, 0, 0)), "binary scenario got Y_0(0) = 0.5"),
    "roy_irreversible non-binary": (
        RoyIrreversible(pmf=(((0, 0, 0, 0), 1.0),)),
        _state((0, 0, 0, 0.5)),
        "binary scenario got (0.0, 0.0, 0.0, 0.5)",
    ),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_each_decide_guard_raises_state_not_in_support(case):
    config, state, message = _GUARDS[case]
    with pytest.raises(LabError) as err:
        config.decide(state)
    assert str(err.value) == f"[state-not-in-support] {message}"


def test_roy_repeated_without_ever_untreated_mass_needs_only_a_stationary_mean():
    # both atoms treat in both periods; Y_0(0) = Y_1(0) on each
    always = RoyRepeated(pmf=(((0, 1, 0, 1), 0.5), ((1, 1, 1, 1), 0.5)))
    report = check_conditions(always, build_joint(always))
    assert report.predicts_pt is True and report.stationarity_gap == 0.0
    assert report.degeneracy_ever_untreated is None
    drifting = RoyRepeated(pmf=(((0, 1, 1, 1), 1.0),))
    assert check_conditions(drifting, build_joint(drifting)).predicts_pt is False


# a JSON document, the pointer of the shape error the decoder raises, and its
# message
_SHAPES = {
    "pair of one number": (
        {
            "scenario": "treated_arm_learning",
            "types": [{"prob": 1, "prior": [[0.5, 1]], "mu_ctrl": [0.3], "beta": 0.9}],
        },
        "/types/0/mu_ctrl",
        "expected a list of 2 numbers",
    ),
    "empty prior": (
        {"scenario": "control_arm_learning", "types": [{"prob": 1, "prior": [], "mu_treat1": 0.5, "ktilde1": 0}]},
        "/types/0/prior",
        "prior must be a nonempty list of [rate, weight] pairs",
    ),
    "short pmf row": (
        {"scenario": "roy_repeated", "pmf": [[0, 0, 0, 1]]},
        "/pmf/0",
        "pmf row must be [y00,y01,y10,y11,prob]",
    ),
    "empty types": ({"scenario": "no_learning", "types": []}, "/types", "types must be a nonempty list"),
    "type not an object": (
        {"scenario": "optimal_stopping", "types": [[]]},
        "/types/0",
        "each type must be a JSON object",
    ),
    "config not an object": ([], "/", "scenario config must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(_SHAPES))
def test_each_decoder_shape_error_has_its_pointer(case):
    doc, pointer, message = _SHAPES[case]
    with pytest.raises(LabError) as err:
        scenario_from_json(json.loads(json.dumps(doc)))
    assert (err.value.code, err.value.path) == ("schema-error", pointer)
    assert str(err.value) == f"[schema-error] {message} (at {pointer})"
