"""Exact population quantities, cross-checked against brute enumeration."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from didlab.core import CELLS, CellTable, JointDistribution, Panel
from didlab.corpus import random_config, random_control_learning, random_stopping
from didlab.diagnostics import empirical_cell_table
from didlab.errors import LabError
from didlab.oracle import (
    cell_table,
    check_conditions,
    classify_learners,
    conditional_mean,
    pt_deviation,
    stopping_residual,
    true_att_switchers,
)
from didlab.scenarios import OptimalStopping, StoppingType, build_joint, draw_panel

from _brute import (
    brute_att_switchers,
    brute_cells,
    brute_conditional_mean,
    brute_pt_deviation,
    brute_stopping_residual,
    masked_att_switchers,
    masked_cell_table,
    masked_empirical_cell_table,
)
from test_joint import _CORPUS_FAMILIES, _wide_config, _wide_treated_config

TOL = 1e-12


def test_cell_table_matches_brute_on_varied_configs():
    for seed in range(24):
        joint = build_joint(random_config(seed))
        table = cell_table(joint)
        ref = brute_cells(joint)
        assert set(table.cells) == set(ref)
        for cell, st in table.cells.items():
            assert st.prob == pytest.approx(ref[cell]["prob"], abs=TOL)
            assert st.trend_mean == pytest.approx(ref[cell]["trend_mean"], abs=TOL)
            assert st.level_y0 == pytest.approx(ref[cell]["level_y0"], abs=TOL)
            assert st.level_y1 == pytest.approx(ref[cell]["level_y1"], abs=TOL)
        assert pt_deviation(table) == pytest.approx(brute_pt_deviation(joint), abs=TOL)


def _bits(cells):
    """{cell: CellStats} as the bits of each field, so that 0.0 and -0.0 differ."""
    return {cell: tuple(v.hex() for v in vars(stats).values()) for cell, stats in cells.items()}


def _switchers_or_code(fn, joint):
    try:
        return fn(joint).hex()
    except LabError as e:
        return e.code


def _assert_bit_equal(joint, label):
    table = cell_table(joint)
    ref = masked_cell_table(joint)
    assert _bits(table.cells) == _bits(ref), label
    # so "pt_deviation is exactly 0" reads the same at both
    assert pt_deviation(table).hex() == pt_deviation(CellTable(ref)).hex(), label
    assert _switchers_or_code(true_att_switchers, joint) == _switchers_or_code(masked_att_switchers, joint), label


def test_grouped_cell_sums_are_the_masked_sums_bit_for_bit(shipped_joints, seeds):
    """The one-sort cell table and switcher effect give the bits of one
    masked np.sum per cell, on every shipped config, random_config seeds
    0-299, the first 100 seeds of each corpus family and both wide configs."""
    cases = list(shipped_joints.items())
    cases += [(f"random:{seed}", build_joint(random_config(seed))) for seed in range(300)]
    cases += [
        (f"{key}:{seed}", build_joint(make(seed))) for key, make in _CORPUS_FAMILIES.items() for seed in seeds[key][:100]
    ]
    cases += [("wide", build_joint(_wide_config(0))), ("wide_treated", build_joint(_wide_treated_config(0)))]
    for label, joint in cases:
        _assert_bit_equal(joint, label)


@st.composite
def _grouped_rows(draw):
    """(cell, values, rng): cell indices 2*d0 + d1 in a shuffled row order,
    each cell holding 0, 1, 7, 8, 9 or up to 400 rows (np.sum turns
    pairwise at 8 values), and an rng for the values."""
    sizes = [draw(st.sampled_from((0, 1, 7, 8, 9)) | st.integers(0, 400)) for _ in range(4)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cell = rng.permutation(np.repeat(np.arange(4, dtype=np.int8), sizes))
    scale = 10.0 ** rng.integers(-3, 4, size=(len(cell), 1))
    values = rng.standard_normal((len(cell), 4)) * scale
    if draw(st.booleans()):  # values on a coarse grid: equal trends, exact zeros
        values = np.round(values, 1)
    return cell, values, rng


@given(_grouped_rows())
@settings(max_examples=80, deadline=None)
def test_grouped_cell_sums_match_masked_sums_on_random_joints(rows):
    cell, po, rng = rows
    assume(len(cell))
    w = rng.random(len(cell)) * (rng.random(len(cell)) < 0.9)  # some zero-mass atoms
    if not w.any():
        w[0] = 1.0
    _assert_bit_equal(JointDistribution(np.zeros(len(cell)), po, cell >> 1, cell & 1, w / np.sum(w)), "random joint")


@given(_grouped_rows())
@settings(max_examples=80, deadline=None)
def test_empirical_cell_table_matches_masked_means(rows):
    cell, po, _ = rows
    assume(len(cell))
    panel = Panel(cell >> 1, cell & 1, po[:, 0], po[:, 2], po=po)
    assert _bits(empirical_cell_table(panel).cells) == _bits(masked_empirical_cell_table(panel))


def test_true_att_matches_brute(shipped_joints):
    for name in ("control_arm_learning", "roy_repeated", "stationary_scale"):
        joint = shipped_joints[name]
        assert true_att_switchers(joint) == pytest.approx(
            brute_att_switchers(joint), abs=TOL
        )
    assert true_att_switchers(shipped_joints["control_arm_learning"]) == pytest.approx(
        0.18, abs=TOL
    )
    assert true_att_switchers(shipped_joints["roy_repeated"]) == pytest.approx(
        1 / 3, abs=TOL
    )


def test_true_att_requires_switchers():
    # one type, never worth starting: everyone stays untreated in both periods
    cfg = OptimalStopping(
        types=(StoppingType(prob=1.0, k0=0.0, k1=0.0, beta=0.9, pmf=(((1.0, 1.0), 1.0),)),)
    )
    with pytest.raises(LabError) as err:
        true_att_switchers(build_joint(cfg))
    assert err.value.code == "empty-event"


def test_conditional_mean_event_algebra(shipped_joints):
    joint = shipped_joints["control_arm_learning"]
    low = conditional_mean(joint, joint.po[:, 2], joint.d1 == 1)
    assert low == pytest.approx(0.32, abs=TOL)
    for event in (joint.d0 == 1, np.zeros(len(joint), dtype=bool)):
        with pytest.raises(LabError) as err:
            conditional_mean(joint, joint.y0, event)
        assert err.value.code == "empty-event"


# (column of the joint, the same value of one brute atom)
_STATISTICS = [
    (lambda j: j.po[:, 2], lambda a: a.po[2]),
    (lambda j: j.y1 - j.y0, lambda a: a.y1 - a.y0),
    (lambda j: j.po[:, 3] - j.po[:, 2], lambda a: a.po[3] - a.po[2]),
]
# (mask over the joint, the same event on one brute atom)
_EVENTS = [(lambda j, c=c: (j.d0 == c[0]) & (j.d1 == c[1]), lambda a, c=c: (a.d0, a.d1) == c) for c in CELLS]
_EVENTS += [
    (lambda j: j.d1 == 1, lambda a: a.d1 == 1),
    (lambda j: j.po[:, 2] > j.po[:, 0], lambda a: a.po[2] > a.po[0]),
]


def test_conditional_mean_matches_a_loop_over_atoms(shipped_joints):
    cases = list(shipped_joints.items())
    cases += [(f"random:{seed}", build_joint(random_config(seed))) for seed in range(40)]
    for label, joint in cases:
        for column, value in _STATISTICS:
            for mask, event in _EVENTS:
                ref = brute_conditional_mean(joint, value, event)
                if ref is None:
                    with pytest.raises(LabError) as err:
                        conditional_mean(joint, column(joint), mask(joint))
                    assert err.value.code == "empty-event", label
                else:
                    assert abs(conditional_mean(joint, column(joint), mask(joint)) - ref) <= TOL, label


def test_pt_deviation_on_empty_table_errors():
    with pytest.raises(ValueError):
        pt_deviation(type("T", (), {"cells": {}})())


# --- learner classification ---------------------------------------------------


def test_classification_of_shipped_learner(shipped):
    cls = classify_learners(shipped["control_arm_learning"])
    assert cls.p_vl == pytest.approx(1.0, abs=TOL)
    assert cls.p_a == 0.0 and cls.p_n == 0.0
    assert cls.p_vl0 == pytest.approx(0.5, abs=TOL)
    assert cls.p_vl1 == pytest.approx(0.5, abs=TOL)
    # persistence: P(Y1(0)=Y0(0)) on theta in {.2,.8} = .5*(theta^2+(1-theta)^2)
    assert cls.persistence_on_vl == pytest.approx(0.68, abs=TOL)
    assert cls.tau == 0.0


def test_classification_boundaries():
    # prior over {1/4, 3/4} keeps every threshold exact in binary floating
    # point: posterior band is [l0, l1] = [0.375, 0.625]
    base = dict(prob=1.0, prior=((0.25, 0.5), (0.75, 0.5)))
    from didlab.scenarios import ControlArmLearning, ControlLearningType

    at_l1 = ControlArmLearning(
        types=(ControlLearningType(mu_treat1=0.625, ktilde1=0.0, **base),)
    )
    cls = classify_learners(at_l1)  # a == l1: treats either way
    assert cls.p_a == 1.0 and cls.p_vl == 0.0

    inside = ControlArmLearning(
        types=(ControlLearningType(mu_treat1=0.5, ktilde1=0.0, **base),)
    )
    cls = classify_learners(inside)
    assert cls.p_vl == 1.0
    assert cls.p_vl0 == 0.5 and cls.p_vl1 == 0.5
    assert cls.persistence_on_vl == pytest.approx(0.625, abs=TOL)

    below_l0 = ControlArmLearning(
        types=(ControlLearningType(mu_treat1=0.25, ktilde1=0.0, **base),)
    )
    cls = classify_learners(below_l0)
    assert cls.p_n == 1.0
    assert cls.persistence_on_vl == 1.0  # vacuous: no valuable learners


def test_classification_mass_invariants():
    for seed in range(30):
        cfg = random_control_learning(seed)
        cls = classify_learners(cfg)
        assert cls.p_a + cls.p_n + cls.p_vl == pytest.approx(1.0, abs=TOL)
        assert cls.p_vl0 + cls.p_vl1 == pytest.approx(cls.p_vl, abs=TOL)
        assert 0.0 <= cls.persistence_on_vl <= 1.0 + TOL


def test_classify_learners_wrong_scenario(shipped):
    with pytest.raises(LabError) as err:
        classify_learners(shipped["roy_repeated"])
    assert err.value.code == "wrong-scenario"


# --- stopping residual ----------------------------------------------------------


def test_stopping_residual_wrong_scenario(shipped):
    with pytest.raises(LabError) as err:
        stopping_residual(shipped["control_arm_learning"])
    assert (err.value.code, str(err.value)) == (
        "wrong-scenario",
        "[wrong-scenario] the stopping residual needs an optimal_stopping config, got control_arm_learning",
    )


def test_stopping_residual_matches_brute():
    for seed in range(12):
        for pt in (True, False):
            cfg = random_stopping(seed, pt=pt)
            resid = stopping_residual(cfg)
            ref = brute_stopping_residual(build_joint(cfg))
            assert resid == pytest.approx(ref, abs=TOL), (seed, pt)


def test_stopping_residual_shipped_values(shipped):
    assert stopping_residual(shipped["stopping_uninformative"]) == pytest.approx(
        0.0, abs=TOL
    )
    assert stopping_residual(shipped["stopping_informative"]) == pytest.approx(
        -0.1, abs=TOL
    )
    assert stopping_residual(shipped["stationary_scale"]) == pytest.approx(
        -0.5, abs=TOL
    )


# --- condition reports ----------------------------------------------------------


def test_condition_report_fields_per_scenario(shipped, shipped_joints):
    rep = check_conditions(shipped["selection_on_past"], shipped_joints["selection_on_past"])
    assert rep.past_selection_deviation == pytest.approx(0.5, abs=TOL)
    assert rep.predicts_pt is False
    assert rep.p_vl is None and rep.stopping_residual is None

    rep = check_conditions(shipped["known_means"], shipped_joints["known_means"])
    assert rep.predicts_pt is True
    assert rep.pt_deviation <= TOL

    rep = check_conditions(shipped["roy_repeated"], shipped_joints["roy_repeated"])
    assert rep.stationarity_gap == pytest.approx(0.0, abs=TOL)
    assert rep.degeneracy_ever_untreated == pytest.approx(3 / 7, abs=TOL)
    assert rep.predicts_pt is False

    rep = check_conditions(shipped["stopping_informative"], shipped_joints["stopping_informative"])
    assert rep.stopping_residual == pytest.approx(-0.1, abs=TOL)
    assert rep.predicts_pt is False
    json_rep = rep.to_json()
    assert json_rep["scenario_id"] == "optimal_stopping"
    assert json_rep["predicts_pt"] is False


def test_check_conditions_rejects_mismatched_joint(shipped, shipped_joints):
    with pytest.raises(LabError) as err:
        check_conditions(shipped["roy_repeated"], shipped_joints["known_means"])
    assert err.value.code == "wrong-scenario"


def test_observable_gap_reported_for_present_selection(shipped, shipped_joints):
    rep = check_conditions(
        shipped["control_arm_learning"], shipped_joints["control_arm_learning"]
    )
    assert rep.observable_gap == pytest.approx(1.0, abs=TOL)


def test_overflowing_outcomes_raise_non_finite_without_a_warning():
    # y1 - y0 overflows: the public functions raise, the oracle's where the
    # oracle block does, and numpy warns of nothing (Tier-1 makes a
    # RuntimeWarning fail)
    pmf = (((1e308, -1e308), 0.5), ((-1e308, 1e308), 0.5))
    cfg = OptimalStopping(types=(StoppingType(prob=1.0, k0=-1.0, k1=-1.0, beta=0.5, pmf=pmf),))
    joint = build_joint(cfg)
    for call, path, what in [
        (lambda: check_conditions(cfg, joint), "/pt_deviation", "an exact population quantity"),
        (lambda: cell_table(joint), "/00/trend_mean", "an exact population quantity"),
        (lambda: stopping_residual(cfg), "/stopping_residual", "an exact population quantity"),
        (lambda: empirical_cell_table(draw_panel(joint, 50, 1)), "/00/trend_mean", "a sample mean"),
    ]:
        with pytest.raises(LabError) as err:
            call()
        assert err.value.code == "non-finite" and err.value.path == path
        assert str(err.value) == f"[non-finite] {what} overflows the float range (at {path})"
