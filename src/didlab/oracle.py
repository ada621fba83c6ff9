"""Exact population computations on an enumerated joint distribution.

Everything here works on the JointDistribution (never on samples), so every
reported quantity is a plain finite sum: equality claims can be tested at
1e-12 instead of statistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CellTable, JointDistribution, _cell_table, _CellMoments, _check_finite
from .diagnostics import observable_pt_probe
from .errors import LabError
from .estimators import ObservedCells
from .scenarios import LearnerClassification, ScenarioConfig

__all__ = [
    "JointDistribution",
    "LearnerClassification",
    "ConditionReport",
    "conditional_mean",
    "cell_table",
    "pt_deviation",
    "true_att_switchers",
    "classify_learners",
    "check_conditions",
]


def conditional_mean(joint: JointDistribution, values, event) -> float:
    """Exact E[values | event] under the joint, for a (k,) column of values
    and a (k,) boolean mask of the event over its atoms: for instance
    conditional_mean(joint, joint.po[:, 2], joint.d1 == 1) is
    E[Y1(0) | D1 = 1]."""
    event = np.asarray(event, dtype=bool)
    p = joint.prob[event]
    den = float(np.sum(p))
    if den <= 0.0:
        raise LabError("empty-event", "conditioning event has zero probability")
    return float(np.sum(p * np.asarray(values, dtype=np.float64)[event])) / den


def _moments(joint: JointDistribution) -> _CellMoments:
    """Per-path sums of p, p*(y10 - y00), p*y00, p*y10 and p*(y11 - y10): all
    the cell table and the switcher effect read of the joint."""
    arr = joint.arrays()
    p, y00, y10 = arr["prob"], arr["y00"], arr["y10"]
    return _CellMoments(arr["d0"], arr["d1"], (p, p * (y10 - y00), p * y00, p * y10, p * (arr["y11"] - y10)))


def cell_table(joint: JointDistribution) -> CellTable:
    """Probability, untreated-trend mean, and untreated-level means per
    realized treatment sequence.  Empty cells are omitted.  Raises
    non-finite, at the pointer into to_json(), where one overflows."""
    # numpy's overflow warnings would be noise before that error
    with np.errstate(over="ignore", invalid="ignore"):
        table = _oracle_table(_moments(joint))
    _check_finite(table.to_json())
    return table


def _oracle_table(moments: _CellMoments) -> CellTable:
    sums = [s or [0.0] * 5 for s in moments.sums]  # an empty path has no mass
    return _cell_table([s[0] for s in sums], [s[1:4] for s in sums], 1.0, "oracle")


def pt_deviation(table: CellTable) -> float:
    """Spread (max minus min) of the untreated-trend mean across nonempty
    cells; exactly 0 when parallel trends holds."""
    trends = [st.trend_mean for st in table.cells.values()]
    if not trends:
        raise ValueError("cell table has no nonempty cells")
    return max(trends) - min(trends)


def true_att_switchers(joint: JointDistribution) -> float:
    """E[Y1(1) - Y1(0) | D0 < D1], computed from latent counterfactuals."""
    return _true_att_switchers(_moments(joint))


def _true_att_switchers(moments: _CellMoments) -> float:
    sums = moments.sums[1]  # D0 < D1 is the path (0, 1)
    if sums is None or sums[0] <= 0.0:
        raise LabError("empty-event", "no switchers into treatment")
    return sums[4] / sums[0]


def _expect_scenario(config, tag: str, need: str) -> None:
    got = getattr(config, "scenario_id", type(config).__name__)
    if got != tag:
        raise LabError("wrong-scenario", f"{need}, got {got}")


def classify_learners(config) -> LearnerClassification:
    """Classify each type of a control-arm-learning config by comparing the
    treated value a = mu_treat1 - ktilde1 against the posterior-mean band
    [l0, l1] of the untreated arm."""
    _expect_scenario(config, "control_arm_learning", "learner classification needs a control_arm_learning config")
    return config.classify_learners()


@dataclass
class ConditionReport:
    """Exact evaluation of the scenario's parallel-trends characterization.

    predicts_pt is the verdict of the scenario-specific condition;
    pt_deviation is the direct cell-table measurement the condition is
    supposed to characterize.  Fields that do not apply to the scenario stay
    None.
    """

    scenario_id: str
    pt_deviation: float
    predicts_pt: bool
    stationarity_gap: float  # E[Y1(0)] - E[Y0(0)], unconditional
    degeneracy_ever_untreated: Optional[float] = None
    p_vl: Optional[float] = None
    persistence_on_vl: Optional[float] = None
    tau: Optional[float] = None
    stopping_residual: Optional[float] = None
    past_selection_deviation: Optional[float] = None
    observable_gap: Optional[float] = None

    def to_json(self) -> dict:
        # the fields, in order, as nothing else is set on a report; not asdict,
        # whose deep copy takes ~17 µs on every truth call
        return dict(vars(self))


def stopping_residual(config) -> float:
    """Imbalance between the continue-continue cell's untreated trend mass and
    its parallel-trends share; zero iff parallel trends holds (whenever both
    period-1 cells are reachable).  See OptimalStopping.stopping_residual.
    Raises non-finite, at /stopping_residual, where it overflows."""
    _expect_scenario(config, "optimal_stopping", "the stopping residual needs an optimal_stopping config")
    resid = config.stopping_residual()
    _check_finite({"stopping_residual": resid})
    return resid


def check_conditions(config: ScenarioConfig, joint: JointDistribution) -> ConditionReport:
    """Evaluate, exactly, the iff-condition for parallel trends that applies
    to the scenario, alongside the measured deviation it characterizes.
    Raises non-finite, at the pointer into to_json(), where a value
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        report = _check_conditions(config, joint, _oracle_table(_moments(joint)), ObservedCells(joint))
    _check_finite(report.to_json())
    return report


def _check_conditions(
    config: ScenarioConfig, joint: JointDistribution, table: CellTable, observed: ObservedCells
) -> ConditionReport:
    """check_conditions, given the joint's cell table and observed cells."""
    if joint.scenario_id and joint.scenario_id != config.scenario_id:
        raise LabError(
            "wrong-scenario",
            f"joint was built from {joint.scenario_id!r}, config is {config.scenario_id!r}",
        )
    arr = joint.arrays()
    gap = float(np.sum(arr["prob"] * (arr["y10"] - arr["y00"])))
    report = ConditionReport(
        scenario_id=config.scenario_id,
        pt_deviation=pt_deviation(table),
        stationarity_gap=gap,
        **config.conditions(arr, gap),
    )
    try:
        report.observable_gap = observable_pt_probe(observed)
    except LabError:
        pass  # one of the period-0 untreated cells is empty: no gap to report
    return report
