"""Exact population computations on an enumerated joint distribution.

Everything here works on the JointDistribution (never on samples), so every
reported quantity is a plain finite sum: equality claims can be tested at
1e-12 instead of statistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    CELLS,
    EXACT_TOL,
    Atom,
    CellStats,
    CellTable,
    JointDistribution,
)
from .diagnostics import observable_pt_probe
from .errors import LabError
from .scenarios import (
    ControlArmLearning,
    OptimalStopping,
    PastOutcomeSelection,
    RoyIrreversible,
    RoyRepeated,
    ScenarioConfig,
)

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


def conditional_mean(
    joint: JointDistribution,
    statistic: Callable[[Atom], float],
    event: Callable[[Atom], bool],
) -> float:
    """Exact E[statistic | event] under the joint."""
    num = 0.0
    den = 0.0
    for a in joint.atoms:
        if event(a):
            num += a.prob * statistic(a)
            den += a.prob
    if den <= 0.0:
        raise LabError("empty-event", "conditioning event has zero probability")
    return num / den


def cell_table(joint: JointDistribution) -> CellTable:
    """Probability, untreated-trend mean, and untreated-level means per
    realized treatment sequence.  Empty cells are omitted."""
    arr = joint.arrays()
    cells: dict[tuple[int, int], CellStats] = {}
    for d0, d1 in CELLS:
        mask = (arr["d0"] == d0) & (arr["d1"] == d1)
        p = float(np.sum(arr["prob"][mask]))
        if p <= 0.0:
            continue
        w = arr["prob"][mask]
        y00 = arr["y00"][mask]
        y10 = arr["y10"][mask]
        cells[(d0, d1)] = CellStats(
            prob=p,
            trend_mean=float(np.sum(w * (y10 - y00))) / p,
            level_y0=float(np.sum(w * y00)) / p,
            level_y1=float(np.sum(w * y10)) / p,
        )
    return CellTable(cells, source="oracle")


def pt_deviation(table: CellTable) -> float:
    """Spread (max minus min) of the untreated-trend mean across nonempty
    cells; exactly 0 when parallel trends holds."""
    trends = [st.trend_mean for st in table.cells.values()]
    if not trends:
        raise ValueError("cell table has no nonempty cells")
    return max(trends) - min(trends)


def true_att_switchers(joint: JointDistribution) -> float:
    """E[Y1(1) - Y1(0) | D0 < D1], computed from latent counterfactuals."""
    arr = joint.arrays()
    mask = arr["d0"] < arr["d1"]
    den = float(np.sum(arr["prob"][mask]))
    if den <= 0.0:
        raise LabError("empty-event", "no switchers into treatment")
    num = float(np.sum(arr["prob"][mask] * (arr["y11"][mask] - arr["y10"][mask])))
    return num / den


@dataclass(frozen=True)
class LearnerClassification:
    """Partition of the control-learning population by whether the period-1
    choice can flip with the period-0 outcome.

    p_a: mass that treats regardless of what was observed;
    p_n: mass that never treats;
    p_vl: mass whose choice tracks the period-0 untreated outcome ("valuable
    learners"), split into p_vl0/p_vl1 by that outcome;
    persistence_on_vl: P(Y0(0) = Y1(0) | valuable learner), vacuously 1 when
    p_vl = 0; tau: the common untreated trend (identically 0 here).
    """

    p_a: float
    p_n: float
    p_vl: float
    p_vl0: float
    p_vl1: float
    persistence_on_vl: float
    tau: float

    def to_json(self) -> dict:
        return {
            "p_a": self.p_a,
            "p_n": self.p_n,
            "p_vl": self.p_vl,
            "p_vl0": self.p_vl0,
            "p_vl1": self.p_vl1,
            "persistence_on_vl": self.persistence_on_vl,
            "tau": self.tau,
        }


def classify_learners(config) -> LearnerClassification:
    """Classify each type of a control-arm-learning config by comparing the
    treated value a = mu_treat1 - ktilde1 against the posterior-mean band
    [l0, l1] of the untreated arm."""
    if not isinstance(config, ControlArmLearning):
        raise LabError(
            "wrong-scenario",
            f"learner classification needs a control_arm_learning config, got {getattr(config, 'scenario_id', type(config).__name__)}",
        )
    p_a = p_n = p_vl = p_vl0 = p_vl1 = 0.0
    persist_mass = 0.0
    # untreated draws are exchangeable across periods, so the common trend is
    # identically zero for every type
    tau = 0.0
    for i, ty in enumerate(config.types):
        a = ty.mu_treat1 - ty.ktilde1
        beliefs = config._beliefs[i]
        l0 = beliefs.post_or_prior(0)
        l1 = beliefs.post_or_prior(1)
        mean = beliefs.mean
        if a >= l1:
            p_a += ty.prob
        elif a < l0:
            p_n += ty.prob
        else:
            p_vl += ty.prob
            p_vl0 += ty.prob * (1.0 - mean)
            p_vl1 += ty.prob * mean
            persist_mass += ty.prob * sum(
                w * (t * t + (1.0 - t) * (1.0 - t)) for t, w in ty.prior
            )
    persistence = persist_mass / p_vl if p_vl > 0.0 else 1.0
    return LearnerClassification(
        p_a=p_a,
        p_n=p_n,
        p_vl=p_vl,
        p_vl0=p_vl0,
        p_vl1=p_vl1,
        persistence_on_vl=persistence,
        tau=tau,
    )


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
        return {
            "scenario_id": self.scenario_id,
            "pt_deviation": self.pt_deviation,
            "predicts_pt": self.predicts_pt,
            "stationarity_gap": self.stationarity_gap,
            "degeneracy_ever_untreated": self.degeneracy_ever_untreated,
            "p_vl": self.p_vl,
            "persistence_on_vl": self.persistence_on_vl,
            "tau": self.tau,
            "stopping_residual": self.stopping_residual,
            "past_selection_deviation": self.past_selection_deviation,
            "observable_gap": self.observable_gap,
        }


def stopping_residual(config: OptimalStopping) -> float:
    """Imbalance between the continue-continue cell's untreated trend mass and
    its parallel-trends share: sum over continuing types of
    integral of (E[Y1(0)|u,y0] - y0) over the continue region, minus the
    common trend times P(D0=0, D1=0).  Zero iff parallel trends holds
    (whenever both period-1 cells are reachable)."""
    total_delta0 = 0.0
    p00 = 0.0
    tau = 0.0
    for i, ty in enumerate(config.types):
        tau += ty.prob * sum(p * (y1 - y0) for (y0, y1), p in ty.pmf)
        if config._cont0s[i] <= 0.0:
            continue  # the whole type stops in period 0
        sums = config._sums[i]
        for y0 in sums.support:
            p = sums.mass[y0]
            m = sums.m(y0)
            if m - ty.k1 > 0.0:  # continues through period 1
                total_delta0 += ty.prob * (m - y0) * p
                p00 += ty.prob * p
    return total_delta0 - tau * p00


def check_conditions(config: ScenarioConfig, joint: JointDistribution) -> ConditionReport:
    """Evaluate, exactly, the iff-condition for parallel trends that applies
    to the scenario, alongside the measured deviation it characterizes."""
    return _check_conditions(config, joint, cell_table(joint))


def _check_conditions(config: ScenarioConfig, joint: JointDistribution, table: CellTable) -> ConditionReport:
    """check_conditions, given the joint's cell table."""
    if joint.scenario_id and joint.scenario_id != config.scenario_id:
        raise LabError(
            "wrong-scenario",
            f"joint was built from {joint.scenario_id!r}, config is {config.scenario_id!r}",
        )
    arr = joint.arrays()
    dev = pt_deviation(table)
    gap = float(np.sum(arr["prob"] * (arr["y10"] - arr["y00"])))
    report = ConditionReport(
        scenario_id=config.scenario_id,
        pt_deviation=dev,
        predicts_pt=True,
        stationarity_gap=gap,
    )
    try:
        report.observable_gap = observable_pt_probe(joint)
    except LabError:
        pass  # one of the period-0 untreated cells is empty: no gap to report

    if isinstance(config, PastOutcomeSelection):
        t = config.trans_ctrl
        formula = t[0][1] - t[1][1] + 1.0
        report.past_selection_deviation = formula
        report.predicts_pt = abs(formula) <= EXACT_TOL
    elif isinstance(config, (RoyRepeated, RoyIrreversible)):
        ever = arr["d0"] * arr["d1"] == 0
        den = float(np.sum(arr["prob"][ever]))
        if den > 0.0:
            both_one = ever & (arr["y00"] == 1.0) & (arr["y10"] == 1.0)
            degeneracy = float(np.sum(arr["prob"][both_one])) / den
            report.degeneracy_ever_untreated = degeneracy
            report.predicts_pt = abs(gap) <= EXACT_TOL and degeneracy >= 1.0 - EXACT_TOL
        else:
            report.predicts_pt = abs(gap) <= EXACT_TOL
    elif isinstance(config, ControlArmLearning):
        cls = classify_learners(config)
        report.p_vl = cls.p_vl
        report.persistence_on_vl = cls.persistence_on_vl
        report.tau = cls.tau
        report.predicts_pt = cls.p_vl <= EXACT_TOL or (
            cls.persistence_on_vl >= 1.0 - EXACT_TOL and abs(cls.tau) <= EXACT_TOL
        )
    elif isinstance(config, OptimalStopping):
        resid = stopping_residual(config)
        report.stopping_residual = resid
        report.predicts_pt = abs(resid) <= EXACT_TOL
    # no_learning and treated_arm_learning: parallel trends holds for every
    # validated config, so predicts_pt stays True
    return report
