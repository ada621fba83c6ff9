"""Cell-level diagnostics: partial parallel-trends decompositions, the
observable probe, and the counterfactual-trend reconstruction.

Functions taking a CellTable work on oracle and empirical tables alike.
Functions taking a Panel are split by what they need: the probe uses observed
columns only (and so also takes a joint), the empirical cell table is
latent-gated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Union

from .core import CELLS, CellStats, CellTable, JointDistribution, Panel, _CellMoments
from .errors import LabError
from .estimators import ObservedCells

__all__ = [
    "PartialPtReport",
    "SelectionStationarityReport",
    "TrendDecomposition",
    "empirical_cell_table",
    "partial_pt",
    "selection_stationarity",
    "observable_pt_probe",
    "trend_decomposition",
]


def empirical_cell_table(panel: Panel) -> CellTable:
    """Sample analog of the oracle cell table: cell shares and per-cell sample
    means of the latent untreated outcomes."""
    if not panel.has_latent:
        raise LabError(
            "latent-required",
            "empirical cell table needs latent potential outcomes; draw the panel with them attached",
        )
    y00, y10 = panel.po[:, 0], panel.po[:, 2]
    moments = _CellMoments(panel.d0, panel.d1, (y10 - y00, y00, y10))
    cells: dict[tuple[int, int], CellStats] = {}
    for cell, count, sums in zip(CELLS, moments.counts, moments.sums):
        if count:  # a sum over its count has np.mean's bits
            cells[cell] = CellStats(count / panel.n, *(s / count for s in sums))
    return CellTable(cells, source="empirical-latent")


@dataclass(frozen=True)
class PartialPtReport:
    """The two components of the parallel-trends condition.

    dev_d0: spread of E[Y1(0) - Y0(0) | D0 = d0] across period-0 arms, where
    each arm's mean aggregates its period-1 cells by conditional probability.
    dev_d1_given_d0: largest within-arm spread across period-1 cells.
    Both are 0 iff parallel trends holds.
    """

    dev_d0: float
    dev_d1_given_d0: float
    source: str

    def to_json(self) -> dict:
        return asdict(self)


def partial_pt(table: CellTable) -> PartialPtReport:
    by_d0: dict[int, float] = {}
    within: list[float] = []
    for d0 in (0, 1):
        present = [(d1, table.cells[(d0, d1)]) for d1 in (0, 1) if (d0, d1) in table.cells]
        if not present:
            continue
        mass = sum(st.prob for _, st in present)
        by_d0[d0] = sum(st.prob * st.trend_mean for _, st in present) / mass
        trends = [st.trend_mean for _, st in present]
        within.append(max(trends) - min(trends))
    dev_d0 = max(by_d0.values()) - min(by_d0.values()) if len(by_d0) == 2 else 0.0
    return PartialPtReport(
        dev_d0=dev_d0,
        dev_d1_given_d0=max(within) if within else 0.0,
        source=table.source,
    )


@dataclass(frozen=True)
class SelectionStationarityReport:
    """Period-to-period change in the selection magnitudes.

    dev_d0: |gap(t=1) - gap(t=0)| for gap(t) = E[Y_t(0)|D0=1] - E[Y_t(0)|D0=0].
    dev_d1_given_d0: same construction one level down, within each period-0
    arm, maximized over arms.  Computed purely from the stored level means,
    so it is an independent route to the partial_pt verdicts.
    """

    dev_d0: float
    dev_d1_given_d0: float
    source: str

    def to_json(self) -> dict:
        return asdict(self)


def selection_stationarity(table: CellTable) -> SelectionStationarityReport:
    levels: dict[int, tuple[float, float]] = {}
    for d0 in (0, 1):
        present = [table.cells[(d0, d1)] for d1 in (0, 1) if (d0, d1) in table.cells]
        if not present:
            continue
        mass = sum(st.prob for st in present)
        levels[d0] = (
            sum(st.prob * st.level_y0 for st in present) / mass,
            sum(st.prob * st.level_y1 for st in present) / mass,
        )
    if len(levels) == 2:
        gap0 = levels[1][0] - levels[0][0]
        gap1 = levels[1][1] - levels[0][1]
        dev_d0 = abs(gap1 - gap0)
    else:
        dev_d0 = 0.0
    within: list[float] = []
    for d0 in (0, 1):
        both = all((d0, d1) in table.cells for d1 in (0, 1))
        if not both:
            continue
        lo, hi = table.cells[(d0, 0)], table.cells[(d0, 1)]
        gap0 = hi.level_y0 - lo.level_y0
        gap1 = hi.level_y1 - lo.level_y1
        within.append(abs(gap1 - gap0))
    return SelectionStationarityReport(
        dev_d0=dev_d0,
        dev_d1_given_d0=max(within) if within else 0.0,
        source=table.source,
    )


def observable_pt_probe(data: Union[Panel, JointDistribution, ObservedCells]) -> float:
    """E[Y0 | D0=0, D1=0] - E[Y0 | D0=0, D1=1], from observed columns only:
    the sample gap on a panel, the exact gap on a joint.  Zero in
    expectation whenever period-1 selection ignores the realized period-0
    outcome."""
    cells = ObservedCells.of(data)
    return cells.means(0, "cell (0,0)")[0] - cells.means(1, "cell (0,1)")[0]


@dataclass(frozen=True)
class TrendDecomposition:
    """Reconstruction of the switcher cell's untreated trend from the other
    three cells, valid when the period-0 arms share a common mean trend.

    weights are the three cell-probability ratios; terms are the
    weight-times-trend contributions (absent cells contribute 0);
    reconstructed = term_stay + term_exit - term_never; residual =
    reconstructed - actual, identically 0 under the common-trend condition.
    """

    weight_stay: float
    weight_exit: float
    weight_never: float
    term_stay: float
    term_exit: float
    term_never: float
    reconstructed: float
    actual: float
    residual: float

    def to_json(self) -> dict:
        return asdict(self)


def trend_decomposition(table: CellTable) -> TrendDecomposition:
    p_d0 = [table.prob(0, 0) + table.prob(0, 1), table.prob(1, 0) + table.prob(1, 1)]
    if p_d0[1] <= 0.0:
        raise LabError("undefined-ratio", "no period-0 treated mass; the decomposition needs P(D0=1) > 0")
    if p_d0[0] <= 0.0:
        raise LabError("undefined-ratio", "no period-0 untreated mass")
    p_enter = table.prob(0, 1) / p_d0[0]
    if p_enter <= 0.0:
        raise LabError("undefined-ratio", "P(D1=1 | D0=0) = 0; nothing to reconstruct")

    def _term(d0: int, d1: int, p_cond: float) -> tuple[float, float]:
        w = p_cond / p_enter
        st = table.cells.get((d0, d1))
        return w, (w * st.trend_mean if st is not None else 0.0)

    w_stay, t_stay = _term(1, 1, table.prob(1, 1) / p_d0[1])
    w_exit, t_exit = _term(1, 0, table.prob(1, 0) / p_d0[1])
    w_never, t_never = _term(0, 0, table.prob(0, 0) / p_d0[0])
    reconstructed = t_stay + t_exit - t_never
    actual = table.cells[(0, 1)].trend_mean
    return TrendDecomposition(
        weight_stay=w_stay,
        weight_exit=w_exit,
        weight_never=w_never,
        term_stay=t_stay,
        term_exit=t_exit,
        term_never=t_never,
        reconstructed=reconstructed,
        actual=actual,
        residual=reconstructed - actual,
    )
