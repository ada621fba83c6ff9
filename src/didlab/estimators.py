"""Estimators over observed data (d0, d1, y0, y1) only.

All five are formulas over one ObservedCells table: the mass, sum of y0 and
sum of y1 of each observed treatment path.  The table is built from a Panel
(sample analog) or a JointDistribution (exact plug-in) and is the only
window estimators get onto the data, so latent counterfactuals are
unreachable from any code path in this module.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from .core import BoundsInterval, JointDistribution, Panel
from .errors import LabError

__all__ = [
    "EstimateReport",
    "ObservedCells",
    "ALL_ESTIMATORS",
    "ESTIMATORS",
    "did_sharp",
    "did_switchers",
    "att_stationary",
    "att_forward_stationary",
    "mts_bounds",
    "run_estimator",
]


@dataclass(frozen=True)
class EstimateReport:
    estimator_id: str
    value: Union[float, BoundsInterval]
    assumptions: tuple[str, ...]
    n_cells: dict

    def __post_init__(self):
        value = self.value
        ends = (value.lower, value.upper) if isinstance(value, BoundsInterval) else (value,)
        if not all(math.isfinite(v) for v in ends):
            raise LabError(
                "non-finite",
                f"{self.estimator_id} = {value!r} is not finite: "
                "an outcome or an outcome sum overflows double precision",
            )

    def to_json(self) -> dict:
        return {**asdict(self), "assumptions": list(self.assumptions)}


class ObservedCells:
    """Mass, sum of y0 and sum of y1 of each observed treatment path (d0, d1),
    stored at index 2*d0 + d1.

    From a Panel the masses are unit counts (ints) and the sums run over
    units; from a JointDistribution the masses are probabilities normalised
    to sum to 1 and the sums are probability-weighted.  A JointDistribution
    with per-atom draw counts stands for the sample those draws make: int
    masses and count-weighted sums.  Either way a cell's mean outcome is its
    sum over its mass.
    """

    __slots__ = ("mass", "sum_y0", "sum_y1")

    def __init__(self, data: Union[Panel, JointDistribution], counts=None):
        if isinstance(data, Panel):
            d0, d1, y0, y1 = data.d0, data.d1, data.y0, data.y1
            w = None
        elif isinstance(data, JointDistribution):
            arr = data.arrays()
            d0, d1 = arr["d0"], arr["d1"]
            if counts is None:
                w = arr["prob"] / np.sum(arr["prob"])
            else:
                w = np.asarray(counts, dtype=np.float64)
            # an overflowing product is inf or nan, which the estimators
            # report as non-finite: numpy's warning about it would be noise
            with np.errstate(over="ignore", invalid="ignore"):
                y0, y1 = w * arr["y0"], w * arr["y1"]
        else:
            raise TypeError(f"estimators take a Panel or JointDistribution, got {type(data).__name__}")
        cell = (2 * d0 + d1).astype(np.intp)
        mass = np.bincount(cell, weights=w, minlength=4)
        # count sums are integers below 2**53, so exact in float64
        self.mass = (mass if counts is None else mass.astype(np.int64)).tolist()
        self.sum_y0 = np.bincount(cell, weights=y0, minlength=4).tolist()
        self.sum_y1 = np.bincount(cell, weights=y1, minlength=4).tolist()

    @staticmethod
    def of(data: Data) -> "ObservedCells":
        return data if isinstance(data, ObservedCells) else ObservedCells(data)

    def means(self, cell: int, label: str) -> tuple[float, float]:
        """(E[Y0 | cell], E[Y1 | cell]); label names the cell in the error."""
        m = self.mass[cell]
        if m <= 0:
            raise LabError("empty-cell", f"{label} has no mass")
        return self.sum_y0[cell] / m, self.sum_y1[cell] / m

    def n_cells(self) -> dict:
        # counts for panels, probability mass for exact plug-ins
        return {"01": self.mass[1], "00": self.mass[0]}


Data = Union[Panel, JointDistribution, ObservedCells]


def _require_sharp(cells: ObservedCells) -> None:
    if cells.mass[2] + cells.mass[3] > 0:
        raise LabError("not-sharp-design", "period-0 treated units present; this estimator assumes a sharp design")


def did_sharp(data: Data) -> EstimateReport:
    """Change-on-change contrast across period-1 arms, valid under parallel
    trends in a sharp design."""
    cells = ObservedCells.of(data)
    _require_sharp(cells)
    t0, t1 = cells.means(1, "cell (0,1)")
    n0, n1 = cells.means(0, "cell (0,0)")
    return EstimateReport(
        estimator_id="did_sharp",
        value=(t1 - t0) - (n1 - n0),
        assumptions=("sharp-design", "parallel-trends"),
        n_cells=cells.n_cells(),
    )


def did_switchers(data: Data) -> EstimateReport:
    """Change-on-change contrast of switchers into treatment against the
    never treated; unbiased when those two groups share the untreated
    trend."""
    cells = ObservedCells.of(data)
    s0, s1 = cells.means(1, "switcher cell (0,1)")
    n0, n1 = cells.means(0, "never-treated cell (0,0)")
    return EstimateReport(
        estimator_id="did_switchers",
        value=(s1 - s0) - (n1 - n0),
        assumptions=("pt-switchers-vs-never-treated",),
        n_cells=cells.n_cells(),
    )


def att_stationary(data: Data) -> EstimateReport:
    """(E[Y1] - E[Y0]) / P(D1=1): identifies the switcher treatment effect in
    a sharp design when the untreated mean is stable over time, with no
    restriction on who selects into treatment.

    In a sharp design the period-1 treated are cell (0,1), so the ratio is
    the whole-sample change in outcome sums over that cell's mass."""
    cells = ObservedCells.of(data)
    _require_sharp(cells)
    if cells.mass[1] <= 0:
        raise LabError("no-treated", "no period-1 treated mass")
    return EstimateReport(
        estimator_id="att_stationary",
        value=(sum(cells.sum_y1) - sum(cells.sum_y0)) / cells.mass[1],
        assumptions=("sharp-design", "mean-stationarity"),
        n_cells=cells.n_cells(),
    )


def att_forward_stationary(data: Data) -> EstimateReport:
    """att_stationary run inside the period-0 untreated stratum, so it also
    covers fuzzy designs; needs the untreated mean stable within that
    stratum.  The stratum is cells (0,0) and (0,1), its switchers are cell
    (0,1)."""
    cells = ObservedCells.of(data)
    if cells.mass[0] + cells.mass[1] <= 0:
        raise LabError("empty-stratum", "no period-0 untreated mass")
    if cells.mass[1] <= 0:
        raise LabError("no-switchers", "nobody switches into treatment from the period-0 untreated stratum")
    change = (cells.sum_y1[0] + cells.sum_y1[1]) - (cells.sum_y0[0] + cells.sum_y0[1])
    return EstimateReport(
        estimator_id="att_forward_stationary",
        value=change / cells.mass[1],
        assumptions=("forward-mean-stationarity",),
        n_cells=cells.n_cells(),
    )


def mts_bounds(data: Data) -> EstimateReport:
    """Interval for the switcher treatment effect under monotone selection:
    switchers are drawn from weakly worse untreated levels (lower end) and
    weakly better untreated trends (upper end) than the never treated.

    The upper end is the same change-on-change contrast did_switchers
    reports; it is recomputed here from the cell moments rather than by
    calling that estimator, so the two stay independent checks of one
    identity."""
    cells = ObservedCells.of(data)
    s0, s1 = cells.means(1, "switcher cell (0,1)")
    n0, n1 = cells.means(0, "never-treated cell (0,0)")
    return EstimateReport(
        estimator_id="mts_bounds",
        value=BoundsInterval(lower=s1 - n1, upper=(s1 - s0) - (n1 - n0)),
        assumptions=("monotone-selection-level", "monotone-selection-trend"),
        n_cells=cells.n_cells(),
    )


ESTIMATORS = {
    "did_sharp": did_sharp,
    "did_switchers": did_switchers,
    "att_stationary": att_stationary,
    "att_forward_stationary": att_forward_stationary,
    "mts_bounds": mts_bounds,
}

ALL_ESTIMATORS = tuple(ESTIMATORS)


def run_estimator(estimator_id: str, data: Data) -> EstimateReport:
    try:
        fn = ESTIMATORS[estimator_id]
    except KeyError:
        raise LabError("schema-error", f"unknown estimator id {estimator_id!r}") from None
    return fn(data)
