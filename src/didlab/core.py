"""Shared domain types for the two-period treatment-choice laboratory.

Everything here is immutable after construction and safe to share across
threads.  The probability objects (JointDistribution, CellTable) are exact
finite-support representations; panels are array-backed samples from them.

Index conventions used throughout:
  * periods t in {0, 1}, arms d in {0, 1};
  * potential outcomes po = (y00, y01, y10, y11), ytd at period t under arm d;
  * treatment cells are the four realized sequences (d0, d1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import LabError

#: tolerance for claims that are exact up to double rounding
EXACT_TOL = 1e-12
#: tolerance used when validating user-supplied pmfs
PMF_TOL = 1e-9
#: decision statistics closer to the threshold than this get a knife-edge warning
KNIFE_EDGE_MARGIN = 1e-6

CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class CostTable:
    """Treatment costs: k0[d0] in period 0, k1[d0][d1] in period 1."""

    k0: tuple[float, float] = (0.0, 0.0)
    k1: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 0.0), (0.0, 0.0))


class JointDistribution:
    """Exact finite-support pmf over (latent state, decisions, realized
    outcomes), stored as columns with one row per atom.

    po holds the (k, 4) potential outcomes [y00, y01, y10, y11] and d0/d1 the
    binary treatment path; the realized outcomes are the potential outcomes
    of the chosen arms, y0 = po[d0] and y1 = po[2 + d1].  Treat the columns
    as read-only.
    """

    def __init__(self, u0_type, po, d0, d1, prob, scenario_id: str = ""):
        self.u0_type = np.asarray(u0_type, dtype=np.int64)
        self.po = np.asarray(po, dtype=np.float64).reshape(-1, 4)
        self.d0 = np.asarray(d0, dtype=np.int8)
        self.d1 = np.asarray(d1, dtype=np.int8)
        self.prob = np.asarray(prob, dtype=np.float64)
        k = len(self.prob)
        if not (len(self.u0_type) == len(self.po) == len(self.d0) == len(self.d1) == k):
            raise ValueError("joint columns have unequal lengths")
        if ((self.d0 | self.d1) & ~1).any():
            raise ValueError("joint treatment columns must be 0 or 1")
        self.y0 = np.where(self.d0 == 1, self.po[:, 1], self.po[:, 0])
        self.y1 = np.where(self.d1 == 1, self.po[:, 3], self.po[:, 2])
        self.scenario_id = scenario_id

    def total_mass(self) -> float:
        return float(np.sum(self.prob))

    def check(self) -> None:
        if (self.prob < 0).any():
            raise ValueError("negative atom probability")
        mass = self.total_mass()
        if not abs(mass - 1.0) <= EXACT_TOL:
            raise ValueError(f"joint mass {mass!r} differs from 1 by more than {EXACT_TOL}")

    def arrays(self) -> dict[str, np.ndarray]:
        """The columns by name; treat as read-only."""
        return {
            "prob": self.prob,
            "d0": self.d0,
            "d1": self.d1,
            "y0": self.y0,
            "y1": self.y1,
            "y00": self.po[:, 0],
            "y01": self.po[:, 1],
            "y10": self.po[:, 2],
            "y11": self.po[:, 3],
        }

    def __len__(self) -> int:
        return len(self.prob)


class Panel:
    """Array-backed sample of observed records, optionally with latent outcomes.

    d0/d1/y0/y1 are the observed columns, d0/d1 binary.  When drawn from a
    joint, po holds the (n, 4) latent potential-outcome matrix
    [y00, y01, y10, y11] and atom_index maps each row back to the generating
    atom.
    """

    def __init__(
        self,
        d0: np.ndarray,
        d1: np.ndarray,
        y0: np.ndarray,
        y1: np.ndarray,
        po: Optional[np.ndarray] = None,
        atom_index: Optional[np.ndarray] = None,
    ):
        self.d0 = np.asarray(d0, dtype=np.int8)
        self.d1 = np.asarray(d1, dtype=np.int8)
        self.y0 = np.asarray(y0, dtype=np.float64)
        self.y1 = np.asarray(y1, dtype=np.float64)
        n = len(self.d0)
        if not (len(self.d1) == len(self.y0) == len(self.y1) == n):
            raise ValueError("panel columns have unequal lengths")
        if ((self.d0 | self.d1) & ~1).any():
            raise ValueError("panel treatment columns must be 0 or 1")
        if po is not None:
            po = np.asarray(po, dtype=np.float64)
            if po.shape != (n, 4):
                raise ValueError(f"latent matrix must be (n, 4), got {po.shape}")
        self.po = po
        self.atom_index = atom_index

    @property
    def n(self) -> int:
        return len(self.d0)

    @property
    def has_latent(self) -> bool:
        return self.po is not None


@dataclass(frozen=True)
class CellStats:
    prob: float
    trend_mean: float  # mean of Y1(0) - Y0(0) within the cell
    level_y0: float    # mean of Y0(0) within the cell
    level_y1: float    # mean of Y1(0) within the cell


class CellTable:
    """Per-treatment-sequence probabilities and untreated-outcome summaries.

    Only cells with positive probability are stored; probabilities sum to 1.
    source records how the table was computed: "oracle" (exact, from a joint)
    or "empirical-latent" (sample means from a drawn panel).
    """

    def __init__(self, cells: dict[tuple[int, int], CellStats], source: str = "oracle"):
        self.cells = dict(cells)
        self.source = source
        total = sum(c.prob for c in self.cells.values())
        if not abs(total - 1.0) <= EXACT_TOL:
            raise ValueError(f"cell probabilities sum to {total!r}, not 1")

    def prob(self, d0: int, d1: int) -> float:
        c = self.cells.get((d0, d1))
        return c.prob if c else 0.0

    def to_json(self) -> dict:
        out = {}
        for (d0, d1), st in sorted(self.cells.items()):
            out[f"{d0}{d1}"] = {
                "prob": st.prob,
                "trend_mean": st.trend_mean,
                "level_y0": st.level_y0,
                "level_y1": st.level_y1,
            }
        return out


def _cell_table(masses, sums, total, source: str) -> CellTable:
    """The CellTable of the paths c = 2*d0 + d1 with masses[c] > 0, each with
    share masses[c] / total and means sums[c] / masses[c] of the trend, y00 and
    y10: p-sums over total 1 for the oracle, unit counts over n for a panel."""
    cells = {
        cell: CellStats(mass / total, *(s / mass for s in path_sums))
        for cell, mass, path_sums in zip(CELLS, masses, sums)
        if mass > 0
    }
    return CellTable(cells, source)


class _CellMoments:
    """counts[c], the number of rows on treatment path c = 2*d0 + d1, and
    sums[c], each column's sum over those rows (None when there are none).
    A stable sort keeps each path's rows in row order, and each sum reduces a
    contiguous row of a C-ordered table pairwise: the bits of np.sum over a
    mask of the path.  (A row-strided table would sum sequentially.)"""

    __slots__ = ("counts", "sums")

    def __init__(self, d0: np.ndarray, d1: np.ndarray, columns):
        cell = 2 * d0 + d1
        self.counts = np.bincount(cell, minlength=4).tolist()
        table = np.array(columns).take(np.argsort(cell, kind="stable"), axis=1)  # stays C-ordered
        ends = np.cumsum(self.counts).tolist()
        self.sums = [
            np.add.reduce(table[:, e - c : e], axis=1).tolist() if c else None for c, e in zip(self.counts, ends)
        ]


def _check_finite(obj: dict, what: str = "an exact population quantity") -> None:
    """Raise non-finite, calling the value what, at the JSON pointer of the
    first non-finite float in obj's nested dicts, in insertion order."""
    bad = _first_non_finite(obj)
    if bad is not None:
        raise LabError("non-finite", f"{what} overflows the float range", bad)


def _first_non_finite(obj: dict, path: str = "") -> Optional[str]:
    for key, value in obj.items():
        if isinstance(value, dict):
            bad = _first_non_finite(value, f"{path}/{key}")
            if bad is not None:
                return bad
        elif isinstance(value, float) and not math.isfinite(value):
            return f"{path}/{key}"
    return None


@dataclass(frozen=True)
class BoundsInterval:
    lower: float
    upper: float


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    values: tuple = ()


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, message: str, *values) -> None:
        self.violations.append(Violation(rule, message, tuple(values)))

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def copy(self) -> "ValidationReport":
        """A report with the same entries whose lists are its own."""
        return ValidationReport(list(self.violations), list(self.warnings))

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"rule": v.rule, "message": v.message, "values": list(v.values)}
                for v in self.violations
            ],
            "warnings": list(self.warnings),
        }


def validate_scenario(config) -> ValidationReport:
    """Structural and semantic checks for a scenario config.

    All failures are reported in the ValidationReport; nothing raises.  The
    checks are pure and a config is frozen, so a scenario config's report is
    computed once per config object, on the first call, and every call
    returns a copy of it: a caller may edit its report without changing the
    next one.
    """
    report = getattr(config, "_validation", None)
    if report is None:
        report = ValidationReport()
        report.add("not-a-scenario", f"object of type {type(config).__name__} is not a scenario config")
        return report
    return report.copy()
