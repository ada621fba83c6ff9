"""Independent reference implementations used to cross-check the library.

Everything here is written with plain dict/loops on the joint's atoms, on
purpose: these must not share code paths (or numpy reductions) with the
oracle module they check.  brute_joint enumerates a scenario's latent grid
point by point, apart from the library's per-type numpy blocks.  The
exceptions are the old implementations kept as bit references
(brute_read_panel and the masked_* cell sums at the end).
"""

from bisect import bisect_right
from collections import defaultdict
from itertools import product

import numpy as np

from didlab._rng import uniform_at
from didlab.core import CELLS, CellStats, LatentState, Panel, PotentialOutcomes
from didlab.errors import LabError
from didlab.harness import PANEL_HEADER, PANEL_HEADER_LATENT


def brute_cells(joint):
    """Cell probabilities, untreated-trend means, and untreated level means,
    accumulated atom by atom."""
    mass = defaultdict(float)
    trend = defaultdict(float)
    lvl0 = defaultdict(float)
    lvl1 = defaultdict(float)
    total = 0.0
    for atom in joint.atoms:
        cell = (atom.treat.d0, atom.treat.d1)
        p = atom.prob
        total += p
        mass[cell] += p
        flat = atom.state.po.flat
        trend[cell] += p * (flat[2] - flat[0])
        lvl0[cell] += p * flat[0]
        lvl1[cell] += p * flat[2]
    out = {}
    for cell, m in mass.items():
        out[cell] = {
            "prob": m / total,
            "trend_mean": trend[cell] / m,
            "level_y0": lvl0[cell] / m,
            "level_y1": lvl1[cell] / m,
        }
    return out


def brute_pt_deviation(joint):
    cells = brute_cells(joint)
    trends = [st["trend_mean"] for st in cells.values()]
    return max(trends) - min(trends)


def brute_att_switchers(joint):
    num = 0.0
    den = 0.0
    for atom in joint.atoms:
        if atom.treat.d0 == 0 and atom.treat.d1 == 1:
            flat = atom.state.po.flat
            num += atom.prob * (flat[3] - flat[2])
            den += atom.prob
    return num / den


def brute_posterior(prior, observation):
    """Posterior mean of a Bernoulli parameter after one draw, by Bayes rule
    on the prior atoms; falls back to the prior mean if the observation has
    zero probability."""
    num = 0.0
    den = 0.0
    for theta, w in prior:
        like = theta if observation == 1 else 1.0 - theta
        num += w * like * theta
        den += w * like
    if den == 0.0:
        return sum(w * theta for theta, w in prior)
    return num / den


def brute_stopping_residual(joint):
    """The stopping-selection residual recomputed purely from the joint:
    E[dY(0); stay-unstopped cell] minus the overall untreated trend times
    that cell's mass.  Matches the per-type enumeration when it is zero and
    when it is not."""
    total = 0.0
    stay = 0.0
    stay_mass = 0.0
    norm = 0.0
    for atom in joint.atoms:
        flat = atom.state.po.flat
        d = flat[2] - flat[0]
        total += atom.prob * d
        norm += atom.prob
        if atom.treat.d0 == 0 and atom.treat.d1 == 0:
            stay += atom.prob * d
            stay_mass += atom.prob
    tau = total / norm
    return stay / norm - tau * (stay_mass / norm)


def brute_entering_trend_reconstruction(joint):
    """Rebuild the entering cell's untreated trend from the other three
    cells' trends and the transition shares, returning (reconstructed,
    actual)."""
    cells = brute_cells(joint)
    p_d0 = {0: 0.0, 1: 0.0}
    for (d0, d1), st in cells.items():
        p_d0[d0] += st["prob"]
    p_enter = cells.get((0, 1), {"prob": 0.0})["prob"] / p_d0[0]

    def share(d0, d1):
        st = cells.get((d0, d1))
        return 0.0 if st is None else st["prob"] / p_d0[d0]

    def trend(d0, d1):
        st = cells.get((d0, d1))
        return 0.0 if st is None else st["trend_mean"]

    reconstructed = (
        share(1, 1) * trend(1, 1) + share(1, 0) * trend(1, 0) - share(0, 0) * trend(0, 0)
    ) / p_enter
    return reconstructed, trend(0, 1)


class _Undefined(Exception):
    def __init__(self, code):
        self.code = code


def brute_estimates(panel):
    """Every estimator on a panel, recomputed row by row from its
    definition: est_id -> (value, n_cells), where value is a float, a
    (lower, upper) pair, or the code of the error the estimator must raise,
    and n_cells is None on error."""
    rows = [
        (int(panel.d0[i]), int(panel.d1[i]), float(panel.y0[i]), float(panel.y1[i]))
        for i in range(panel.n)
    ]

    def count(keep):
        k = 0
        for row in rows:
            if keep(row):
                k += 1
        return k

    def mean(stat, keep, code="empty-cell"):
        total = 0.0
        k = 0
        for row in rows:
            if keep(row):
                total += stat(row)
                k += 1
        if k == 0:
            raise _Undefined(code)
        return total / k

    def y0(row):
        return row[2]

    def y1(row):
        return row[3]

    def dy(row):
        return row[3] - row[2]

    def everyone(row):
        return True

    def switcher(row):
        return row[0] == 0 and row[1] == 1

    def never(row):
        return row[0] == 0 and row[1] == 0

    def stratum(row):
        return row[0] == 0

    def sharp():
        if count(lambda row: row[0] == 1) > 0:
            raise _Undefined("not-sharp-design")

    def cells(treated, untreated):
        return {"01": count(treated), "00": count(untreated)}

    def did_sharp():
        sharp()
        treated = lambda row: row[1] == 1
        untreated = lambda row: row[1] == 0
        return mean(dy, treated) - mean(dy, untreated), cells(treated, untreated)

    def did_switchers():
        return mean(dy, switcher) - mean(dy, never), cells(switcher, never)

    def att_stationary():
        sharp()
        p_treated = count(lambda row: row[1] == 1) / len(rows)
        if p_treated == 0.0:
            raise _Undefined("no-treated")
        value = (mean(y1, everyone) - mean(y0, everyone)) / p_treated
        return value, cells(lambda row: row[1] == 1, lambda row: row[1] == 0)

    def att_forward_stationary():
        if count(stratum) == 0:
            raise _Undefined("empty-stratum")
        p_switch = count(switcher) / count(stratum)
        if p_switch == 0.0:
            raise _Undefined("no-switchers")
        value = (mean(y1, stratum) - mean(y0, stratum)) / p_switch
        return value, cells(switcher, never)

    def mts_bounds():
        upper = mean(dy, switcher) - mean(dy, never)
        lower = mean(y1, switcher) - mean(y1, never)
        return (lower, upper), cells(switcher, never)

    out = {}
    for fn in (did_sharp, did_switchers, att_stationary, att_forward_stationary, mts_bounds):
        try:
            out[fn.__name__] = fn()
        except _Undefined as undefined:
            out[fn.__name__] = (undefined.code, None)
    return out


def _bern(y, p):
    return p if y == 1 else 1.0 - p


def _grid_points(config):
    """Every latent grid point as (type, (y00, y01, y10, y11), probability),
    one Python product at a time, in the canonical order: type, then latent
    grid index, then outcome tuple."""
    sid = config.scenario_id
    if sid == "past_outcome_selection":
        for y00, y01, y10, y11 in product((0, 1), repeat=4):
            p = (
                _bern(y00, config.p_y00)
                * config.trans_ctrl[y00][y10]
                * _bern(y01, config.mean_y_treated[0])
                * _bern(y11, config.mean_y_treated[1])
            )
            yield 0, (y00, y01, y10, y11), p
    elif sid == "no_learning":
        for i, ty in enumerate(config.types):
            for po in product((0, 1), repeat=4):
                p = ty.prob
                for (t, d), y in zip(((0, 0), (0, 1), (1, 0), (1, 1)), po):
                    p *= _bern(y, ty.mu[t][d])
                yield i, po, p
    elif sid == "treated_arm_learning":
        for i, ty in enumerate(config.types):
            for theta, w in ty.prior:
                for y00, y01, y10, y11 in product((0, 1), repeat=4):
                    p = (
                        ty.prob
                        * w
                        * _bern(y00, ty.mu_ctrl[0])
                        * _bern(y01, theta)
                        * _bern(y10, ty.mu_ctrl[1])
                        * _bern(y11, theta)
                    )
                    yield i, (y00, y01, y10, y11), p
    elif sid == "control_arm_learning":
        for i, ty in enumerate(config.types):
            for theta, w in ty.prior:
                for y00, y10, y11 in product((0, 1), repeat=3):
                    p = ty.prob * w * _bern(y00, theta) * _bern(y10, theta) * _bern(y11, ty.mu_treat1)
                    yield i, (y00, 0, y10, y11), p
    elif sid in ("roy_repeated", "roy_irreversible"):
        for po, p in config.pmf:
            yield 0, po, p
    elif sid == "optimal_stopping":
        for i, ty in enumerate(config.types):
            for (y0, y1), p in ty.pmf:
                yield i, (y0, 0, y1, 0), ty.prob * p
    else:
        raise ValueError(f"no reference grid for {sid!r}")


def brute_joint(config):
    """The joint's columns by point-by-point enumeration: the scalar decision
    rule on every grid point of nonzero probability, no memo.  Keys are those
    of JointDistribution.arrays() plus u0_type.  The renormalizing total is
    np.sum's, as in the library, because callers compare bytes."""
    rows = []
    for u, po, p in _grid_points(config):
        if p == 0.0:
            continue
        tr = config.decide(LatentState(u, PotentialOutcomes.of(*po))).realized()
        flat = tuple(float(y) for y in po)
        rows.append((u, flat, tr.d0, tr.d1, flat[tr.d0], flat[2 + tr.d1], p))
    prob = np.array([r[6] for r in rows], dtype=np.float64)
    total = float(np.sum(prob))
    if total != 1.0:
        prob = prob / total
    out = {
        "u0_type": np.array([r[0] for r in rows], dtype=np.int64),
        "prob": prob,
        "d0": np.array([r[2] for r in rows], dtype=np.int8),
        "d1": np.array([r[3] for r in rows], dtype=np.int8),
        "y0": np.array([r[4] for r in rows], dtype=np.float64),
        "y1": np.array([r[5] for r in rows], dtype=np.float64),
    }
    for j, name in enumerate(("y00", "y01", "y10", "y11")):
        out[name] = np.array([r[1][j] for r in rows], dtype=np.float64)
    return out


def brute_counts(joint, n, seed):
    """Draws per atom among the n draws of stream seed, one draw at a time:
    the first atom whose running-sum cdf exceeds the draw, or the last atom
    when none does.  Shares no code with AtomSampler."""
    cdf = []
    total = 0.0
    for p in joint.prob.tolist():
        total += p
        cdf.append(total)
    counts = [0] * len(cdf)
    for i in range(n):
        counts[min(bisect_right(cdf, uniform_at(seed, i)), len(cdf) - 1)] += 1
    return counts


def brute_read_panel(path):
    """read_panel_csv as it was before its one-pass parse: every row through
    float(), line by line.  Kept verbatim as the reference the reader must
    match, value for value and error for error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise LabError("io-error", f"cannot read panel: {e}", str(path)) from None
    except UnicodeDecodeError as e:
        raise LabError("parse-error", f"panel is not valid UTF-8: {e}", str(path)) from None
    if not lines:
        raise LabError("parse-error", "panel file is empty", str(path))
    header = tuple(lines[0].split(","))
    if header == PANEL_HEADER:
        latent = False
    elif header == PANEL_HEADER_LATENT:
        latent = True
    else:
        raise LabError(
            "schema-error",
            f"unexpected panel header {lines[0]!r}; want {','.join(PANEL_HEADER)} or the latent variant",
            str(path),
        )
    width = len(header)
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise LabError("parse-error", f"line {i}: expected {width} fields, got {len(parts)}", str(path))
        try:
            rows.append([float(p) for p in parts])
        except ValueError as e:
            raise LabError("parse-error", f"line {i}: {e}", str(path)) from None
    if not rows:
        raise LabError("parse-error", "panel has a header but no rows", str(path))
    mat = np.asarray(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        line = [i for i, text in enumerate(lines[1:], start=2) if text][bad[0]]
        raise LabError("parse-error", f"line {line}: non-finite value", str(path))
    # checked on the float columns: casting a value outside int8 first would warn
    if not (np.all((mat[:, 1] == 0) | (mat[:, 1] == 1)) and np.all((mat[:, 2] == 0) | (mat[:, 2] == 1))):
        raise LabError("schema-error", "d0/d1 columns must be 0 or 1", str(path))
    po = mat[:, 5:9] if latent else None
    return Panel(d0=mat[:, 1].astype(np.int8), d1=mat[:, 2].astype(np.int8), y0=mat[:, 3], y1=mat[:, 4], po=po)


# The oracle's per-cell sums as they were before the one-sort grouping: one
# masked pass per cell.  Unlike the references above, these share np.sum's
# pairwise reduction with the library on purpose: they are the bit
# references the grouped sums must match exactly, not to 1e-12.


def masked_cell_table(joint):
    """{(d0, d1): CellStats} of the joint's nonempty cells, one masked np.sum
    per cell and moment."""
    arr = joint.arrays()
    cells = {}
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
    return cells


def masked_att_switchers(joint):
    """E[Y1(1) - Y1(0) | D0 < D1] by one masked pass; LabError empty-event
    when no switcher has mass."""
    arr = joint.arrays()
    mask = arr["d0"] < arr["d1"]
    den = float(np.sum(arr["prob"][mask]))
    if den <= 0.0:
        raise LabError("empty-event", "no switchers into treatment")
    num = float(np.sum(arr["prob"][mask] * (arr["y11"][mask] - arr["y10"][mask])))
    return num / den


def masked_empirical_cell_table(panel):
    """{(d0, d1): CellStats} of a latent panel's nonempty cells: shares and
    np.mean over a mask of each cell."""
    n = panel.n
    y00 = panel.po[:, 0]
    y10 = panel.po[:, 2]
    cells = {}
    for d0, d1 in CELLS:
        mask = (panel.d0 == d0) & (panel.d1 == d1)
        count = int(np.sum(mask))
        if count == 0:
            continue
        cells[(d0, d1)] = CellStats(
            prob=count / n,
            trend_mean=float(np.mean(y10[mask] - y00[mask])),
            level_y0=float(np.mean(y00[mask])),
            level_y1=float(np.mean(y10[mask])),
        )
    return cells
