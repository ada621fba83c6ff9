"""Experiment orchestration: replicated draws, estimator aggregation, and the
deterministic file outputs.

Every estimator is a function of the observed cell table, and a draw's table
is a function of how many units landed on each atom.  So replications run
serially on atom counts, and no replication builds a Panel.  Replication 0
counts its n draws in fixed-size chunks, and panel.csv streams those draws
from the sampler chunk by chunk.  Replications 1 and later of a joint with
atoms * CHAIN_UNITS_PER_ATOM <= n draw their counts as one multinomial
(AtomSampler.multinomial), in O(atoms) whatever n; the others count their
draws too.  Each estimator's outcome in each replication is held once, in
SummaryReport.outcomes, which the aggregates, SummaryReport.rows and the
line-by-line estimates.csv writer all read.  The aggregates are computed on
series scaled by a power of two (_series), and one past the float range
raises non-finite.  Neither the counts nor the outcomes depend on the chunk
size, so the report and every output file are byte-identical across reruns.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import _jsonio
from ._rng import derive_seed
from .core import BoundsInterval, CELLS, JointDistribution, Panel, _check_finite, validate_scenario
from .errors import LabError
from .estimators import ALL_ESTIMATORS, ESTIMATORS, ObservedCells
from .oracle import _check_conditions, _moments, _oracle_table, _true_att_switchers
from .scenarios import AtomSampler, ScenarioConfig, build_joint, scenario_from_json

__all__ = [
    "ExperimentConfig",
    "SummaryReport",
    "parse_config",
    "run_experiment",
    "write_outputs",
    "read_panel_csv",
]

DEFAULT_N = 10_000
DEFAULT_REPLICATIONS = 1
MAX_SEED = 2**64 - 1

# Units per atom from which replications >= 1 draw their counts by
# AtomSampler.multinomial rather than AtomSampler.counts.  The chain costs
# ~2-5 us per atom whatever n; counting costs ~6-10 ns per unit, more where
# many guide buckets are mixed.  On seven joints of 2 to 4,800 atoms, with n
# at 2^9 units per atom the chain took 0.33-0.67x counts' time, and 0.6-1.4x
# at 2^8 (2 cores, numpy 2.4, Python 3.11).
CHAIN_UNITS_PER_ATOM = 2**9

# Rows of a given panel formatted at a time, whose values are held as Python
# objects meanwhile: ~0.3 MB at 2^10 latent rows, ~5 MB at 2^14.
_SLICE_ROWS = 2**10

PANEL_HEADER = ("unit", "d0", "d1", "y0", "y1")
PANEL_HEADER_LATENT = PANEL_HEADER + ("y00", "y01", "y10", "y11")
# a panel.csv row's "d0,d1," text, indexed by 2 * d0 + d1
_PATH_PREFIX = ("0,0,", "0,1,", "1,0,", "1,1,")


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    n: int = DEFAULT_N
    replications: int = DEFAULT_REPLICATIONS
    seed: int = 0
    estimators: tuple[str, ...] = ALL_ESTIMATORS
    outputs: Optional[str] = None
    emit_latent: bool = False


_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))

# Bounds of the integer settings, for a config file and the CLI's overrides
# alike: run_experiment keeps O(replications) lists, and n bounds a panel.
_INT_SETTINGS = {"n": (1, 10**9), "replications": (1, 10**6), "seed": (0, MAX_SEED)}


def check_int_setting(key: str, obj, path: str) -> int:
    """obj as the value of the integer setting key, or a schema-error at path."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise LabError("schema-error", "expected an integer", path)
    lo, hi = _INT_SETTINGS[key]
    if not (lo <= obj <= hi):
        raise LabError("schema-error", f"value {obj} outside [{lo}, {hi}]", path)
    return obj


def parse_config(text: Union[bytes, str]) -> ExperimentConfig:
    """Parse an experiment config, or a bare scenario config wrapped with the
    default experiment settings.  The two are told apart by the "scenario"
    entry: a string tag means the document is the scenario itself."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise LabError("parse-error", f"config is not valid UTF-8: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise LabError("parse-error", f"{e.msg} at line {e.lineno}, column {e.colno}") from None
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise LabError("parse-error", str(e)) from None
    if not isinstance(obj, dict):
        raise LabError("schema-error", "top-level config must be a JSON object")
    tag = obj.get("scenario")
    if tag is None:
        raise LabError("schema-error", "missing key 'scenario'", "/scenario")
    if isinstance(tag, str):
        return ExperimentConfig(scenario=scenario_from_json(obj))
    if not isinstance(tag, dict):
        raise LabError("schema-error", "'scenario' must be a scenario object or tag string", "/scenario")

    for key in obj:
        if key not in _CONFIG_KEYS:
            raise LabError("schema-error", f"unknown key {key!r}", f"/{key}")
    cfg = ExperimentConfig(scenario=scenario_from_json(tag, path="/scenario"))
    for key in _INT_SETTINGS:
        if key in obj:
            setattr(cfg, key, check_int_setting(key, obj[key], f"/{key}"))
    if "estimators" in obj:
        ests = obj["estimators"]
        if not isinstance(ests, list) or not ests:
            raise LabError("schema-error", "'estimators' must be a nonempty array of ids", "/estimators")
        for i, e in enumerate(ests):
            if not isinstance(e, str) or e not in ESTIMATORS:
                raise LabError("schema-error", f"unknown estimator id {e!r}", f"/estimators/{i}")
            if e in ests[:i]:
                raise LabError("schema-error", f"estimator id {e!r} is repeated", f"/estimators/{i}")
        cfg.estimators = tuple(ests)
    if "outputs" in obj:
        if not isinstance(obj["outputs"], str):
            raise LabError("schema-error", "'outputs' must be a directory path string", "/outputs")
        cfg.outputs = obj["outputs"]
    if "emit_latent" in obj:
        if not isinstance(obj["emit_latent"], bool):
            raise LabError("schema-error", "'emit_latent' must be a boolean", "/emit_latent")
        cfg.emit_latent = obj["emit_latent"]
    return cfg


@dataclass
class SummaryReport:
    """Aggregated experiment results plus the exact oracle block.

    outcomes maps each estimator id to its outcome in every replication, in
    order: the value (a float or a BoundsInterval) or the LabError code.
    sampler is the sampler the replications drew from, which panel.csv
    replays.  Neither is part of the JSON summary.
    """

    scenario_id: str
    n: int
    replications: int
    seed: int
    emit_latent: bool
    oracle: dict
    estimators: dict
    outcomes: dict = field(repr=False, default_factory=dict)
    sampler: Optional[AtomSampler] = field(repr=False, compare=False, default=None)

    @property
    def rows(self) -> list:
        """estimates.csv's (replication, estimator_id, value, lower, upper)
        rows: one per estimate that did not fail, in replication order."""
        return list(self._rows())

    def _rows(self):
        for r, results in enumerate(zip(*self.outcomes.values())):
            for est_id, value in zip(self.outcomes, results):
                if isinstance(value, BoundsInterval):
                    yield r, est_id, None, value.lower, value.upper
                elif not isinstance(value, str):
                    yield r, est_id, value, None, None

    def to_json(self) -> dict:
        keys = ("scenario_id", "n", "replications", "seed", "emit_latent", "oracle", "estimators")
        return {key: getattr(self, key) for key in keys}


def oracle_block(config: ScenarioConfig, estimator_ids=ALL_ESTIMATORS) -> dict:
    """Exact population quantities for a validated config: cell table,
    parallel-trends deviation, condition report, true switcher effect, and
    each estimator's plug-in value on the joint."""
    return _oracle_block(config, build_joint(config), estimator_ids)


def _oracle_block(config: ScenarioConfig, joint: JointDistribution, estimator_ids) -> dict:
    # overflowing outcomes give inf or nan sums, which the check at the end
    # names by their pointer: numpy's warnings about them would be noise
    with np.errstate(over="ignore", invalid="ignore"):
        moments = _moments(joint)
        table = _oracle_table(moments)
        cells = ObservedCells(joint)
        conditions = _check_conditions(config, joint, table, cells)
    block: dict = {
        "scenario_id": config.scenario_id,
        "cells": table.to_json(),
        "pt_deviation": conditions.pt_deviation,
        "conditions": conditions.to_json(),
    }
    try:
        block["true_att_switchers"] = _true_att_switchers(moments)
    except LabError as e:
        block["true_att_switchers"] = None
        block["true_att_switchers_error"] = e.code
    plugin: dict = {}
    for est_id in estimator_ids:
        try:
            rpt = ESTIMATORS[est_id](cells)
        except LabError as e:
            plugin[est_id] = {"error": e.code}
            continue
        if isinstance(rpt.value, BoundsInterval):
            plugin[est_id] = {"lower": rpt.value.lower, "upper": rpt.value.upper}
        else:
            plugin[est_id] = rpt.value
    block["plugin"] = plugin
    _check_finite(block)
    return block


def _replicate(sampler: AtomSampler, cfg: ExperimentConfig, r: int) -> np.ndarray:
    """Replication r's atom counts.  Replication 0 counts its n draws, which
    panel.csv replays; later ones draw the counts' multinomial law directly
    where that is cheaper (CHAIN_UNITS_PER_ATOM)."""
    seed = derive_seed(cfg.seed, r)
    if r and len(sampler.joint) * CHAIN_UNITS_PER_ATOM <= cfg.n:
        return sampler.multinomial(cfg.n, seed)
    return sampler.counts(cfg.n, seed)


def _unit_scale(largest: float) -> float:
    """The power of two, at most 2^1022 so that it is finite, that brings
    |largest| into [0.5, 1) or below.  Scaling by it is exact in binary
    floating point, and afterwards squares cannot overflow."""
    return math.ldexp(1.0, -max(math.frexp(float(largest))[1], -1022))


def _series(x: np.ndarray, truth: Optional[float] = None) -> tuple:
    """(mean, sd, rmse) of the series x, the rmse about truth (None without
    one), all three from x scaled once by _unit_scale: no sum or square
    overflows on the way to a result in the float range."""
    s = _unit_scale(max(np.max(np.abs(x)), 0.0 if truth is None else abs(truth)))
    xs = x * s
    sd = float(np.std(xs, ddof=1)) / s if len(x) > 1 else 0.0
    rmse = None if truth is None else float(np.sqrt(np.mean((xs - truth * s) ** 2))) / s
    return float(np.mean(xs)) / s, sd, rmse


def _aggregate_scalar(values: list[float], truth: Optional[float]) -> dict:
    mean, sd, rmse = _series(np.asarray(values, dtype=np.float64), truth)
    bias = None if truth is None else mean - truth
    return {"n_ok": len(values), "mean": mean, "sd": sd, "bias": bias, "rmse": rmse}


def _aggregate_bounds(values: list[BoundsInterval], truth: Optional[float]) -> dict:
    lo = np.asarray([b.lower for b in values], dtype=np.float64)
    hi = np.asarray([b.upper for b in values], dtype=np.float64)
    (lower_mean, lower_sd, _), (upper_mean, upper_sd, _) = _series(lo), _series(hi)
    coverage = None if truth is None else float(np.mean((lo <= truth) & (truth <= hi)))
    return {
        "n_ok": len(values),
        "lower_mean": lower_mean,
        "upper_mean": upper_mean,
        "lower_sd": lower_sd,
        "upper_sd": upper_sd,
        "coverage": coverage,
    }


def run_experiment(cfg: ExperimentConfig) -> SummaryReport:
    report = validate_scenario(cfg.scenario)
    if not report.ok:
        raise LabError(
            "invalid-scenario",
            "scenario failed validation: " + "; ".join(v.message for v in report.violations),
        )
    joint = build_joint(cfg.scenario)
    oracle = _oracle_block(cfg.scenario, joint, cfg.estimators)
    truth = oracle.get("true_att_switchers")

    sampler = AtomSampler(joint)
    outcomes: dict[str, list] = {est_id: [] for est_id in cfg.estimators}
    for r in range(cfg.replications):
        cells = ObservedCells(joint, _replicate(sampler, cfg, r))
        for est_id, results in outcomes.items():
            try:
                results.append(ESTIMATORS[est_id](cells).value)
            except LabError as e:
                results.append(e.code)

    aggregates: dict = {}
    for est_id, results in outcomes.items():
        values, errors = [], {}
        for value in results:
            if isinstance(value, str):
                errors[value] = errors.get(value, 0) + 1
            else:
                values.append(value)
        if not values:
            agg: dict = {"n_ok": 0}
        elif isinstance(values[0], BoundsInterval):
            agg = _aggregate_bounds(values, truth)
        else:
            agg = _aggregate_scalar(values, truth)
        agg["errors"] = errors
        aggregates[est_id] = agg
    _check_finite({"estimators": aggregates}, "an aggregate over the replications")

    return SummaryReport(
        scenario_id=cfg.scenario.scenario_id,
        n=cfg.n,
        replications=cfg.replications,
        seed=cfg.seed,
        emit_latent=cfg.emit_latent,
        oracle=oracle,
        estimators=aggregates,
        outcomes=outcomes,
        sampler=sampler,
    )


def _fmt(x) -> str:
    return "" if x is None else _jsonio.format_float(float(x))


def _panel_header(emit_latent: bool) -> str:
    return ",".join(PANEL_HEADER_LATENT if emit_latent else PANEL_HEADER)


def _row_texts(cols, rows, emit_latent: bool) -> list:
    """The "d0,d1,y0,y1" text, with ",y00,y01,y10,y11" under emit_latent, of
    the given rows (indices or a slice) of cols, a JointDistribution or a
    Panel with 0/1 treatments: each one a panel.csv row without its unit id."""
    fmt = _jsonio.format_float
    paths = (2 * cols.d0[rows] + cols.d1[rows]).tolist()
    columns = [cols.y0[rows], cols.y1[rows], *(cols.po[rows].T if emit_latent else ())]
    return [_PATH_PREFIX[k] + ",".join(map(fmt, ys)) for k, *ys in zip(paths, *(c.tolist() for c in columns))]


def _panel_blocks(panel: Panel, emit_latent: bool):
    """Yield panel.csv's body for panel, without _check_panel: one
    newline-terminated block per _SLICE_ROWS rows."""
    for start in range(0, panel.n, _SLICE_ROWS):
        texts = enumerate(_row_texts(panel, slice(start, start + _SLICE_ROWS), emit_latent), start)
        yield "".join([f"{unit},{text}\n" for unit, text in texts])


def panel_csv_lines(panel: Panel, emit_latent: bool):
    """Yield panel.csv lines (no trailing newline), after _check_panel:
    latent columns need the panel to carry potential outcomes, the
    treatments must be 0 or 1, and every value written must be finite."""
    _check_panel(panel, emit_latent)
    yield _panel_header(emit_latent)
    for block in _panel_blocks(panel, emit_latent):
        yield from block.splitlines()


def _check_panel(panel: Panel, emit_latent: bool) -> None:
    """Raise latent-required if emit_latent asks for latent columns panel
    lacks, then schema-error at the first d0 or d1 outside {0, 1}, then
    non-finite at the first nan or inf among the floats panel.csv would hold
    (y0, y1, and the latent columns under emit_latent), each naming the unit
    and column: read_panel_csv rejects such a file."""
    if emit_latent and not panel.has_latent:
        raise LabError("latent-required", "panel has no latent columns to emit")
    bad = np.flatnonzero((panel.d0 | panel.d1) & ~1)
    if bad.size:
        unit, name = int(bad[0]), "d0" if panel.d0[bad[0]] & ~1 else "d1"
        raise LabError("schema-error", f"panel unit {unit}, column {name}: {getattr(panel, name)[unit]} is not 0 or 1")
    finite = np.isfinite(panel.y0) & np.isfinite(panel.y1)
    for col in panel.po.T if emit_latent else ():
        finite &= np.isfinite(col)
    if not finite.all():
        unit = int(np.argmin(finite))
        values = [panel.y0[unit], panel.y1[unit], *(panel.po[unit] if emit_latent else ())]
        name, value = next((name, float(v)) for name, v in zip(PANEL_HEADER_LATENT[3:], values) if not math.isfinite(v))
        raise LabError("non-finite", f"panel unit {unit}, column {name}: {value!r} is not a finite float")


def sampled_panel_csv(sampler: AtomSampler, n: int, seed: int, emit_latent: bool):
    """Yield the text of panel.csv for the n draws of stream seed, header
    first, then one newline-terminated block per sampler chunk.  The bytes
    equal those of panel_csv_lines(sampler.panel(n, seed), emit_latent), and
    memory stays O(COUNT_CHUNK + atoms drawn) at any n.

    A row is its unit id followed by text its atom fixes, so each drawn
    atom's text is formatted once, by _row_texts, when it is first drawn."""
    yield _panel_header(emit_latent) + "\n"
    texts: dict[int, str] = {}
    for start, idx in sampler.index_chunks(n, seed):
        idx = idx.tolist()
        new = list(set(idx).difference(texts))
        texts.update(zip(new, _row_texts(sampler.joint, new, emit_latent)))
        yield "".join([f"{unit},{texts[a]}\n" for unit, a in enumerate(idx, start)])


def write_outputs(report: SummaryReport, panels, out_dir) -> list:
    """Write summary.json, estimates.csv, oracle.csv, panel.csv into out_dir.

    panel.csv holds panels[0], written one block per _SLICE_ROWS rows, when
    panels is nonempty; otherwise it replays replication 0 from
    report.sampler, streamed chunk by chunk, and without a sampler it is not
    written.  All files are UTF-8 with LF endings and 17-significant-digit
    floats; identical reports produce byte-identical directories.  A panel
    that fails _check_panel (latent-required, schema-error or non-finite)
    raises before the directory is created."""
    if panels:
        _check_panel(panels[0], report.emit_latent)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise LabError("io-error", f"cannot create output directory: {e}", str(out)) from None
    written = []

    def _write_text(name: str, blocks):
        path = out / name
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(blocks)
        except OSError as e:
            raise LabError("io-error", f"cannot write {name}: {e}", str(path)) from None
        written.append(path)

    _write_text("summary.json", [_jsonio.dumps(report.to_json(), indent=2) + "\n"])

    est_lines = (f"{r},{est_id},{_fmt(v)},{_fmt(lo)},{_fmt(hi)}\n" for r, est_id, v, lo, hi in report._rows())
    _write_text("estimates.csv", chain(["replication,estimator_id,value,lower,upper\n"], est_lines))

    cells = report.oracle.get("cells", {})
    oracle_lines = ["d0,d1,prob,trend_mean,level_y0,level_y1"]
    for d0, d1 in CELLS:
        st = cells.get(f"{d0}{d1}", {"prob": 0.0})  # an absent cell: no mass, blank moments
        stats = [st.get(key) for key in ("prob", "trend_mean", "level_y0", "level_y1")]
        oracle_lines.append(f"{d0},{d1}," + ",".join(map(_fmt, stats)))
    _write_text("oracle.csv", ["\n".join(oracle_lines) + "\n"])

    if panels:
        blocks = _panel_blocks(panels[0], report.emit_latent)
        _write_text("panel.csv", chain([_panel_header(report.emit_latent) + "\n"], blocks))
    elif report.sampler is not None:
        seed = derive_seed(report.seed, 0)
        _write_text("panel.csv", sampled_panel_csv(report.sampler, report.n, seed, report.emit_latent))
    return written


def read_panel_csv(path) -> Panel:
    """Read a panel written in the panel.csv layout (5 or 9 columns).

    A plain body, as didlab writes it, is parsed in one np.loadtxt pass; any
    other body, and any plain one that pass does not read cleanly, goes to
    the line parser, which names the line of each error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as e:
        raise LabError("io-error", f"cannot read panel: {e}", str(path)) from None
    except UnicodeDecodeError as e:
        raise LabError("parse-error", f"panel is not valid UTF-8: {e}", str(path)) from None
    lines = text.splitlines()
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
    plain = _plain_body(text, lines[0])
    del text  # the lines hold the body from here on
    mat = _loadtxt_rows(lines, width) if plain else None
    if mat is None:
        mat = _line_rows(lines, width, path)
    # checked on the float columns: casting a value outside int8 first would warn
    if not (np.all((mat[:, 1] == 0) | (mat[:, 1] == 1)) and np.all((mat[:, 2] == 0) | (mat[:, 2] == 1))):
        raise LabError("schema-error", "d0/d1 columns must be 0 or 1", str(path))
    po = mat[:, 5:9] if latent else None
    return Panel(d0=mat[:, 1].astype(np.int8), d1=mat[:, 2].astype(np.int8), y0=mat[:, 3], y1=mat[:, 4], po=po)


# The bytes of a plain body.  Over these, np.loadtxt accepts a field exactly
# when float() does, with the same value; it also accepts some fields float()
# rejects, such as "\x1f1", which hold other bytes.
_PLAIN = b"0123456789.eE+-,\n"


def _plain_body(text: str, header: str) -> bool:
    """Whether the header line of text ends in a bare LF and everything after
    it is ASCII made of _PLAIN bytes alone."""
    start = len(header) + 1
    if text[start - 1 : start] != "\n":
        return False
    body = text[start:]
    return body.isascii() and not body.encode("ascii").translate(None, _PLAIN)


def _loadtxt_rows(lines: list, width: int) -> Optional[np.ndarray]:
    """The rows of a plain body, parsed in one pass, or None where the line
    parser must decide: the pass raises or warns, or its result has another
    width, no rows or a non-finite value."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            mat = np.loadtxt(lines[1:], delimiter=",", dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if mat.shape[0] == 0 or mat.shape[1] != width or not np.isfinite(mat).all():
        return None
    return mat


def _line_rows(lines: list, width: int, path) -> np.ndarray:
    """The body's rows parsed line by line with float(); raises the
    parse-error of the first bad line."""
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
    return mat
