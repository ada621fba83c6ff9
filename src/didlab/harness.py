"""Experiment orchestration: replicated draws, estimator aggregation, and the
deterministic file outputs.

Every estimator is a function of the observed cell table, and a draw's table
is a function of how many units landed on each atom.  So replications run
serially on atom counts, drawn in fixed-size chunks, and no replication builds
a Panel: panel.csv streams replication 0's draws from the sampler chunk by
chunk.  Neither the counts nor the rows depend on the chunk size, so the
report and every output file are byte-stable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import _jsonio
from ._rng import derive_seed
from .core import BoundsInterval, CELLS, JointDistribution, Panel, validate_scenario
from .errors import LabError
from .estimators import ALL_ESTIMATORS, ESTIMATORS, ObservedCells
from .oracle import _cell_table, _check_conditions, _moments, _true_att_switchers
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

PANEL_HEADER = ("unit", "d0", "d1", "y0", "y1")
PANEL_HEADER_LATENT = PANEL_HEADER + ("y00", "y01", "y10", "y11")


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    n: int = DEFAULT_N
    replications: int = DEFAULT_REPLICATIONS
    seed: int = 0
    estimators: tuple[str, ...] = ALL_ESTIMATORS
    outputs: Optional[str] = None
    emit_latent: bool = False


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

    known = {"scenario", "n", "replications", "seed", "estimators", "outputs", "emit_latent"}
    for key in obj:
        if key not in known:
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

    rows carries the per-replication estimates for estimates.csv and
    sampler the sampler the replications drew from, which panel.csv
    replays; neither is part of the JSON summary.
    """

    scenario_id: str
    n: int
    replications: int
    seed: int
    emit_latent: bool
    oracle: dict
    estimators: dict
    rows: list = field(repr=False, default_factory=list)
    sampler: Optional[AtomSampler] = field(repr=False, compare=False, default=None)

    def to_json(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "emit_latent": self.emit_latent,
            "oracle": self.oracle,
            "estimators": self.estimators,
        }


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
        table = _cell_table(moments)
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
    bad = _first_non_finite(block)
    if bad is not None:
        raise LabError("non-finite", "an exact population quantity overflows the float range", bad)
    return block


def _first_non_finite(obj: dict, path: str = "") -> Optional[str]:
    """The JSON pointer of the first non-finite float in the nested dicts
    obj, in insertion order, or None when every float in them is finite."""
    for key, value in obj.items():
        if isinstance(value, dict):
            bad = _first_non_finite(value, f"{path}/{key}")
            if bad is not None:
                return bad
        elif isinstance(value, float) and not math.isfinite(value):
            return f"{path}/{key}"
    return None


def _replicate(sampler: AtomSampler, cfg: ExperimentConfig, r: int):
    """Draw replication r's atom counts and run every estimator on their cell
    table.  A failure is kept as its error code."""
    cells = ObservedCells(sampler.joint, sampler.counts(cfg.n, derive_seed(cfg.seed, r)))
    results = []
    for est_id in cfg.estimators:
        try:
            results.append((est_id, ESTIMATORS[est_id](cells).value))
        except LabError as e:
            results.append((est_id, e.code))
    return results


def _unit_scale(largest: float) -> float:
    """The power of two that brings |largest| into [0.5, 1).  Scaling by it is
    exact in binary floating point, and afterwards squares cannot overflow."""
    return math.ldexp(1.0, -math.frexp(float(largest))[1])


def _sd(x: np.ndarray) -> float:
    if len(x) < 2:
        return 0.0
    s = _unit_scale(np.max(np.abs(x)))
    return float(np.std(x * s, ddof=1)) / s


def _aggregate_scalar(values: list[float], truth: Optional[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    out: dict = {
        "n_ok": len(values),
        "mean": float(np.mean(arr)),
        "sd": _sd(arr),
    }
    if truth is not None:
        s = _unit_scale(max(np.max(np.abs(arr)), abs(truth)))
        out["bias"] = out["mean"] - truth
        out["rmse"] = float(np.sqrt(np.mean((arr * s - truth * s) ** 2))) / s
    else:
        out["bias"] = None
        out["rmse"] = None
    return out


def _aggregate_bounds(values: list[BoundsInterval], truth: Optional[float]) -> dict:
    lo = np.asarray([b.lower for b in values], dtype=np.float64)
    hi = np.asarray([b.upper for b in values], dtype=np.float64)
    out: dict = {
        "n_ok": len(values),
        "lower_mean": float(np.mean(lo)),
        "upper_mean": float(np.mean(hi)),
        "lower_sd": _sd(lo),
        "upper_sd": _sd(hi),
    }
    if truth is not None:
        out["coverage"] = float(np.mean((lo <= truth) & (truth <= hi)))
    else:
        out["coverage"] = None
    return out


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
    outcomes = [_replicate(sampler, cfg, r) for r in range(cfg.replications)]

    rows: list = []
    collected: dict[str, list] = {est_id: [] for est_id in cfg.estimators}
    errors: dict[str, dict[str, int]] = {est_id: {} for est_id in cfg.estimators}
    for r, results in enumerate(outcomes):
        for est_id, value in results:
            if isinstance(value, str):
                tally = errors[est_id]
                tally[value] = tally.get(value, 0) + 1
            elif isinstance(value, BoundsInterval):
                collected[est_id].append(value)
                rows.append((r, est_id, None, value.lower, value.upper))
            else:
                collected[est_id].append(value)
                rows.append((r, est_id, value, None, None))

    aggregates: dict = {}
    for est_id in cfg.estimators:
        values = collected[est_id]
        if not values:
            agg: dict = {"n_ok": 0}
        elif isinstance(values[0], BoundsInterval):
            agg = _aggregate_bounds(values, truth)
        else:
            agg = _aggregate_scalar(values, truth)
        agg["errors"] = errors[est_id]
        aggregates[est_id] = agg

    return SummaryReport(
        scenario_id=cfg.scenario.scenario_id,
        n=cfg.n,
        replications=cfg.replications,
        seed=cfg.seed,
        emit_latent=cfg.emit_latent,
        oracle=oracle,
        estimators=aggregates,
        rows=rows,
        sampler=sampler,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return _jsonio.format_float(float(x))


def _panel_header(emit_latent: bool) -> str:
    return ",".join(PANEL_HEADER_LATENT if emit_latent else PANEL_HEADER)


def _panel_rows(panel: Panel, emit_latent: bool, start: int = 0):
    """Yield the panel.csv rows of panel, its units numbered from start."""
    for i in range(panel.n):
        cells = [str(start + i), str(int(panel.d0[i])), str(int(panel.d1[i])), _fmt(panel.y0[i]), _fmt(panel.y1[i])]
        if emit_latent:
            cells.extend(_fmt(panel.po[i, j]) for j in range(4))
        yield ",".join(cells)


def panel_csv_lines(panel: Panel, emit_latent: bool):
    """Yield panel.csv lines (no trailing newline).  Latent columns need the
    panel to carry potential outcomes."""
    if emit_latent and not panel.has_latent:
        raise LabError("latent-required", "panel has no latent columns to emit")
    yield _panel_header(emit_latent)
    yield from _panel_rows(panel, emit_latent)


def sampled_panel_csv(sampler: AtomSampler, n: int, seed: int, emit_latent: bool):
    """Yield the text of panel.csv for the n draws of stream seed, header
    first, then one newline-terminated block per sampler chunk.  The bytes
    equal those of panel_csv_lines(sampler.panel(n, seed), emit_latent), and
    memory stays O(COUNT_CHUNK + atoms) at any n."""
    yield _panel_header(emit_latent) + "\n"
    for start, chunk in sampler.panel_chunks(n, seed):
        yield "\n".join(_panel_rows(chunk, emit_latent, start)) + "\n"


def write_outputs(report: SummaryReport, panels, out_dir) -> list:
    """Write summary.json, estimates.csv, oracle.csv, panel.csv into out_dir.

    panel.csv holds panels[0] when panels is nonempty; otherwise it replays
    replication 0 from report.sampler, streamed chunk by chunk, and without
    a sampler it is not written.  All files are UTF-8 with LF endings and
    17-significant-digit floats; identical reports produce byte-identical
    directories."""
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

    est_lines = ["replication,estimator_id,value,lower,upper"]
    for r, est_id, value, lower, upper in report.rows:
        est_lines.append(f"{r},{est_id},{_fmt(value)},{_fmt(lower)},{_fmt(upper)}")
    _write_text("estimates.csv", ["\n".join(est_lines) + "\n"])

    cells = report.oracle.get("cells", {})
    oracle_lines = ["d0,d1,prob,trend_mean,level_y0,level_y1"]
    for d0, d1 in CELLS:
        st = cells.get(f"{d0}{d1}")
        if st is None:
            oracle_lines.append(f"{d0},{d1},{_fmt(0.0)},,,")
        else:
            oracle_lines.append(
                f"{d0},{d1},{_fmt(st['prob'])},{_fmt(st['trend_mean'])},{_fmt(st['level_y0'])},{_fmt(st['level_y1'])}"
            )
    _write_text("oracle.csv", ["\n".join(oracle_lines) + "\n"])

    if panels:
        _write_text("panel.csv", ["\n".join(panel_csv_lines(panels[0], report.emit_latent)) + "\n"])
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
