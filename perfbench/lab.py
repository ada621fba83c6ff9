"""Workload operations, output checks, spans and metrics.

Imported only by the worker processes that run.py starts, after it has put
the checkout's src/ first on sys.path.  Every call into didlab that a metric
names goes through Recorder.span, so the spans sit at the boundary between
this benchmark and the program's modules; nothing inside didlab is patched
except jsonio's format_float, and only while counting its calls in the
traced run.

Operations (one pass runs them for every item of the spec, in order):
  truth       parse_config -> validate_scenario -> oracle_block (`didlab truth`)
  experiment  parse_config -> validate_scenario -> run_experiment
  write       write_outputs of that experiment (with the above, `didlab experiment`),
              its panel.csv an item["io_n"]-row panel drawn once at set-up
  estimate    read_panel_csv -> every estimator (`didlab estimate`)
Truth runs item["truth_reps"] times per pass, write and estimate once (not
at all when io_n is 0).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from didlab import _jsonio, _rng, cli, corpus
from didlab.core import BoundsInterval, validate_scenario
from didlab.errors import LabError
from didlab.estimators import ALL_ESTIMATORS, ESTIMATORS
from didlab.harness import (
    oracle_block,
    panel_csv_lines,
    parse_config,
    read_panel_csv,
    run_experiment,
    write_outputs,
)
from didlab.oracle import cell_table, check_conditions, true_att_switchers
from didlab.scenarios import build_joint, draw_panel

from inputs import SHIPPED, analytic_atoms

EXACT_TOL = 1e-12
# reference calls before and after a call that give its host speed
REFERENCE_WINDOW = 3
# The median reference call on the VM the baseline was measured on, in a
# quiet stretch: untraced times are scaled to a host running at that speed.
REFERENCE_S = 0.0035
# times the traced run repeats each parent call and its children alone
DERIVE_REPS = 3


class CheckFailed(Exception):
    pass


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Recorder:
    """Spans kept in memory: name, start, end, parent span and operation id.

    Spans opened with always=True are recorded in every run, because the
    end-to-end metrics are computed from them; the others only while
    `traced` is set."""

    def __init__(self):
        self.traced = False
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, always: bool = False):
        if not (always or self.traced):
            yield
            return
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "traced_only": not always,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def durations(self, name: str, op=None) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (op is None or s["op"] == op)
        ]


def _sha(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class _ItemState:
    """What the checks remember about one item across passes."""

    def __init__(self, item: dict, text: str):
        self.item = item
        self.text = text
        self.summary_bytes = None
        self.oracle_bytes = None
        self.written_sha = None
        self.report = None
        self.written_bytes = 0
        self.io_panel = None
        self.io_estimates = None


class Lab:
    def __init__(self, spec: dict, workdir: Path, traced: bool = False):
        self.spec = spec
        self.workdir = workdir
        self.rec = Recorder()
        self.traced_run = traced
        self.build_peak_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.states: list[_ItemState] = []
        self.facts: dict = {}

    # ------------------------------------------------------------------ setup

    @staticmethod
    def experiment_text(item: dict, scenario_text: str) -> str:
        settings = {"n": item["n"], "replications": item["reps"], "seed": item["seed"],
                    "emit_latent": item["latent"]}
        return '{"scenario": ' + scenario_text + ", " + json.dumps(settings)[1:]

    def setup(self) -> None:
        """Config load, validation and one joint build per item.  A config
        that does not validate leaves nothing to run, so it raises; the
        checks on the built joint count as operations."""
        configs = {}
        for item in self.spec["items"]:
            scen = corpus.shipped_text(item["shipped"]) if item["shipped"] else item["text"]
            st = _ItemState(item, self.experiment_text(item, scen))
            cfg = parse_config(st.text)
            report = validate_scenario(cfg.scenario)
            if not report.ok:
                raise RuntimeError(f"{item['label']}: config does not validate: {report.violations}")
            if self.traced_run:
                # the traced run reports no set-up time, so its set-up can
                # afford to measure each build's peak allocation
                tracemalloc.start()
                try:
                    joint = build_joint(cfg.scenario)
                    self.build_peak_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
                finally:
                    tracemalloc.stop()
            else:
                joint = build_joint(cfg.scenario)
            self._op("setup", st, lambda st: self._check_joint(st, joint))
            if item["io_n"]:
                st.io_panel = draw_panel(joint, item["io_n"], item["seed"])
                st.io_estimates = estimate_all(st.io_panel)
            arr = joint.arrays()
            y = np.concatenate([arr["y0"], arr["y1"]])
            w = np.concatenate([arr["prob"], arr["prob"]])
            configs[item["shipped"] or item["label"]] = {
                "atoms": len(joint),
                "design": "fuzzy" if float(np.sum(arr["prob"][arr["d0"] == 1])) > 0.0 else "sharp",
                "integral_share": float(np.sum(w[y == np.floor(y)]) / np.sum(w)),
            }
            self.states.append(st)
            del joint, arr
        designs = [c["design"] for c in configs.values()]
        self.facts = {
            "configs": configs,
            "sharp_fuzzy": f"{designs.count('sharp')}/{designs.count('fuzzy')}",
        }

    @staticmethod
    def _check_joint(st: _ItemState, joint) -> None:
        mass = float(np.sum(joint.arrays()["prob"]))
        _check(abs(mass - 1.0) <= EXACT_TOL, f"joint mass {mass!r} is not 1 within {EXACT_TOL}")
        if st.item["text"] is not None:
            want = analytic_atoms(st.item["text"])
            _check(len(joint) == want, f"{len(joint)} atoms, analytic support size {want}")

    # ------------------------------------------------------------- operations

    def _op(self, name: str, st: _ItemState, fn) -> None:
        self.attempted += 1
        self.rec.op = f"{name}:{st.item['label']}"
        try:
            fn(st)
        except Exception as e:  # an operation boundary: count it and go on
            self.failed += 1
            print(f"[{self.spec['workload']}] {self.rec.op} failed: {e!r}", file=sys.stderr)
            if not isinstance(e, CheckFailed):
                traceback.print_exc(file=sys.stderr)
        finally:
            self.rec.op = None

    def truth(self, st: _ItemState) -> None:
        span = self.rec.span
        with span("op.truth", always=True):
            with span("harness.parse_config"):
                cfg = parse_config(st.text)
            with span("core.validate_scenario"):
                report = validate_scenario(cfg.scenario)
            with span("harness.oracle_block"):
                block = oracle_block(cfg.scenario, cfg.estimators)
        _check(report.ok, "config no longer validates")
        mass = sum(c["prob"] for c in block["cells"].values())
        _check(abs(mass - 1.0) <= EXACT_TOL, f"joint mass {mass!r} is not 1 within {EXACT_TOL}")
        plugin = block["plugin"]
        if isinstance(plugin.get("mts_bounds"), dict) and "upper" in plugin["mts_bounds"] \
                and isinstance(plugin.get("did_switchers"), float):
            gap = abs(plugin["mts_bounds"]["upper"] - plugin["did_switchers"])
            _check(gap <= EXACT_TOL, f"mts_bounds upper differs from did_switchers plug-in by {gap!r}")
        self._same(st, "oracle_bytes", _jsonio.dumps(block).encode(), "oracle block bytes")

    def experiment(self, st: _ItemState) -> None:
        span = self.rec.span
        st.report = None
        with span("op.experiment", always=True):
            cfg = parse_config(st.text)
            _check(validate_scenario(cfg.scenario).ok, "config no longer validates")
            with span("harness.run_experiment", always=True):
                report = run_experiment(cfg)
        summary = (_jsonio.dumps(report.to_json(), indent=2) + "\n").encode()
        self._same(st, "summary_bytes", summary, "summary.json bytes")
        self._same(st, "oracle_bytes", _jsonio.dumps(report.oracle).encode(), "oracle block bytes")
        for est_id, agg in report.estimators.items():
            tallied = agg["n_ok"] + sum(agg["errors"].values())
            _check(tallied == cfg.replications, f"{est_id}: n_ok + errors = {tallied}, not {cfg.replications}")
            plug_err = isinstance(report.oracle["plugin"][est_id], dict) and "error" in report.oracle["plugin"][est_id]
            _check(plug_err == (agg["n_ok"] == 0),
                   f"{est_id}: plug-in {'errors' if plug_err else 'succeeds'} but n_ok = {agg['n_ok']}")
        if st.item["io_n"]:
            st.report = report

    def write(self, st: _ItemState) -> None:
        report = st.report
        _check(report is not None, "no experiment output to write")
        out = self.workdir / st.item["label"]
        with self.rec.span("op.write", always=True):
            with self.rec.span("harness.write_outputs", always=True):
                written = write_outputs(report, [st.io_panel], out)
        _check((out / "summary.json").read_bytes() == st.summary_bytes, "summary.json differs from the report")
        self._same(st, "written_sha", _sha(written), "written bytes")
        st.written_bytes = sum(Path(p).stat().st_size for p in written)

    def estimate(self, st: _ItemState) -> None:
        span = self.rec.span
        report = st.report
        _check(report is not None, "no experiment output to read back")
        path = self.workdir / st.item["label"] / "panel.csv"
        with span("op.estimate", always=True):
            with span("harness.read_panel_csv", always=True):
                panel = read_panel_csv(path)
            results = estimate_all(panel, span)
        drawn = st.io_panel
        for col in ("d0", "d1", "y0", "y1"):
            a, b = getattr(panel, col), getattr(drawn, col)
            _check(a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"read-back column {col} differs")
        if st.item["latent"]:
            _check(panel.po is not None and panel.po.tobytes() == drawn.po.tobytes(), "read-back latent columns differ")
        else:
            _check(panel.po is None, "latent columns read back from a panel written without them")
        for est_id, value in results.items():
            want = st.io_estimates[est_id]
            _check(value == want, f"{est_id} differs after read-back: {value!r} vs {want!r} in memory")

    def _same(self, st: _ItemState, attr: str, value, what: str) -> None:
        first = getattr(st, attr)
        if first is None:
            setattr(st, attr, value)
        else:
            _check(first == value, f"{what} differ from the first pass")

    def run_pass(self, ref: list | None = None) -> float:
        """One pass over the items; with `ref`, every operation (the truth
        calls of an item counting as one) is followed by one call of
        `reference`, its start and duration appended to `ref`."""

        def op(name, st, fn, times=1):
            for _ in range(times):
                self._op(name, st, fn)
            if ref is not None:
                t0 = perf_counter()
                reference()
                ref.append((t0, perf_counter() - t0))

        t = perf_counter()
        for st in self.states:
            op("truth", st, self.truth, st.item["truth_reps"])
            op("experiment", st, self.experiment)
            if st.item["io_n"]:
                op("write", st, self.write)
                op("estimate", st, self.estimate)
            st.report = None
        return perf_counter() - t

    def measure(self, seconds: float, setup_s: float) -> dict:
        """Closed loop of whole passes until the next would overrun `seconds`.

        Returns every recorded call's duration by span name and item, as
        measured ("wall") and scaled to the reference speed ("scaled"): each
        call's time times REFERENCE_S over the median of the reference calls
        made nearest it, REFERENCE_WINDOW before and as many after.  The
        host's speed drifts by up to a half over minutes, and this cancels
        it.  Set-up is scaled by the first reference calls."""
        start = perf_counter()
        passes = 0
        ref: list[tuple[float, float]] = []
        while True:
            dt = self.run_pass(ref)
            passes += 1
            if perf_counter() - start + dt > seconds:
                break
        starts = [t for t, _ in ref]

        def scale(t: float) -> float:
            i = bisect.bisect(starts, t)
            near = ref[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW]
            return REFERENCE_S / statistics.median(d for _, d in near)

        wall: dict = {}
        scaled: dict = {}
        for s in self.rec.spans:
            name, label, d = s["name"], s["op"].split(":", 1)[1], s["end"] - s["start"]
            wall.setdefault(name, {}).setdefault(label, []).append(d)
            scaled.setdefault(name, {}).setdefault(label, []).append(d * scale(s["start"]))
        return {
            "wall": {"durations": wall, "setup_s": setup_s},
            "scaled": {"durations": scaled, "setup_s": setup_s * scale(start)},
            "passes": passes,
            "reference_s": statistics.median(d for _, d in ref),
        }

    # ------------------------------------------------------------ traced run

    def traced(self) -> dict:
        """One traced pass, then each layer's calls timed alone on the same
        inputs for the derived self times.

        The spans recorded only while tracing are all that differs from an
        untraced pass, so the overhead is their count times the cost of one
        such span, over the pass's wall time.  Comparing the wall times of
        an untraced and a traced pass instead measured the machine's drift."""
        self.rec.traced = True
        wall = self.run_pass()
        extra = sum(1 for s in self.rec.spans if s["traced_only"])
        overhead_pct = 100.0 * extra * span_cost() / wall
        for st in self.states:
            self._op("derive", st, self.derive)
        self._op("derive", self.states[0], self.derive_corpus)
        return self.per_layer(overhead_pct)

    def derive_corpus(self, st) -> None:
        for name in SHIPPED:
            with self.rec.span("corpus.shipped_config"):
                corpus.shipped_config(name)

    def derive(self, st: _ItemState) -> None:
        """Time each parent call and each of its children alone, DERIVE_REPS
        times, each repetition under its own operation id."""
        label = st.item["label"]
        cfg = parse_config(st.text)
        for rep in range(DERIVE_REPS):
            self.rec.op = f"derive{rep}:{label}"
            serial = self._derive_experiment(st, cfg, first=rep == 0)
            if st.item["io_n"]:
                self._derive_estimate(st, serial, first=rep == 0)

    def _derive_experiment(self, st: _ItemState, cfg, first: bool):
        span = self.rec.span
        workers = os.environ["DIDLAB_WORKERS"]
        os.environ["DIDLAB_WORKERS"] = "1"
        try:
            with span("harness.run_experiment.serial"):
                serial = run_experiment(cfg)
        finally:
            os.environ["DIDLAB_WORKERS"] = workers
        summary = (_jsonio.dumps(serial.to_json(), indent=2) + "\n").encode()
        _check(summary == st.summary_bytes, "summary.json bytes differ between 1 and several workers")

        with span("core.validate_scenario"):
            validate_scenario(cfg.scenario)
        with span("harness.oracle_block"):
            oracle_block(cfg.scenario, cfg.estimators)
        with span("scenarios.build_joint"):
            joint = build_joint(cfg.scenario)
        with span("core.JointDistribution.arrays"):
            joint.arrays()
        with span("oracle.cell_table"):
            cell_table(joint)
        with span("oracle.check_conditions"):
            check_conditions(cfg.scenario, joint)
        with span("oracle.true_att_switchers"):
            with contextlib.suppress(LabError):
                true_att_switchers(joint)
        for est_id in ALL_ESTIMATORS:
            with span(f"estimators.{est_id}.joint"):
                with contextlib.suppress(LabError):
                    ESTIMATORS[est_id](joint)
        calls = errors = 0
        for r in range(cfg.replications):
            seed = _rng.derive_seed(cfg.seed, r)
            with span("rng.uniforms"):
                _rng.uniforms(seed, cfg.n)
            with span("scenarios.draw_panel"):
                panel = draw_panel(joint, cfg.n, seed)
            for est_id in ALL_ESTIMATORS:
                calls += 1
                with span(f"estimators.{est_id}.panel"):
                    try:
                        ESTIMATORS[est_id](panel)
                    except LabError:
                        errors += 1
        if first:
            f = self.facts
            f.setdefault("atoms", {})[st.item["label"]] = len(joint)
            f.setdefault("bytes_per_unit", []).append(
                sum(a.nbytes for a in (panel.d0, panel.d1, panel.y0, panel.y1, panel.po, panel.atom_index))
                / panel.n
            )
            f.setdefault("estimator_calls", []).append((calls, errors))
        return serial

    def _derive_estimate(self, st: _ItemState, report, first: bool) -> None:
        span = self.rec.span
        item = st.item
        with span("harness.panel_csv_lines"):
            lines = sum(1 for _ in panel_csv_lines(st.io_panel, item["latent"]))
        cfg_path = self.workdir / (item["label"] + ".json")
        panel_path = self.workdir / item["label"] / "panel.csv"
        if first:
            self._count_format_float(st, report)
            _check(lines - 1 == item["io_n"], f"panel_csv_lines gave {lines - 1} rows")
            self.facts.setdefault("write_bytes", []).append(st.written_bytes)
            self.facts.setdefault("panel_bytes", {})[item["label"]] = panel_path.stat().st_size
            cfg_path.write_text(st.text, encoding="utf-8")

        with span("cli.main.estimate"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["estimate", str(cfg_path), "--panel", str(panel_path)])
        _check(code == 0, f"didlab estimate exited {code}")
        with span("harness.parse_config.estimate"):
            parse_config(st.text)
        with span("harness.read_panel_csv"):
            panel = read_panel_csv(panel_path)
        for est_id in ALL_ESTIMATORS:
            with span(f"estimators.{est_id}.panel.estimate"):
                with contextlib.suppress(LabError):
                    ESTIMATORS[est_id](panel)

    def _count_format_float(self, st: _ItemState, report) -> None:
        """Count format_float's calls during one write_outputs by wrapping
        the module attribute the writer calls, then time the real function
        alone on the captured arguments."""
        captured: list[float] = []
        real = _jsonio.format_float

        def counting(x):
            captured.append(x)
            return real(x)

        _jsonio.format_float = counting
        try:
            write_outputs(report, [st.io_panel], self.workdir / (st.item["label"] + ".counted"))
        finally:
            _jsonio.format_float = real
        t = perf_counter()
        for x in captured:
            real(x)
        ff_s = perf_counter() - t
        integral = sum(1 for x in captured if x == int(x) and abs(x) < 1e16)
        self.facts.setdefault("format_float", []).append((len(captured), ff_s, integral))

    def per_layer(self, overhead_pct: float) -> dict:
        d = self.rec.durations
        med = lambda name, scale=1.0: statistics.median(d(name)) * scale  # noqa: E731
        f = self.facts
        m: dict = {}

        # derived self times, one per item: the fastest of the parent's
        # DERIVE_REPS calls minus the fastest repetition of each child
        run_self, oracle_self, cli_self, draw_self = [], [], [], []
        for st in self.states:
            label = st.item["label"]

            def fastest(*names):
                return sum(min(sum(d(n, f"derive{r}:{label}")) for r in range(DERIVE_REPS)) for n in names)

            oracle_children = fastest(
                "scenarios.build_joint", "core.JointDistribution.arrays", "oracle.cell_table",
                "oracle.check_conditions", "oracle.true_att_switchers",
                *(f"estimators.{e}.joint" for e in ALL_ESTIMATORS))
            oracle_self.append(fastest("harness.oracle_block") - oracle_children)
            run_self.append(fastest("harness.run_experiment.serial") - fastest(
                "core.validate_scenario", "scenarios.build_joint", "core.JointDistribution.arrays",
                "harness.oracle_block", "scenarios.draw_panel", *(f"estimators.{e}.panel" for e in ALL_ESTIMATORS)))
            draw_self.append((fastest("scenarios.draw_panel") - fastest("rng.uniforms")) / st.item["reps"])
            if st.item["io_n"]:
                cli_self.append(fastest("cli.main.estimate") - fastest(
                    "harness.parse_config.estimate", "harness.read_panel_csv",
                    *(f"estimators.{e}.panel.estimate" for e in ALL_ESTIMATORS)))
        items = {st.item["label"]: st.item for st in self.states}

        def per_item(name, value):
            """Median over the spans of `name` of value(duration, item)."""
            return statistics.median(
                value(s["end"] - s["start"], items[s["op"].split(":", 1)[1]])
                for s in self.rec.spans if s["name"] == name
            )

        serial = sum(statistics.median(sum(d("harness.run_experiment.serial", f"derive{r}:{label}"))
                                       for r in range(DERIVE_REPS)) for label in items)

        m["harness.run_experiment.s"] = (med("harness.run_experiment"), "s")
        m["harness.run_experiment.self_s"] = (statistics.median(run_self), "s")
        m["harness.pool_speedup"] = (serial / sum(d("harness.run_experiment")), "x")
        m["scenarios.draw_panel.ms"] = (med("scenarios.draw_panel", 1e3), "ms")
        m["scenarios.draw_panel.self_ms"] = (1e3 * statistics.median(draw_self), "ms")
        m["scenarios.draw_panel.bytes_per_unit"] = (statistics.median(f["bytes_per_unit"]), "B/unit")
        m["rng.uniforms.ns_per_draw"] = (per_item("rng.uniforms", lambda t, it: 1e9 * t / it["n"]), "ns")
        for e in ALL_ESTIMATORS:
            m[f"estimators.{e}.panel_ms"] = (med(f"estimators.{e}.panel", 1e3), "ms")
        calls = sum(c for c, _ in f["estimator_calls"])
        m["estimators.error_share"] = (sum(e for _, e in f["estimator_calls"]) / calls, "ratio")
        m["corpus.shipped_config.s"] = (med("corpus.shipped_config"), "s")
        m["harness.parse_config.s"] = (med("harness.parse_config"), "s")
        m["core.validate_scenario.s"] = (med("core.validate_scenario"), "s")
        m["scenarios.build_joint.s"] = (med("scenarios.build_joint"), "s")
        m["scenarios.build_joint.atoms"] = (statistics.median(f["atoms"].values()), "count")
        m["scenarios.build_joint.atoms_per_s"] = (
            per_item("scenarios.build_joint", lambda t, it: f["atoms"][it["label"]] / t), "1/s")
        m["scenarios.build_joint.peak_mb"] = (max(self.build_peak_mb), "MB")
        m["core.JointDistribution.arrays.s"] = (med("core.JointDistribution.arrays"), "s")
        m["harness.oracle_block.s"] = (med("harness.oracle_block"), "s")
        m["harness.oracle_block.self_s"] = (statistics.median(oracle_self), "s")
        m["oracle.cell_table.s"] = (med("oracle.cell_table"), "s")
        m["oracle.check_conditions.s"] = (med("oracle.check_conditions"), "s")
        m["oracle.true_att_switchers.s"] = (med("oracle.true_att_switchers"), "s")
        for e in ALL_ESTIMATORS:
            m[f"estimators.{e}.joint_ms"] = (med(f"estimators.{e}.joint", 1e3), "ms")
        m["harness.write_outputs.s"] = (med("harness.write_outputs"), "s")
        m["harness.write_outputs.bytes"] = (statistics.median(f["write_bytes"]), "B")
        m["harness.panel_csv_lines.rows_per_s"] = (
            per_item("harness.panel_csv_lines", lambda t, it: it["io_n"] / t), "1/s")
        ff_calls = sum(c for c, _, _ in f["format_float"])
        m["jsonio.format_float.calls"] = (ff_calls, "count")
        m["jsonio.format_float.ns_per_call"] = (1e9 * sum(s for _, s, _ in f["format_float"]) / ff_calls, "ns")
        m["jsonio.format_float.integral_share"] = (sum(i for _, _, i in f["format_float"]) / ff_calls, "ratio")
        m["harness.read_panel_csv.s"] = (med("harness.read_panel_csv"), "s")
        m["harness.read_panel_csv.bytes_per_s"] = (
            per_item("harness.read_panel_csv", lambda t, it: f["panel_bytes"][it["label"]] / t), "B/s")
        m["cli.main.estimate.s"] = (med("cli.main.estimate"), "s")
        m["cli.main.estimate.self_s"] = (statistics.median(cli_self), "s")
        m["trace.overhead_pct"] = (overhead_pct, "%")
        return {"metrics": m}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.rec.spans, fh)


def estimate_all(panel, span=None) -> dict:
    """Every estimator on a panel: its value, bounds as (lower, upper), or
    the code of the LabError it raises."""
    out = {}
    for est_id in ALL_ESTIMATORS:
        with span(f"estimators.{est_id}.panel") if span else contextlib.nullcontext():
            try:
                value = ESTIMATORS[est_id](panel).value
            except LabError as e:
                value = e.code
        out[est_id] = (value.lower, value.upper) if isinstance(value, BoundsInterval) else value
    return out


_REFERENCE_ARRAY = np.random.default_rng(0).random(100_000)


def reference() -> int:
    """A fixed task that uses no didlab code, timed between the items of an
    untraced run to measure the host's speed at that moment: float repr and
    dict inserts in the interpreter, then a numpy sort of 100,000 floats, the
    kinds of work the program's writer, oracle and sampler do.  It allocates
    one container, so it triggers no garbage collection of the program's
    objects; it takes about 3 ms."""
    seen = {}
    for i in range(4000):
        seen[repr(i * 0.1234567)] = i
    np.sort(_REFERENCE_ARRAY)
    return len(seen)


def span_cost(n: int = 20_000) -> float:
    """Seconds a recorded span costs beyond an unrecorded one."""
    rec = Recorder()
    t = perf_counter()
    for _ in range(n):
        with rec.span("probe"):
            pass
    off = perf_counter() - t
    rec.traced = True
    t = perf_counter()
    for _ in range(n):
        with rec.span("probe"):
            pass
    return max(0.0, perf_counter() - t - off) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
