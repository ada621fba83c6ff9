"""Experiment orchestration: config parsing, replication, file outputs."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from didlab import core, harness, scenarios
from didlab.corpus import shipped_text
from didlab.errors import LabError
from didlab.estimators import ALL_ESTIMATORS, ObservedCells
from didlab.harness import (
    ExperimentConfig,
    oracle_block,
    parse_config,
    panel_csv_lines,
    read_panel_csv,
    run_experiment,
    write_outputs,
)
from didlab._rng import derive_seed
from didlab.core import Panel
from didlab.scenarios import RoyRepeated, build_joint, draw_panel

TOL = 1e-12


# --- config parsing ---------------------------------------------------------------


def test_parse_bare_scenario_gets_defaults():
    cfg = parse_config(shipped_text("known_means"))
    assert cfg.scenario.scenario_id == "no_learning"
    assert cfg.n == 10_000 and cfg.replications == 1 and cfg.seed == 0
    assert cfg.estimators == ALL_ESTIMATORS
    assert cfg.outputs is None and cfg.emit_latent is False


def test_parse_experiment_shape():
    doc = {
        "scenario": json.loads(shipped_text("roy_repeated")),
        "n": 500,
        "replications": 3,
        "seed": 99,
        "estimators": ["did_switchers", "mts_bounds"],
        "outputs": "out/exp1",
        "emit_latent": True,
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.scenario.scenario_id == "roy_repeated"
    assert (cfg.n, cfg.replications, cfg.seed) == (500, 3, 99)
    assert cfg.estimators == ("did_switchers", "mts_bounds")
    assert cfg.outputs == "out/exp1"
    assert cfg.emit_latent is True


def test_parse_accepts_bytes():
    cfg = parse_config(shipped_text("known_means").encode())
    assert cfg.scenario.scenario_id == "no_learning"


@pytest.mark.parametrize(
    "text,code,path",
    [
        ("{not json", "parse-error", ""),
        ("[1,2]", "schema-error", ""),
        ("{}", "schema-error", "/scenario"),
        ('{"scenario": 7}', "schema-error", "/scenario"),
    ],
)
def test_parse_rejects_malformed(text, code, path):
    with pytest.raises(LabError) as err:
        parse_config(text)
    assert err.value.code == code
    assert err.value.path == path


def test_parse_rejects_invalid_utf8():
    with pytest.raises(LabError) as err:
        parse_config(b"\xff\xfe{}")
    assert err.value.code == "parse-error"


def _experiment_doc(**overrides):
    doc = {"scenario": json.loads(shipped_text("roy_repeated"))}
    doc.update(overrides)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "overrides,path",
    [
        ({"bogus": 1}, "/bogus"),
        ({"n": 0}, "/n"),
        ({"n": True}, "/n"),
        ({"n": 2.5}, "/n"),
        ({"replications": 0}, "/replications"),
        ({"seed": -1}, "/seed"),
        ({"seed": 2**64}, "/seed"),
        ({"estimators": []}, "/estimators"),
        ({"estimators": "did_sharp"}, "/estimators"),
        ({"estimators": ["did_sharp", "nope"]}, "/estimators/1"),
        ({"outputs": 3}, "/outputs"),
        ({"emit_latent": "yes"}, "/emit_latent"),
        ({"estimators": ["att_stationary", "att_stationary"]}, "/estimators/1"),
        ({"estimators": ["did_sharp", ["did_sharp"]]}, "/estimators/1"),
    ],
)
def test_parse_schema_errors_carry_paths(overrides, path):
    with pytest.raises(LabError) as err:
        parse_config(_experiment_doc(**overrides))
    assert err.value.code == "schema-error"
    assert err.value.path == path


# --- oracle block -----------------------------------------------------------------


def test_oracle_block_exact_values(shipped):
    block = oracle_block(shipped["control_arm_learning"])
    assert block["scenario_id"] == "control_arm_learning"
    assert block["pt_deviation"] == pytest.approx(0.64, abs=TOL)
    assert block["true_att_switchers"] == pytest.approx(0.18, abs=TOL)
    assert block["conditions"]["p_vl"] == pytest.approx(1.0, abs=TOL)
    plugin = block["plugin"]
    assert plugin["did_switchers"] == pytest.approx(0.82, abs=TOL)
    assert plugin["att_stationary"] == pytest.approx(0.18, abs=TOL)
    assert plugin["mts_bounds"]["upper"] == pytest.approx(0.82, abs=TOL)
    assert set(block["cells"]) == {"00", "01"}


def test_oracle_block_records_estimator_errors(shipped):
    block = oracle_block(shipped["roy_repeated"])
    assert block["plugin"]["did_sharp"] == {"error": "not-sharp-design"}
    assert block["plugin"]["did_switchers"] == pytest.approx(-1 / 3, abs=TOL)


def test_oracle_block_handles_missing_switchers():
    from didlab.scenarios import OptimalStopping, StoppingType

    cfg = OptimalStopping(
        types=(StoppingType(prob=1.0, k0=0.0, k1=0.0, beta=0.9, pmf=(((1.0, 1.0), 1.0),)),)
    )
    block = oracle_block(cfg)
    assert block["true_att_switchers"] is None
    assert block["true_att_switchers_error"] == "empty-event"
    assert block["plugin"]["did_switchers"] == {"error": "empty-cell"}


# --- experiment runs --------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    cfg = parse_config(shipped_text("known_means"))
    cfg.n = 400
    cfg.replications = 5
    cfg.seed = 7
    return run_experiment(cfg), cfg


def test_run_experiment_shape(small_report):
    report, cfg = small_report
    assert report.scenario_id == "no_learning"
    assert (report.n, report.replications, report.seed) == (400, 5, 7)
    # fuzzy design: the two sharp-only estimators error on every replication
    for est_id in ("did_sharp", "att_stationary"):
        agg = report.estimators[est_id]
        assert agg["n_ok"] == 0
        assert agg["errors"] == {"not-sharp-design": 5}
    for est_id in ("did_switchers", "att_forward_stationary", "mts_bounds"):
        assert report.estimators[est_id]["n_ok"] == 5
        assert report.estimators[est_id]["errors"] == {}
    assert len(report.rows) == 15  # 3 working estimators x 5 replications
    assert report.sampler is not None and report.sampler.joint.scenario_id == "no_learning"


def test_rows_layout(small_report):
    report, _ = small_report
    for r, est_id, value, lower, upper in report.rows:
        assert 0 <= r < 5 and est_id in ALL_ESTIMATORS
        if est_id == "mts_bounds":
            assert value is None and lower is not None and upper is not None
        else:
            assert value is not None and lower is None and upper is None


def test_aggregates_recomputable_from_rows(small_report):
    report, _ = small_report
    truth = report.oracle["true_att_switchers"]
    vals = [v for _, e, v, _, _ in report.rows if e == "did_switchers"]
    agg = report.estimators["did_switchers"]
    assert agg["mean"] == pytest.approx(float(np.mean(vals)), abs=TOL)
    assert agg["sd"] == pytest.approx(float(np.std(vals, ddof=1)), abs=TOL)
    assert agg["bias"] == pytest.approx(float(np.mean(vals)) - truth, abs=TOL)
    assert agg["rmse"] == pytest.approx(
        float(np.sqrt(np.mean((np.asarray(vals) - truth) ** 2))), abs=TOL
    )
    los = [lo for _, e, _, lo, _ in report.rows if e == "mts_bounds"]
    his = [hi for _, e, _, _, hi in report.rows if e == "mts_bounds"]
    cov = float(np.mean([(lo <= truth <= hi) for lo, hi in zip(los, his)]))
    assert report.estimators["mts_bounds"]["coverage"] == pytest.approx(cov, abs=TOL)


def test_replication_panels_follow_seed_derivation(small_report, tmp_path):
    report, cfg = small_report
    write_outputs(report, [], tmp_path)
    back = read_panel_csv(tmp_path / "panel.csv")
    again = draw_panel(build_joint(cfg.scenario), cfg.n, derive_seed(cfg.seed, 0))
    for col in ("d0", "d1", "y0", "y1"):
        assert np.array_equal(getattr(back, col), getattr(again, col)), col


def test_run_experiment_deterministic(small_report):
    report, cfg = small_report
    repeat = run_experiment(cfg)
    assert repeat.rows == report.rows
    assert repeat.to_json() == report.to_json()


def test_run_experiment_builds_joint_once_and_one_table_per_panel(monkeypatch):
    calls = {"build_joint": [], "ObservedCells": []}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(harness, "build_joint", counted("build_joint", harness.build_joint))
    monkeypatch.setattr(harness, "ObservedCells", counted("ObservedCells", harness.ObservedCells))
    cfg = parse_config(shipped_text("roy_repeated"))
    cfg.n, cfg.replications = 200, 4
    run_experiment(cfg)
    assert len(calls["build_joint"]) == 1
    # one table for the joint's plug-ins, then one per replication, each from
    # the joint and that replication's atom counts
    (joint,), *per_rep = calls["ObservedCells"]
    assert len(per_rep) == 4
    for rep_joint, counts in per_rep:
        assert rep_joint is joint
        assert counts.dtype == np.int64 and counts.sum() == cfg.n


def test_one_observed_table_and_one_grouping_per_oracle_block(monkeypatch, shipped):
    """oracle_block, and the oracle inside run_experiment, group the joint's
    atoms by treatment path once and build the joint's observed cells once:
    the cell table, the switcher effect, the plug-ins and the observable
    probe all read those two.  Replication tables (built from atom counts)
    are not counted."""
    calls = {"grouped": 0, "observed": 0}
    init_moments, init_observed = core._CellMoments.__init__, ObservedCells.__init__

    def grouped(self, *args):
        calls["grouped"] += 1
        init_moments(self, *args)

    def observed(self, data, counts=None):
        if isinstance(data, core.JointDistribution) and counts is None:
            calls["observed"] += 1
        init_observed(self, data, counts)

    monkeypatch.setattr(core._CellMoments, "__init__", grouped)
    monkeypatch.setattr(ObservedCells, "__init__", observed)
    for name, scenario in shipped.items():
        calls.update(grouped=0, observed=0)
        oracle_block(scenario)
        assert calls == {"grouped": 1, "observed": 1}, name
        calls.update(grouped=0, observed=0)
        run_experiment(ExperimentConfig(scenario, n=100, replications=2))
        assert calls == {"grouped": 1, "observed": 1}, name


def test_run_experiment_builds_no_panel(monkeypatch):
    built = []

    class Tracked(Panel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(scenarios, "Panel", Tracked)
    cfg = parse_config(shipped_text("roy_repeated"))
    cfg.n, cfg.replications = 1000, 10
    report = run_experiment(cfg)
    assert report.estimators["did_sharp"]["errors"] == {"not-sharp-design": 10}
    assert built == []


def test_run_experiment_revalidates():
    bad = ExperimentConfig(scenario=RoyRepeated(pmf=(((0, 0, 0, 0), 0.5),)))
    with pytest.raises(LabError, match="validation") as err:
        run_experiment(bad)
    assert err.value.code == "invalid-scenario"


# --- file outputs -----------------------------------------------------------------


def test_write_outputs_file_set(small_report, tmp_path):
    report, _ = small_report
    written = write_outputs(report, [], tmp_path / "exp")
    names = sorted(p.name for p in written)
    assert names == ["estimates.csv", "oracle.csv", "panel.csv", "summary.json"]

    summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
    assert summary["scenario_id"] == "no_learning"
    assert summary["estimators"]["did_switchers"]["n_ok"] == 5
    assert "rows" not in summary

    est = (tmp_path / "exp" / "estimates.csv").read_text().splitlines()
    assert est[0] == "replication,estimator_id,value,lower,upper"
    assert len(est) == 16
    sharp_rows = [l for l in est if ",did_sharp," in l]
    assert sharp_rows == []  # errored estimators produce no rows

    orc = (tmp_path / "exp" / "oracle.csv").read_text().splitlines()
    assert orc[0] == "d0,d1,prob,trend_mean,level_y0,level_y1"
    assert len(orc) == 5  # header + all four cells (absent ones blank)

    pan = (tmp_path / "exp" / "panel.csv").read_text().splitlines()
    assert pan[0] == "unit,d0,d1,y0,y1"
    assert len(pan) == 401


def test_write_outputs_byte_identical(small_report, tmp_path):
    report, _ = small_report
    write_outputs(report, [], tmp_path / "a")
    write_outputs(report, [], tmp_path / "b")
    for name in ("summary.json", "estimates.csv", "oracle.csv", "panel.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
        assert b"\r" not in a


def test_absent_cells_written_blank(shipped, tmp_path):
    cfg = ExperimentConfig(scenario=shipped["control_arm_learning"], n=50, seed=1)
    report = run_experiment(cfg)
    write_outputs(report, [], tmp_path)
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    by_cell = {l.split(",")[0] + l.split(",")[1]: l for l in lines[1:]}
    assert by_cell["10"].endswith(",0.0,,,")
    assert by_cell["11"].endswith(",0.0,,,")


@pytest.mark.parametrize("emit_latent", [False, True])
@pytest.mark.parametrize("n", [1, 6, 7, 8, 50])
def test_streamed_panel_csv_matches_drawn_panel(shipped, monkeypatch, tmp_path, n, emit_latent):
    # chunks of 7 units: one partial chunk, one exact, one and a bit, several
    monkeypatch.setattr(scenarios, "COUNT_CHUNK", 7)
    cfg = ExperimentConfig(
        scenario=shipped["stopping_informative"], n=n, replications=2, seed=3, emit_latent=emit_latent
    )
    write_outputs(run_experiment(cfg), [], tmp_path)
    panel = draw_panel(build_joint(cfg.scenario), n, derive_seed(cfg.seed, 0))
    want = "\n".join(panel_csv_lines(panel, emit_latent)) + "\n"
    assert (tmp_path / "panel.csv").read_bytes() == want.encode()


def test_write_outputs_prefers_given_panel(small_report, tmp_path):
    report, _ = small_report
    panel = Panel(d0=[0, 1], d1=[1, 1], y0=[0.5, 2.0], y1=[1.0, 3.0])
    write_outputs(report, [panel], tmp_path)
    assert (tmp_path / "panel.csv").read_text() == "unit,d0,d1,y0,y1\n0,0,1,0.5,1.0\n1,1,1,2.0,3.0\n"


# --- panel csv round trips ----------------------------------------------------------


def test_panel_round_trip(shipped_joints, tmp_path):
    panel = draw_panel(shipped_joints["stopping_informative"], 200, seed=4)
    path = tmp_path / "p.csv"
    path.write_text("\n".join(panel_csv_lines(panel, emit_latent=False)) + "\n")
    back = read_panel_csv(path)
    assert back.n == 200 and not back.has_latent
    assert np.array_equal(back.d0, panel.d0)
    assert np.array_equal(back.d1, panel.d1)
    assert np.array_equal(back.y0, panel.y0)  # 17 digits round-trip exactly
    assert np.array_equal(back.y1, panel.y1)


def test_panel_round_trip_latent(shipped_joints, tmp_path):
    panel = draw_panel(shipped_joints["roy_irreversible"], 120, seed=6)
    path = tmp_path / "p.csv"
    path.write_text("\n".join(panel_csv_lines(panel, emit_latent=True)) + "\n")
    back = read_panel_csv(path)
    assert back.has_latent
    assert np.array_equal(back.po, panel.po)


def test_emit_latent_needs_latent_columns():
    panel = Panel(d0=[0], d1=[1], y0=[0.5], y1=[1.0])
    with pytest.raises(LabError) as err:
        list(panel_csv_lines(panel, emit_latent=True))
    assert err.value.code == "latent-required"


# payload -> (code, message); the message is followed by " (at PATH)"
_READ_REJECTS = {
    "": ("parse-error", "panel file is empty"),
    "unit,d0,d1,y0,y1\n": ("parse-error", "panel has a header but no rows"),  # header only
    "wrong,header\n0,0,0,1,1\n": (
        "schema-error",
        "unexpected panel header 'wrong,header'; want unit,d0,d1,y0,y1 or the latent variant",
    ),
    "unit,d0,d1,y0,y1\n0,0,1,0.5\n": ("parse-error", "line 2: expected 5 fields, got 4"),  # short row
    "unit,d0,d1,y0,y1\n0,0,1,abc,1.0\n": ("parse-error", "line 2: could not convert string to float: 'abc'"),
    "unit,d0,d1,y0,y1\n0,2,1,0.5,1.0\n": ("schema-error", "d0/d1 columns must be 0 or 1"),  # d0 not binary
    "unit,d0,d1,y0,y1\n0,0,1,nan,1.0\n": ("parse-error", "line 2: non-finite value"),
    "unit,d0,d1,y0,y1\n0,0,1,0.5,-inf\n": ("parse-error", "line 2: non-finite value"),
    "unit,d0,d1,y0,y1,y00,y01,y10,y11\n0,0,1,0.5,1.0,0,inf,0,0\n": ("parse-error", "line 2: non-finite value"),
    # line numbers count blank lines, and every line break splitlines knows
    "unit,d0,d1,y0,y1\n\n\n": ("parse-error", "panel has a header but no rows"),
    "unit,d0,d1,y0,y1\n0,0,1,0.5,1.0\n\n1,0,1,1e400,1.0\n": ("parse-error", "line 4: non-finite value"),
    "unit,d0,d1,y0,y1\n0,0,1,0.5,1.0\n\n1,1,1,0.5,1.0,\n": ("parse-error", "line 4: expected 5 fields, got 6"),
    "unit,d0,d1,y0,y1\n0,0,1,0.5,1.0\n1,1,1,\x1f1,1.0\n": (
        "parse-error",
        "line 3: could not convert string to float: '\\x1f1'",
    ),
    "unit,d0,d1,y0,y1\r\n0,0,1,0.5,1.0\x0c\r\n1,1,1,0.5,1.0.0\r\n": (
        "parse-error",
        "line 4: could not convert string to float: '1.0.0'",
    ),
}


@pytest.mark.parametrize("payload,code", [(payload, code) for payload, (code, _) in _READ_REJECTS.items()])
def test_read_panel_rejects(tmp_path, payload, code):
    path = tmp_path / "bad.csv"
    path.write_text(payload)
    with pytest.raises(LabError) as err:
        read_panel_csv(path)
    assert err.value.code == code
    assert str(err.value) == f"[{code}] {_READ_REJECTS[payload][1]} (at {path})"


@pytest.mark.parametrize("emit_latent", [False, True])
def test_read_panel_parses_a_written_panel_in_one_pass(shipped_joints, monkeypatch, tmp_path, emit_latent):
    panel = draw_panel(shipped_joints["stopping_informative"], 500, seed=8)
    path = tmp_path / "p.csv"
    path.write_text("\n".join(panel_csv_lines(panel, emit_latent)) + "\n")

    def no_line_parser(*args):
        raise AssertionError("a written panel went to the line parser")

    monkeypatch.setattr(harness, "_line_rows", no_line_parser)
    back = read_panel_csv(path)
    assert np.array_equal(back.y0, panel.y0) and np.array_equal(back.y1, panel.y1)
    if emit_latent:
        assert np.array_equal(back.po, panel.po)


@pytest.mark.parametrize("emit_latent", [False, True])
def test_read_panel_memory_is_a_few_times_the_file(shipped_joints, tmp_path, emit_latent):
    """Reading a 20,000-row panel peaks below 12 times its file size; the
    line parser alone peaks at 18 to 23 times."""
    panel = draw_panel(shipped_joints["stopping_informative"], 20_000, seed=9)
    path = tmp_path / "p.csv"
    path.write_text("\n".join(panel_csv_lines(panel, emit_latent)) + "\n")
    tracemalloc.start()
    try:
        back = read_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.n == 20_000
    assert peak < 12 * path.stat().st_size, (peak, path.stat().st_size)


def test_read_panel_rejects_huge_treatment_values_without_a_cast_warning(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("unit,d0,d1,y0,y1\n0,1e300,1,0.5,1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LabError) as err:
            read_panel_csv(path)
    assert err.value.code == "schema-error"


def test_read_panel_missing_file(tmp_path):
    with pytest.raises(LabError) as err:
        read_panel_csv(tmp_path / "absent.csv")
    assert err.value.code == "io-error"
