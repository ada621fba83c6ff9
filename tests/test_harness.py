"""Experiment orchestration: config parsing, replication, file outputs."""

import dataclasses
import hashlib
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from didlab import _jsonio, core, harness, scenarios
from didlab.corpus import random_stopping, random_treated_learning, shipped_text
from didlab.errors import LabError
from didlab.estimators import ALL_ESTIMATORS, ESTIMATORS, ObservedCells
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

from _brute import brute_panel_csv

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


def _rows_from_counts(cfg, draw):
    """run_experiment's rows, were replication r's atom counts draw(r)."""
    joint = build_joint(cfg.scenario)
    rows = []
    for r in range(cfg.replications):
        cells = ObservedCells(joint, draw(r))
        for est_id in cfg.estimators:
            try:
                value = ESTIMATORS[est_id](cells).value
            except LabError:
                continue
            if isinstance(value, core.BoundsInterval):
                rows.append((r, est_id, None, value.lower, value.upper))
            else:
                rows.append((r, est_id, value, None, None))
    return rows


def test_replications_of_a_wide_joint_count_their_draws():
    """4,800 atoms at n = 20,000 is too few units per atom for the chain:
    every replication is the histogram of its draws, bit for bit."""
    rng = np.random.default_rng(3)
    wide = scenarios.NoLearning(
        types=tuple(
            # one untreated trend, 0.05, for every type, so the config validates
            scenarios.NoLearningType(prob=1 / 300, mu=((mu00, mu01), (mu00 + 0.05, mu11)))
            for mu00, mu01, mu11 in rng.uniform(0.1, 0.9, (300, 3)).tolist()
        )
    )
    cfg = ExperimentConfig(wide, n=20_000, replications=3, seed=5)
    report = run_experiment(cfg)
    assert len(report.sampler.joint.prob) * harness.CHAIN_UNITS_PER_ATOM > cfg.n
    assert report.rows == _rows_from_counts(cfg, lambda r: report.sampler.counts(cfg.n, derive_seed(cfg.seed, r)))


def test_replications_after_the_first_draw_from_the_multinomial_chain():
    cfg = parse_config(shipped_text("stationary_scale"))
    cfg.n, cfg.replications, cfg.seed = 100_000, 5, 3
    report, again = run_experiment(cfg), run_experiment(cfg)
    assert report.rows == again.rows and report.to_json() == again.to_json()
    sampler = report.sampler
    assert len(sampler.joint.prob) * harness.CHAIN_UNITS_PER_ATOM <= cfg.n
    draw = {0: sampler.counts}
    expected = _rows_from_counts(cfg, lambda r: draw.get(r, sampler.multinomial)(cfg.n, derive_seed(cfg.seed, r)))
    assert report.rows == expected


def test_replication_0_and_panel_csv_keep_the_bytes_of_the_counted_draws(tmp_path):
    """Replication 0 still counts its n draws, which panel.csv replays, where
    the chain draws the later ones: both keep the bytes of the counted
    draws."""
    cfg = parse_config(shipped_text("known_means"))
    cfg.n, cfg.replications, cfg.seed = 2**15, 3, 11
    report = run_experiment(cfg)
    assert len(report.sampler.joint.prob) * harness.CHAIN_UNITS_PER_ATOM <= cfg.n
    write_outputs(report, [], tmp_path)
    panel = (tmp_path / "panel.csv").read_bytes()
    assert hashlib.sha256(panel).hexdigest() == "83db89fac0bfd41fb63dd18a8fe2c937cdc0b287a6b7f768a7e82e2aa2fab436"
    lines = (tmp_path / "estimates.csv").read_text().splitlines()
    assert [line for line in lines if line.startswith("0,")] == [
        "0,did_switchers,0.15149778397808489,,",
        "0,att_forward_stationary,0.24177431147940531,,",
        "0,mts_bounds,,0.13973501348143835,0.15149778397808489",
    ]


def test_memory_per_replication_is_bounded(tmp_path):
    """Each replication's outcome is held once: between R and 2R
    replications the traced peak of run_experiment, and then of
    write_outputs with the report held, grows by at most 512 B per
    replication (~210-270 B; ~760-1,100 B when every estimate was also held
    as a row tuple, a tally entry and a line of one joined string)."""
    cfg = parse_config(shipped_text("stationary_scale"))
    cfg.n = 100
    reps = 500
    peaks = []
    for replications in (reps, 2 * reps):
        cfg.replications = replications
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            write_outputs(report, [], tmp_path / str(replications))
            peaks.append((run_peak, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        del report
    (run_r, write_r), (run_2r, write_2r) = peaks
    assert (run_2r - run_r) / reps <= 512, peaks
    assert (write_2r - write_r) / reps <= 512, peaks


def test_each_config_object_validates_once(monkeypatch):
    calls = []
    validate = scenarios.NoLearning.validate

    def recording(config):
        calls.append(config)
        return validate(config)

    monkeypatch.setattr(scenarios.NoLearning, "validate", recording)
    config = parse_config(shipped_text("known_means")).scenario
    first, second = core.validate_scenario(config), core.validate_scenario(config)
    run_experiment(ExperimentConfig(scenario=config, n=20, replications=2))
    assert calls == [config]
    assert first == second and first is not second
    first.add("edited", "by the caller")
    first.warn("by the caller")
    third = core.validate_scenario(config)
    assert third == second and third.ok and third != first
    assert calls == [config]

    # a replaced config is a new object: equal, with the same hash, but
    # validated afresh
    fresh = parse_config(shipped_text("known_means")).scenario
    replaced = dataclasses.replace(config)
    assert config == fresh == replaced and hash(config) == hash(fresh) == hash(replaced)
    assert core.validate_scenario(replaced) == second
    assert len(calls) == 2 and calls[1] is replaced


# Validates, yet counts times its outcomes overflow: at --n 2 --reps 6 --seed 1
# att_stationary's bias is -inf and its rmse inf.
_OVERFLOWING_STOPPING = json.dumps({
    "scenario": "optimal_stopping",
    "types": [
        {"prob": 0.5, "k0": -1.0, "k1": 1.0, "beta": 0.9, "pmf": [[0.0, -1.5e308, 1.0]]},
        {"prob": 0.5, "k0": 0.0, "k1": -1.6e308, "beta": 0.9, "pmf": [[0.0, -1.5e308, 1.0]]},
    ],
})


def test_overflowing_cell_sums_warn_nothing_and_fail_as_non_finite():
    """Two units on the (0,0) atom, whose y1 is -1.5e308, overflow its cell's
    y1 sum: no numpy warning, and every estimator raises non-finite."""
    joint = build_joint(parse_config(_OVERFLOWING_STOPPING).scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = ObservedCells(joint, [1, 2])
    assert cells.mass == [2, 1, 0, 0] and cells.sum_y1[0] == -math.inf
    for est_id in ALL_ESTIMATORS:
        with pytest.raises(LabError) as err:
            ESTIMATORS[est_id](cells)
        assert err.value.code == "non-finite", est_id


def _scaled_stopping(seed: int, k: int) -> str:
    """corpus.random_stopping(seed) with every outcome and cost times 10^k, a
    positive factor, which keeps every decision."""
    doc = random_stopping(seed).to_json()
    f = 10.0**k
    for ty in doc["types"]:
        ty["k0"], ty["k1"] = ty["k0"] * f, ty["k1"] * f
        ty["pmf"] = [[y0 * f, y1 * f, p] for y0, y1, p in ty["pmf"]]
    return json.dumps(doc)


@given(
    st.builds(_scaled_stopping, st.integers(0, 10**6), st.integers(0, 308)),
    st.integers(1, 50),
    st.integers(1, 8),
    st.integers(0, 2**64 - 1),
    st.booleans(),
)
@example(_OVERFLOWING_STOPPING, 2, 6, 1, False)
@settings(max_examples=100, deadline=None)
def test_experiment_path_writes_finite_files_or_raises_a_lab_error(text, n, reps, seed, emit_latent):
    """Outcomes and costs up to the float limit: run_experiment then
    write_outputs either write files whose every number is finite, or raise
    a LabError (a rounding tau-inconsistent one included) before the output
    directory exists."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "exp"
        try:
            cfg = parse_config(text)
            cfg.n, cfg.replications, cfg.seed, cfg.emit_latent = n, reps, seed, emit_latent
            write_outputs(run_experiment(cfg), [], out)
        except LabError:
            assert not out.exists()
            return
        summary = (out / "summary.json").read_text()
        json.loads(summary, parse_constant=lambda name: pytest.fail(f"summary.json holds {name}"))
        for name in ("estimates.csv", "oracle.csv", "panel.csv"):
            for line in (out / name).read_text().splitlines()[1:]:
                fields = [f for f in line.split(",") if f and f not in ESTIMATORS]
                assert all(math.isfinite(float(f)) for f in fields), (name, line)


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
    format_float = _jsonio.format_float
    # 4 atoms, and 96 atoms, where most draws land on an atom not drawn before
    for scenario in (shipped["stopping_informative"], random_treated_learning(0)):
        cfg = ExperimentConfig(scenario=scenario, n=n, replications=2, seed=3, emit_latent=emit_latent)
        report = run_experiment(cfg)
        out = tmp_path / scenario.scenario_id
        write_outputs(report, [], out)
        panel = draw_panel(build_joint(cfg.scenario), n, derive_seed(cfg.seed, 0))
        want = "\n".join(panel_csv_lines(panel, emit_latent)) + "\n"
        assert (out / "panel.csv").read_bytes() == want.encode()

        # each drawn atom's floats are formatted once, whatever the unit count
        calls = []
        monkeypatch.setattr(_jsonio, "format_float", lambda x: calls.append(x) or format_float(x))
        text = "".join(harness.sampled_panel_csv(report.sampler, n, derive_seed(cfg.seed, 0), emit_latent))
        monkeypatch.setattr(_jsonio, "format_float", format_float)
        assert text == want
        assert len(calls) <= (6 if emit_latent else 2) * len(set(panel.atom_index.tolist()))


@pytest.mark.parametrize("emit_latent", [False, True])
def test_both_panel_csv_routes_match_a_value_by_value_reference(shipped_joints, monkeypatch, emit_latent):
    """The given-panel and the streamed route share one row formatter, so
    each is held to a reference that formats every value on its own; slices
    of 7 rows for both."""
    monkeypatch.setattr(harness, "_SLICE_ROWS", 7)
    monkeypatch.setattr(scenarios, "COUNT_CHUNK", 7)
    for joint in shipped_joints.values():
        panel = draw_panel(joint, 40, 4)
        want = brute_panel_csv(panel, emit_latent)
        assert "\n".join(panel_csv_lines(panel, emit_latent)) + "\n" == want
        assert "".join(harness.sampled_panel_csv(scenarios.AtomSampler(joint), 40, 4, emit_latent)) == want


def test_write_outputs_prefers_given_panel(small_report, tmp_path):
    report, _ = small_report
    panel = Panel(d0=[0, 1], d1=[1, 1], y0=[0.5, 2.0], y1=[1.0, 3.0])
    write_outputs(report, [panel], tmp_path)
    assert (tmp_path / "panel.csv").read_text() == "unit,d0,d1,y0,y1\n0,0,1,0.5,1.0\n1,1,1,2.0,3.0\n"


@pytest.mark.parametrize(
    "emit_latent, unit, col, value, name",
    [
        (False, 0, "y0", np.nan, "y0"),
        (False, 1, "y1", np.inf, "y1"),
        (True, 2, "po", -np.inf, "y10"),
    ],
)
def test_write_outputs_rejects_a_non_finite_panel_before_writing(
    small_report, shipped_joints, tmp_path, emit_latent, unit, col, value, name
):
    report = dataclasses.replace(small_report[0], emit_latent=emit_latent)
    panel = draw_panel(shipped_joints["stopping_informative"], 4, seed=1)
    if col == "po":
        panel.po[unit, 2] = value
    else:
        getattr(panel, col)[unit] = value
    panel.po[3, 0] = np.nan  # a later unit's latent value: not the first bad one
    with pytest.raises(LabError) as err:
        write_outputs(report, [panel], tmp_path / "out")
    assert err.value.code == "non-finite"
    assert err.value.message == f"[non-finite] panel unit {unit}, column {name}: {value!r} is not a finite float"
    assert not (tmp_path / "out").exists()


def test_write_outputs_rejects_a_panel_without_latent_columns_before_writing(small_report, tmp_path):
    report = dataclasses.replace(small_report[0], emit_latent=True)
    panel = Panel(d0=[0], d1=[1], y0=[0.5], y1=[1.0])
    with pytest.raises(LabError) as err:
        write_outputs(report, [panel], tmp_path / "out")
    assert err.value.code == "latent-required"
    assert err.value.message == "[latent-required] panel has no latent columns to emit"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("col", ["d0", "d1"])
@pytest.mark.parametrize("value", [2, -1])
def test_a_treatment_edited_outside_0_1_is_a_schema_error(small_report, tmp_path, col, value):
    """panel.csv writes a row's treatments as one of four prefixes, so a d0
    or d1 set outside {0, 1} after construction is rejected, naming the
    first such unit and its column, before anything is written."""
    report, _ = small_report
    panel = Panel(d0=[0, 1, 0], d1=[1, 1, 0], y0=[0.5, 2.0, 1.0], y1=[1.0, 3.0, 1.5])
    getattr(panel, col)[1] = value
    panel.d1[2] = 5  # a later unit: not the first bad one
    message = f"[schema-error] panel unit 1, column {col}: {value} is not 0 or 1"
    with pytest.raises(LabError) as err:
        write_outputs(report, [panel], tmp_path / "out")
    assert (err.value.code, err.value.message) == ("schema-error", message)
    assert not (tmp_path / "out").exists()
    with pytest.raises(LabError) as err:
        list(panel_csv_lines(panel, emit_latent=False))
    assert (err.value.code, err.value.message) == ("schema-error", message)


def test_write_outputs_checks_a_given_panel_once(small_report, monkeypatch, tmp_path):
    report, _ = small_report
    calls = []
    check = harness._check_panel
    monkeypatch.setattr(harness, "_check_panel", lambda *args: calls.append(args) or check(*args))
    write_outputs(report, [Panel(d0=[0, 1], d1=[1, 1], y0=[0.5, 2.0], y1=[1.0, 3.0])], tmp_path)
    assert len(calls) == 1


def test_write_outputs_into_a_regular_file_is_an_io_error(small_report, tmp_path):
    report, _ = small_report
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    with pytest.raises(LabError) as err:
        write_outputs(report, [], out)
    assert err.value.code == "io-error" and err.value.path == str(out)
    assert str(err.value).startswith("[io-error] cannot create output directory: ")


def test_write_outputs_over_a_directory_named_summary_json_is_an_io_error(small_report, tmp_path):
    report, _ = small_report
    (tmp_path / "summary.json").mkdir()
    with pytest.raises(LabError) as err:
        write_outputs(report, [], tmp_path)
    assert err.value.code == "io-error" and err.value.path == str(tmp_path / "summary.json")
    assert str(err.value).startswith("[io-error] cannot write summary.json: ")


def test_write_outputs_ignores_latent_values_it_does_not_write(small_report, tmp_path):
    report, _ = small_report
    panel = Panel(d0=[0], d1=[1], y0=[0.5], y1=[1.0], po=[[np.nan, np.inf, 0.5, 1.0]])
    write_outputs(report, [panel], tmp_path)
    assert (tmp_path / "panel.csv").read_text() == "unit,d0,d1,y0,y1\n0,0,1,0.5,1.0\n"


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


def test_panel_csv_lines_rejects_a_non_finite_panel():
    """panel_csv_lines runs write_outputs' panel check: a nan is non-finite,
    named by its unit and column, not a ValueError from the float formatter."""
    panel = Panel(d0=[0, 1], d1=[1, 1], y0=[0.5, float("nan")], y1=[1.0, 3.0])
    with pytest.raises(LabError) as err:
        list(panel_csv_lines(panel, emit_latent=False))
    assert err.value.code == "non-finite" and "panel unit 1, column y0" in str(err.value)


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
