"""Command-line front end, driven in-process through main(argv)."""

import io
import json
import math
import tracemalloc
import warnings

import pytest

from didlab import cli, scenarios
from didlab._rng import derive_seed
from didlab.cli import main
from didlab.corpus import shipped_config, shipped_names, shipped_text
from didlab.errors import ERROR_CODES, LabError
from didlab.estimators import did_switchers, mts_bounds
from didlab.harness import panel_csv_lines, read_panel_csv
from didlab.scenarios import build_joint, draw_panel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- scenarios ---------------------------------------------------------------------


def test_scenarios_catalog(capsys):
    code, out, _ = run(capsys, "scenarios")
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "past_outcome_selection   treatment tracks the previous untreated outcome; shipped: selection_on_past",
        "no_learning              forward-looking types whose arm means are known up front; shipped: known_means",
        "treated_arm_learning     beliefs update only about the treated arm; shipped: treated_arm_learning",
        "control_arm_learning     untreated outcomes reveal the risky arm's quality;"
        " shipped: control_arm_learning, learner_bounds",
        "roy_repeated             each period takes whichever arm pays more that period; shipped: roy_repeated",
        "roy_irreversible         outcome comparison with treatment lock-in; shipped: roy_irreversible",
        "optimal_stopping         continue or stop on the expected continuation value;"
        " shipped: stopping_uninformative, stopping_informative, stationary_scale",
    ]
    assert [line.split()[0] for line in lines] == list(scenarios.SCENARIO_CLASSES)


def test_every_shipped_name_appears(capsys):
    _, out, _ = run(capsys, "scenarios")
    for name in shipped_names():
        assert name in out


# --- validate ----------------------------------------------------------------------


def test_validate_shipped_ok(capsys):
    code, out, _ = run(capsys, "validate", "roy_repeated")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["violations"] == []


def test_validate_bad_scenario_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "roy_repeated", "pmf": [[0, 0, 0, 0, 0.5]]}')
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert any(v["rule"] == "pmf-sum" for v in report["violations"])


def _no_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_validate_writes_non_finite_values_as_strings(capsys, tmp_path):
    # the probabilities sum to inf, and the pmf-sum violation carries that total
    path = tmp_path / "inf.json"
    path.write_text('{"scenario":"roy_repeated","pmf":[[0,0,0,0,1e308],[0,0,0,1,1e308]]}')
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out, parse_constant=_no_constant)
    assert report["violations"] == [
        {"rule": "pmf-sum", "message": "probabilities at pmf sum to inf, not 1", "values": ["inf"]}
    ]


def test_validate_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "[parse-error]" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "no_such_file.json")
    assert code == 2
    assert "[io-error]" in err


def test_an_unknown_shipped_name_is_a_schema_error_listing_the_choices():
    with pytest.raises(LabError) as err:
        shipped_text("nope")
    assert err.value.code == "schema-error"
    assert str(err.value) == f"[schema-error] unknown shipped config 'nope'; choices: {', '.join(shipped_names())}"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


def test_a_closed_stdout_pipe_exits_0(monkeypatch):
    """`didlab scenarios | head -0`: output to a reader that has gone is not an error."""
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(["scenarios"]) == 0


def test_validate_huge_integer_exits_2(capsys, tmp_path):
    # 1e400 as a JSON integer: a valid literal that no float can hold
    path = tmp_path / "huge.json"
    path.write_text('{"scenario": "roy_repeated", "pmf": [[0, 0, 0, 0, 1' + "0" * 400 + "]]}")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "[schema-error]" in err and "/pmf/0/4" in err


def test_validate_overlong_integer_exits_2(capsys, tmp_path):
    # past the interpreter's limit on the digits of an integer literal
    path = tmp_path / "long.json"
    path.write_text('{"scenario": "roy_repeated", "pmf": [[0, 0, 0, 0, 1' + "0" * 5000 + "]]}")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "[parse-error]" in err


def _stdin(data: bytes):
    """A stand-in for sys.stdin: a text stream over a byte buffer, like the real one."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_stdin_config(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(shipped_text("known_means").encode()))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert json.loads(out)["ok"] is True


_NOT_UTF8 = b'{"scenario": "roy_repeated", "pmf": [[0, 0, 0, 0, 1]], "note": "\xff"}'


@pytest.mark.parametrize("command", ["validate", "estimate"])
def test_non_utf8_config_exits_2(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_bytes(_NOT_UTF8)
    panel = tmp_path / "panel.csv"
    panel.write_text("unit,d0,d1,y0,y1\n0,0,0,0,0\n")
    argv = [command, str(path)] + (["--panel", str(panel)] if command == "estimate" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "[parse-error]" in err and "UTF-8" in err


def test_non_utf8_stdin_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(_NOT_UTF8))
    code, _, err = run(capsys, "validate", "-")
    assert code == 2
    assert "[parse-error]" in err


# --- truth -------------------------------------------------------------------------


def test_truth_exact_block(capsys):
    code, out, _ = run(capsys, "truth", "control_arm_learning")
    assert code == 0
    block = json.loads(out)
    assert block["scenario_id"] == "control_arm_learning"
    assert block["pt_deviation"] == pytest.approx(0.64, abs=1e-12)
    assert block["true_att_switchers"] == pytest.approx(0.18, abs=1e-12)
    assert block["plugin"]["att_stationary"] == pytest.approx(0.18, abs=1e-12)


def test_truth_on_invalid_scenario_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "roy_repeated", "pmf": [[0, 0, 0, 0, 0.5]]}')
    code, out, err = run(capsys, "truth", str(path))
    assert code == 1
    assert out == ""
    assert "invalid scenario: [pmf-sum]" in err


@pytest.mark.parametrize("weight", ["0.4000000001", "0.3999999999"])
def test_impossible_history_is_skipped_not_raised(capsys, tmp_path, weight):
    # every prior rate is 1, so y01 = 0 has zero probability, though the
    # weights sum to 1 +- 1e-10 and the prior mean misses 1 by as much
    path = tmp_path / "edge.json"
    path.write_text(
        '{"scenario": "treated_arm_learning", "types": [{"prob": 1, "prior": [[1.0, 0.6], [1.0, '
        + weight
        + ']], "mu_ctrl": [0.3, 0.5], "beta": 0.9}]}'
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code in (0, 1)
    assert json.loads(out)["ok"] is (code == 0)
    code, out, err = run(capsys, "truth", str(path))
    if code == 0:
        assert json.loads(out)["scenario_id"] == "treated_arm_learning"
    else:
        assert code == 2 and out == ""
        assert err.startswith("[") and err[1 : err.index("]")] in ERROR_CODES, err


# --- simulate ----------------------------------------------------------------------


def test_simulate_stdout_deterministic(capsys):
    code, out1, _ = run(capsys, "simulate", "roy_repeated", "--n", "40", "--seed", "5")
    assert code == 0
    lines = out1.splitlines()
    assert lines[0] == "unit,d0,d1,y0,y1"
    assert len(lines) == 41
    _, out2, _ = run(capsys, "simulate", "roy_repeated", "--n", "40", "--seed", "5")
    assert out2 == out1
    _, out3, _ = run(capsys, "simulate", "roy_repeated", "--n", "40", "--seed", "6")
    assert out3 != out1


def test_simulate_latent_columns(capsys):
    code, out, _ = run(
        capsys, "simulate", "roy_repeated", "--n", "10", "--seed", "5", "--emit-latent"
    )
    assert code == 0
    assert out.splitlines()[0] == "unit,d0,d1,y0,y1,y00,y01,y10,y11"


def test_simulate_to_directory(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, out, err = run(
        capsys, "simulate", "known_means", "--n", "25", "--out", str(out_dir)
    )
    assert code == 0
    assert out == ""
    assert f"wrote {out_dir / 'panel.csv'}" in err
    panel = read_panel_csv(out_dir / "panel.csv")
    assert panel.n == 25


def test_simulate_to_csv_file(capsys, tmp_path):
    target = tmp_path / "mine.csv"
    code, _, err = run(capsys, "simulate", "known_means", "--n", "8", "--out", str(target))
    assert code == 0
    assert target.exists() and "mine.csv" in err


@pytest.mark.parametrize("emit_latent", [False, True])
@pytest.mark.parametrize("n", [1, 6, 7, 8, 50])
def test_simulate_streams_the_drawn_panel(capsys, monkeypatch, tmp_path, n, emit_latent):
    monkeypatch.setattr(scenarios, "COUNT_CHUNK", 7)
    panel = draw_panel(build_joint(shipped_config("stopping_informative")), n, derive_seed(9, 0))
    want = "\n".join(panel_csv_lines(panel, emit_latent)) + "\n"
    argv = ["simulate", "stopping_informative", "--n", str(n), "--seed", "9"]
    argv += ["--emit-latent"] if emit_latent else []
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == want
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "p.csv"))
    assert code == 0 and (tmp_path / "p.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_streamed_panel_memory_does_not_grow_with_n(monkeypatch, tmp_path, command):
    monkeypatch.setattr(scenarios, "COUNT_CHUNK", 256)
    peaks = {}
    for n in (2_048, 2_048, 16_384):  # the first run warms caches up
        tracemalloc.start()
        try:
            argv = [command, "stopping_informative", "--n", str(n), "--emit-latent"]
            assert main(argv + ["--out", str(tmp_path / str(n))]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a 16,384-row latent panel.csv is about 1.5 MB of text
    assert peaks[16_384] < 1.2 * peaks[2_048] + 16_384, peaks


def test_simulate_unwritable_directory_exits_2(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(capsys, "simulate", "stopping_informative", "--n", "10", "--out", str(blocker / "sub"))
    assert code == 2
    assert "[io-error]" in err


def test_simulate_bad_seed_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "known_means", "--seed", "-3")
    assert code == 2
    assert "[schema-error]" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "known_means", "--reps", "1000001"],
        ["simulate", "known_means", "--n", "1000000001"],
    ],
)
def test_overrides_obey_the_config_bounds(capsys, monkeypatch, tmp_path, argv):
    def no_work(*_):
        raise AssertionError("work began before the overrides were checked")

    monkeypatch.setattr(cli, "validate_scenario", no_work)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert "[schema-error]" in err and argv[2] in err
    assert not out_dir.exists()


# --- estimate ----------------------------------------------------------------------


def test_estimate_non_utf8_panel_exits_2(capsys, tmp_path):
    panel_path = tmp_path / "panel.csv"
    run(capsys, "simulate", "roy_repeated", "--n", "20", "--seed", "2", "--out", str(panel_path))
    lines = panel_path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b"0", b"\xff", 1)
    panel_path.write_bytes(b"".join(lines))
    code, out, err = run(capsys, "estimate", "roy_repeated", "--panel", str(panel_path))
    assert code == 2
    assert out == ""
    assert "[parse-error]" in err and str(panel_path) in err


def test_estimate_matches_direct_calls(capsys, tmp_path):
    panel_path = tmp_path / "panel.csv"
    run(capsys, "simulate", "roy_repeated", "--n", "300", "--seed", "2", "--out", str(panel_path))
    code, out, err = run(capsys, "estimate", "roy_repeated", "--panel", str(panel_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "estimator_id,value,lower,upper"
    # sharp-only estimators are skipped on this fuzzy design, with a note
    assert "skipping did_sharp" in err and "not-sharp-design" in err
    table = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert set(table) == {"did_switchers", "att_forward_stationary", "mts_bounds"}

    panel = read_panel_csv(panel_path)
    want = did_switchers(panel).value
    assert float(table["did_switchers"][1]) == pytest.approx(want, abs=1e-12)
    assert table["did_switchers"][2] == "" and table["did_switchers"][3] == ""
    bounds = mts_bounds(panel).value
    assert table["mts_bounds"][1] == ""
    assert float(table["mts_bounds"][2]) == pytest.approx(bounds.lower, abs=1e-12)
    assert float(table["mts_bounds"][3]) == pytest.approx(bounds.upper, abs=1e-12)


def test_estimate_non_finite_panel_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("unit,d0,d1,y0,y1\n0,0,0,1.0,2.0\n\n1,0,1,nan,1.0\n")
    code, out, err = run(capsys, "estimate", "stopping_informative", "--panel", str(path))
    assert code == 2
    assert out == ""
    assert "[parse-error] line 4: non-finite value" in err


def test_estimate_overflowing_panel_exits_2(capsys, tmp_path):
    # every value is finite, but the never-treated cell's sum of y1 is not
    path = tmp_path / "huge.csv"
    path.write_text("unit,d0,d1,y0,y1\n0,0,0,0.0,1e308\n1,0,0,0.0,1e308\n2,0,1,0.0,1.0\n")
    code, _, err = run(capsys, "estimate", "stopping_informative", "--panel", str(path))
    assert code == 2
    assert "[non-finite] did_sharp" in err


def test_estimate_missing_panel_exits_2(capsys):
    code, _, err = run(capsys, "estimate", "roy_repeated", "--panel", "nope.csv")
    assert code == 2
    assert "[io-error]" in err


# --- experiment --------------------------------------------------------------------


def test_experiment_writes_all_outputs(capsys, tmp_path):
    out_dir = tmp_path / "exp"
    code, out, err = run(
        capsys,
        "experiment",
        "stationary_scale",
        "--n",
        "200",
        "--reps",
        "3",
        "--seed",
        "11",
        "--out",
        str(out_dir),
    )
    assert code == 0
    for name in ("summary.json", "estimates.csv", "oracle.csv", "panel.csv"):
        assert (out_dir / name).exists()
        assert f"wrote {out_dir / name}" in err
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["replications"] == 3 and summary["n"] == 200
    assert summary["oracle"]["plugin"]["did_sharp"] == pytest.approx(3.0, abs=1e-12)


def test_experiment_summary_survives_huge_outcomes(capsys, tmp_path):
    # every estimate is finite near 1e200, though its square is not; three
    # outcome points, so the (0,1) and (0,0) cells hold more than one value
    # and every spread is positive
    path = tmp_path / "huge.json"
    pmf = [[1e200, -1e200, 0.3], [-1e200, 3e200, 0.3], [2e200, 1e200, 0.4]]
    path.write_text(json.dumps(
        {"scenario": "optimal_stopping", "types": [{"prob": 1.0, "k0": 0.0, "k1": 0.0, "beta": 0.9, "pmf": pmf}]}
    ))
    out_dir = tmp_path / "exp"
    code, _, _ = run(capsys, "experiment", str(path), "--n", "50", "--reps", "5", "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    for est_id, agg in summary["estimators"].items():
        for key in ("sd", "rmse", "lower_sd", "upper_sd"):
            if key in agg:
                assert math.isfinite(agg[key]) and agg[key] > 0.0, (est_id, key)


def test_experiment_summary_survives_subnormal_outcomes(capsys, tmp_path):
    """Every estimate is subnormal, below 2^-1022: the power of two that
    scales the spread and the rmse stays finite, and the run succeeds."""
    path = tmp_path / "tiny.json"
    pmf = [[0.0, 1e-310, 0.5], [1e-310, 0.0, 0.5]]
    path.write_text(json.dumps(
        {"scenario": "optimal_stopping", "types": [{"prob": 1.0, "k0": -1.0, "k1": 0.0, "beta": 0.9, "pmf": pmf}]}
    ))
    out_dir = tmp_path / "exp"
    code, _, _ = run(capsys, "experiment", str(path), "--n", "200", "--reps", "3", "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    scalars = [agg for agg in summary["estimators"].values() if "sd" in agg]
    assert scalars and all(agg["n_ok"] == 3 for agg in scalars)
    for agg in scalars:
        for key in ("sd", "bias", "rmse"):
            assert math.isfinite(agg[key]), (agg, key)
    assert any(0.0 < abs(agg["rmse"]) < 2.0**-1022 for agg in scalars)


# validates; at --n 2 --reps 6 --seed 1 att_stationary's bias is -inf
_OVERFLOWING_STOPPING = {
    "scenario": "optimal_stopping",
    "types": [
        {"prob": 0.5, "k0": -1.0, "k1": 1.0, "beta": 0.9, "pmf": [[0.0, -1.5e308, 1.0]]},
        {"prob": 0.5, "k0": 0.0, "k1": -1.6e308, "beta": 0.9, "pmf": [[0.0, -1.5e308, 1.0]]},
    ],
}


def test_overflowing_aggregate_exits_2_before_writing(capsys, tmp_path):
    """An aggregate past the float range is named by its summary pointer,
    and the output directory is never created."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_OVERFLOWING_STOPPING))
    out_dir = tmp_path / "exp"
    argv = ["--n", "2", "--reps", "6", "--seed", "1", "--out", str(out_dir)]
    code, out, err = run(capsys, "experiment", str(path), *argv)
    assert code == 2 and out == ""
    assert err == (
        "[non-finite] an aggregate over the replications overflows the float range"
        " (at /estimators/att_stationary/bias)\n"
    )
    assert not out_dir.exists()


def test_experiment_summary_survives_means_near_the_float_limit(capsys, tmp_path):
    """The same run without the estimators whose bias overflows: means of
    1.5e308 are computed on scaled values, and every aggregate is finite."""
    path = tmp_path / "near_limit.json"
    path.write_text(json.dumps(
        {"scenario": _OVERFLOWING_STOPPING, "estimators": ["did_sharp", "did_switchers", "mts_bounds"]}
    ))
    out_dir = tmp_path / "exp"
    code, _, _ = run(capsys, "experiment", str(path), "--n", "2", "--reps", "6", "--seed", "1", "--out", str(out_dir))
    assert code == 0
    aggregates = json.loads((out_dir / "summary.json").read_text())["estimators"]
    for est_id in ("did_sharp", "did_switchers"):
        assert aggregates[est_id]["mean"] == 1.5e308 and aggregates[est_id]["bias"] == 0.0
    assert aggregates["mts_bounds"]["lower_mean"] == aggregates["mts_bounds"]["upper_mean"] == 1.5e308
    for agg in aggregates.values():
        assert all(math.isfinite(v) for v in agg.values() if isinstance(v, float)), agg


@pytest.mark.parametrize("command", ["truth", "experiment"])
def test_overflowing_oracle_values_exit_2(capsys, tmp_path, command):
    """Outcomes near the float limit make y1 - y0 overflow in the oracle: the
    command names the first non-finite entry and writes no summary, and
    numpy prints no warning about the overflow before it."""
    path = tmp_path / "overflow.json"
    pmf = [[1e308, -1e308, 0.5], [-1e308, 1e308, 0.5]]
    path.write_text(json.dumps(
        {"scenario": "optimal_stopping", "types": [{"prob": 1, "k0": -1, "k1": -1, "beta": 0.5, "pmf": pmf}]}
    ))
    assert run(capsys, "validate", str(path))[0] == 0
    out_dir = tmp_path / "exp"
    argv = ["--n", "50", "--reps", "3", "--out", str(out_dir)] if command == "experiment" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command, str(path), *argv)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 2 and out == ""
    assert err == "[non-finite] an exact population quantity overflows the float range (at /cells/00/trend_mean)\n"
    assert not (out_dir / "summary.json").exists()


def test_experiment_reruns_byte_identical(capsys, tmp_path):
    argv = ["experiment", "known_means", "--n", "150", "--reps", "2", "--seed", "4"]
    run(capsys, *argv, "--out", str(tmp_path / "a"))
    run(capsys, *argv, "--out", str(tmp_path / "b"))
    for name in ("summary.json", "estimates.csv", "oracle.csv", "panel.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_experiment_requires_output_dir(capsys):
    code, _, err = run(capsys, "experiment", "known_means")
    assert code == 2
    assert "needs an output directory" in err


def test_experiment_into_a_regular_file_exits_2(capsys, tmp_path):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    code, _, err = run(capsys, "experiment", "known_means", "--n", "50", "--out", str(out))
    assert code == 2
    assert "[io-error] cannot create output directory" in err and str(out) in err


def test_experiment_rejects_invalid_scenario(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "roy_repeated", "pmf": [[0, 0, 0, 0, 0.5]]}')
    code, _, err = run(capsys, "experiment", str(path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "invalid scenario" in err
    assert not (tmp_path / "o").exists()


# --- parser ------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
