"""Byte-identity snapshot: one sha256 per artifact didlab produces.

    PYTHONPATH=src python tests/snapshot.py OUT

writes a "# python X numpy Y" header line naming the versions that ran it,
then one "artifact sha256" line per artifact, to OUT.  Run it on two
checkouts and diff the two files: a change that keeps every output
byte-identical leaves them equal.  tests/snapshot.golden is its committed
output, which tests/test_snapshot.py checks; rerun the script onto that file
when a change alters output bytes on purpose.  The artifacts, for each
config:

  joint/        build_joint's columns and u0_type (names, dtypes and bytes)
  guide/        AtomSampler(joint)._guide, its guide table (dtype and bytes)
  counts/       AtomSampler(joint).counts(n, seed) (dtype and bytes) at each
                (n, seed) of COUNTS_SETTINGS
  validate/     the validation report JSON, warnings in order (didlab validate)
  truth/        oracle_block's JSON and the warnings (didlab truth)
  simulate/     the panel CSV of didlab simulate
  experiment/   each file of didlab experiment at the config's settings
  experiment+/  the same at --n 2000 --reps 20 --seed 5 --emit-latent
  experiment-/  the same at --n 4 --reps 40 --seed 5, shipped configs only:
                estimators fail in some replications and not in others, so
                these pin the errors tallies and which estimates.csv rows
                are left out
  panel-given/  the panel.csv of write_outputs(report, [panel], dir) for the
                given panel draw_panel(joint, GIVEN_N, GIVEN_SEED), without
                and with emit_latent: the route that formats a Panel's rows
  panel-edge/   the panel.csv of write_outputs(report, [panel], dir), without
                and with emit_latent, for one hand-built panel (edge_panel)
                of 2 * _SLICE_ROWS + 7 units: all four treatment paths and
                the formatter's edge floats (_brute.EDGE_FLOATS) in every
                float column
  readback/     read_panel_csv's columns (dtypes, shapes and bytes) on
                experiment+'s panel.csv
  empirical/    the JSON of empirical_cell_table, partial_pt,
                selection_stationarity and observable_pt_probe on that
                panel (floats as repr, so equal text means equal bits)

The configs are the ten shipped ones, the first CORPUS_SEEDS seeds of every
corpus family, and the two wide_support configs of perfbench/inputs.py
(seed 0).  A few invalid configs add the validation reports of failures,
and malformed ones, one error each, the decoder's error code, JSON pointer
and message.

Uses only the standard library, numpy, didlab, perfbench/inputs.py and
EDGE_FLOATS from tests/_brute.py; pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py, stdlib only)

import numpy as np  # noqa: E402

from didlab import cli, corpus, harness  # noqa: E402
from didlab.core import Panel  # noqa: E402
from didlab.diagnostics import (  # noqa: E402
    empirical_cell_table,
    observable_pt_probe,
    partial_pt,
    selection_stationarity,
)
from didlab.errors import LabError  # noqa: E402
from didlab.harness import parse_config, read_panel_csv, run_experiment, write_outputs  # noqa: E402
from didlab.scenarios import AtomSampler, build_joint, draw_panel  # noqa: E402

from _brute import EDGE_FLOATS  # noqa: E402  (tests/_brute.py)

CORPUS_SEEDS = 3
# the (n, seed) of the counts/ artifacts
COUNTS_SETTINGS = ((1, 0), (7, 13), (100_000, 2**64 - 1))
# the experiment+ overrides
PLUS_SETTINGS = ("--n", "2000", "--reps", "20", "--seed", "5", "--emit-latent")
# the experiment- overrides, for the shipped configs
MINUS_SETTINGS = ("--n", "4", "--reps", "40", "--seed", "5")
# the units and seed of the panel-given artifacts' panel
GIVEN_N, GIVEN_SEED = 2_000, 5

# corpus family -> config maker, as the property tests draw them
FAMILIES = {
    "mixed": corpus.random_config,
    "selection_on_past": corpus.random_selection_on_past,
    "known_means": corpus.random_known_means,
    "treated_arm_learning": corpus.random_treated_learning,
    "control_arm_learning": corpus.random_control_learning,
    "learner_bounds": corpus.random_learner_bounds,
    "roy_repeated": corpus.random_roy,
    "roy_irreversible": lambda seed: corpus.random_roy(seed, irreversible=True),
    "stopping": corpus.random_stopping,
}

# configs that decode but fail validation, one or more checks each
INVALID = {
    "no_learning": {
        "scenario": "no_learning",
        "types": [
            {"prob": 0.5, "mu": [[0.2, 0.4], [0.3, 0.5]], "beta": 0.9},
            {"prob": -0.5, "mu": [[1.2, 0.4], [0.3, 0.5]], "beta": 1.5, "k0": [0.0, 0.1]},
        ],
    },
    "treated_arm_learning": {
        "scenario": "treated_arm_learning",
        "types": [
            {"prob": 0.5, "prior": [[0.2, 0.5], [0.8, 0.5]], "mu_ctrl": [0.3, 0.5], "beta": 0.9},
            {"prob": 0.5, "prior": [[1.2, -0.5], [0.8, 1.5]], "mu_ctrl": [0.3, 0.6], "beta": 0.9},
        ],
    },
    "control_arm_learning": {
        "scenario": "control_arm_learning",
        "types": [
            {"prob": 0.7, "prior": [[0.2, 0.5], [0.8, 0.5]], "mu_treat1": 0.5, "ktilde1": 0.0},
            {"prob": 0.3, "prior": [[1.5, 1.0]], "mu_treat1": 0.5, "ktilde1": 0.0},
        ],
    },
    "past_outcome_selection": {
        "scenario": "past_outcome_selection",
        "p_y00": 1.5,
        "trans_ctrl": [[0.5, 0.6], [0.5, 0.5]],
        "mean_y_treated": [0.5, -0.1],
    },
    "roy_irreversible": {
        "scenario": "roy_irreversible",
        "beta": 1.0,
        "pmf": [[0, 0, 0, 0, 0.5], [0, 0, 0, 0, 0.25], [1, 1, 1, 1, 0.5]],
    },
    "optimal_stopping": {
        "scenario": "optimal_stopping",
        "types": [
            {"prob": 0.5, "k0": 0.1, "k1": 0.2, "beta": 0.9, "pmf": [[1.0, 1.5, 1.0]]},
            {"prob": 0.5, "k0": 0.1, "k1": 0.2, "beta": 0.0, "pmf": [[1.0, 1.5, 0.5], [2.0, 2.5, 0.25]]},
        ],
    },
}

# JSON texts the decoder rejects
MALFORMED = {
    "nan-mu": '{"scenario": "no_learning", "types": [{"prob": 1, "mu": [[0.5, NaN], [0.5, 0.5]], "beta": 0.9}]}',
    "bool-prior": '{"scenario": "treated_arm_learning", "types": [{"prob": 1, "prior": [[true, 1]],'
    ' "mu_ctrl": [0.5, 0.5], "beta": 0.9}]}',
    "string-k1": '{"scenario": "no_learning", "types": [{"prob": 1, "mu": [[0.5, 0.5], [0.5, 0.5]],'
    ' "k1": [[0, 0], [0, "x"]], "beta": 0.9}]}',
    "inf-pmf": '{"scenario": "optimal_stopping", "types": [{"prob": 1, "k0": 0, "k1": 0, "beta": 0.9,'
    ' "pmf": [[1, 1e999, 1]]}]}',
    "huge-int": '{"scenario": "roy_repeated", "pmf": [[0, 0, 0, 0, 1' + "0" * 400 + "]]}",
    "missing-key": '{"scenario": "control_arm_learning", "types": [{"prob": 1, "prior": [[0.5, 1]],'
    ' "mu_treat1": 0.5}]}',
    "unknown-key": '{"scenario": "roy_irreversible", "pmf": [[0, 0, 0, 0, 1]], "beta": 0.9, "gamma": 1}',
    "empty-types": '{"scenario": "treated_arm_learning", "types": []}',
    "non-object-type": '{"scenario": "optimal_stopping", "types": [{"prob": 1, "k0": 0, "k1": 0, "beta": 0.9,'
    ' "pmf": [[1, 1, 1]]}, [1]]}',
    "prior-pair-length": '{"scenario": "control_arm_learning", "types": [{"prob": 1, "prior": [[0.5, 0.5, 1]],'
    ' "mu_treat1": 0.5, "ktilde1": 0}]}',
    "non-binary-pmf16": '{"scenario": "roy_repeated", "pmf": [[0, 0, 2, 0, 1]]}',
    "trans-ctrl-1x2": '{"scenario": "past_outcome_selection", "p_y00": 0.5, "trans_ctrl": [[0.5, 0.5]],'
    ' "mean_y_treated": [0.5, 0.5]}',
    "k0-three-entries": '{"scenario": "no_learning", "types": [{"prob": 1, "mu": [[0.5, 0.5], [0.5, 0.5]],'
    ' "k0": [0, 0, 0], "beta": 0.9}]}',
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv: str) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def _joint_bytes(joint) -> bytes:
    columns = {"u0_type": joint.u0_type, **joint.arrays()}
    return b"".join(name.encode() + arr.dtype.str.encode() + arr.tobytes() for name, arr in columns.items())


def _readback_bytes(path: Path) -> bytes:
    panel = read_panel_csv(path)
    columns = (panel.d0, panel.d1, panel.y0, panel.y1) + ((panel.po,) if panel.has_latent else ())
    return b"".join(arr.dtype.str.encode() + str(arr.shape).encode() + arr.tobytes() for arr in columns)


def _empirical_bytes(path: Path) -> bytes:
    panel = read_panel_csv(path)
    doc: dict = {}
    try:
        table = empirical_cell_table(panel)
        doc["cells"] = table.to_json()
        doc["partial_pt"] = partial_pt(table).to_json()
        doc["selection_stationarity"] = selection_stationarity(table).to_json()
    except (LabError, ValueError) as e:
        doc["error"] = repr(e)
    try:
        doc["observable_pt_probe"] = observable_pt_probe(panel)
    except LabError as e:
        doc["observable_pt_probe"] = e.code
    return json.dumps(doc, sort_keys=True).encode()


def _given_panel_sha(text: str, emit_latent: bool, tmp: Path) -> str:
    cfg = parse_config(text)
    cfg.n, cfg.replications, cfg.emit_latent = GIVEN_N, 1, emit_latent
    report = run_experiment(cfg)
    panel = draw_panel(report.sampler.joint, GIVEN_N, GIVEN_SEED)
    write_outputs(report, [panel], tmp / "panel-given")
    return _sha((tmp / "panel-given" / "panel.csv").read_bytes())


def edge_panel() -> Panel:
    """2 * _SLICE_ROWS + 7 units, so three slices of the given-panel writer;
    unit i takes treatment path i % 4, and column c (y0, y1, y00 ... y11)
    takes EDGE_FLOATS[(i + 3 * c) % len(EDGE_FLOATS)]."""
    units = np.arange(2 * harness._SLICE_ROWS + 7)
    edge = np.array(EDGE_FLOATS)
    cols = [edge[(units + 3 * c) % len(edge)] for c in range(6)]
    return Panel(d0=units // 2 % 2, d1=units % 2, y0=cols[0], y1=cols[1], po=np.column_stack(cols[2:]))


def _edge_panel_lines(tmp: Path) -> list[str]:
    cfg = parse_config(corpus.shipped_text("known_means"))
    cfg.n, cfg.replications = 100, 1
    report, panel = run_experiment(cfg), edge_panel()
    lines = []
    for tag, latent in (("plain", False), ("latent", True)):
        out = tmp / "panel-edge" / tag
        write_outputs(dataclasses.replace(report, emit_latent=latent), [panel], out)
        lines.append(f"panel-edge/{tag} {_sha((out / 'panel.csv').read_bytes())}")
    return lines


def _configs() -> dict[str, str]:
    texts = {f"shipped:{name}": corpus.shipped_text(name) for name in corpus.shipped_names()}
    seeds = corpus.seed_corpus()
    for family, make in FAMILIES.items():
        for seed in seeds[family][:CORPUS_SEEDS]:
            texts[f"{family}:{seed}"] = json.dumps(make(seed).to_json())
    for item in inputs.workload_spec("wide_support", 0)["items"]:
        texts[f"wide:{item['label']}"] = item["text"]
    return texts


def versions() -> str:
    """The interpreter and numpy versions, as the header line names them."""
    return f"python {platform.python_version()} numpy {np.__version__}"


def snapshot() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, text in _configs().items():
            path = tmp / "config.json"
            path.write_text(text, encoding="utf-8")
            joint = build_joint(parse_config(text).scenario)
            lines.append(f"joint/{label} {_sha(_joint_bytes(joint))}")
            sampler = AtomSampler(joint)
            lines.append(f"guide/{label} {_sha(sampler._guide.dtype.str.encode() + sampler._guide.tobytes())}")
            for n, seed in COUNTS_SETTINGS:
                counts = sampler.counts(n, seed)
                lines.append(f"counts/{label}/{n},{seed} {_sha(counts.dtype.str.encode() + counts.tobytes())}")
            code, out, _ = _run("validate", str(path))
            lines.append(f"validate/{label} {code} {_sha(out)}")
            code, out, err = _run("truth", str(path))
            lines.append(f"truth/{label} {code} {_sha(out)} {_sha(err)}")
            code, out, _ = _run("simulate", str(path))
            lines.append(f"simulate/{label} {code} {_sha(out)}")
            runs = [("experiment", ()), ("experiment+", PLUS_SETTINGS)]
            if label.startswith("shipped:"):
                runs.append(("experiment-", MINUS_SETTINGS))
            for tag, extra in runs:
                out_dir = tmp / tag / label.replace(":", "_")
                code, _, _ = _run("experiment", str(path), "--out", str(out_dir), *extra)
                for f in sorted(out_dir.iterdir()):
                    lines.append(f"{tag}/{label}/{f.name} {code} {_sha(f.read_bytes())}")
            for tag, latent in (("plain", False), ("latent", True)):
                lines.append(f"panel-given/{label}/{tag} {_given_panel_sha(text, latent, tmp)}")
            panel = tmp / "experiment+" / label.replace(":", "_") / "panel.csv"
            lines.append(f"readback/{label} {_sha(_readback_bytes(panel))}")
            lines.append(f"empirical/{label} {_sha(_empirical_bytes(panel))}")
        lines.extend(_edge_panel_lines(tmp))
        for label, obj in INVALID.items():
            path = tmp / "invalid.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            code, out, _ = _run("validate", str(path))
            lines.append(f"validate/invalid:{label} {code} {_sha(out)}")
    for label, text in MALFORMED.items():
        try:
            parse_config(text)
            lines.append(f"decode/{label} accepted")
        except LabError as e:
            lines.append(f"decode/{label} {e.code} {e.path} {_sha(str(e).encode())}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    Path(argv[0]).write_text("\n".join([f"# {versions()}", *snapshot()]) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
