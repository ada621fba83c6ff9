"""Byte-identity snapshot: one sha256 per artifact didlab produces.

    PYTHONPATH=src python tests/snapshot.py OUT

writes one "artifact sha256" line per artifact to OUT.  Run it on two
checkouts and diff the two files: a change that keeps every output
byte-identical leaves them equal.  The artifacts, for each config:

  joint/        build_joint's columns and u0_type (names, dtypes and bytes)
  validate/     the validation report JSON, warnings in order (didlab validate)
  truth/        oracle_block's JSON and the warnings (didlab truth)
  simulate/     the panel CSV of didlab simulate
  experiment/   each file of didlab experiment at the config's settings
  experiment+/  the same at --n 2000 --reps 20 --seed 5 --emit-latent
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

Uses only the standard library, didlab and perfbench/inputs.py; pytest does
not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py, stdlib only)

from didlab import cli, corpus  # noqa: E402
from didlab.diagnostics import (  # noqa: E402
    empirical_cell_table,
    observable_pt_probe,
    partial_pt,
    selection_stationarity,
)
from didlab.errors import LabError  # noqa: E402
from didlab.harness import parse_config, read_panel_csv  # noqa: E402
from didlab.scenarios import build_joint  # noqa: E402

CORPUS_SEEDS = 3
# the experiment+ overrides
PLUS_SETTINGS = ("--n", "2000", "--reps", "20", "--seed", "5", "--emit-latent")

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


def _joint_bytes(text: str) -> bytes:
    joint = build_joint(parse_config(text).scenario)
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


def _configs() -> dict[str, str]:
    texts = {f"shipped:{name}": corpus.shipped_text(name) for name in corpus.shipped_names()}
    seeds = corpus.seed_corpus()
    for family, make in FAMILIES.items():
        for seed in seeds[family][:CORPUS_SEEDS]:
            texts[f"{family}:{seed}"] = json.dumps(make(seed).to_json())
    for item in inputs.workload_spec("wide_support", 0)["items"]:
        texts[f"wide:{item['label']}"] = item["text"]
    return texts


def snapshot() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, text in _configs().items():
            path = tmp / "config.json"
            path.write_text(text, encoding="utf-8")
            lines.append(f"joint/{label} {_sha(_joint_bytes(text))}")
            code, out, _ = _run("validate", str(path))
            lines.append(f"validate/{label} {code} {_sha(out)}")
            code, out, err = _run("truth", str(path))
            lines.append(f"truth/{label} {code} {_sha(out)} {_sha(err)}")
            code, out, _ = _run("simulate", str(path))
            lines.append(f"simulate/{label} {code} {_sha(out)}")
            for tag, extra in (("experiment", ()), ("experiment+", PLUS_SETTINGS)):
                out_dir = tmp / tag / label.replace(":", "_")
                code, _, _ = _run("experiment", str(path), "--out", str(out_dir), *extra)
                for f in sorted(out_dir.iterdir()):
                    lines.append(f"{tag}/{label}/{f.name} {code} {_sha(f.read_bytes())}")
            panel = tmp / "experiment+" / label.replace(":", "_") / "panel.csv"
            lines.append(f"readback/{label} {_sha(_readback_bytes(panel))}")
            lines.append(f"empirical/{label} {_sha(_empirical_bytes(panel))}")
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
    Path(argv[0]).write_text("\n".join(snapshot()) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
