"""Command line front end.

Subcommands: validate, truth, simulate, estimate, experiment, scenarios.
Progress and warnings go to standard error; data goes to standard output or
to files.  Exit codes: 0 success, 1 scenario validation failure, 2 anything
else (bad config, bad panel, I/O trouble).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import _jsonio
from ._rng import derive_seed
from .corpus import shipped_config, shipped_names, shipped_text
from .core import validate_scenario
from .errors import LabError
from .estimators import ESTIMATORS, ObservedCells
from .harness import (
    ExperimentConfig,
    check_int_setting,
    oracle_block,
    parse_config,
    read_panel_csv,
    run_experiment,
    sampled_panel_csv,
    write_outputs,
)
from .scenarios import SCENARIO_CLASSES, AtomSampler, build_joint

__all__ = ["main"]

class _ExitCode(Exception):
    def __init__(self, code: int):
        self.code = code


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_text(ref: str) -> bytes | str:
    """A config's text, as bytes where it comes from a file or stdin, so that
    parse_config reports bytes that are not UTF-8 as a parse-error."""
    if ref == "-":
        return sys.stdin.buffer.read()
    if ref in shipped_names():
        return shipped_text(ref)
    try:
        return Path(ref).read_bytes()
    except OSError as e:
        raise LabError("io-error", f"cannot read config: {e}", ref) from None


def _apply_overrides(cfg: ExperimentConfig, args) -> None:
    for flag, key in (("seed", "seed"), ("reps", "replications"), ("n", "n")):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, key, check_int_setting(key, value, f"--{flag}"))
    out = getattr(args, "out", None)
    if out is not None:
        cfg.outputs = out
    if getattr(args, "emit_latent", False):
        cfg.emit_latent = True


def _validated_config(args) -> ExperimentConfig:
    cfg = parse_config(_load_text(args.config))
    _apply_overrides(cfg, args)
    report = validate_scenario(cfg.scenario)
    for w in report.warnings:
        _log(f"warning: {w}")
    if not report.ok:
        for v in report.violations:
            _log(f"invalid scenario: [{v.rule}] {v.message}")
        raise _ExitCode(1)
    return cfg


def _cmd_validate(args) -> int:
    cfg = parse_config(_load_text(args.config))
    report = validate_scenario(cfg.scenario)
    print(json.dumps(report.to_json(), indent=2, default=repr))
    return 0 if report.ok else 1


def _cmd_truth(args) -> int:
    cfg = _validated_config(args)
    block = oracle_block(cfg.scenario, cfg.estimators)
    print(_jsonio.dumps(block, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    cfg = _validated_config(args)
    sampler = AtomSampler(build_joint(cfg.scenario))
    text = sampled_panel_csv(sampler, cfg.n, derive_seed(cfg.seed, 0), cfg.emit_latent)
    if cfg.outputs:
        path = Path(cfg.outputs)
        try:
            if path.suffix != ".csv":
                path.mkdir(parents=True, exist_ok=True)
                path = path / "panel.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(text)
        except OSError as e:
            raise LabError("io-error", f"cannot write panel: {e}", str(path)) from None
        _log(f"wrote {path}")
    else:
        sys.stdout.writelines(text)
    return 0


def _cmd_estimate(args) -> int:
    cfg = parse_config(_load_text(args.config))
    cells = ObservedCells(read_panel_csv(args.panel))
    print("estimator_id,value,lower,upper")
    for est_id in cfg.estimators:
        try:
            rpt = ESTIMATORS[est_id](cells)
        except LabError as e:
            if e.code == "non-finite":
                raise  # a bad panel, not an estimator that does not apply to it
            _log(f"skipping {est_id}: {e}")
            continue
        value = rpt.value
        if hasattr(value, "lower"):
            print(f"{est_id},,{_jsonio.format_float(value.lower)},{_jsonio.format_float(value.upper)}")
        else:
            print(f"{est_id},{_jsonio.format_float(value)},,")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _validated_config(args)
    if not cfg.outputs:
        raise LabError("schema-error", "experiment needs an output directory: pass --out or set 'outputs'")
    report = run_experiment(cfg)
    written = write_outputs(report, [], cfg.outputs)
    for path in written:
        _log(f"wrote {path}")
    return 0


def _cmd_scenarios(args) -> int:
    by_tag: dict[str, list[str]] = {}
    for name in shipped_names():
        by_tag.setdefault(shipped_config(name).scenario_id, []).append(name)
    for tag, cls in SCENARIO_CLASSES.items():
        names = ", ".join(by_tag.get(tag, [])) or "-"
        print(f"{tag:24s} {cls.note}; shipped: {names}")
    return 0


def _add_config_arg(sub) -> None:
    sub.add_argument(
        "config",
        help="config file path, a shipped config name (see `didlab scenarios`), or - for stdin",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="didlab",
        description="Simulation laboratory for two-period difference-in-differences under dynamic treatment choice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config and print the validation report")
    _add_config_arg(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("truth", help="print exact population quantities for a config")
    _add_config_arg(p)
    p.set_defaults(func=_cmd_truth)

    p = sub.add_parser("simulate", help="draw one panel and write it as CSV")
    _add_config_arg(p)
    p.add_argument("--seed", type=int, help="base seed (overrides config)")
    p.add_argument("--n", type=int, help="units per panel (overrides config)")
    p.add_argument("--out", help="output file or directory (default: stdout)")
    p.add_argument("--emit-latent", action="store_true", help="append potential-outcome columns")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="run the configured estimators on an external panel CSV")
    _add_config_arg(p)
    p.add_argument("--panel", required=True, help="panel CSV (as written by simulate/experiment)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="replicated simulation study with summary outputs")
    _add_config_arg(p)
    p.add_argument("--seed", type=int, help="base seed (overrides config)")
    p.add_argument("--reps", type=int, help="replications (overrides config)")
    p.add_argument("--n", type=int, help="units per panel (overrides config)")
    p.add_argument("--out", help="output directory (overrides config 'outputs')")
    p.add_argument("--emit-latent", action="store_true", help="include potential outcomes in panel.csv")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("scenarios", help="list the scenario catalog and shipped configs")
    p.set_defaults(func=_cmd_scenarios)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ExitCode as e:
        return e.code
    except LabError as e:
        _log(str(e))
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
