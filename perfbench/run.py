"""didlab benchmark: three seeded workloads, each in a fresh process.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one after another
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from its src/.
The last line of standard output for a workload is one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see perfbench/README.md).
The lines before it give the same numbers for a reader, with the machine
facts and the workload's input properties.  --smoke runs every workload at tiny size,
untraced and traced, with every output check on, and exits 0 only if all
of them pass.

Each run starts these processes one after another and waits for each: an
untraced run PROCESSES workload processes, each measuring an equal share of
--seconds; a traced run one workload process and then two memory probes per
distinct config.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from inputs import RETAIN_REPS, WORKLOADS, workload_spec  # noqa: E402

RUN_BUDGET_S = 175.0

# Fresh workload processes an untraced run is split over.  An operation's
# calls moved by about a tenth from one process to the next on the same input
# (memory layout, hash seed), so every figure pools or takes the median over
# these processes, and set-up is timed once in each.
PROCESSES = 5

class RunFailed(Exception):
    pass


def _workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _import_program():
    sys.path.insert(0, str(SRC))
    import didlab

    if Path(didlab.__file__).resolve().parent != (SRC / "didlab").resolve():
        raise RunFailed(f"imported didlab from {didlab.__file__}, not from {SRC}")
    import lab

    return lab


# --------------------------------------------------------------------- roles


def _role_workload(args) -> dict:
    lab = _import_program()
    spec = json.loads(Path(args.spec).read_text())
    bench = lab.Lab(spec, Path(args.workdir), traced=bool(args.trace))
    bench.setup()
    setup_s = time.perf_counter() - _T0
    if args.trace:
        out = bench.traced()
        bench.write_spans(WORK / "spans" / f"{spec['workload']}-seed{spec['seed']}.json")
    else:
        out = bench.measure(args.seconds, setup_s)
        out["peak_rss_mb"] = lab.peak_rss_mb()
    out.update(
        setup_s=setup_s,
        reference_target_s=lab.REFERENCE_S,
        attempted=bench.attempted,
        failed=bench.failed,
        facts=bench.facts,
        numpy=lab.np.__version__,
    )
    return out


def _role_retain(args) -> dict:
    lab = _import_program()
    spec = json.loads(Path(args.spec).read_text())
    item = dict(spec["items"][args.index], reps=args.reps)
    scen = lab.corpus.shipped_text(item["shipped"]) if item["shipped"] else item["text"]
    lab.run_experiment(lab.parse_config(lab.Lab.experiment_text(item, scen)))
    return {"rss_mb": lab.peak_rss_mb()}


# -------------------------------------------------------------- orchestrator


def _child(argv, env, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("run budget exhausted")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{' '.join(argv[:2])} exited {proc.returncode}")
    return json.loads(lines[-1])


def _cache_kib(name: int):
    # glibc's _SC_LEVEL2_CACHE_SIZE (191) and _SC_LEVEL3_CACHE_SIZE (194)
    try:
        return os.sysconf(name) // 1024
    except (ValueError, OSError):
        return None


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    if not (SRC / "didlab" / "__init__.py").is_file():
        raise RunFailed(f"no didlab package under {SRC}; run from the root of a didlab checkout")
    deadline = time.monotonic() + RUN_BUDGET_S
    spec = workload_spec(workload, seed, smoke)
    workdir = WORK / f"run-{os.getpid()}-{workload}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, DIDLAB_WORKERS=str(_workers()))
    try:
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        common = ["--role", "workload", "--spec", str(spec_path), "--workdir", str(workdir),
                  "--trace", str(int(trace))]
        retained = {}
        if trace:
            res = _child([*common, "--seconds", str(seconds)], env, deadline)
            firsts = {}
            for i, item in enumerate(spec["items"]):
                firsts.setdefault(item["shipped"] or item["label"], i)
            for key, i in firsts.items():
                rss = [_child(["--role", "retain", "--spec", str(spec_path), "--index", str(i),
                               "--reps", str(r)], env, deadline)["rss_mb"]
                       for r in (RETAIN_REPS, 2 * RETAIN_REPS)]
                retained[key] = (rss[1] - rss[0]) / RETAIN_REPS
            res["metrics"]["harness.retained_mb_per_rep.max"] = (max(retained.values()), "MB/rep")
            res["metrics"]["harness.retained_mb_per_rep.min"] = (min(retained.values()), "MB/rep")
        else:
            procs = [_child([*common, "--seconds", str(seconds / PROCESSES)], env, deadline)
                     for _ in range(PROCESSES)]
            res = end_to_end(procs, spec["items"])
            res["unscaled"] = end_to_end(procs, spec["items"], scaled=False)["metrics"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res.update(retained=retained, env_workers=env["DIDLAB_WORKERS"])
    return res


def tail(values):
    """Highest percentile with at least ten samples beyond it: the sorted
    value with exactly ten above it.  Below 20 samples that percentile is
    under the median, so the maximum is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], "max"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def end_to_end(procs: list, items: list, scaled: bool = True) -> dict:
    """The end-to-end figures of an untraced run from its workload processes.

    Every time is scaled to the reference speed (see Lab.measure) unless
    `scaled` is false.  A `.p50` time is each item's median call, its calls
    pooled over the processes, and a rate is the item's work over that
    median call; both combine the items by geometric mean, so each config
    weighs the same.  A `.tail` pools the calls of all items and processes.
    Set-up and peak memory are medians over processes."""
    items = {it["label"]: it for it in items}
    times = [p["scaled" if scaled else "wall"] for p in procs]

    def medians(name):
        return {
            label: statistics.median(d for t in times for d in t["durations"][name][label])
            for label in times[0]["durations"][name]
        }

    def p50(name):
        return statistics.geometric_mean(medians(name).values())

    def rate(name, work):
        return statistics.geometric_mean(work(items[label]) / m for label, m in medians(name).items())

    def tail_note(name):
        calls = [d for t in times for per_item in t["durations"][name].values() for d in per_item]
        value, q = tail(calls)
        return value, f"{q} of {len(calls)} calls"

    setups = [t["setup_s"] for t in times]
    exp, truth = tail_note("harness.run_experiment"), tail_note("op.truth")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in procs), "MB"),
        "reps_per_s": (rate("harness.run_experiment", lambda it: it["reps"]), "1/s"),
        "experiment_s.p50": (p50("harness.run_experiment"), "s"),
        "experiment_s.tail": (exp[0], "s"),
        "truth_s.p50": (p50("op.truth"), "s"),
        "truth_s.tail": (truth[0], "s"),
        "write_rows_per_s": (rate("harness.write_outputs", lambda it: it["io_n"]), "1/s"),
        "read_rows_per_s": (rate("harness.read_panel_csv", lambda it: it["io_n"]), "1/s"),
        "estimate_s.p50": (p50("op.estimate"), "s"),
    }
    return {
        "metrics": metrics,
        "tails": {"experiment_s.tail": exp[1], "truth_s.tail": truth[1]},
        "passes": [p["passes"] for p in procs],
        "reference_s": [p["reference_s"] for p in procs],
        "reference_target_s": procs[0]["reference_target_s"],
        "setups": setups,
        "attempted": sum(p["attempted"] for p in procs),
        "failed": sum(p["failed"] for p in procs),
        "facts": procs[0]["facts"],
        "numpy": procs[0]["numpy"],
    }


def report_lines(workload: str, seed: int, trace: bool, res: dict) -> list[str]:
    out = [f"didlab benchmark: workload={workload} seed={seed} trace={int(trace)}"]
    facts = res["facts"]
    out.append(
        f"machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={res['numpy']} L2={_cache_kib(191)}KiB L3={_cache_kib(194)}KiB "
        f"DIDLAB_WORKERS={res['env_workers']}"
    )
    out.append(f"inputs: sharp/fuzzy configs = {facts['sharp_fuzzy']}")
    for key, c in facts["configs"].items():
        out.append(f"  {key}: atoms={c['atoms']} design={c['design']} integral_share={c['integral_share']:.4f}")
    for key, mb in res["retained"].items():
        out.append(f"  {key}: harness.retained_mb_per_rep={mb:.3f} MB/rep (R={RETAIN_REPS} vs {2 * RETAIN_REPS})")
    if not trace:
        out.append(f"passes per process: {res['passes']}; median reference call per process: "
                   + ", ".join(f"{s * 1e3:.3f} ms" for s in res["reference_s"])
                   + f" (times below are scaled to {res['reference_target_s'] * 1e3:g} ms)")
        out.append("set-up samples: " + ", ".join(f"{s:.4f}" for s in res["setups"]))
    for name, (value, unit) in res["metrics"].items():
        note = res.get("tails", {}).get(name, "")
        out.append(f"  {name:40s} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, (value, unit) in res.get("unscaled", {}).items():
        if name != "peak_rss_mb":
            out.append(f"  {name + ' unscaled':40s} {value:.6g} {unit}  (printed only: wall time as measured)")
    rate = res["failed"] / res["attempted"]
    out.append(f"  {'error_rate':40s} {rate:.6g} ratio  ({res['failed']} failed of {res['attempted']} operations)")
    return out


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def result_json(res: dict, trace: bool) -> str:
    """The result line, metrics in BENCHMARK.json's order; a metric missing,
    extra or in another unit than declared is a defect of the benchmark."""
    declared = declared_metrics(trace)
    got = res["metrics"]
    if sorted(got) != sorted(n for n, _ in declared) or any(got[n][1] != u for n, u in declared):
        raise RunFailed(f"metrics {sorted(got)} do not match BENCHMARK.json")
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": got[n][0], "unit": u} for n, u in declared},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, help="default: every workload, one after another")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload at tiny size, checks on")
    p.add_argument("--role", choices=("workload", "retain"), help=argparse.SUPPRESS)
    p.add_argument("--spec", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--index", type=int, help=argparse.SUPPRESS)
    p.add_argument("--reps", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.role:
        role = {"workload": _role_workload, "retain": _role_retain}[args.role]
        print(json.dumps(role(args)))
        return 0

    if args.smoke:
        runs = [(w, trace) for w in WORKLOADS for trace in (False, True)]
    else:
        runs = [(w, bool(args.trace)) for w in ([args.workload] if args.workload else WORKLOADS)]
    ok = True
    try:
        for workload, trace in runs:
            res = run_once(workload, args.seed, 1.0 if args.smoke else args.seconds, trace, smoke=args.smoke)
            result = result_json(res, trace)
            print("\n".join(report_lines(workload, args.seed, trace, res)))
            print(result)
            ok = ok and res["failed"] == 0
    except (RunFailed, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    if args.smoke:
        print(json.dumps({"smoke": "pass" if ok else "fail"}))
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
