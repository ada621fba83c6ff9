"""Seeded workload inputs.

Everything here is stdlib only and never imports didlab: the program under
test receives the configs as JSON text.  The same (workload, seed, smoke)
always gives the same spec.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("mc_sweep", "wide_support", "panel_io")

SHIPPED = (
    "selection_on_past",
    "known_means",
    "treated_arm_learning",
    "control_arm_learning",
    "learner_bounds",
    "roy_repeated",
    "roy_irreversible",
    "stopping_uninformative",
    "stopping_informative",
    "stationary_scale",
)

# mc_sweep configs whose outputs are also written and read back each pass,
# as `didlab experiment` followed by `didlab estimate` would: one with float
# outcomes, one with integral outcomes
MC_IO = ("stopping_uninformative", "stationary_scale")

# a shipped config's truth takes about a millisecond, so each pass repeats it
# to give its median and tail enough samples
TRUTH_REPS_SMALL = 10

# rows of the panel.csv each write and read-back moves.  A 100,000-row write
# takes a quarter to three quarters of a second, so a run timed only a few;
# 20,000-row calls give every run dozens
IO_ROWS = 20_000

# replications per config for the harness.retained_mb_per_rep probes (R and 2R)
RETAIN_REPS = 10


def _item(label, n, reps, seed, io_n, latent=False, shipped=None, text=None, truth_reps=1):
    return {
        "label": label,
        "truth_reps": truth_reps,
        "shipped": shipped,
        "text": text,
        "n": n,
        "reps": reps,
        "seed": seed,
        "io_n": io_n,
        "latent": latent,
    }


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def no_learning_text(rng: random.Random, types: int) -> str:
    """A no_learning config whose untreated trend is the same for every type,
    so it always validates; every mean lies strictly inside (0, 1), so each
    type contributes exactly 16 atoms."""
    tau = _uniform(rng, -0.1, 0.1)
    out = []
    for _ in range(types):
        mu00 = _uniform(rng, 0.15, 0.8)
        out.append({
            "prob": 1.0 / types,
            "mu": [[mu00, _uniform(rng, 0.05, 0.95)], [mu00 + tau, _uniform(rng, 0.05, 0.95)]],
            "k0": [0.0, _uniform(rng, 0.0, 0.3)],
            "k1": [[0.0, _uniform(rng, 0.0, 0.3)], [0.0, _uniform(rng, 0.0, 0.3)]],
            "beta": _uniform(rng, 0.5, 0.95),
        })
    return json.dumps({"scenario": "no_learning", "types": out})


def treated_learning_text(rng: random.Random, types: int, points: int) -> str:
    """A treated_arm_learning config with `points`-point priors and a common
    untreated trend; rates and means lie strictly inside (0, 1), so each type
    contributes exactly 16 * points atoms."""
    tau = _uniform(rng, -0.1, 0.1)
    out = []
    for _ in range(types):
        rates = sorted(_uniform(rng, 0.05, 0.95) for _ in range(points))
        weights = [_uniform(rng, 0.5, 1.5) for _ in range(points)]
        total = sum(weights)
        c0 = _uniform(rng, 0.15, 0.8)
        out.append({
            "prob": 1.0 / types,
            "prior": [[r, w / total] for r, w in zip(rates, weights)],
            "mu_ctrl": [c0, c0 + tau],
            "k0": [0.0, _uniform(rng, 0.0, 0.3)],
            "k1": [[0.0, _uniform(rng, 0.0, 0.3)], [0.0, _uniform(rng, 0.0, 0.3)]],
            "beta": _uniform(rng, 0.5, 0.95),
        })
    return json.dumps({"scenario": "treated_arm_learning", "types": out})


def analytic_atoms(text: str) -> int:
    """Support size of a generated config, from its JSON alone."""
    obj = json.loads(text)
    if obj["scenario"] == "no_learning":
        return 16 * len(obj["types"])
    return sum(16 * len(t["prior"]) for t in obj["types"])


def workload_spec(workload: str, seed: int, smoke: bool = False) -> dict:
    """The ordered list of items one pass of the workload runs.

    Each item is a config plus the experiment settings for it: n units,
    `reps` replications, the experiment seed, the rows of the panel each pass
    writes and reads back (`io_n`, 0 for none), whether panel.csv carries
    the latent columns, and how many times a pass asks for the truth.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    io_n = 500 if smoke else IO_ROWS
    items = []
    if workload == "mc_sweep":
        n, reps = (2_000, 3) if smoke else (100_000, 5)
        for name in SHIPPED:
            items.append(_item(name, n, reps, rng.getrandbits(63), io_n if name in MC_IO else 0, shipped=name,
                               truth_reps=TRUTH_REPS_SMALL))
    elif workload == "wide_support":
        # 4,800 atoms each: big enough that the joint build and the oracle
        # dominate, small enough that a run times each operation dozens of times
        nl_types, tal_types = (50, 10) if smoke else (300, 60)
        n, reps = (2_000, 2) if smoke else (20_000, 4)
        items.append(_item("no_learning_wide", n, reps, rng.getrandbits(63), io_n,
                           text=no_learning_text(rng, nl_types)))
        items.append(_item("treated_arm_learning_wide", n, reps, rng.getrandbits(63), io_n,
                           text=treated_learning_text(rng, tal_types, 5)))
    else:
        n = 2_000 if smoke else 100_000
        for name in ("stopping_informative", "treated_arm_learning"):
            for latent in (False, True):
                label = name + ("+latent" if latent else "")
                items.append(_item(label, n, 1, rng.getrandbits(63), io_n, latent=latent, shipped=name,
                                   truth_reps=TRUTH_REPS_SMALL))
    return {"workload": workload, "seed": seed, "smoke": smoke, "items": items}
