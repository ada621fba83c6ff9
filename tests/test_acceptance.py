"""Acceptance suite: ten end-to-end guarantees, one test and one printed
verdict line each.

Every numeric claim is checked at the stated tolerance against exact joint
enumeration; nothing here is statistical except criterion 9, which is a
Monte Carlo consistency check with its own replication budget.
"""

import time

import numpy as np

from didlab.cli import main as cli_main
from didlab.corpus import (
    random_control_learning,
    random_known_means,
    random_learner_bounds,
    random_roy,
    random_selection_on_past,
    random_stopping,
    random_treated_learning,
    random_config,
    seed_corpus,
    shipped_config,
    shipped_names,
)
from didlab.diagnostics import partial_pt, selection_stationarity
from didlab.estimators import att_forward_stationary, att_stationary, did_sharp, did_switchers, mts_bounds
from didlab.harness import ALL_ESTIMATORS, ExperimentConfig, run_experiment
from didlab.oracle import (
    cell_table,
    check_conditions,
    classify_learners,
    conditional_mean,
    pt_deviation,
    stopping_residual,
    true_att_switchers,
)
from didlab.scenarios import build_joint

from _brute import brute_stopping_residual

EXACT = 1e-12
GAP = 1e-6


def _verdict(cid: str, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {cid}: {status} ({detail})")
    assert not failures, f"{cid}: " + "; ".join(str(f) for f in failures[:5])


def test_criterion_01_dual_route_equivalence():
    """pt deviation, trend-route spreads, and level-route constancy agree."""
    seeds = seed_corpus()["mixed"]
    assert len(seeds) == 200
    failures = []
    n_pt = 0
    for seed in seeds:
        table = cell_table(build_joint(random_config(seed)))
        dev = pt_deviation(table)
        trend = partial_pt(table)
        level = selection_stationarity(table)
        flat = dev <= EXACT
        trend_zero = trend.dev_d0 <= EXACT and trend.dev_d1_given_d0 <= EXACT
        level_zero = level.dev_d0 <= EXACT and level.dev_d1_given_d0 <= EXACT
        if not (flat == trend_zero == level_zero):
            failures.append((seed, dev, trend, level))
        if abs(trend.dev_d0 - level.dev_d0) > EXACT or abs(
            trend.dev_d1_given_d0 - level.dev_d1_given_d0
        ) > EXACT:
            failures.append((seed, "route values diverge"))
        n_pt += flat
    _verdict(
        "criterion-1 dual-route equivalence",
        failures,
        f"200 corpus configs, {n_pt} with parallel trends, iff exact at 1e-12",
    )


def test_criterion_02_past_outcome_selection_iff():
    """Identity persistence is the only way this selection rule allows PT,
    and the deviation equals the conditional-mean formula."""
    seeds = seed_corpus()["selection_on_past"]
    assert len(seeds) == 100
    failures = []
    for seed in seeds[:20]:
        cfg = random_selection_on_past(seed, identity=True)
        dev = pt_deviation(cell_table(build_joint(cfg)))
        if dev > EXACT:
            failures.append((seed, "identity transition", dev))
    for seed in seeds:
        cfg = random_selection_on_past(seed)
        joint = build_joint(cfg)
        dev = pt_deviation(cell_table(joint))
        if dev <= GAP:
            failures.append((seed, "non-identity too flat", dev))
        y10 = joint.po[:, 2]
        formula = (
            conditional_mean(joint, y10, joint.d1 == 1)
            - conditional_mean(joint, y10, joint.d1 == 0)
            + 1.0
        )
        if abs(dev - formula) > EXACT:
            failures.append((seed, "formula mismatch", dev, formula))
    _verdict(
        "criterion-2 outcome-driven selection iff",
        failures,
        "20 identity transitions flat; 100 non-identity exceed 1e-6 and match the conditional-mean formula",
    )


def test_criterion_03_known_means_and_treated_learning_imply_pt():
    """Decisions that cannot react to untreated outcomes preserve PT."""
    failures = []
    for seed in seed_corpus()["known_means"]:
        dev = pt_deviation(cell_table(build_joint(random_known_means(seed))))
        if dev > EXACT:
            failures.append(("known_means", seed, dev))
    for seed in seed_corpus()["treated_arm_learning"]:
        dev = pt_deviation(cell_table(build_joint(random_treated_learning(seed))))
        if dev > EXACT:
            failures.append(("treated_arm_learning", seed, dev))
    _verdict(
        "criterion-3 no-feedback scenarios stay parallel",
        failures,
        "100 known-means + 100 treated-arm-learning configs all within 1e-12",
    )


def test_criterion_04_control_learning_iff_and_shipped_values():
    """PT holds exactly when nobody is a valuable learner, or every valuable
    learner's untreated outcome is perfectly persistent with zero trend."""
    seeds = seed_corpus()["control_arm_learning"]
    assert len(seeds) == 200
    failures = []
    n_flat = 0
    for seed in seeds:
        cfg = random_control_learning(seed)
        cls = classify_learners(cfg)
        predicted = cls.p_vl <= EXACT or (
            cls.persistence_on_vl >= 1.0 - EXACT and abs(cls.tau) <= EXACT
        )
        dev = pt_deviation(cell_table(build_joint(cfg)))
        flat = dev <= EXACT
        if flat != predicted:
            failures.append((seed, dev, cls))
        if not flat and dev <= GAP:
            failures.append((seed, "non-PT draw inside knife-edge margin", dev))
        n_flat += flat
    table = cell_table(build_joint(shipped_config("control_arm_learning")))
    checks = (
        (table.cells[(0, 0)].trend_mean, -0.32),
        (table.cells[(0, 1)].trend_mean, 0.32),
        (pt_deviation(table), 0.64),
        (true_att_switchers(build_joint(shipped_config("control_arm_learning"))), 0.18),
    )
    for got, want in checks:
        if abs(got - want) > EXACT:
            failures.append(("shipped", got, want))
    _verdict(
        "criterion-4 learning-from-untreated iff",
        failures,
        f"200 configs ({n_flat} PT); shipped trends +-0.32, deviation 0.64, truth 0.18",
    )


def test_criterion_05_roy_iff_and_staggering():
    """Sixteen-atom outcome-comparison designs: PT holds exactly when the
    untreated mean is stationary and every ever-untreated unit sits at the
    top outcome in both periods; the lock-in variant never de-treats."""
    failures = []
    n_flat = 0
    for irreversible, key in ((False, "roy_repeated"), (True, "roy_irreversible")):
        seeds = seed_corpus()[key]
        assert len(seeds) == 100
        for seed in seeds:
            cfg = random_roy(seed, irreversible=irreversible)
            joint = build_joint(cfg)
            rep = check_conditions(cfg, joint)
            degeneracy = rep.degeneracy_ever_untreated
            predicted = (
                abs(rep.stationarity_gap) <= EXACT
                and degeneracy is not None
                and degeneracy >= 1.0 - EXACT
            )
            dev = pt_deviation(cell_table(joint))
            flat = dev <= EXACT
            if flat != predicted:
                failures.append((key, seed, dev, rep.stationarity_gap, degeneracy))
            if not flat and dev <= GAP:
                failures.append((key, seed, "inside margin", dev))
            n_flat += flat
            if irreversible and (joint.d0 > joint.d1).any():
                failures.append((key, seed, "treatment reversed on some atom"))
    _verdict(
        "criterion-5 outcome-comparison iff + lock-in",
        failures,
        f"200 sixteen-atom designs ({n_flat} PT); irreversible variant staggered on every atom",
    )


def test_criterion_06_stopping_cases():
    """Uninformative first outcomes keep PT; the shipped informative design
    breaks it with a residual matching independent enumeration."""
    failures = []
    for seed in seed_corpus()["stopping"]:
        cfg = random_stopping(seed, pt=True)
        dev = pt_deviation(cell_table(build_joint(cfg)))
        if dev > EXACT:
            failures.append((seed, "case-1 not flat", dev))
    cfg = shipped_config("stopping_uninformative")
    if pt_deviation(cell_table(build_joint(cfg))) > EXACT:
        failures.append(("shipped case-1 not flat",))
    cfg = shipped_config("stopping_informative")
    joint = build_joint(cfg)
    resid = stopping_residual(cfg)
    dev = pt_deviation(cell_table(joint))
    if not abs(resid) > 1e-3:
        failures.append(("residual too small", resid))
    if not dev > 1e-3:
        failures.append(("deviation too small", dev))
    ref = brute_stopping_residual(joint)
    if abs(resid - ref) > EXACT:
        failures.append(("residual mismatch", resid, ref))
    _verdict(
        "criterion-6 stopping cases",
        failures,
        f"100 case-1 configs flat; shipped case-2 residual {resid:.3f} matches enumeration",
    )


def test_criterion_07_identification_identities():
    """Where the identifying assumption holds exactly, the plug-in estimate
    equals the true switcher effect to numerical precision."""
    failures = []

    # change-contrast identity on parallel-trends joints with both cells
    pt_joints = []
    for seed in seed_corpus()["known_means"][:50]:
        pt_joints.append(build_joint(random_known_means(seed)))
    for seed in seed_corpus()["treated_arm_learning"][:50]:
        pt_joints.append(build_joint(random_treated_learning(seed)))
    for seed in seed_corpus()["control_arm_learning"][:50]:
        pt_joints.append(build_joint(random_control_learning(seed, pt=True)))
    for seed in seed_corpus()["roy_repeated"][:25]:
        pt_joints.append(build_joint(random_roy(seed, pt=True)))
    for seed in seed_corpus()["roy_irreversible"][:25]:
        pt_joints.append(build_joint(random_roy(seed, pt=True, irreversible=True)))
    for seed in seed_corpus()["stopping"][:25]:
        pt_joints.append(build_joint(random_stopping(seed, pt=True)))
    n_checked = 0
    for joint in pt_joints:
        cells = cell_table(joint).cells
        if (0, 1) not in cells or (0, 0) not in cells:
            continue
        n_checked += 1
        gap = did_switchers(joint).value - true_att_switchers(joint)
        if abs(gap) > EXACT:
            failures.append((joint.scenario_id, "switcher contrast off", gap))
    if n_checked < 50:
        failures.append(("too few PT joints with switchers", n_checked))

    # stationarity identities on the learning family (untreated draws are
    # exchangeable across periods, so both stationarity forms hold exactly)
    n_stat = 0
    for seed in seed_corpus()["control_arm_learning"]:
        joint = build_joint(random_control_learning(seed))
        if (0, 1) not in cell_table(joint).cells:
            continue
        n_stat += 1
        truth = true_att_switchers(joint)
        for fn in (att_stationary, att_forward_stationary):
            gap = fn(joint).value - truth
            if abs(gap) > EXACT:
                failures.append((seed, fn.__name__, gap))
    if n_stat < 100:
        failures.append(("too few stationary joints with switchers", n_stat))

    # shipped scale-separation construction: PT off by a trend gap of 2,
    # yet the stationarity route is exactly on target
    joint = build_joint(shipped_config("stationary_scale"))
    if pt_deviation(cell_table(joint)) != 2.0:
        failures.append(("shipped trend gap", pt_deviation(cell_table(joint))))
    if att_stationary(joint).value != 1.0 or true_att_switchers(joint) != 1.0:
        failures.append(
            ("shipped identity", att_stationary(joint).value, true_att_switchers(joint))
        )
    if did_sharp(joint).value != 3.0:
        failures.append(("shipped change-contrast", did_sharp(joint).value))
    _verdict(
        "criterion-7 identification identities",
        failures,
        f"{n_checked} PT joints and {n_stat} stationary joints at 1e-12; shipped case exact",
    )


def test_criterion_08_monotone_selection_bracket():
    """Interval estimator brackets the truth on designs built to satisfy the
    monotone-selection ordering; its upper end is the switcher contrast."""
    seeds = seed_corpus()["learner_bounds"]
    assert len(seeds) == 100
    failures = []
    for seed in seeds:
        joint = build_joint(random_learner_bounds(seed))
        truth = true_att_switchers(joint)
        b = mts_bounds(joint).value
        if not (b.lower <= truth + EXACT and truth <= b.upper + EXACT):
            failures.append((seed, b.lower, truth, b.upper))
        if abs(b.upper - did_switchers(joint).value) > EXACT:
            failures.append((seed, "upper end is not the switcher contrast"))
    _verdict(
        "criterion-8 monotone-selection bracket",
        failures,
        "100 configs bracket the truth; upper end identical to the switcher contrast",
    )


def test_criterion_09_monte_carlo_consistency():
    """At n = 100000, every estimator's panel draw sits within 3 cross-
    replication standard errors of its exact plug-in in >= 99% of 200 runs."""
    t0 = time.monotonic()
    failures = []
    for name in shipped_names():
        cfg = ExperimentConfig(
            scenario=shipped_config(name), n=100_000, replications=200, seed=424242
        )
        report = run_experiment(cfg)
        for est_id in ALL_ESTIMATORS:
            plug = report.oracle["plugin"][est_id]
            agg = report.estimators[est_id]
            if isinstance(plug, dict) and "error" in plug:
                if agg["n_ok"] != 0:
                    failures.append((name, est_id, "plug-in errors but panels do not"))
                continue
            if agg["n_ok"] != 200:
                failures.append((name, est_id, "replications lost", agg))
                continue
            if isinstance(plug, dict):
                series = {
                    "lower": ([r[3] for r in report.rows if r[1] == est_id], plug["lower"]),
                    "upper": ([r[4] for r in report.rows if r[1] == est_id], plug["upper"]),
                }
            else:
                series = {"value": ([r[2] for r in report.rows if r[1] == est_id], plug)}
            for side, (values, target) in series.items():
                arr = np.asarray(values, dtype=np.float64)
                se = float(np.std(arr, ddof=1))
                within = int(np.sum(np.abs(arr - target) <= 3.0 * se + 1e-15))
                if within < 198:
                    failures.append((name, est_id, side, within, se))
    elapsed = time.monotonic() - t0
    if elapsed > 300.0:
        failures.append(("runtime budget exceeded", elapsed))
    _verdict(
        "criterion-9 Monte Carlo consistency",
        failures,
        f"10 configs x 200 replications at n=100000 in {elapsed:.1f}s",
    )


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    """Identical experiment invocations produce byte-identical directories."""
    argv = [
        "experiment",
        "stopping_informative",
        "--n",
        "2000",
        "--reps",
        "8",
        "--seed",
        "31",
        "--out",
    ]
    assert cli_main(argv + [str(tmp_path / "a")]) == 0
    assert cli_main(argv + [str(tmp_path / "b")]) == 0
    assert cli_main(argv + [str(tmp_path / "serial")]) == 0
    capsys.readouterr()

    failures = []
    names = ("summary.json", "estimates.csv", "oracle.csv", "panel.csv")
    for variant in ("b", "serial"):
        for fname in names:
            a = (tmp_path / "a" / fname).read_bytes()
            other = (tmp_path / variant / fname).read_bytes()
            if a != other:
                failures.append((variant, fname, "bytes differ"))
    listing = sorted(p.name for p in (tmp_path / "a").iterdir())
    if listing != sorted(names):
        failures.append(("unexpected file set", listing))
    _verdict(
        "criterion-10 determinism",
        failures,
        "rerun and single-worker rerun both byte-identical across all four outputs",
    )
