"""Joint-distribution builders and panel sampling."""

import dataclasses
import inspect
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didlab import _rng, corpus, scenarios
from didlab._rng import uniforms
from didlab.core import EXACT_TOL, JointDistribution, validate_scenario
from didlab.errors import LabError
from didlab.harness import oracle_block
from didlab.scenarios import (
    AtomSampler,
    ControlArmLearning,
    ControlLearningType,
    DecisionTrace,
    NoLearning,
    NoLearningType,
    OptimalStopping,
    RoyRepeated,
    StoppingType,
    TreatedArmLearning,
    TreatedLearningType,
    build_joint,
    decide,
    draw_panel,
    scenario_from_json,
)

from _brute import atoms, brute_cells, brute_counts, brute_guide, brute_joint


def test_all_shipped_joints_are_tight(shipped, shipped_joints):
    for name, joint in shipped_joints.items():
        joint.check()
        assert joint.scenario_id == shipped[name].scenario_id
        arr = joint.arrays()
        assert arr["prob"].min() > 0.0, name
        # realized outcomes must equal the potential outcome of the chosen arm
        for atom in atoms(joint):
            flat = atom.po
            d0, d1 = atom.d0, atom.d1
            if joint.scenario_id == "optimal_stopping":
                assert atom.y0 == (0.0 if d0 else flat[0])
                assert atom.y1 == (0.0 if d1 else flat[2])
            else:
                assert atom.y0 == flat[d0], name
                assert atom.y1 == flat[2 + d1], name


_CORPUS_FAMILIES = {
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


def test_every_atom_follows_the_decision_rule(shipped, seeds):
    """Each row's treatment path is what the scenario's rule chooses for the
    row's latent state, and its realized outcomes are the potential outcomes
    of the chosen arms."""
    cases = list(shipped.items())
    cases += [(f"{key}:{seed}", make(seed)) for key, make in _CORPUS_FAMILIES.items() for seed in seeds[key]]
    for label, cfg in cases:
        for atom in atoms(build_joint(cfg)):
            tr = decide(cfg, atom.u0_type, atom.po)
            assert (tr.d0, tr.d1_given[tr.d0]) == (atom.d0, atom.d1), label
            flat = atom.po
            assert (atom.y0, atom.y1) == (flat[atom.d0], flat[2 + atom.d1]), label


def _wide_config(seed, n_types=300):
    """A no_learning config of n_types types of 16 atoms each: 4,800 atoms
    by default."""
    rng = np.random.default_rng(seed)
    types = tuple(
        NoLearningType(prob=1 / n_types, mu=tuple(map(tuple, rng.uniform(0.05, 0.95, (2, 2)))))
        for _ in range(n_types)
    )
    return NoLearning(types=types)


def _wide_treated_config(seed):
    """A 4,800-atom treated_arm_learning config: 60 types, each with a
    5-rate prior, so 80 atoms per type."""
    rng = np.random.default_rng(seed)
    return TreatedArmLearning(
        types=tuple(
            TreatedLearningType(
                prob=1 / 60,
                prior=tuple((float(t), 0.2) for t in rng.uniform(0.05, 0.95, 5)),
                mu_ctrl=(0.3, 0.5),
                beta=float(rng.uniform(0.5, 0.95)),
            )
            for _ in range(60)
        )
    )


def test_build_joint_is_byte_equal_to_the_point_enumeration(shipped, seeds):
    """The stacked grid and the grouping on the read columns give the
    columns of a point-by-point enumeration that runs the rule on every
    point."""
    cases = list(shipped.items())
    cases += [(f"{key}:{seed}", make(seed)) for key, make in _CORPUS_FAMILIES.items() for seed in seeds[key][:40]]
    cases += [("wide:1", _wide_config(1)), ("wide_treated:1", _wide_treated_config(1))]
    for label, cfg in cases:
        joint = build_joint(cfg)
        got = {**joint.arrays(), "u0_type": joint.u0_type}
        want = brute_joint(cfg)
        assert got.keys() == want.keys(), label
        for key in want:
            same = got[key].dtype == want[key].dtype and got[key].tobytes() == want[key].tobytes()
            assert same, (label, key)
        assert len(joint) == len(want["prob"]) and joint.scenario_id == cfg.scenario_id, label


@pytest.mark.parametrize("make, calls_per_type", [(_wide_config, 1), (_wide_treated_config, 2)])
def test_decide_runs_once_per_distinct_state_it_reads(monkeypatch, make, calls_per_type):
    """no_learning's rule reads the type alone and treated_arm_learning's
    reads y01 too, so a build makes one call per type, or at most two."""
    cfg = make(3)
    cls, rule, calls = type(cfg), type(cfg).decide, []

    def counting(self, u0_type, po):
        calls.append((u0_type, po[1]))
        return rule(self, u0_type, po)

    monkeypatch.setattr(cls, "decide", counting)
    build_joint(cfg)
    types = len(cfg.types)
    assert len(calls) <= calls_per_type * types and len(set(calls)) == len(calls)
    assert {u for u, _ in calls} == set(range(types))


@pytest.mark.parametrize(
    "trace, message",
    [
        (DecisionTrace(0, (2, 0), (0.0, 0.0), None), "d0=0, d1=2"),
        (DecisionTrace(-1, (0, 1), (0.0, 0.0), None), "d0=-1, d1=None"),
        (DecisionTrace(2, (0, 1), (0.0, 0.0), None), "d0=2, d1=None"),
    ],
)
def test_a_rule_with_a_path_that_is_not_0_1_raises_the_pair_error(monkeypatch, trace, message):
    """The build reads each path off its trace and raises ValueError for
    one that is not 0/1, with d1 None where d0 is not 0/1."""
    monkeypatch.setattr(NoLearning, "decide", lambda self, u0_type, po: trace)
    with pytest.raises(ValueError) as err:
        build_joint(_wide_config(1, n_types=2))
    assert str(err.value) == f"treatment indicators must be 0/1, got {message}"


def _rejects(cfg, u0_type, po):
    with pytest.raises(LabError) as err:
        decide(cfg, u0_type, po)
    return err.value.code == "state-not-in-support"


def test_zero_probability_states_never_reach_the_rule():
    # a rate of 0 makes every Y_0(1) = 1 point impossible, and the rule
    # rejects that state
    treated = TreatedArmLearning(types=(TreatedLearningType(prob=1.0, prior=((0.0, 1.0),), mu_ctrl=(0.3, 0.5)),))
    assert _rejects(treated, 0, (0.0, 1.0, 0.0, 0.0))
    assert len(build_joint(treated)) == 4
    # a zero-weight pmf row at a y0 of its own: E[Y_1(0) | y0] is undefined
    ty = StoppingType(prob=1.0, k0=0.0, k1=0.0, beta=0.9, pmf=(((1.0, 1.5), 1.0), ((3.0, 2.5), 0.0)))
    stopping = OptimalStopping(types=(ty,))
    assert _rejects(stopping, 0, (3.0, 0.0, 2.5, 0.0))
    assert len(build_joint(stopping)) == 1


def test_support_cap_counts_a_block_before_deciding_it(monkeypatch):
    # one type, five rates, one with weight 0: 80 grid points, 64 atoms
    prior = ((0.2, 0.25), (0.4, 0.25), (0.5, 0.0), (0.6, 0.25), (0.8, 0.25))
    cfg = TreatedArmLearning(types=(TreatedLearningType(prob=1.0, prior=prior, mu_ctrl=(0.3, 0.5)),))
    rule, calls = TreatedArmLearning.decide, []
    monkeypatch.setattr(TreatedArmLearning, "decide", lambda self, u, po: calls.append(u) or rule(self, u, po))
    monkeypatch.setattr(scenarios, "MAX_ATOMS", 79)
    with pytest.raises(LabError) as err:
        build_joint(cfg)
    assert err.value.code == "support-too-large" and calls == []
    monkeypatch.setattr(scenarios, "MAX_ATOMS", 80)
    assert len(build_joint(cfg)) == 64


def test_support_cap_stops_the_build(monkeypatch):
    half = NoLearningType(prob=0.5, mu=((0.5, 0.5), (0.5, 0.5)))
    cfg = NoLearning(types=(half, half))  # 2 types x 16 outcome tuples
    monkeypatch.setattr(scenarios, "MAX_ATOMS", 31)
    with pytest.raises(LabError) as err:
        build_joint(cfg)
    assert err.value.code == "support-too-large"
    monkeypatch.setattr(scenarios, "MAX_ATOMS", 32)
    assert len(build_joint(cfg)) == 32


def test_build_joint_rejects_non_scenarios_and_bad_mass():
    with pytest.raises(LabError) as err:
        build_joint(object())
    assert err.value.code == "wrong-scenario"
    with pytest.raises(LabError) as err:
        build_joint(RoyRepeated(pmf=(((0, 0, 0, 0), 0.5),)))
    assert err.value.code == "invalid-scenario"


def test_joint_renormalizes_float_dust():
    # 1/3 weights do not sum to binary 1 exactly; the builder must absorb that
    pmf = tuple(((a, b, 0, 0), 1.0 / 3.0) for a, b in ((0, 0), (0, 1), (1, 1)))
    joint = build_joint(RoyRepeated(pmf=pmf))
    assert abs(joint.total_mass() - 1.0) <= EXACT_TOL


def test_zero_probability_atoms_dropped():
    pmf = (((0, 0, 0, 0), 1.0), ((1, 1, 1, 1), 0.0))
    joint = build_joint(RoyRepeated(pmf=pmf))
    assert len(joint) == 1


def test_control_learning_joint_matches_hand_enumeration(shipped_joints):
    cells = brute_cells(shipped_joints["control_arm_learning"])
    assert cells[(0, 1)]["prob"] == pytest.approx(0.5, abs=EXACT_TOL)
    assert cells[(0, 1)]["trend_mean"] == pytest.approx(0.32, abs=EXACT_TOL)
    assert cells[(0, 0)]["trend_mean"] == pytest.approx(-0.32, abs=EXACT_TOL)
    assert cells[(0, 1)]["level_y0"] == 0.0
    assert cells[(0, 0)]["level_y0"] == 1.0


def test_draw_panel_deterministic_and_latent(shipped_joints):
    joint = shipped_joints["stopping_informative"]
    p1 = draw_panel(joint, 500, seed=42)
    p2 = draw_panel(joint, 500, seed=42)
    p3 = draw_panel(joint, 500, seed=43)
    assert np.array_equal(p1.y0, p2.y0) and np.array_equal(p1.d1, p2.d1)
    assert not np.array_equal(p1.y1, p3.y1)
    assert p1.n == 500 and p1.has_latent
    assert p1.po.shape == (500, 4)
    # every row reproduces its generating atom exactly
    rows = atoms(joint)
    for i in range(0, 500, 97):
        atom = rows[p1.atom_index[i]]
        assert (p1.d0[i], p1.d1[i]) == (atom.d0, atom.d1)
        assert p1.y0[i] == atom.y0 and p1.y1[i] == atom.y1
        assert tuple(p1.po[i]) == atom.po


def test_draw_panel_keeps_no_second_atom_index_column(shipped_joints):
    """Building a panel allocates at most a few bytes per unit beyond the
    panel's own columns: no int64 copy of its atom indices is made."""
    joint = shipped_joints["stopping_informative"]
    n = 100_000
    tracemalloc.start()
    try:
        panel = draw_panel(joint, n, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (panel.d0, panel.d1, panel.y0, panel.y1, panel.po, panel.atom_index))
    assert panel.atom_index.dtype == np.int64
    assert peak - held < 4 * n


def test_draw_panel_frequencies_converge(shipped_joints):
    joint = shipped_joints["control_arm_learning"]
    panel = draw_panel(joint, 20_000, seed=7)
    share = float(np.mean(panel.d1))
    assert abs(share - 0.5) < 0.02


# --- atom sampler --------------------------------------------------------------


def _reference_index(joint, u):
    """Inverse-cdf draw by binary search, clamped to the last atom."""
    return np.minimum(np.searchsorted(np.cumsum(joint.prob), u, side="right"), len(joint) - 1)


# every bucket edge b/m of every guide table with m <= 2**14 buckets
_EDGES = np.arange(2**14 + 1) / 2**14


def _edge_uniforms(joint):
    cdf = np.cumsum(joint.prob)
    cdf = cdf[cdf < 1.0]
    return np.concatenate([
        [0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0],
        _EDGES,
        cdf,
        np.nextafter(cdf, 0.0),
        np.nextafter(cdf, 1.0),
    ])


def _assert_guide_is_the_binary_search(sampler, label):
    want = brute_guide(sampler.joint, sampler._m)
    assert sampler._guide.dtype == want.dtype and np.array_equal(sampler._guide, want), label


def _assert_sampler_matches_reference(joint, label, seeds=(1, 2, 3)):
    assert len(joint) <= 2**14 and scenarios.GUIDE_MIN_BUCKETS <= 2**14
    sampler = AtomSampler(joint)
    _assert_guide_is_the_binary_search(sampler, label)
    for u in (_edge_uniforms(joint), *(uniforms(seed, 5_000) for seed in seeds)):
        assert np.array_equal(sampler.index(u), _reference_index(joint, u)), label


def test_sampler_index_is_the_binary_search(shipped_joints, seeds):
    cases = list(shipped_joints.items())
    cases += [
        (f"{key}:{seed}", build_joint(make(seed)))
        for key, make in _CORPUS_FAMILIES.items()
        for seed in seeds[key][:40]
    ]
    cases += [(f"wide:{seed}", build_joint(_wide_config(seed))) for seed in (1, 2)]
    for label, joint in cases:
        _assert_sampler_matches_reference(joint, label)


def _joint_of(prob):
    """A joint with these atom probabilities and nothing else of interest."""
    k = len(prob)
    return JointDistribution(np.zeros(k), np.zeros((k, 4)), np.zeros(k), np.zeros(k), prob)


def _short_joint():
    """Three atoms whose cdf ends a rounding error below one."""
    return JointDistribution([0, 0, 0], np.zeros((3, 4)), [0, 0, 1], [0, 1, 1], [0.25, 0.25, 0.5 - 1e-12])


def _crowded_joint():
    """2,999 atoms inside the first guide bucket, then one holding the rest."""
    k = 3_000
    prob = np.full(k, 1e-6 / (k - 1))
    prob[-1] = 1.0 - 1e-6
    return _joint_of(prob)


def test_guide_is_the_binary_search():
    # the shipped, corpus and wide no_learning joints are checked with
    # their draws in test_sampler_index_is_the_binary_search
    m = scenarios.GUIDE_MIN_BUCKETS
    cases = dict(
        wide_treated=build_joint(_wide_treated_config(1)),
        zeros=_joint_of([0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0]),
        # cdf 1 - 2^-53 and 1 + 2^-52, one ulp either side of 1
        ulp_below=_joint_of([0.5, 0.5 - 2.0**-53]),
        ulp_above=_joint_of([0.5, 0.5 + 2.0**-52]),
        # cdf 3/m, 1/2, 3/4 and 1, each on a bucket edge
        on_edges=_joint_of([3 / m, 0.5 - 3 / m, 0.25, 0.25]),
        one_atom=_joint_of([1.0]),
        crowded=_crowded_joint(),
        deficit=_joint_of([0.3, 0.6]),
        # m atoms fill the smallest table; one more doubles it
        full=_joint_of(np.full(m, 1 / m)),
        one_over=_joint_of(np.random.default_rng(0).dirichlet(np.ones(m + 1))),
    )
    assert np.cumsum(cases["ulp_below"].prob)[-1] == np.nextafter(1.0, 0.0)
    assert np.cumsum(cases["ulp_above"].prob)[-1] == np.nextafter(1.0, 2.0)
    assert AtomSampler(cases["one_over"])._m == 2 * m
    for label, joint in cases.items():
        _assert_guide_is_the_binary_search(AtomSampler(joint), label)


@pytest.mark.parametrize("m", [scenarios.GUIDE_MIN_BUCKETS, 2 * scenarios.GUIDE_MIN_BUCKETS])
def test_guide_table_with_more_atoms_than_buckets(m):
    # the sampler never builds a table smaller than its atom count; the
    # counting pass needs no such bound
    rng = np.random.default_rng(m)
    prob = rng.exponential(size=3 * m)
    prob[rng.random(3 * m) < 0.5] = 0.0
    for joint in (_joint_of(prob / prob.sum()), _crowded_joint()):
        want = brute_guide(joint, m)
        got = scenarios._guide_table(np.cumsum(joint.prob), m)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "prob, code, message",
    [
        ([], "invalid-scenario", "cannot sample from a joint with no atoms"),
        ([0.5, -0.25, 0.75], "invalid-scenario", "atom 1 has a negative probability"),
        ([0.5, 0.25, np.nan, 0.25], "non-finite", "atom 2 has a non-finite probability"),
        ([np.inf, -0.5], "non-finite", "atom 0 has a non-finite probability"),
    ],
)
def test_sampler_rejects_a_joint_it_cannot_sample(prob, code, message):
    with pytest.raises(LabError) as err:
        AtomSampler(_joint_of(prob))
    assert err.value.code == code
    assert err.value.message == f"[{code}] {message}"


def test_sampler_index_where_the_cdf_ends_below_one():
    joint = _short_joint()
    assert np.cumsum(joint.prob)[-1] < 1.0
    _assert_sampler_matches_reference(joint, "short")
    tail = np.array([1.0 - 1e-12, 1.0 - 2e-13, 1.0 - 2.0**-53])
    assert AtomSampler(joint).index(tail).tolist() == [2, 2, 2]


def test_sampler_index_where_many_atoms_share_a_bucket():
    # walks past GUIDE_WALK_STEPS fall back to binary search
    joint = _crowded_joint()
    u = np.concatenate([np.linspace(0.0, 2e-6, 5_001), _edge_uniforms(joint)])
    assert np.array_equal(AtomSampler(joint).index(u), _reference_index(joint, u))


def _counts_cases(shipped_joints):
    cases = dict(shipped_joints)
    cases.update({f"wide:{seed}": build_joint(_wide_config(seed)) for seed in (1, 2)})
    cases.update(one_atom=_joint_of([1.0]), short=_short_joint(), crowded=_crowded_joint())
    # a cdf ending far below one leaves whole buckets past the last atom
    cases["deficit"] = _joint_of([0.3, 0.6])
    return cases


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_chunked_counts_are_the_bincount_of_the_draws(shipped_joints, monkeypatch, chunk):
    n = 40_000 if chunk is None else 500  # the default chunk splits 40,000 units three ways
    if chunk is not None:
        monkeypatch.setattr(scenarios, "COUNT_CHUNK", chunk)
    for name, joint in _counts_cases(shipped_joints).items():
        for seed in (0, 13, 2**64 - 1):
            counts = AtomSampler(joint).counts(n, seed)
            want = np.bincount(draw_panel(joint, n, seed).atom_index, minlength=len(joint))
            assert counts.dtype == np.int64 and np.array_equal(counts, want), (name, seed)
            assert int(counts.sum()) == n


def test_counts_histogram_where_few_buckets_are_mixed(shipped_joints):
    # the wide joints have more than COUNT_MIXED_MAX of their buckets mixed,
    # so they take the per-draw side of counts(); the rest the histogram
    cases = _counts_cases(shipped_joints)
    assert [name for name, joint in cases.items() if not AtomSampler(joint)._use_histogram] == ["wide:1", "wide:2"]


def test_counts_index_only_the_draws_in_mixed_buckets(shipped_joints, monkeypatch):
    joint = shipped_joints["stopping_informative"]
    m = scenarios.GUIDE_MIN_BUCKETS
    assert len(joint) <= m
    seen = []
    index = AtomSampler.index

    def recording_index(self, u):
        seen.append(u.copy())
        return index(self, u)

    monkeypatch.setattr(AtomSampler, "index", recording_index)
    n, seed = 20_000, 5
    AtomSampler(joint).counts(n, seed)
    u = uniforms(seed, n)
    # bucket b holds an atom edge, so its draws can land on two atoms, iff
    # some cdf value lies in (b/m, (b+1)/m]
    cdf = np.cumsum(joint.prob)
    edge_buckets = np.ceil(cdf * m) - 1
    in_mixed = np.isin(np.floor(u * m), edge_buckets)
    got = np.concatenate(seen)
    assert np.array_equal(np.sort(got), np.sort(u[in_mixed]))
    assert 0 < got.size < n / 50


def test_counts_flush_the_mixed_draws_many_times(shipped_joints, monkeypatch):
    # a 7-word buffer fills again and again at a mixed-bucket share near 2%
    joint = shipped_joints["treated_arm_learning"]
    assert len(joint) == 96
    monkeypatch.setattr(scenarios, "COUNT_CHUNK", 7)
    sizes = []
    index = AtomSampler.index
    monkeypatch.setattr(AtomSampler, "index", lambda self, u: sizes.append(u.size) or index(self, u))
    for seed in (0, 2**63, 2**64 - 1):
        sizes.clear()
        assert AtomSampler(joint).counts(20_000, seed).tolist() == brute_counts(joint, 20_000, seed), seed
        assert len(sizes) > 40 and max(sizes) <= 7


def test_counts_look_up_the_finished_words_of_mixed_draws():
    # an atom edge between draw 0's uniform before fmix64's last step and
    # after it: the two share a bucket, so only the finished one is right
    seed = 11
    early = next(_rng.word_chunks(seed, 1, 1, finish=False))[1].copy()
    before, after = float(_rng.to_unit(early)[0]), _rng.uniform_at(seed, 0)
    edge = (before + after) / 2
    assert min(before, after) < edge < max(before, after)
    joint = _joint_of([edge, 1.0 - edge])
    assert AtomSampler(joint)._use_histogram
    want = [0, 1] if after >= edge else [1, 0]
    assert AtomSampler(joint).counts(1, seed).tolist() == want == brute_counts(joint, 1, seed)


def test_counts_histogram_of_a_joint_the_finer_guide_moved_there(monkeypatch):
    joint = build_joint(_wide_config(3, n_types=30))
    assert len(joint) == 480
    sampler = AtomSampler(joint)
    assert sampler._m == scenarios.GUIDE_MIN_BUCKETS == 2**12 and sampler._use_histogram
    for n, seed in ((1, 0), (7, 13), (5_000, 2**64 - 1)):
        assert sampler.counts(n, seed).tolist() == brute_counts(joint, n, seed), (n, seed)
    # with the guide table of 2^10 buckets it took the per-draw side
    monkeypatch.setattr(scenarios, "GUIDE_MIN_BUCKETS", 2**10)
    assert not AtomSampler(joint)._use_histogram


@pytest.mark.parametrize("n_types", [30, 300])
def test_counts_memory_does_not_grow_with_n(n_types):
    # 480 atoms take the histogram, with about 12% of the draws mixed, so
    # both n fill the mixed-draw buffer; 4,800 atoms take the per-draw side
    sampler = AtomSampler(build_joint(_wide_config(1, n_types)))
    assert sampler._use_histogram == (n_types == 30)
    peaks = []
    for n in (200_000, 2_000_000):
        tracemalloc.start()
        try:
            counts = sampler.counts(n, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) == n
    # an O(n) array would add megabytes; a few KiB come and go with the
    # sizes of the walks in index()
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


@pytest.mark.parametrize("n", [0, -3])
def test_a_panel_of_fewer_than_one_unit_is_a_lab_error(shipped_joints, n):
    joint = shipped_joints["stopping_informative"]
    with pytest.raises(LabError) as err:
        draw_panel(joint, n, seed=1)
    assert err.value.code == "schema-error"
    assert err.value.message == f"[schema-error] panel size must be >= 1, got {n}"
    assert AtomSampler(joint).counts(0, seed=1).tolist() == [0] * len(joint)


@st.composite
def _atom_probs(draw):
    """1 to 3,000 atom probabilities, a drawn share of them tiny (1e-9 of
    the rest), so that some guide buckets hold many atoms."""
    k = draw(st.integers(1, 3_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.exponential(size=k)
    weights[rng.random(k) < draw(st.sampled_from([0.0, 0.5, 0.99]))] *= 1e-9
    return weights / weights.sum()


@given(_atom_probs(), st.integers(1, 2_000), st.integers(0, 2**64 - 1), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_counts_match_the_draw_by_draw_reference(prob, n, seed, chunk):
    joint = _joint_of(prob)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "COUNT_CHUNK", chunk)
        sampler = AtomSampler(joint)
        counts = sampler.counts(n, seed)
    assert counts.tolist() == brute_counts(joint, n, seed)
    _assert_guide_is_the_binary_search(sampler, "drawn")


# --- config serialization ----------------------------------------------------


def test_shipped_configs_round_trip(shipped):
    """decode(encode(cfg)) == cfg on every shipped config, 300 random ones
    and both wide ones; and a shipped text, with the optional k0/k1 costs
    filled in at their defaults, is its config's to_json() as a dict."""
    cases = [*shipped.items(), *((f"random:{s}", corpus.random_config(s)) for s in range(300))]
    cases += [("wide", _wide_config(0)), ("wide_treated", _wide_treated_config(0))]
    for label, cfg in cases:
        back = scenario_from_json(json.loads(json.dumps(cfg.to_json())))
        assert back == cfg, label
    for name, cfg in shipped.items():
        doc = json.loads(corpus.shipped_text(name))
        if doc["scenario"] in ("no_learning", "treated_arm_learning"):
            for ty in doc["types"]:
                ty.setdefault("k0", [0.0, 0.0])
                ty.setdefault("k1", [[0.0, 0.0], [0.0, 0.0]])
        assert doc == cfg.to_json(), name


def test_unknown_scenario_tag():
    with pytest.raises(LabError) as err:
        scenario_from_json({"scenario": "nope"})
    assert err.value.code == "schema-error"
    assert "nope" in str(err.value)


def test_unknown_key_has_json_pointer():
    obj = {"scenario": "roy_repeated", "pmf": [[0, 0, 0, 0, 1.0]], "bogus": 3}
    with pytest.raises(LabError) as err:
        scenario_from_json(obj)
    assert err.value.code == "schema-error"
    assert "/bogus" in str(err.value)


def test_missing_required_key():
    with pytest.raises(LabError) as err:
        scenario_from_json({"scenario": "roy_repeated"})
    assert err.value.code == "schema-error"


def test_wrong_type_in_nested_field():
    obj = {"scenario": "roy_repeated", "pmf": [[0, 0, 0, "x", 1.0]]}
    with pytest.raises(LabError) as err:
        scenario_from_json(obj)
    assert err.value.code == "schema-error"


# Numbers the decoder rejects: JSON text and the message it gets.
_BAD_NUMBERS = {
    "bool": ("true", "expected a number, got bool"),
    "string": ('"x"', "expected a number, got str"),
    "nan": ("NaN", "non-finite number nan"),
    "infinity": ("Infinity", "non-finite number inf"),
    "1e999": ("1e999", "non-finite number inf"),
    "400-digit integer": ("1" + "0" * 399, "integer too large for a float"),
}

# A config with one number replaced by "@", and the JSON pointer of "@".
_NUMBER_SITES = {
    "mu entry": (
        {"scenario": "no_learning", "types": [{"prob": 1, "mu": [[0.5, 0.5], ["@", 0.5]], "beta": 0.9}]},
        "/types/0/mu/1/0",
    ),
    "prior pair": (
        {
            "scenario": "treated_arm_learning",
            "types": [{"prob": 1, "prior": [[0.2, 0.5], [0.8, "@"]], "mu_ctrl": [0.3, 0.5], "beta": 0.9}],
        },
        "/types/0/prior/1/1",
    ),
    "k1 row": (
        {
            "scenario": "no_learning",
            "types": [
                {"prob": 0.5, "mu": [[0.5, 0.5], [0.5, 0.5]], "beta": 0.9},
                {"prob": 0.5, "mu": [[0.5, 0.5], [0.5, 0.5]], "k1": [[0, 0], ["@", 0]], "beta": 0.9},
            ],
        },
        "/types/1/k1/1/0",
    ),
    "stopping pmf row": (
        {
            "scenario": "optimal_stopping",
            "types": [{"prob": 1, "k0": 0, "k1": 0, "beta": 0.9, "pmf": [[1, 1.5, 0.5], [2, "@", 0.5]]}],
        },
        "/types/0/pmf/1/1",
    ),
}


@pytest.mark.parametrize("site", sorted(_NUMBER_SITES))
@pytest.mark.parametrize("number", sorted(_BAD_NUMBERS))
def test_decoder_errors_keep_their_code_and_pointer(site, number):
    doc, pointer = _NUMBER_SITES[site]
    literal, message = _BAD_NUMBERS[number]
    with pytest.raises(LabError) as err:
        scenario_from_json(json.loads(json.dumps(doc).replace('"@"', literal)))
    assert (err.value.code, err.value.path) == ("schema-error", pointer)
    assert message in str(err.value)


# Each scenario with every field set to "x", and the first error the decoder
# raises: the pointer and message of the field it decodes first.
_ALL_FIELDS_BAD = {
    "past_outcome_selection": (
        {"p_y00": "x", "trans_ctrl": "x", "mean_y_treated": "x"},
        "/trans_ctrl",
        "trans_ctrl must be a 2x2 matrix",
    ),
    "no_learning": (
        {"types": [{"prob": "x", "mu": "x", "k0": "x", "k1": "x", "beta": "x"}]},
        "/types/0/mu",
        "mu must be a 2x2 matrix",
    ),
    "treated_arm_learning": (
        {"types": [{"prob": "x", "prior": "x", "mu_ctrl": "x", "k0": "x", "k1": "x", "beta": "x"}]},
        "/types/0/prob",
        "expected a number, got str",
    ),
    "control_arm_learning": (
        {"types": [{"prob": "x", "prior": "x", "mu_treat1": "x", "ktilde1": "x"}]},
        "/types/0/prob",
        "expected a number, got str",
    ),
    "roy_repeated": ({"pmf": "x"}, "/pmf", "pmf must be a nonempty list of [y00,y01,y10,y11,prob]"),
    "roy_irreversible": ({"beta": "x", "pmf": "x"}, "/pmf", "pmf must be a nonempty list of [y00,y01,y10,y11,prob]"),
    "optimal_stopping": (
        {"types": [{"prob": "x", "k0": "x", "k1": "x", "beta": "x", "pmf": "x"}]},
        "/types/0/pmf",
        "pmf must be a nonempty list of [y0, y1, prob]",
    ),
}


@pytest.mark.parametrize("tag", sorted(_ALL_FIELDS_BAD))
def test_decoder_reports_the_first_field_in_decode_order(tag):
    fields, pointer, message = _ALL_FIELDS_BAD[tag]
    with pytest.raises(LabError) as err:
        scenario_from_json({"scenario": tag, **fields})
    assert (err.value.code, err.value.path) == ("schema-error", pointer)
    assert str(err.value) == f"[schema-error] {message} (at {pointer})"


def test_decoder_returns_json_floats_unchanged():
    obj = {"scenario": "no_learning", "types": [{"prob": 1.0, "mu": [[0.1, 0.2], [0.3, 0.4]], "beta": 0.9}]}
    ty = scenario_from_json(obj).types[0]
    assert ty.mu[1][0] is obj["types"][0]["mu"][1][0] and ty.prob is obj["types"][0]["prob"]
    ints = {"scenario": "no_learning", "types": [{"prob": 1, "mu": [[0, 1], [0, 1]], "beta": 0.9}]}
    mu = scenario_from_json(ints).types[0].mu
    assert mu == ((0.0, 1.0), (0.0, 1.0)) and all(type(v) is float for row in mu for v in row)


def _truth_path(cfg):
    """validate, then oracle_block, which builds the joint: the work of
    `didlab truth` on a decoded config."""
    validate_scenario(cfg)
    oracle_block(cfg)


def test_posterior_mean_runs_at_most_twice_per_type(monkeypatch):
    """validate, build_joint and oracle_block share each treated learner's
    two one-observation posteriors, computed in one call per type."""
    cfg = _wide_treated_config(4)
    calls = Counter()
    once = scenarios._Learner.__dict__["_post"]
    post = once.func
    monkeypatch.setattr(once, "func", lambda ty: calls.update([id(ty)]) or post(ty))
    _truth_path(cfg)
    assert sorted(calls) == sorted(id(ty) for ty in cfg.types) and set(calls.values()) == {1}


def test_no_learning_trace_runs_once_per_type(monkeypatch):
    cfg = _wide_config(4)
    calls = Counter()
    once = NoLearningType.__dict__["_trace"]
    trace = once.func
    monkeypatch.setattr(once, "func", lambda ty: calls.update([id(ty)]) or trace(ty))
    _truth_path(cfg)
    assert sorted(calls) == sorted(id(ty) for ty in cfg.types) and set(calls.values()) == {1}


@pytest.mark.parametrize("make", [TreatedLearningType, ControlLearningType])
def test_invalid_types_get_a_report_and_no_decision_quantities(monkeypatch, make):
    """Once a type fails a check, validate computes nothing for the types
    after it, as it never did, and still returns its report."""
    extra = {"mu_ctrl": (0.3, 0.5)} if make is TreatedLearningType else {"mu_treat1": 0.6, "ktilde1": 0.0}
    priors = (((0.2, 0.5), (0.8, 0.5)), ((0.2, -0.5), (0.8, 1.5)), ((1.5, 1.0),), ((0.3, 0.5), (0.7, 0.5)))
    types = tuple(make(prob=0.25, prior=prior, **extra) for prior in priors)
    cfg = (TreatedArmLearning if make is TreatedLearningType else ControlArmLearning)(types=types)
    seen = []
    for name in ("_mean", "_post"):
        once = scenarios._Learner.__dict__[name]
        monkeypatch.setattr(once, "func", lambda ty, fn=once.func: seen.append(ty.prior) or fn(ty))
    report = validate_scenario(cfg)
    assert {v.rule for v in report.violations} == {"pmf-negative", "prob-range"}
    assert set(seen) == {priors[0]}


def test_replaced_configs_get_fresh_decision_quantities():
    prior = ((0.2, 0.5), (0.8, 0.5))
    cfg = TreatedArmLearning(types=(TreatedLearningType(prob=1.0, prior=prior, mu_ctrl=(0.3, 0.5)),))
    fresh = TreatedArmLearning(types=cfg.types)
    validate_scenario(cfg)
    build_joint(cfg)
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
    same = dataclasses.replace(cfg)
    assert same == cfg and "_validation" in vars(cfg) and "_validation" not in vars(same)
    ty = cfg.types[0]
    copy = dataclasses.replace(ty)
    assert copy == ty and "_mean" in vars(ty) and "_mean" not in vars(copy)
    moved = dataclasses.replace(cfg, types=(dataclasses.replace(ty, prior=((0.1, 0.5), (0.5, 0.5))),))
    assert moved != cfg and moved.types[0]._mean == 0.3 and cfg.types[0]._mean == 0.5
    state = (0, (0.0, 1.0, 0.0, 1.0))
    assert decide(moved, *state) == decide(TreatedArmLearning(types=moved.types), *state)

    ty = NoLearningType(prob=1.0, mu=((0.2, 0.9), (0.2, 0.3)))
    nl = NoLearning(types=(ty,))
    before = decide(nl, *state)
    flipped = dataclasses.replace(nl, types=(dataclasses.replace(ty, mu=((0.2, 0.1), (0.2, 0.3))),))
    assert decide(flipped, *state) != before and decide(nl, *state) is before


@pytest.mark.parametrize(
    "make_cfg, make_ty, names, impossible",
    [
        (NoLearning, lambda: NoLearningType(prob=0.5, mu=((0.2, 0.9), (0.2, 0.3))), ("_trace",), None),
        (
            TreatedArmLearning,
            lambda: TreatedLearningType(prob=0.5, prior=((1.0, 1.0),), mu_ctrl=(0.3, 0.5)),
            ("_mean", "_post", "_gains"),
            ((0, 0, 0, 0), "Y_0(1) = 0 impossible under types[1] prior"),
        ),
        (
            ControlArmLearning,
            lambda: ControlLearningType(prob=0.5, prior=((0.0, 1.0),), mu_treat1=0.6, ktilde1=0.0),
            ("_mean", "_post"),
            ((1, 0, 0, 0), "Y_0(0) = 1 impossible under types[1] prior"),
        ),
        (
            OptimalStopping,
            lambda: StoppingType(prob=0.5, k0=0.0, k1=0.5, beta=0.9, pmf=(((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5))),
            ("_by_y0", "_cont0"),
            ((5.0, 0, 0, 0), "y0 = 5.0 has zero probability"),
        ),
    ],
)
def test_a_shared_type_computes_each_decision_quantity_once(monkeypatch, make_cfg, make_ty, names, impossible):
    """A type object held twice by one config and again by a second config
    computes each of its decision quantities once; the stored values leave
    equality, hashing, repr and dataclasses.replace to the fields; and an
    impossible observation still raises state-not-in-support."""
    calls = Counter()
    for name in names:
        once = inspect.getattr_static(make_ty(), name)
        monkeypatch.setattr(once, "func", lambda ty, name=name, f=once.func: calls.update([name]) or f(ty))
    ty = make_ty()
    cfg = make_cfg(types=(ty, ty))
    for config in (cfg, make_cfg(types=(ty, ty))):
        assert validate_scenario(config).ok
        build_joint(config)
    assert calls == Counter(names)
    fresh = make_ty()
    assert all(name in vars(ty) and name not in vars(fresh) for name in names)
    assert ty == fresh and hash(ty) == hash(fresh) and repr(ty) == repr(fresh)
    unread = make_cfg(types=(fresh, fresh))
    assert cfg == unread and hash(cfg) == hash(unread) and repr(cfg) == repr(unread)
    copy = dataclasses.replace(ty)
    assert copy == ty and not any(name in vars(copy) for name in names)
    if impossible is not None:
        po, message = impossible
        with pytest.raises(LabError) as err:
            decide(cfg, 1, tuple(float(y) for y in po))
        assert str(err.value) == f"[state-not-in-support] {message}"


def test_a_decision_quantity_read_off_the_class_is_its_descriptor():
    """Only an instance computes and stores the value; on the class the
    attribute is the lazy descriptor itself."""
    once = StoppingType._by_y0
    assert isinstance(once, scenarios._once) and once is vars(StoppingType)["_by_y0"]


def test_support_cap_is_checked_before_the_grid_is_built(monkeypatch):
    """A config over the cap costs no grid rows: the tracemalloc peak of the
    failed build stays below the size of its stacked grid."""
    types = 2_000
    cfg = NoLearning(types=(NoLearningType(prob=1 / types, mu=((0.5, 0.5), (0.5, 0.5))),) * types)
    monkeypatch.setattr(scenarios, "MAX_ATOMS", 31)
    grid_bytes = 16 * types * (4 + 1 + 1) * 8  # po, prob and u0_type, 8 bytes each
    tracemalloc.start()
    try:
        with pytest.raises(LabError) as err:
            build_joint(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == "support-too-large"
    assert peak < grid_bytes / 10
