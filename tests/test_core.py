"""Value types, the seeded RNG, and the deterministic JSON writer."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from didlab import _jsonio, _rng
from didlab.core import (
    CELLS,
    CellStats,
    CellTable,
    JointDistribution,
    Panel,
    validate_scenario,
)

from _brute import EDGE_FLOATS, brute_format_float


def _tiny_joint():
    return JointDistribution(
        u0_type=[0, 0],
        po=[[0, 0, 1, 0], [1, 0, 0, 1]],
        d0=[0, 0],
        d1=[0, 1],
        prob=[0.25, 0.75],
        scenario_id="test",
    )


def test_joint_arrays_and_check():
    joint = _tiny_joint()
    arr = joint.arrays()
    assert arr["prob"].tolist() == [0.25, 0.75]
    assert arr["y10"].tolist() == [1.0, 0.0]
    assert arr["d1"].tolist() == [0, 1]
    assert len(joint) == 2
    joint.check()
    assert joint.total_mass() == 1.0
    bad = JointDistribution([0], [[0, 0, 1, 0]], [0], [0], [0.25])
    with pytest.raises(ValueError):
        bad.check()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"d1": [0]}, "joint columns have unequal lengths"),
        ({"d0": [0, 2]}, "joint treatment columns must be 0 or 1"),
    ],
)
def test_joint_rejects_malformed_columns(change, message):
    cols = {"u0_type": [0, 0], "po": [[0, 0, 1, 0], [1, 0, 0, 1]], "d0": [0, 0], "d1": [0, 1], "prob": [0.25, 0.75]}
    with pytest.raises(ValueError) as err:
        JointDistribution(**{**cols, **change})
    assert str(err.value) == message


def test_joint_check_rejects_a_negative_probability():
    joint = JointDistribution([0, 0], [[0, 0, 1, 0], [1, 0, 0, 1]], [0, 0], [0, 1], [-0.25, 1.25])
    with pytest.raises(ValueError) as err:
        joint.check()
    assert str(err.value) == "negative atom probability"


def test_joint_check_rejects_a_nan_mass():
    joint = JointDistribution([0, 0], [[0, 0, 1, 0], [1, 0, 0, 1]], [0, 0], [0, 1], [float("nan"), 1.0])
    with pytest.raises(ValueError) as err:
        joint.check()
    assert str(err.value) == "joint mass nan differs from 1 by more than 1e-12"


def test_cell_table_rejects_a_nan_mass():
    with pytest.raises(ValueError) as err:
        CellTable({(0, 0): CellStats(float("nan"), 0.0, 0.0, 0.0)})
    assert str(err.value) == "cell probabilities sum to nan, not 1"


def test_panel_views_and_shapes():
    p = Panel(
        d0=[0, 0, 1],
        d1=[0, 1, 1],
        y0=[1.0, 2.0, 3.0],
        y1=[4.0, 5.0, 6.0],
        po=[[1, 0, 2, 0], [2, 0, 1, 0], [3, 0, 9, 0]],
    )
    assert p.n == 3 and p.has_latent
    assert (p.d0[1], p.d1[1], p.y0[1], p.y1[1]) == (0, 1, 2.0, 5.0)
    assert p.po.shape == (3, 4) and p.po.dtype == np.float64
    assert tuple(p.po[2]) == (3.0, 0.0, 9.0, 0.0)
    with pytest.raises(ValueError):
        Panel(d0=[0], d1=[0, 1], y0=[0.0], y1=[0.0])
    with pytest.raises(ValueError):
        Panel(d0=[0], d1=[0], y0=[0.0], y1=[0.0], po=[[1, 2]])
    with pytest.raises(ValueError):
        Panel(d0=[0], d1=[2], y0=[0.0], y1=[0.0])
    bare = Panel(d0=[0], d1=[0], y0=[0.0], y1=[0.0])
    assert bare.po is None and not bare.has_latent


def test_cell_table_accessors():
    table = CellTable(
        {
            (0, 0): CellStats(0.6, -0.2, 1.0, 0.8),
            (0, 1): CellStats(0.4, 0.3, 0.0, 0.3),
        }
    )
    assert table.source == "oracle"
    assert table.prob(0, 1) == 0.4
    assert table.prob(1, 1) == 0.0
    assert set(table.to_json()) == {"00", "01"}
    with pytest.raises(ValueError):
        CellTable({(0, 0): CellStats(0.5, 0.0, 0.0, 0.0)})


def test_cells_ordering_constant():
    assert CELLS == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_validate_scenario_non_scenario():
    report = validate_scenario(object())
    assert not report.ok
    assert report.violations[0].rule == "not-a-scenario"


# --- RNG -------------------------------------------------------------------


def test_derive_seed_spreads_and_repeats():
    seeds = {_rng.derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert _rng.derive_seed(7, 3) == _rng.derive_seed(7, 3)
    assert _rng.derive_seed(7, 3) != _rng.derive_seed(8, 3)
    assert all(0 <= s < 2**64 for s in seeds)


def test_uniforms_deterministic_and_in_range():
    a = _rng.uniforms(123, 1000)
    b = _rng.uniforms(123, 1000)
    assert np.array_equal(a, b)
    assert ((0.0 <= a) & (a < 1.0)).all()
    assert abs(float(a.mean()) - 0.5) < 0.05
    assert not np.array_equal(a, _rng.uniforms(124, 1000))


def test_uniforms_offset_slices_the_same_stream():
    full = _rng.uniforms(9, 50)
    tail = _rng.uniforms(9, 30, offset=20)
    assert np.array_equal(full[20:], tail)
    assert _rng.uniform_at(9, 17) == full[17]


@pytest.mark.parametrize("seed", [0, 9, 2**63, 2**64 - 1])
@pytest.mark.parametrize("n, chunk", [(23, 7), (21, 7), (5, 1), (4, 64)])
def test_word_chunks_are_the_stream_across_chunk_edges(seed, n, chunk):
    # seeds near 2^64 wrap seed + (i+1)*GOLDEN; the chunks reuse two buffers
    got = []
    for offset, words in _rng.word_chunks(seed, n, chunk):
        assert offset == len(got) and words.dtype == np.uint64 and 0 < len(words) <= chunk
        got.extend(_rng.to_unit(words).tolist())
    assert got == [_rng.uniform_at(seed, i) for i in range(n)]
    assert got == _rng.uniforms(seed, n).tolist()
    assert _rng.uniforms(seed, 4, offset=n).tolist() == [_rng.uniform_at(seed, n + i) for i in range(4)]


@given(
    st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    st.integers(1, 60),
    st.integers(1, 16),
    st.one_of(st.just(0), st.integers(0, 2**64)),
)
@settings(max_examples=100, deadline=None)
def test_words_before_the_last_step_keep_the_top_31_bits(seed, n, chunk, offset):
    finished = [w.copy() for _, w in _rng.word_chunks(seed, n, chunk, offset)]
    starts = []
    for (start, early), done in zip(_rng.word_chunks(seed, n, chunk, offset, finish=False), finished, strict=True):
        starts.append(start)
        assert np.array_equal(early >> np.uint64(33), done >> np.uint64(33))
        assert np.array_equal(_rng._last_step(early, np.empty_like(early)), done)
    assert starts == list(range(0, n, chunk))
    want = [_rng._fmix64(seed + (offset + i + 1) * _rng._GOLDEN) for i in range(n)]
    assert np.concatenate(finished).tolist() == want


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_uniforms_across_their_chunk_edges(seed):
    u = _rng.uniforms(seed, 2**15 + 3, offset=5)
    for i in (0, 2**14 - 1, 2**14, 2**15, 2**15 + 2):
        assert u[i] == _rng.uniform_at(seed, 5 + i), i


# --- JSON writer -----------------------------------------------------------


def test_format_float():
    assert _jsonio.format_float(1.0) == "1.0"
    assert _jsonio.format_float(-3.0) == "-3.0"
    assert _jsonio.format_float(0.1) == "0.10000000000000001"
    assert float(_jsonio.format_float(1 / 3)) == 1 / 3
    with pytest.raises(ValueError):
        _jsonio.format_float(float("inf"))


def _edge_examples(test):
    for x in EDGE_FLOATS:
        test = example(x)(test)
    return test


@given(st.floats(allow_nan=False, allow_infinity=False))
@_edge_examples
@settings(max_examples=2000, deadline=None)
def test_format_float_matches_its_reference(x):
    """format_float against the old body in _brute, over finite doubles."""
    assert _jsonio.format_float(x) == brute_format_float(x)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_format_float_rejects_non_finite_as_its_reference_does(x):
    with pytest.raises(ValueError) as want:
        brute_format_float(x)
    with pytest.raises(ValueError) as got:
        _jsonio.format_float(x)
    assert str(got.value) == str(want.value) == f"non-finite float in JSON output: {x!r}"


def test_dumps_sorted_and_round_trips():
    obj = {"b": [1, 2.5, None, True], "a": {"x": 0.32, "y": "s"}}
    text = _jsonio.dumps(obj, indent=2)
    assert json.loads(text) == {
        "b": [1, 2.5, None, True],
        "a": {"x": 0.32, "y": "s"},
    }
    assert text.index('"a"') < text.index('"b"')
    assert _jsonio.dumps({}) == "{}"
    assert _jsonio.dumps((1, 2)) == _jsonio.dumps([1, 2])
    with pytest.raises(TypeError):
        _jsonio.dumps({1: "nonstring key"})
    with pytest.raises(TypeError):
        _jsonio.dumps(object())


def test_dumps_writes_an_empty_list_as_brackets():
    assert _jsonio.dumps([]) == _jsonio.dumps(()) == "[]"
    assert _jsonio.dumps({"a": []}, indent=2) == '{\n  "a": []\n}'


def test_dumps_is_byte_stable():
    obj = {"v": [0.1 + 0.2, 1e-17, 123456789.123456789]}
    assert _jsonio.dumps(obj, indent=2) == _jsonio.dumps(obj, indent=2)
    assert json.loads(_jsonio.dumps(obj))["v"][0] == 0.1 + 0.2
