"""Algebraic identities that must hold on arbitrary inputs, not just the
shipped designs; checked with hypothesis."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from didlab import corpus
from didlab.core import EXACT_TOL, PMF_TOL, BoundsInterval, Panel, validate_scenario
from didlab.corpus import random_config
from didlab.diagnostics import empirical_cell_table, partial_pt, selection_stationarity
from didlab.errors import LabError
from didlab.estimators import ALL_ESTIMATORS, ESTIMATORS, ObservedCells, did_switchers, mts_bounds
from didlab.harness import PANEL_HEADER, PANEL_HEADER_LATENT, oracle_block, panel_csv_lines, parse_config, read_panel_csv
from didlab.oracle import cell_table, pt_deviation
from didlab.scenarios import (
    AtomSampler,
    ControlArmLearning,
    ControlLearningType,
    build_joint,
    draw_panel,
    posterior_mean,
)

from _brute import brute_estimates, brute_posterior, brute_read_panel

_finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw, with_latent=False):
    n = draw(st.integers(min_value=4, max_value=48))
    # sharp (all 0) and all-treated (all 1) period-0 columns are drawn
    # outright: a random column almost never is either
    d0 = draw(
        st.one_of(
            st.lists(st.integers(0, 1), min_size=n, max_size=n), st.just([0] * n), st.just([1] * n)
        )
    )
    d1 = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    y0 = draw(st.lists(_finite, min_size=n, max_size=n))
    y1 = draw(st.lists(_finite, min_size=n, max_size=n))
    po = None
    if with_latent:
        flat = draw(st.lists(_finite, min_size=4 * n, max_size=4 * n))
        po = np.asarray(flat, dtype=np.float64).reshape(n, 4)
    return Panel(d0=d0, d1=d1, y0=y0, y1=y1, po=po)


@given(panels())
@settings(max_examples=60, deadline=None)
def test_interval_upper_is_switcher_contrast(panel):
    try:
        upper = mts_bounds(panel).value.upper
    except LabError as err:
        assert err.code == "empty-cell"
        with pytest.raises(LabError):
            did_switchers(panel)
        return
    assert upper == pytest.approx(did_switchers(panel).value, abs=1e-9)


def _outcome(est_id, data):
    """An estimator's value, bounds as (lower, upper), or its error code,
    with its n_cells (None on error)."""
    try:
        rpt = ESTIMATORS[est_id](data)
    except LabError as err:
        return err.code, None
    value = rpt.value
    if isinstance(value, BoundsInterval):
        value = (value.lower, value.upper)
    return value, rpt.n_cells


@given(panels())
@settings(max_examples=200, deadline=None)
def test_estimators_match_row_by_row_reference(panel):
    want = brute_estimates(panel)
    # rounding differs between the cell-sum formulas and the per-row means,
    # so 1e-12 is relative to the larger of the value and the outcome scale
    scale = max(float(np.max(np.abs(panel.y0))), float(np.max(np.abs(panel.y1))), np.finfo(float).tiny)
    cells = ObservedCells(panel)
    for est_id in ALL_ESTIMATORS:
        value, n_cells = _outcome(est_id, panel)
        assert _outcome(est_id, cells) == (value, n_cells), est_id
        want_value, want_cells = want[est_id]
        if isinstance(want_value, str):
            assert value == want_value, est_id
            continue
        assert n_cells == want_cells and all(type(k) is int for k in n_cells.values()), est_id
        for got, ref in zip(np.atleast_1d(value), np.atleast_1d(want_value)):
            assert abs(got - ref) <= 1e-12 * max(abs(ref), scale), (est_id, got, ref)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_joint_cell_table_is_the_joint(seed):
    joint = build_joint(random_config(seed))
    cells = ObservedCells(joint)
    for est_id in ALL_ESTIMATORS:
        assert _outcome(est_id, cells) == _outcome(est_id, joint), est_id


@given(st.integers(min_value=0, max_value=10**6), st.integers(0, 2**32), st.integers(1, 3_000))
@settings(max_examples=40, deadline=None)
def test_cells_from_atom_counts_are_the_panel_cells(seed, draw_seed, n):
    joint = build_joint(random_config(seed))
    panel = draw_panel(joint, n, draw_seed)
    want = ObservedCells(panel)
    got = ObservedCells(joint, AtomSampler(joint).counts(n, draw_seed))
    assert got.mass == want.mass and all(type(m) is int for m in got.mass)
    # count-weighted sums round differently from unit-by-unit sums, so 1e-12
    # is relative to the larger of the sum and the cell's outcome scale
    scale = max(float(np.max(np.abs(panel.y0))), float(np.max(np.abs(panel.y1))), np.finfo(float).tiny)
    for sums, refs in ((got.sum_y0, want.sum_y0), (got.sum_y1, want.sum_y1)):
        for cell, (s, ref) in enumerate(zip(sums, refs)):
            assert abs(s - ref) <= 1e-12 * max(abs(ref), want.mass[cell] * scale), (cell, s, ref)


@given(panels(with_latent=True))
@settings(max_examples=60, deadline=None)
def test_route_equivalence_on_any_latent_panel(panel):
    table = empirical_cell_table(panel)
    trend = partial_pt(table)
    level = selection_stationarity(table)
    assert level.dev_d0 == pytest.approx(trend.dev_d0, abs=1e-9)
    assert level.dev_d1_given_d0 == pytest.approx(trend.dev_d1_given_d0, abs=1e-9)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_deviation_verdicts_never_disagree(seed):
    table = cell_table(build_joint(random_config(seed)))
    dev = pt_deviation(table)
    rep = partial_pt(table)
    assert dev >= 0.0
    # the two partial components can never both vanish while the overall
    # spread stays away from zero (and vice versa)
    if dev <= 1e-12:
        assert rep.dev_d0 <= 1e-12 and rep.dev_d1_given_d0 <= 1e-12
    else:
        assert max(rep.dev_d0, rep.dev_d1_given_d0) > 1e-12


@given(st.integers(min_value=0, max_value=10**6), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_panel_csv_round_trip(seed, draw_seed):
    joint = build_joint(random_config(seed))
    panel = draw_panel(joint, 60, draw_seed)
    for latent in (False, True):
        text = "\n".join(panel_csv_lines(panel, latent)) + "\n"
        fd, back_path = tempfile.mkstemp(suffix=".csv")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            back = read_panel_csv(back_path)
        finally:
            os.unlink(back_path)
        assert np.array_equal(back.d0, panel.d0)
        assert np.array_equal(back.y0, panel.y0)
        assert np.array_equal(back.y1, panel.y1)
        if latent:
            assert np.array_equal(back.po, panel.po)


# panel.csv fields as didlab writes them
_WRITTEN = st.one_of(
    st.sampled_from(["0", "1", "0.0", "1.0", "-0.0", "2.5"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# fields made of plain bytes alone that are not written floats, some of
# which float() rejects
_PLAIN = st.sampled_from(["", "1e400", "-1e400", "1e", ".", "+", "-", "1.0.0", "e5", "+.5e-3", "1-2", "00", "1e300"])
# fields holding other bytes, which float() and np.loadtxt may read apart
_OTHER = st.sampled_from(["nan", "-inf", "inf", "\x1f1", "1.5\x1f", "1_0", "\u0661", " 1", "1 ", "\t0.5", "0x1", "abc"])
_ANY = st.text(st.characters(codec="utf-8"), max_size=3)
# line breaks, with splitlines' blank lines among them
_BREAKS = st.sampled_from(["\r\n", "\r", "\x0c", "\x1c", "\u2028", "\n\x0c\n", "\n\r\n"])


@st.composite
def panel_texts(draw):
    """A panel.csv text whose rows are written as didlab writes them, and
    then, unless the style is "written", have one to three fields swapped
    for fields of that style.  Those rows may also all lose or all gain a
    field, or each draw its own width, and outside style "plain" they may
    be split by other line breaks."""
    style = draw(st.sampled_from(["written", "plain", "other", "any"]))
    header = PANEL_HEADER_LATENT if draw(st.booleans()) else PANEL_HEADER
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = [str(draw(st.integers(0, 10**6))), draw(st.sampled_from("01")), draw(st.sampled_from("01"))]
        rows.append(row + [draw(_WRITTEN) for _ in range(len(header) - 3)])
    breaks = st.sampled_from(["\n", "\n\n"])
    if style != "written" and rows:
        odd = {"plain": _PLAIN, "other": _OTHER, "any": st.one_of(_PLAIN, _OTHER, _ANY)}[style]
        for _ in range(draw(st.integers(1, 3))):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(odd)
        shape = draw(st.sampled_from(["same", "same", "short", "long", "ragged"]))
        for i, row in enumerate(rows):
            width = draw(st.sampled_from(["same", "short", "long"])) if shape == "ragged" else shape
            rows[i] = {"same": row, "short": row[:-1], "long": row + ["0"]}[width]
        if style != "plain" and draw(st.booleans()):
            breaks = st.one_of(breaks, _BREAKS)
    text = ",".join(header)
    for row in rows:
        text += draw(breaks) + ",".join(row)
    return text + draw(st.sampled_from(["", "\n"]))


def _read_outcome(reader, path):
    """reader's columns as (dtype, shape, bytes), or its error code and text."""
    try:
        panel = reader(path)
    except LabError as err:
        return err.code, str(err)
    cols = (panel.d0, panel.d1, panel.y0, panel.y1) + ((panel.po,) if panel.has_latent else ())
    return tuple((c.dtype.str, c.shape, c.tobytes()) for c in cols)


_H = ",".join(PANEL_HEADER) + "\n"
_HL = ",".join(PANEL_HEADER_LATENT) + "\n"


@given(panel_texts())
@example(_H + "0,0,1,\x1f1,1.0\n")
@example(_H + "0,0,1,1.5\x1f,1.0\n")
@example(_H + "0,0,1,1_0,1.0\n")
@example(_H + "0,0,1,\u0661,1.0\n")
@example(_H + "0, 0,1,0.5 ,1.0\n")
@example(_H + "\n0,0,1,0.5,1.0\x0c1,1,1,2.5,3.0\r\r\n")
@example(_H[:-1] + "\r\n0,0,1,0.5,1.0\r\n")
@example(_H + "0,0,1,0.5,1.0,\n")
@example(_H + "0,0,1,,1.0\n")
@example(_H + "0,0,1,0.5,1.0,2\n1,0,1,0.5,1.0,2\n")
@example(_H + "0,0,1,nan,1.0\n")
@example(_H + "0,0,1,-inf,1.0\n")
@example(_H + "0,0,1,0.5,1.0\n1,1,1,1e400,1.0\n")
@example(_HL + "0,0,1,0.5,1.0,0.5,2.0,3.0,1.0\n1,1,1,2.0,3.0,1.0,2.0,2.0,3.0\n")
@example(_HL + "0,0,1,0.5,1.0,0.5,2.0,3.0\n1,1,1,2.0,3.0,1.0,2.0,2.0\n")
@settings(max_examples=200, deadline=None)
def test_read_panel_matches_the_line_parser(text):
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        assert _read_outcome(read_panel_csv, path) == _read_outcome(brute_read_panel, path)
    finally:
        os.unlink(path)


@st.composite
def priors(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    thetas = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=k, max_size=k)
    )
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    return tuple((t, w / total) for t, w in zip(thetas, weights))


@given(priors(), st.integers(0, 1))
@settings(max_examples=80, deadline=None)
def test_posterior_matches_brute(prior, obs):
    assume(sum(w * (t if obs else 1.0 - t) for t, w in prior) > 1e-9)
    assert posterior_mean(prior, [obs]) == pytest.approx(
        brute_posterior(prior, obs), abs=1e-9
    )


@given(priors())
@settings(max_examples=40, deadline=None)
def test_posterior_stays_in_hull(prior):
    lo = min(t for t, _ in prior)
    hi = max(t for t, _ in prior)
    for obs in (0, 1):
        mass = sum(w * (t if obs else 1.0 - t) for t, w in prior)
        assume(mass > 1e-9)
        p = posterior_mean(prior, [obs])
        assert lo - 1e-12 <= p <= hi + 1e-12


@st.composite
def band_priors(draw):
    """1-4 rates, the extremes 0, 1, 5e-324 and 1e-300 among them, with
    non-negative weights that sum to 1 + e, |e| <= PMF_TOL, before rounding,
    with e = +-PMF_TOL / 2 often."""
    k = draw(st.integers(1, 4))
    rates = draw(st.lists(st.sampled_from([0.0, 1.0, 5e-324, 1e-300]) | st.floats(0.0, 1.0), min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(lambda w: sum(w) > 0.0))
    total = sum(raw) / (1.0 + draw(st.sampled_from([-PMF_TOL / 2, PMF_TOL / 2]) | st.floats(-PMF_TOL, PMF_TOL)))
    return tuple((t, w / total) for t, w in zip(rates, raw))


@given(band_priors())
@example(((1.0, 1.0000000005),))
@settings(max_examples=300, deadline=None)
def test_control_learner_belief_band_is_ordered_unless_observing_0_is_impossible(prior):
    """l1 - l0 = Var theta / (E theta E(1 - theta)) >= 0, and the computed
    band keeps that order within EXACT_TOL, except where observing 0 is
    impossible: l0 then falls back to the prior mean, the prior's weight sum,
    which can pass l1 = 1 by up to PMF_TOL.  posterior-not-monotone rejects
    exactly the inverted bands, so every type that validates has l0 <= l1 +
    EXACT_TOL."""
    ty = ControlLearningType(prob=1.0, prior=prior, mu_treat1=0.5, ktilde1=0.0)
    rules = {v.rule for v in validate_scenario(ControlArmLearning(types=(ty,))).violations}
    assume(rules <= {"posterior-not-monotone"})  # every check before that rule passed
    l0, l1 = ty._post_or_prior(0), ty._post_or_prior(1)
    inverted = l0 > l1 + EXACT_TOL
    assert ("posterior-not-monotone" in rules) == inverted
    if inverted:
        assert ty._post[0] is None and l1 == 1.0


# every corpus family, each given the parallel-trends switch pt (None lets
# the seed choose): selection_on_past reads it as its identity switch, and a
# family without a switch ignores it
_FAMILIES = {
    "selection_on_past": lambda seed, pt: corpus.random_selection_on_past(seed, identity=bool(pt)),
    "known_means": lambda seed, pt: corpus.random_known_means(seed),
    "treated_learning": lambda seed, pt: corpus.random_treated_learning(seed),
    "control_learning": corpus.random_control_learning,
    "learner_bounds": lambda seed, pt: corpus.random_learner_bounds(seed),
    "roy": corpus.random_roy,
    "roy_irreversible": lambda seed, pt: corpus.random_roy(seed, pt, irreversible=True),
    "stopping": corpus.random_stopping,
}


@given(st.sampled_from(sorted(_FAMILIES)), st.integers(0, 10**6), st.sampled_from([None, True, False]))
@settings(max_examples=40, deadline=None)
def test_library_path_raises_only_lab_errors(family, seed, pt):
    text = json.dumps(_FAMILIES[family](seed, pt).to_json())
    config = parse_config(text).scenario
    reports = [validate_scenario(config), validate_scenario(config)]
    want = parse_config(text).scenario.validate().to_json()
    assert [r.to_json() for r in reports] == [want, want]
    try:
        oracle_block(config)  # build_joint, then the oracle
    except LabError:
        pass
