"""Generative scenarios and their exact treatment-decision rules.

Each scenario is a small structural model of how units choose a two-period
treatment sequence.  decide() reproduces the model's decision rule exactly
(closed form over the finite config support, no simulation), `reads` names
the potential-outcome columns that rule looks at besides the type, and
_grid() enumerates the whole latent support as one block, sized in advance
by _grid_size().  build_joint() turns any scenario's grid and rule into the
full population distribution, and AtomSampler samples from it reproducibly:
atom counts for a replication, or a panel (draw_panel()).  Each scenario
also carries its own parallel-trends condition (conditions()), its catalog
note, and its JSON fields, declared once (json_fields); ScenarioConfig
lists the whole protocol.

A type's decision quantities (its trace, prior mean, posteriors, gains,
continuation values) live on the type object: each is computed once, on its
first read, and shared by validate() and decide() and by every config that
holds the type; a config keeps validate()'s report the same way.  The cached
values are not fields, so equality, hashing and dataclasses.replace() see the
fields alone.

Tie-breaking: the forward-looking choice scenarios treat at indifference
(threshold statistic >= 0); the stopping scenario stops at indifference
(continuation statistic <= 0).  Validation flags configs that sit within
KNIFE_EDGE_MARGIN of a threshold, since results there hinge on the
convention.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import _rng
from .core import (
    EXACT_TOL,
    KNIFE_EDGE_MARGIN,
    PMF_TOL,
    CostTable,
    JointDistribution,
    LatentState,
    Panel,
    PotentialOutcomes,
    TreatmentPair,
    ValidationReport,
)
from .errors import LabError

MAX_ATOMS = 1_000_000
# AtomSampler's guide table has the smallest power-of-two bucket count that is
# at least the atom count and at least GUIDE_MIN_BUCKETS, so a draw's walk
# crosses at most one atom on average.
GUIDE_MIN_BUCKETS = 2**10
# Walk steps before the draws still walking (many tiny atoms in one bucket)
# fall back to binary search.
GUIDE_WALK_STEPS = 16
# Units per chunk when AtomSampler.counts draws a replication's atom counts.
COUNT_CHUNK = 2**14
# AtomSampler.counts histograms the draws' guide buckets when at most this
# share of the buckets holds an atom edge, and else looks up every draw's
# atom.  Only draws in those "mixed" buckets still take the per-draw lookup,
# so the histogram costs a fixed O(n) pass plus that share of the lookup.
# Timed at n = 100,000 on random joints (2 cores, numpy 2.4): it is 0.6-0.9x
# the per-draw time up to a share of 0.09, even near 0.14-0.18, and 1.2-1.5x
# from 0.25 on.  The shipped joints' shares are at most 0.087; the 4,800-atom
# wide_support joints' are about 0.4.
COUNT_MIXED_MAX = 1 / 8

Prior = tuple[tuple[float, float], ...]  # ((theta, weight), ...)


# the 16 binary outcome tuples (y00, y01, y10, y11) in lexicographic order
_PO16 = np.array(list(product((0.0, 1.0), repeat=4)))
# the 8 of them with Y_0(1) = 0, in the same order
_PO8 = _PO16[_PO16[:, 1] == 0.0]


def _bern(y: int, p: float) -> float:
    return p if y == 1 else 1.0 - p


def _bern_col(y: np.ndarray, p) -> np.ndarray:
    """_bern row by row: the same float operations, so the same bits."""
    return np.where(y == 1.0, p, 1.0 - p)


def prior_mean(prior: Prior) -> float:
    return float(sum(t * w for t, w in prior))


def posterior_mean(prior: Prior, observations: Sequence[int]) -> float:
    """Posterior mean of a Bernoulli success rate after binary observations.

    The prior is a finite pmf over candidate rates.  With no observations the
    prior mean is returned unchanged.
    """
    for y in observations:
        if y not in (0, 1):
            raise ValueError(f"Bernoulli observation must be 0/1, got {y!r}")
    num = 0.0
    den = 0.0
    for theta, w in prior:
        like = w
        for y in observations:
            like *= _bern(y, theta)
        num += theta * like
        den += like
    if den <= 0.0:
        raise LabError(
            "impossible-observation",
            f"observations {list(observations)} have zero probability under the prior",
        )
    return num / den


def posterior_mean_or_prior(prior: Prior, observation: int) -> float:
    """posterior_mean after one observation, falling back to the prior mean
    when that observation is impossible under the prior (degenerate history)."""
    try:
        return posterior_mean(prior, [observation])
    except LabError:
        return prior_mean(prior)


class _once:
    """A lazy attribute: the method's value, computed on the first read and
    stored on the instance under the method's name, so later reads are plain
    attribute hits.  It is not a field, so a dataclass's ==, hash, repr and
    replace() ignore it.  functools.cached_property (a lock on each first
    read) and a write into __dict__ both timed slower than object.__setattr__
    on configs with hundreds of types."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


class _Learner:
    """A learning type's beliefs about its unknown arm, read from its prior:
    the prior mean, and the posterior mean after one 0/1 observation."""

    @_once
    def _mean(self) -> float:
        return prior_mean(self.prior)

    @_once
    def _post(self) -> tuple[Optional[float], Optional[float]]:
        """The posterior mean after observing 0 and after observing 1, None
        where that observation has zero prior probability."""
        post = []
        for y in (0, 1):
            try:
                post.append(posterior_mean(self.prior, [y]))
            except LabError:
                post.append(None)
        return tuple(post)

    def _post_or_prior(self, y: int) -> float:
        """posterior_mean_or_prior(self.prior, y)."""
        post = self._post[y]
        return self._mean if post is None else post


@dataclass(frozen=True)
class DecisionTrace:
    """Full audit of one unit's decision problem.

    d1_given holds the period-1 choice under each period-0 history;
    continuation holds the period-0 conditional expectations of the period-1
    values (W1(0), W1(1)); gains is the period-0 threshold statistic, or None
    where the scenario fixes d0 outright.
    """

    d0: int
    d1_given: tuple[int, int]
    continuation: tuple[float, float]
    gains: Optional[float]

    def realized(self) -> TreatmentPair:
        return TreatmentPair(self.d0, self.d1_given[self.d0])


# The checks below name what they check by a str.format template and its
# arguments, formatted only for a violation or a warning.


def _check_pmf(report: ValidationReport, weights, where: str, *args) -> None:
    total = 0.0
    for i, w in enumerate(weights):
        if w < 0:
            report.add("pmf-negative", f"negative probability {w!r}", f"{where.format(*args)}[{i}]")
        total += w
    if abs(total - 1.0) > PMF_TOL:
        report.add("pmf-sum", f"probabilities at {where.format(*args)} sum to {total!r}, not 1", total)


def _check_unit(report: ValidationReport, x: float, where: str, *args) -> None:
    if not (0.0 <= x <= 1.0):
        report.add("prob-range", f"{where.format(*args)} = {x!r} outside [0, 1]", x)


def _check_common_trend(report: ValidationReport, taus: list[float]) -> None:
    if taus and max(taus) - min(taus) > EXACT_TOL:
        report.add(
            "tau-inconsistent",
            f"untreated trend varies across types: {min(taus)!r} .. {max(taus)!r}",
            *taus,
        )


def _warn_edge(report: ValidationReport, stat: float, what: str, *args) -> None:
    if abs(stat) < KNIFE_EDGE_MARGIN:
        report.warn(f"knife-edge: {what.format(*args)} = {stat!r} is within {KNIFE_EDGE_MARGIN} of the threshold")


# ---------------------------------------------------------------------------
# JSON schema for scenario configs
#
# The decoders take the JSON pointer of their value as a parent path plus
# the keys under it, and join them only to raise: a config decodes without
# formatting a pointer per number.


def _pointer(path: str, keys) -> str:
    return path + "".join(f"/{k}" for k in keys)


def _num(obj, path: str, *keys) -> float:
    """obj as a finite float, or a schema-error at path/keys."""
    if type(obj) is float and math.isfinite(obj):
        return obj
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise LabError("schema-error", f"expected a number, got {type(obj).__name__}", _pointer(path, keys))
    try:
        x = float(obj)
    except OverflowError:
        raise LabError("schema-error", "integer too large for a float", _pointer(path, keys)) from None
    if not math.isfinite(x):
        raise LabError("schema-error", f"non-finite number {obj!r}", _pointer(path, keys))
    return x


def _numlist(obj, k: int, path: str, *keys) -> tuple[float, ...]:
    """obj as a tuple of k finite floats, or a schema-error at path/keys or at
    the entry that is not one."""
    if not isinstance(obj, list) or len(obj) != k:
        raise LabError("schema-error", f"expected a list of {k} numbers", _pointer(path, keys))
    out = tuple(obj)
    for v in out:
        if type(v) is not float or not math.isfinite(v):
            return tuple([_num(x, path, *keys, j) for j, x in enumerate(obj)])
    return out


def _matrix(obj, path: str, key: str) -> tuple[tuple[float, float], tuple[float, float]]:
    """obj as a 2x2 matrix of finite floats; path/key is obj's pointer."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise LabError("schema-error", f"{key} must be a 2x2 matrix", f"{path}/{key}")
    return _numlist(obj[0], 2, path, key, 0), _numlist(obj[1], 2, path, key, 1)


def _binary(obj, path: str, *keys) -> int:
    if obj not in (0, 1) or isinstance(obj, bool):
        raise LabError("schema-error", f"expected 0 or 1, got {obj!r}", _pointer(path, keys))
    return int(obj)


def _prior(obj, path: str, key: str) -> Prior:
    if not isinstance(obj, list) or not obj:
        raise LabError("schema-error", "prior must be a nonempty list of [rate, weight] pairs", f"{path}/{key}")
    return tuple(_numlist(e, 2, path, key, i) for i, e in enumerate(obj))


def _costs(obj: dict, path: str) -> CostTable:
    """The optional k0 and k1 of the type object obj at path."""
    k0 = _numlist(obj["k0"], 2, path, "k0") if "k0" in obj else (0.0, 0.0)
    k1 = _matrix(obj["k1"], path, "k1") if "k1" in obj else ((0.0, 0.0), (0.0, 0.0))
    return CostTable(k0=k0, k1=k1)


Pmf16 = tuple[tuple[tuple[int, int, int, int], float], ...]


def _pmf16_json(obj, path: str, key: str) -> Pmf16:
    if not isinstance(obj, list) or not obj:
        raise LabError("schema-error", "pmf must be a nonempty list of [y00,y01,y10,y11,prob]", f"{path}/{key}")
    entries = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != 5:
            raise LabError("schema-error", "pmf row must be [y00,y01,y10,y11,prob]", f"{path}/{key}/{i}")
        po = tuple(_binary(v, path, key, i, j) for j, v in enumerate(row[:4]))
        entries.append((po, _num(row[4], path, key, i, 4)))
    return tuple(sorted(entries, key=lambda e: e[0]))


def _stopping_pmf(obj, path: str, key: str) -> tuple[tuple[tuple[float, float], float], ...]:
    if not isinstance(obj, list) or not obj:
        raise LabError("schema-error", "pmf must be a nonempty list of [y0, y1, prob]", f"{path}/{key}")
    pmf = []
    for j, row in enumerate(obj):
        y0, y1, p = _numlist(row, 3, path, key, j)
        pmf.append(((y0, y1), p))
    return tuple(pmf)


class _Codec(NamedTuple):
    """How one config field is read from JSON and written back.

    decode(raw, path, key) is the field's value from the JSON value raw at
    pointer path/key, or a schema-error; encode(value) is the JSON value.  A
    codec with keys spreads its field over those optional keys of the field's
    object: decode(obj, path) reads them from obj, and encode(value) returns
    them as a dict."""

    decode: Callable
    encode: Callable
    keys: tuple[str, ...] = ()


def _lists(rows) -> list:
    return [list(row) for row in rows]


_NUM = _Codec(_num, lambda x: x)
_PAIR = _Codec(lambda obj, path, key: _numlist(obj, 2, path, key), list)
_MATRIX = _Codec(_matrix, _lists)
_PRIOR = _Codec(_prior, _lists)
_COSTS = _Codec(_costs, lambda c: {"k0": list(c.k0), "k1": _lists(c.k1)}, ("k0", "k1"))
_PMF16 = _Codec(_pmf16_json, lambda pmf: [[*po, p] for po, p in pmf])
_STOPPING_PMF = _Codec(_stopping_pmf, lambda pmf: [[y0, y1, p] for (y0, y1), p in pmf])


def _types(cls) -> _Codec:
    """The codec of a nonempty list of cls objects, each checked to be an
    object before any is decoded."""

    def decode(obj, path: str, key: str) -> tuple:
        path = f"{path}/{key}"
        if not isinstance(obj, list) or not obj:
            raise LabError("schema-error", "types must be a nonempty list", path)
        for i, t in enumerate(obj):
            if not isinstance(t, dict):
                raise LabError("schema-error", "each type must be a JSON object", f"{path}/{i}")
        return tuple([_decode(cls, t, f"{path}/{i}") for i, t in enumerate(obj)])

    return _Codec(decode, lambda types: [_encode(ty) for ty in types])


class _Record:
    """A config dataclass whose JSON object is declared once, as json_fields:
    (field, codec) pairs.  _decode and _encode are derived from it, and the
    fields decode in its order, so that order fixes which error a config
    with several bad fields reports.  The keys _decode expects are worked
    out here, once per class."""

    json_fields: tuple[tuple[str, _Codec], ...] = ()
    _tag: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._required = cls._tag + tuple(name for name, codec in cls.json_fields if not codec.keys)
        cls._known = frozenset(cls._required).union(*(codec.keys for _, codec in cls.json_fields))


def _decode(cls, obj: dict, path: str):
    """cls from its JSON object obj at pointer path, strict about keys."""
    if not cls._known.issuperset(obj):
        k = next(k for k in obj if k not in cls._known)
        raise LabError("schema-error", f"unknown key {k!r}", f"{path}/{k}")
    for k in cls._required:
        if k not in obj:
            raise LabError("schema-error", f"missing key {k!r}", f"{path}/{k}")
    values = {}
    for name, codec in cls.json_fields:
        values[name] = codec.decode(obj, path) if codec.keys else codec.decode(obj[name], path, name)
    return cls(**values)


def _encode(record) -> dict:
    out = {}
    for name, codec in record.json_fields:
        value = codec.encode(getattr(record, name))
        if codec.keys:
            out.update(value)
        else:
            out[name] = value
    return out


class ScenarioConfig(_Record):
    """What a scenario class declares besides its json_fields:

    scenario_id       its JSON tag;
    note              its line in the `didlab scenarios` catalog;
    reads             the potential-outcome columns decide() reads besides
                      the type (see build_joint);
    validate()        its ValidationReport;
    decide(state)     its exact decision rule, a DecisionTrace;
    _grid_size(), _grid()  its latent grid (see build_joint);
    conditions(arr, gap)   its parallel-trends condition, given the joint's
                      arrays and stationarity gap E[Y1(0)] - E[Y0(0)]: a
                      dict of predicts_pt and the ConditionReport fields it
                      sets.
    """

    _tag = ("scenario",)

    def to_json(self) -> dict:
        return {"scenario": self.scenario_id, **_encode(self)}

    @_once
    def _validation(self) -> ValidationReport:
        """validate()'s report, once per config; validate_scenario hands out
        copies of it."""
        return self.validate()


# ---------------------------------------------------------------------------
# scenario A: deterministic selection on the realized past outcome


@dataclass(frozen=True)
class PastOutcomeSelection(ScenarioConfig):
    """Period-1 treatment goes to exactly the units whose period-0 untreated
    outcome was 0; nobody is treated in period 0.  Binary outcomes; the
    untreated pair follows a two-state Markov step, treated outcomes are
    independent Bernoulli draws."""

    p_y00: float
    trans_ctrl: tuple[tuple[float, float], tuple[float, float]]
    mean_y_treated: tuple[float, float]

    scenario_id = "past_outcome_selection"
    note = "treatment tracks the previous untreated outcome"
    reads = (0,)  # y00
    json_fields = (("trans_ctrl", _MATRIX), ("p_y00", _NUM), ("mean_y_treated", _PAIR))

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        _check_unit(rep, self.p_y00, "p_y00")
        for i, row in enumerate(self.trans_ctrl):
            _check_pmf(rep, row, "trans_ctrl[{}]", i)
            for j, p in enumerate(row):
                _check_unit(rep, p, "trans_ctrl[{}][{}]", i, j)
        for t, m in enumerate(self.mean_y_treated):
            _check_unit(rep, m, "mean_y_treated[{}]", t)
        return rep

    def decide(self, state: LatentState) -> DecisionTrace:
        y00 = state.po.y[0][0]
        if y00 not in (0.0, 1.0):
            raise LabError("state-not-in-support", f"binary scenario got Y_0(0) = {y00!r}")
        d1 = 1 - int(y00)
        return DecisionTrace(d0=0, d1_given=(d1, d1), continuation=(0.0, 0.0), gains=None)

    def _grid_size(self) -> int:
        return 16

    def _grid(self):
        y = _PO16.T
        trans = np.array(self.trans_ctrl)[y[0].astype(np.intp), y[2].astype(np.intp)]
        p = (
            _bern_col(y[0], self.p_y00)
            * trans
            * _bern_col(y[1], self.mean_y_treated[0])
            * _bern_col(y[3], self.mean_y_treated[1])
        )
        return np.zeros(16, dtype=np.int64), _PO16, p

    def conditions(self, arr, gap) -> dict:
        """Parallel trends holds iff the untreated transition is the
        identity: past_selection_deviation, 1 + P(Y_1(0) = 1 | Y_0(0) = 0)
        - P(Y_1(0) = 1 | Y_0(0) = 1), is 0."""
        t = self.trans_ctrl
        formula = t[0][1] - t[1][1] + 1.0
        return {"past_selection_deviation": formula, "predicts_pt": abs(formula) <= EXACT_TOL}


# ---------------------------------------------------------------------------
# scenario B: forward-looking choice with all means known up front


@dataclass(frozen=True)
class NoLearningType(_Record):
    prob: float
    mu: tuple[tuple[float, float], tuple[float, float]]  # mu[t][d]
    costs: CostTable = CostTable()
    beta: float = 0.9

    json_fields = (("mu", _MATRIX), ("prob", _NUM), ("costs", _COSTS), ("beta", _NUM))

    def _g1(self, d0: int) -> float:
        k1 = self.costs.k1[d0]
        return (self.mu[1][1] - k1[1]) - (self.mu[1][0] - k1[0])

    @_once
    def _trace(self) -> DecisionTrace:
        """The type's decision trace: its decisions depend on nothing else."""
        k1 = self.costs.k1
        w1 = tuple(max(self.mu[1][1] - k1[d0][1], self.mu[1][0] - k1[d0][0]) for d0 in (0, 1))
        d1_given = tuple(int(self._g1(d0) >= 0) for d0 in (0, 1))
        k0 = self.costs.k0
        gains = (self.mu[0][1] - k0[1]) - (self.mu[0][0] - k0[0]) + self.beta * (w1[1] - w1[0])
        return DecisionTrace(int(gains >= 0), d1_given, w1, gains)


@dataclass(frozen=True)
class NoLearning(ScenarioConfig):
    """Bernoulli means of all four potential outcomes are known to each type
    at the outset, so realized outcomes carry no news and decisions are a
    function of the type alone."""

    types: tuple[NoLearningType, ...]

    scenario_id = "no_learning"
    note = "forward-looking types whose arm means are known up front"
    reads = ()  # the type alone
    json_fields = (("types", _types(NoLearningType)),)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        _check_pmf(rep, [t.prob for t in self.types], "types")
        taus = []
        for i, ty in enumerate(self.types):
            for t, d in product((0, 1), repeat=2):
                _check_unit(rep, ty.mu[t][d], "types[{}].mu[{}][{}]", i, t, d)
            if not (0.0 < ty.beta < 1.0):
                rep.add("beta-range", f"beta = {ty.beta!r} outside (0,1)", f"types[{i}]")
            for v in (*ty.costs.k0, *ty.costs.k1[0], *ty.costs.k1[1]):
                if not math.isfinite(v):
                    rep.add("cost-not-finite", f"non-finite cost in types[{i}]", v)
            taus.append(ty.mu[1][0] - ty.mu[0][0])
            if rep.ok:
                _warn_edge(rep, ty._trace.gains, "types[{}] period-0 gain", i)
                for d0 in (0, 1):
                    _warn_edge(rep, ty._g1(d0), "types[{}] period-1 gain given d0={}", i, d0)
        _check_common_trend(rep, taus)
        return rep

    def decide(self, state: LatentState) -> DecisionTrace:
        if not 0 <= state.u0_type < len(self.types):
            raise LabError("state-not-in-support", f"type index {state.u0_type} out of range")
        return self.types[state.u0_type]._trace

    def _grid_size(self) -> int:
        return 16 * len(self.types)

    def _grid(self):
        k = len(self.types)
        mu = np.array([ty.mu for ty in self.types], dtype=np.float64).reshape(k, 1, 4)
        prob = np.array([ty.prob for ty in self.types], dtype=np.float64).reshape(k, 1)
        b = _bern_col(_PO16, mu)  # (type, outcome tuple, column)
        p = prob * b[..., 0] * b[..., 1] * b[..., 2] * b[..., 3]
        return np.repeat(np.arange(k), 16), np.tile(_PO16, (k, 1)), p.ravel()

    def conditions(self, arr, gap) -> dict:
        """Parallel trends holds for every validated config: decisions depend
        on the type alone, and validation requires one untreated trend
        across types."""
        return {"predicts_pt": True}


# ---------------------------------------------------------------------------
# scenario C: learning about the treated arm only


@dataclass(frozen=True)
class TreatedLearningType(_Learner, _Record):
    prob: float
    prior: Prior  # pmf over the treated-arm success rate
    mu_ctrl: tuple[float, float]  # known untreated means (period 0, period 1)
    costs: CostTable = CostTable()
    beta: float = 0.9

    json_fields = (("prob", _NUM), ("prior", _PRIOR), ("mu_ctrl", _PAIR), ("costs", _COSTS), ("beta", _NUM))

    @_once
    def _gains(self) -> tuple[float, tuple[float, float]]:
        """The period-0 threshold statistic, and the period-0 expectations of
        the period-1 value untreated and treated (W1(0), E W1(1))."""
        k0, k1 = self.costs.k0, self.costs.k1
        w1_untreated = max(self._mean - k1[0][1], self.mu_ctrl[1] - k1[0][0])
        w1_treated = 0.0
        for y, post in enumerate(self._post):
            w = _bern(y, self._mean)
            if w > 0.0 and post is not None:
                w1_treated += w * max(post - k1[1][1], self.mu_ctrl[1] - k1[1][0])
        gains = (self._mean - k0[1]) - (self.mu_ctrl[0] - k0[0]) + self.beta * (w1_treated - w1_untreated)
        return gains, (w1_untreated, w1_treated)


@dataclass(frozen=True)
class TreatedArmLearning(ScenarioConfig):
    """The treated-arm success rate is unknown; trying treatment in period 0
    reveals one draw from it.  Untreated outcomes are fully known, so nothing
    observed while untreated moves beliefs."""

    types: tuple[TreatedLearningType, ...]

    scenario_id = "treated_arm_learning"
    note = "beliefs update only about the treated arm"
    reads = (1,)  # y01
    json_fields = (("types", _types(TreatedLearningType)),)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        _check_pmf(rep, [t.prob for t in self.types], "types")
        taus = []
        for i, ty in enumerate(self.types):
            _check_pmf(rep, [w for _, w in ty.prior], "types[{}].prior", i)
            for j, (theta, _) in enumerate(ty.prior):
                _check_unit(rep, theta, "types[{}].prior[{}] rate", i, j)
            for t in (0, 1):
                _check_unit(rep, ty.mu_ctrl[t], "types[{}].mu_ctrl[{}]", i, t)
            if not (0.0 < ty.beta < 1.0):
                rep.add("beta-range", f"beta = {ty.beta!r} outside (0,1)", f"types[{i}]")
            taus.append(ty.mu_ctrl[1] - ty.mu_ctrl[0])
            if rep.ok:
                self._warn_type(rep, ty, i)
        _check_common_trend(rep, taus)
        return rep

    def _warn_type(self, rep: ValidationReport, ty: TreatedLearningType, i: int) -> None:
        k1 = ty.costs.k1
        _warn_edge(rep, ty._mean - ty.mu_ctrl[1] - (k1[0][1] - k1[0][0]), "types[{}] period-1 gain given d0=0", i)
        for y, post in enumerate(ty._post):
            if _bern(y, ty._mean) == 0.0 or post is None:
                continue
            _warn_edge(
                rep,
                post - ty.mu_ctrl[1] - (k1[1][1] - k1[1][0]),
                "types[{}] period-1 gain given d0=1, y01={}",
                i,
                y,
            )
        _warn_edge(rep, ty._gains[0], "types[{}] period-0 gain", i)

    def decide(self, state: LatentState) -> DecisionTrace:
        if not 0 <= state.u0_type < len(self.types):
            raise LabError("state-not-in-support", f"type index {state.u0_type} out of range")
        ty = self.types[state.u0_type]
        y01 = state.po.y[0][1]
        if y01 not in (0.0, 1.0):
            raise LabError("state-not-in-support", f"binary scenario got Y_0(1) = {y01!r}")
        k1 = ty.costs.k1
        d1_untreated = int(ty._mean - ty.mu_ctrl[1] - (k1[0][1] - k1[0][0]) >= 0)
        post = ty._post[int(y01)]
        if post is None:
            raise LabError(
                "state-not-in-support",
                f"Y_0(1) = {int(y01)} impossible under types[{state.u0_type}] prior",
            )
        d1_treated = int(post - ty.mu_ctrl[1] - (k1[1][1] - k1[1][0]) >= 0)
        gains, continuation = ty._gains
        return DecisionTrace(
            d0=int(gains >= 0),
            d1_given=(d1_untreated, d1_treated),
            continuation=continuation,
            gains=gains,
        )

    def _grid_size(self) -> int:
        return 16 * sum(len(ty.prior) for ty in self.types)

    def _grid(self):
        # one row per (type, prior point), crossed with the 16 outcome tuples
        latent = np.array(
            [(i, ty.prob, w, theta, *ty.mu_ctrl) for i, ty in enumerate(self.types) for theta, w in ty.prior],
            dtype=np.float64,
        ).reshape(-1, 6)
        u, prob, w_theta, theta, ctrl0, ctrl1 = latent.T[:, :, None]
        y = _PO16.T
        p = (
            prob
            * w_theta
            * _bern_col(y[0], ctrl0)
            * _bern_col(y[1], theta)
            * _bern_col(y[2], ctrl1)
            * _bern_col(y[3], theta)
        )
        return np.repeat(u.ravel().astype(np.int64), 16), np.tile(_PO16, (len(latent), 1)), p.ravel()

    def conditions(self, arr, gap) -> dict:
        """Parallel trends holds for every validated config: only treated
        outcomes move beliefs, and validation requires one untreated trend
        across types."""
        return {"predicts_pt": True}


# ---------------------------------------------------------------------------
# scenario D: learning about the untreated arm, pre-treatment period forced


@dataclass(frozen=True)
class LearnerClassification:
    """Partition of the control-learning population by whether the period-1
    choice can flip with the period-0 outcome.

    p_a: mass that treats regardless of what was observed;
    p_n: mass that never treats;
    p_vl: mass whose choice tracks the period-0 untreated outcome ("valuable
    learners"), split into p_vl0/p_vl1 by that outcome;
    persistence_on_vl: P(Y0(0) = Y1(0) | valuable learner), vacuously 1 when
    p_vl = 0; tau: the common untreated trend (identically 0 here).
    """

    p_a: float
    p_n: float
    p_vl: float
    p_vl0: float
    p_vl1: float
    persistence_on_vl: float
    tau: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ControlLearningType(_Learner, _Record):
    prob: float
    prior: Prior  # pmf over the untreated-arm success rate
    mu_treat1: float  # known mean of Y_1(1)
    ktilde1: float  # period-1 treatment cost differential

    json_fields = (("prob", _NUM), ("prior", _PRIOR), ("mu_treat1", _NUM), ("ktilde1", _NUM))


@dataclass(frozen=True)
class ControlArmLearning(ScenarioConfig):
    """Nobody can be treated in period 0; watching the untreated outcome
    updates beliefs about the untreated arm, so the period-1 choice compares
    a fixed treated value against a moving posterior."""

    types: tuple[ControlLearningType, ...]

    scenario_id = "control_arm_learning"
    note = "untreated outcomes reveal the risky arm's quality"
    reads = (0,)  # y00
    json_fields = (("types", _types(ControlLearningType)),)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        _check_pmf(rep, [t.prob for t in self.types], "types")
        for i, ty in enumerate(self.types):
            _check_pmf(rep, [w for _, w in ty.prior], "types[{}].prior", i)
            for j, (theta, _) in enumerate(ty.prior):
                _check_unit(rep, theta, "types[{}].prior[{}] rate", i, j)
            _check_unit(rep, ty.mu_treat1, "types[{}].mu_treat1", i)
            if not math.isfinite(ty.ktilde1):
                rep.add("cost-not-finite", f"ktilde1 not finite in types[{i}]", ty.ktilde1)
            if rep.ok:
                l0, l1 = ty._post_or_prior(0), ty._post_or_prior(1)
                if l0 > l1 + EXACT_TOL:
                    rep.add(
                        "posterior-not-monotone",
                        f"types[{i}]: posterior mean after 0 ({l0!r}) exceeds posterior mean after 1 ({l1!r})",
                        l0,
                        l1,
                    )
                a = ty.mu_treat1 - ty.ktilde1
                _warn_edge(rep, a - l0, "types[{}] treated-value margin at l0", i)
                _warn_edge(rep, a - l1, "types[{}] treated-value margin at l1", i)
        return rep

    def decide(self, state: LatentState) -> DecisionTrace:
        if not 0 <= state.u0_type < len(self.types):
            raise LabError("state-not-in-support", f"type index {state.u0_type} out of range")
        ty = self.types[state.u0_type]
        y00 = state.po.y[0][0]
        if y00 not in (0.0, 1.0):
            raise LabError("state-not-in-support", f"binary scenario got Y_0(0) = {y00!r}")
        a = ty.mu_treat1 - ty.ktilde1
        l_obs = ty._post[int(y00)]
        if l_obs is None:
            raise LabError(
                "state-not-in-support",
                f"Y_0(0) = {int(y00)} impossible under types[{state.u0_type}] prior",
            )
        d1_untreated = int(a >= l_obs)
        # counterfactual history d0=1: no untreated draw was seen, beliefs stay at the prior
        d1_treated = int(a >= ty._mean)
        return DecisionTrace(
            d0=0,
            d1_given=(d1_untreated, d1_treated),
            continuation=(max(a, l_obs), max(a, ty._mean)),
            gains=None,
        )

    def _grid_size(self) -> int:
        return 8 * sum(len(ty.prior) for ty in self.types)

    def _grid(self):
        # one row per (type, prior point), crossed with the 8 outcome tuples:
        # nobody is treated in period 0, so Y_0(1) never shows; it is stored as 0
        latent = np.array(
            [(i, ty.prob, w, theta, ty.mu_treat1) for i, ty in enumerate(self.types) for theta, w in ty.prior],
            dtype=np.float64,
        ).reshape(-1, 5)
        u, prob, w_theta, theta, treat1 = latent.T[:, :, None]
        y = _PO8.T
        p = prob * w_theta * _bern_col(y[0], theta) * _bern_col(y[2], theta) * _bern_col(y[3], treat1)
        return np.repeat(u.ravel().astype(np.int64), 8), np.tile(_PO8, (len(latent), 1)), p.ravel()

    def classify_learners(self) -> LearnerClassification:
        """Classify each type by comparing the treated value a = mu_treat1 -
        ktilde1 against the posterior-mean band [l0, l1] of the untreated
        arm."""
        p_a = p_n = p_vl = p_vl0 = p_vl1 = 0.0
        persist_mass = 0.0
        # untreated draws are exchangeable across periods, so the common trend is
        # identically zero for every type
        tau = 0.0
        for ty in self.types:
            a = ty.mu_treat1 - ty.ktilde1
            l0 = ty._post_or_prior(0)
            l1 = ty._post_or_prior(1)
            mean = ty._mean
            if a >= l1:
                p_a += ty.prob
            elif a < l0:
                p_n += ty.prob
            else:
                p_vl += ty.prob
                p_vl0 += ty.prob * (1.0 - mean)
                p_vl1 += ty.prob * mean
                persist_mass += ty.prob * sum(
                    w * (t * t + (1.0 - t) * (1.0 - t)) for t, w in ty.prior
                )
        persistence = persist_mass / p_vl if p_vl > 0.0 else 1.0
        return LearnerClassification(
            p_a=p_a,
            p_n=p_n,
            p_vl=p_vl,
            p_vl0=p_vl0,
            p_vl1=p_vl1,
            persistence_on_vl=persistence,
            tau=tau,
        )

    def conditions(self, arr, gap) -> dict:
        """Parallel trends holds iff there are no valuable learners, or their
        outcomes persist perfectly and the trend is zero."""
        learners = self.classify_learners()
        return {
            "p_vl": learners.p_vl,
            "persistence_on_vl": learners.persistence_on_vl,
            "tau": learners.tau,
            "predicts_pt": learners.p_vl <= EXACT_TOL
            or (learners.persistence_on_vl >= 1.0 - EXACT_TOL and abs(learners.tau) <= EXACT_TOL),
        }


# ---------------------------------------------------------------------------
# scenarios E and F: contemporaneous outcome comparison (Roy selection)

def _validate_pmf16(rep: ValidationReport, pmf: Pmf16) -> None:
    _check_pmf(rep, [p for _, p in pmf], "pmf")
    seen = set()
    for po, _ in pmf:
        if any(y not in (0, 1) for y in po):
            rep.add("pmf-support", f"potential outcomes must be binary, got {po}", po)
        if po in seen:
            rep.add("pmf-duplicate", f"duplicate support point {po}", po)
        seen.add(po)


@dataclass(frozen=True)
class RoyRepeated(ScenarioConfig):
    """Each period's treatment is whichever arm has the larger outcome that
    period, chosen fresh both periods."""

    pmf: Pmf16

    scenario_id = "roy_repeated"
    note = "each period takes whichever arm pays more that period"
    reads = (0, 1, 2, 3)
    json_fields = (("pmf", _PMF16),)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        _validate_pmf16(rep, self.pmf)
        return rep

    def decide(self, state: LatentState) -> DecisionTrace:
        y00, y01, y10, y11 = state.po.flat
        if not {y00, y01, y10, y11} <= {0.0, 1.0}:
            raise LabError("state-not-in-support", f"binary scenario got {state.po.flat}")
        d1 = int(y11 >= y10)
        w = max(y10, y11)
        return DecisionTrace(
            d0=int(y01 >= y00), d1_given=(d1, d1), continuation=(w, w), gains=y01 - y00
        )

    def _grid_size(self) -> int:
        return len(self.pmf)

    def _grid(self):
        rows = np.array([(*po, p) for po, p in self.pmf], dtype=np.float64).reshape(-1, 5)
        return np.zeros(len(rows), dtype=np.int64), rows[:, :4], rows[:, 4]

    def conditions(self, arr, gap) -> dict:
        """Parallel trends holds iff the untreated mean is stationary and
        the ever-untreated units sit at the top outcome in both periods
        (degeneracy_ever_untreated is 1), or there are none."""
        ever = arr["d0"] * arr["d1"] == 0
        den = float(np.sum(arr["prob"][ever]))
        if den <= 0.0:
            return {"predicts_pt": abs(gap) <= EXACT_TOL}
        both_one = ever & (arr["y00"] == 1.0) & (arr["y10"] == 1.0)
        degeneracy = float(np.sum(arr["prob"][both_one])) / den
        return {
            "degeneracy_ever_untreated": degeneracy,
            "predicts_pt": abs(gap) <= EXACT_TOL and degeneracy >= 1.0 - EXACT_TOL,
        }


@dataclass(frozen=True)
class RoyIrreversible(ScenarioConfig):
    """Roy-style comparison, but leaving treatment is prohibitively costly:
    a unit treated in period 0 stays treated, and period-0 choice weighs the
    foregone option value with discount beta."""

    pmf: Pmf16
    beta: float = 0.9

    scenario_id = "roy_irreversible"
    note = "outcome comparison with treatment lock-in"
    reads = (0, 1, 2, 3)
    json_fields = (("pmf", _PMF16), ("beta", _NUM))

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        _validate_pmf16(rep, self.pmf)
        if not (0.0 < self.beta < 1.0):
            rep.add("beta-range", f"beta = {self.beta!r} outside (0,1)", self.beta)
        else:
            for po, p in self.pmf:
                if p > 0.0:
                    y00, y01, y10, y11 = po
                    _warn_edge(rep, (y01 - y00) + self.beta * min(y11 - y10, 0), "period-0 gain at po={}", po)
        return rep

    def decide(self, state: LatentState) -> DecisionTrace:
        y00, y01, y10, y11 = state.po.flat
        if not {y00, y01, y10, y11} <= {0.0, 1.0}:
            raise LabError("state-not-in-support", f"binary scenario got {state.po.flat}")
        w_untreated = max(y10, y11)
        w_treated = y11  # reversal is off the table
        gains = (y01 - y00) + self.beta * (w_treated - w_untreated)
        return DecisionTrace(
            d0=int(gains >= 0),
            d1_given=(int(y11 >= y10), 1),
            continuation=(w_untreated, w_treated),
            gains=gains,
        )

    # the same grid and parallel-trends condition as RoyRepeated
    _grid_size = RoyRepeated._grid_size
    _grid = RoyRepeated._grid
    conditions = RoyRepeated.conditions


# ---------------------------------------------------------------------------
# scenario G: irreversible stopping with terminal value zero


@dataclass(frozen=True)
class StoppingType(_Record):
    prob: float
    k0: float  # cost of continuing through period 0
    k1: float  # cost of continuing through period 1
    beta: float
    pmf: tuple[tuple[tuple[float, float], float], ...]  # ((y0, y1), prob)

    json_fields = (("pmf", _STOPPING_PMF), ("prob", _NUM), ("k0", _NUM), ("k1", _NUM), ("beta", _NUM))

    @_once
    def _by_y0(self) -> tuple[tuple[float, ...], dict[float, float], dict[float, float]]:
        """The pmf grouped by Y_0(0) in one pass: the y0 values of positive
        probability in pmf order (support), and for each y0 the sums over its
        rows of p (mass) and of p * y1 (num), added left to right in pmf order
        as a scan of the whole pmf for that y0 would add them."""
        rows: dict[float, tuple[list[float], list[float]]] = {}
        for (y0, y1), p in self.pmf:
            ps, terms = rows.setdefault(y0, ([], []))
            ps.append(p)
            terms.append(p * y1)
        support = tuple(dict.fromkeys([y0 for (y0, _), p in self.pmf if p > 0.0]))
        mass = {y0: sum(ps) for y0, (ps, _) in rows.items()}
        num = {y0: sum(terms) for y0, (_, terms) in rows.items()}
        return support, mass, num

    def _m(self, y0: float) -> float:
        """E[Y_1(0) | type, Y_0(0) = y0]."""
        _, mass, num = self._by_y0
        den = mass.get(y0, 0.0)
        if den <= 0.0:
            raise LabError("state-not-in-support", f"y0 = {y0!r} has zero probability")
        return num[y0] / den

    @_once
    def _cont0(self) -> float:
        """Expected value of continuing through period 0 (stop iff <= 0)."""
        support, mass, _ = self._by_y0
        total = 0.0
        for y0 in support:
            total += mass[y0] * (y0 + self.beta * max(0.0, self._m(y0) - self.k1))
        return total - self.k0


@dataclass(frozen=True)
class OptimalStopping(ScenarioConfig):
    """Units decide each period whether to stop an activity for good
    (treatment = stopping, yields 0 forever).  Continuing costs k_t and pays
    the latent activity outcome; the period-0 rule folds in the discounted
    option value of period 1."""

    types: tuple[StoppingType, ...]

    scenario_id = "optimal_stopping"
    note = "continue or stop on the expected continuation value"
    reads = (0,)  # y00
    json_fields = (("types", _types(StoppingType)),)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        _check_pmf(rep, [t.prob for t in self.types], "types")
        taus = []
        for i, ty in enumerate(self.types):
            _check_pmf(rep, [p for _, p in ty.pmf], "types[{}].pmf", i)
            if not ty.pmf:
                rep.add("pmf-support", f"types[{i}] has empty outcome support")
                continue
            for (y0, y1), _ in ty.pmf:
                if not (math.isfinite(y0) and math.isfinite(y1)):
                    rep.add("pmf-support", f"non-finite outcome pair in types[{i}]", y0, y1)
            if not (0.0 < ty.beta < 1.0):
                rep.add("beta-range", f"beta = {ty.beta!r} outside (0,1)", f"types[{i}]")
            if not (math.isfinite(ty.k0) and math.isfinite(ty.k1)):
                rep.add("cost-not-finite", f"non-finite continuation cost in types[{i}]")
            if not rep.ok:
                continue
            taus.append(sum(p * (y1 - y0) for (y0, y1), p in ty.pmf))
            for y0 in ty._by_y0[0]:  # its support
                _warn_edge(rep, ty._m(y0) - ty.k1, "types[{}] period-1 margin at y0={!r}", i, y0)
            _warn_edge(rep, ty._cont0, "types[{}] period-0 continuation value", i)
        _check_common_trend(rep, taus)
        return rep

    def decide(self, state: LatentState) -> DecisionTrace:
        if not 0 <= state.u0_type < len(self.types):
            raise LabError("state-not-in-support", f"type index {state.u0_type} out of range")
        ty = self.types[state.u0_type]
        mu = ty._m(state.po.y[0][0])  # raises state-not-in-support off the grid
        cont0 = ty._cont0
        return DecisionTrace(
            d0=int(cont0 <= 0),
            d1_given=(int(mu - ty.k1 <= 0), 1),
            continuation=(max(0.0, mu - ty.k1), 0.0),
            gains=cont0,
        )

    def _grid_size(self) -> int:
        return sum(len(ty.pmf) for ty in self.types)

    def _grid(self):
        # a stopped unit's outcome is 0: the treated potential outcomes are 0
        rows = np.array(
            [(y0, 0.0, y1, 0.0, ty.prob * p) for ty in self.types for (y0, y1), p in ty.pmf], dtype=np.float64
        ).reshape(-1, 5)
        u = np.repeat(np.arange(len(self.types)), [len(ty.pmf) for ty in self.types])
        return u, rows[:, :4], rows[:, 4]

    def stopping_residual(self) -> float:
        """Imbalance between the continue-continue cell's untreated trend mass and
        its parallel-trends share: sum over continuing types of
        integral of (E[Y1(0)|u,y0] - y0) over the continue region, minus the
        common trend times P(D0=0, D1=0).  Zero iff parallel trends holds
        (whenever both period-1 cells are reachable)."""
        total_delta0 = 0.0
        p00 = 0.0
        tau = 0.0
        for ty in self.types:
            tau += ty.prob * sum(p * (y1 - y0) for (y0, y1), p in ty.pmf)
            if ty._cont0 <= 0.0:
                continue  # the whole type stops in period 0
            support, mass, _ = ty._by_y0
            for y0 in support:
                p = mass[y0]
                m = ty._m(y0)
                if m - ty.k1 > 0.0:  # continues through period 1
                    total_delta0 += ty.prob * (m - y0) * p
                    p00 += ty.prob * p
        return total_delta0 - tau * p00

    def conditions(self, arr, gap) -> dict:
        """Parallel trends holds iff the stopping residual is 0."""
        resid = self.stopping_residual()
        return {"stopping_residual": resid, "predicts_pt": abs(resid) <= EXACT_TOL}


SCENARIO_CLASSES = {
    cls.scenario_id: cls
    for cls in (
        PastOutcomeSelection,
        NoLearning,
        TreatedArmLearning,
        ControlArmLearning,
        RoyRepeated,
        RoyIrreversible,
        OptimalStopping,
    )
}


def scenario_from_json(obj, path: str = "") -> ScenarioConfig:
    """Decode one scenario config from parsed JSON; strict about keys."""
    if not isinstance(obj, dict):
        raise LabError("schema-error", "scenario config must be a JSON object", path or "/")
    tag = obj.get("scenario")
    if not isinstance(tag, str) or tag not in SCENARIO_CLASSES:
        raise LabError(
            "schema-error",
            f"scenario tag must be one of {sorted(SCENARIO_CLASSES)}, got {tag!r}",
            f"{path}/scenario",
        )
    return _decode(SCENARIO_CLASSES[tag], obj, path)


# ---------------------------------------------------------------------------
# module-level operations


def decide(config: ScenarioConfig, state: LatentState) -> DecisionTrace:
    """Run the scenario's exact decision rule for one latent state."""
    return config.decide(state)


def build_joint(config: ScenarioConfig) -> JointDistribution:
    """Enumerate the exact population joint distribution for a scenario.

    The scenario's _grid() returns one block for the whole config: (m,) type
    indices, (m, 4) potential outcomes [y00, y01, y10, y11] and (m,)
    probabilities, with the rows in canonical order — lexicographic in
    (type, latent grid index, outcome tuple); inverse-cdf draws depend on
    that order.  The cap on grid points is checked against _grid_size()
    before any row is built.  Atoms keep the order and zero-probability
    points are dropped.  The decision rule runs once per distinct (type,
    values of the columns in config.reads) among the rows left, on the first
    row that holds them, in row order.  Probabilities are renormalized by
    their total so the result carries unit mass to within 1e-12 even when
    config pmfs only sum to 1 within the looser validation tolerance.
    """
    grid = getattr(config, "_grid", None)
    if grid is None:
        raise LabError("wrong-scenario", f"not a scenario config: {type(config).__name__}")
    if config._grid_size() > MAX_ATOMS:
        raise LabError("support-too-large", f"support exceeds the cap of {MAX_ATOMS} atoms")
    u0_type, po, weights = grid()
    if np.count_nonzero(weights) < len(weights):
        keep = weights != 0.0
        u0_type, po, weights = u0_type[keep], po[keep], weights[keep]
    cell = _decided_cells(config, u0_type, po)
    total = float(np.sum(weights))
    if (weights < 0).any() or abs(total - 1.0) > PMF_TOL:
        raise LabError(
            "invalid-scenario", f"weights sum to {total!r} or include a negative one; validate the config first"
        )
    if total != 1.0:
        weights = weights / total
    joint = JointDistribution(u0_type, po, cell >> 1, cell & 1, weights, config.scenario_id)
    joint.check()
    return joint


def _decided_cells(config: ScenarioConfig, u0_type: np.ndarray, po: np.ndarray) -> np.ndarray:
    """2 * d0 + d1 of each row, from config.decide run once per group of
    rows that share the type and the read columns.  A stable sort on those
    keys puts each group's first row at its head; the rule runs on those
    heads in row order."""
    keys = [po[:, c] for c in config.reads]
    order = np.lexsort((*keys[::-1], u0_type))
    head = np.empty(len(order), dtype=bool)
    head[:1] = True
    sorted_type = u0_type[order]
    np.not_equal(sorted_type[1:], sorted_type[:-1], out=head[1:])
    for key in keys:
        sorted_key = key[order]
        head[1:] |= sorted_key[1:] != sorted_key[:-1]
    first = order[head]  # each group's first row, groups in key order
    by_row = np.argsort(first)
    rows = first[by_row]
    codes = []
    for u, y in zip(u0_type[rows].tolist(), po[rows].tolist()):
        tr = config.decide(LatentState(u, PotentialOutcomes.of(*y))).realized()
        codes.append(2 * tr.d0 + tr.d1)
    group_code = np.empty(len(first), dtype=np.int8)
    group_code[by_row] = codes
    cell = np.empty(len(order), dtype=np.int8)
    cell[order] = group_code[np.cumsum(head) - 1]
    return cell


class AtomSampler:
    """Inverse-cdf sampling over a joint's canonical atom order, one uniform
    per draw, so draws are order-independent and can be made in chunks.

    Draw u in [0, 1) lands on the first atom whose cumulative probability
    exceeds u, or on the last atom when none does (the cumsum can end a
    rounding error below 1): exactly np.searchsorted(cdf, u, side="right")
    clamped to the last atom.  A Chen-Asau guide table (indexed search, AIIE
    Trans. 6(2), 1974) stores that atom for each bucket edge b/m; a draw
    starts at its bucket's entry and walks forward.  m is a power of two, so
    u * m and b/m are exact.

    The atom is monotone in u, so a bucket whose two edge entries agree sends
    every draw in it to that entry's atom (clamped to the last).  counts()
    uses this to count such "pure" buckets from a histogram of the draws'
    buckets; only draws in "mixed" buckets, those holding an atom edge, go
    through index().
    """

    def __init__(self, joint: JointDistribution):
        if len(joint) == 0:
            raise ValueError("cannot sample from an empty joint")
        self.joint = joint
        # the inf sentinel stops every walk at index len(joint)
        self._cdf = np.append(np.cumsum(joint.prob), np.inf)
        self._m = max(GUIDE_MIN_BUCKETS, 1 << (len(joint) - 1).bit_length())
        # entry b serves u in [b/m, (b+1)/m); entry m serves u = 1
        self._guide = np.searchsorted(self._cdf, np.arange(self._m + 1) / self._m, side="right")
        self._mixed = self._guide[:-1] != self._guide[1:]
        self._bucket_atom = np.minimum(self._guide[:-1], len(joint) - 1)
        self._use_histogram = self._mixed.mean() <= COUNT_MIXED_MAX

    def index(self, u: np.ndarray) -> np.ndarray:
        """The atom index of each uniform in u."""
        cdf = self._cdf
        i = self._guide[(u * self._m).astype(np.intp)]
        walking = np.flatnonzero(cdf[i] <= u)
        for _ in range(GUIDE_WALK_STEPS):
            if not walking.size:
                break
            i[walking] += 1
            walking = walking[cdf[i[walking]] <= u[walking]]
        if walking.size:
            i[walking] = np.searchsorted(cdf, u[walking], side="right")
        return np.minimum(i, len(self.joint) - 1)

    def index_chunks(self, n: int, seed: int):
        """The atom indices of the n draws of stream seed, COUNT_CHUNK draws
        at a time, each slice with the offset of its first draw, in
        O(COUNT_CHUNK) memory.  The draws are counter-based, so together the
        slices are panel(n, seed).atom_index."""
        for offset, words in _rng.word_chunks(seed, n, COUNT_CHUNK):
            yield offset, self.index(_rng.to_unit(words))

    def counts(self, n: int, seed: int) -> np.ndarray:
        """Draws per atom among the n draws of stream seed: the bincount of
        draw_panel's atom_index, in O(COUNT_CHUNK + atoms) memory.  The sums
        are integer, so the counts do not depend on the chunk size."""
        k = len(self.joint)
        counts = np.zeros(k, dtype=np.int64)
        if not self._use_histogram:
            for _, idx in self.index_chunks(n, seed):
                counts += np.bincount(idx, minlength=k)
            return counts
        # floor(u * m) of u = (word >> 11) * 2^-53 is word >> (64 - log2 m)
        shift = np.uint64(65 - self._m.bit_length())
        hist = np.zeros(self._m, dtype=np.int64)
        buckets = np.empty(min(COUNT_CHUNK, n), dtype=np.uint64)
        for _, words in _rng.word_chunks(seed, n, COUNT_CHUNK):
            bucket = np.right_shift(words, shift, out=buckets[: words.size]).view(np.int64)
            hist += np.bincount(bucket, minlength=self._m)
            mixed = words[self._mixed[bucket]]
            counts += np.bincount(self.index(_rng.to_unit(mixed)), minlength=k)
        pure = ~self._mixed
        np.add.at(counts, self._bucket_atom[pure], hist[pure])
        return counts

    def panel(self, n: int, seed: int) -> Panel:
        """The n draws of stream seed as a panel with latent columns."""
        if n < 1:
            raise ValueError(f"panel size must be >= 1, got {n}")
        idx = self.index(_rng.uniforms(seed, n))
        joint = self.joint
        return Panel(
            d0=joint.d0[idx],
            d1=joint.d1[idx],
            y0=joint.y0[idx],
            y1=joint.y1[idx],
            po=np.take(joint.po, idx, axis=0),
            atom_index=idx,
        )


def draw_panel(joint: JointDistribution, n: int, seed: int) -> Panel:
    """n i.i.d. draws from the joint; deterministic in (joint, n, seed).  See
    AtomSampler."""
    return AtomSampler(joint).panel(n, seed)
