"""Shipped scenario configs and the seeded config randomizers.

The JSON files under configs/ are the curated catalog the CLI and the
acceptance suite run against.  The random_* functions generate validated
configs deterministically from an integer seed; property tests iterate them
over the shipped seed corpus (configs/seeds.json).  Every randomizer keeps
decision margins away from ties (MARGIN) so tie-breaking conventions never
decide a test verdict.
"""

from __future__ import annotations

import json
import random
from importlib import resources

from .core import CostTable, validate_scenario
from .errors import LabError
from .oracle import cell_table, pt_deviation
from .scenarios import (
    ControlArmLearning,
    ControlLearningType,
    NoLearning,
    NoLearningType,
    OptimalStopping,
    PastOutcomeSelection,
    RoyIrreversible,
    RoyRepeated,
    ScenarioConfig,
    StoppingType,
    TreatedArmLearning,
    TreatedLearningType,
    build_joint,
    posterior_mean_or_prior,
    prior_mean,
    scenario_from_json,
)

__all__ = [
    "shipped_names",
    "shipped_config",
    "shipped_text",
    "seed_corpus",
    "random_selection_on_past",
    "random_known_means",
    "random_treated_learning",
    "random_control_learning",
    "random_roy",
    "random_stopping",
    "random_learner_bounds",
    "random_config",
]

MARGIN = 1e-3  # distance every randomized decision keeps from its threshold

_SHIPPED = {
    "selection_on_past": "selection_on_past.json",
    "known_means": "known_means.json",
    "treated_arm_learning": "treated_arm_learning.json",
    "control_arm_learning": "control_arm_learning.json",
    "learner_bounds": "learner_bounds.json",
    "roy_repeated": "roy_repeated.json",
    "roy_irreversible": "roy_irreversible.json",
    "stopping_uninformative": "stopping_uninformative.json",
    "stopping_informative": "stopping_informative.json",
    "stationary_scale": "stationary_scale.json",
}


def shipped_names() -> tuple[str, ...]:
    return tuple(_SHIPPED)


def shipped_text(name: str) -> str:
    try:
        fname = _SHIPPED[name]
    except KeyError:
        raise LabError(
            "schema-error",
            f"unknown shipped config {name!r}; choices: {', '.join(_SHIPPED)}",
        ) from None
    return (resources.files("didlab") / "configs" / fname).read_text(encoding="utf-8")


def shipped_config(name: str) -> ScenarioConfig:
    return scenario_from_json(json.loads(shipped_text(name)))


def seed_corpus() -> dict[str, list[int]]:
    """The documented seeds each randomized property test iterates over."""
    raw = (resources.files("didlab") / "configs" / "seeds.json").read_text(encoding="utf-8")
    return json.loads(raw)


def _validated(config: ScenarioConfig) -> ScenarioConfig:
    report = validate_scenario(config)
    if not report.ok:
        raise RuntimeError(f"randomizer produced an invalid config: {report.violations}")
    return config


# ---------------------------------------------------------------------------
# past-outcome selection


def _rng_for(family: str, seed: int) -> random.Random:
    # string seeds hash deterministically (unlike tuples, whose hash is
    # salted per process), so the corpus is reproducible everywhere
    return random.Random(f"{family}:{seed}")


def random_selection_on_past(seed: int, identity: bool = False) -> PastOutcomeSelection:
    """Random config; identity=True pins the untreated outcome to persist,
    which is exactly the parallel-trends case for this scenario."""
    rng = _rng_for("selection_on_past", seed)
    p = rng.uniform(0.05, 0.95)
    means = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    if identity:
        trans = ((1.0, 0.0), (0.0, 1.0))
    else:
        while True:
            t01 = rng.uniform(0.0, 1.0)
            t11 = rng.uniform(0.0, 1.0)
            # deviation formula is t01 - t11 + 1; keep it clear of zero
            if t01 - t11 + 1.0 > MARGIN:
                break
        trans = ((1.0 - t01, t01), (1.0 - t11, t11))
    return _validated(PastOutcomeSelection(p_y00=p, trans_ctrl=trans, mean_y_treated=means))


# ---------------------------------------------------------------------------
# no-learning types


def _known_means_type(rng: random.Random, prob: float, mu00: float, tau: float) -> NoLearningType:
    while True:
        mu01 = rng.uniform(0.0, 1.0)
        mu11 = rng.uniform(0.0, 1.0)
        k0 = (0.0, rng.uniform(0.0, 0.5))
        k1_entry = rng.uniform(0.0, 0.4)
        k1 = ((0.0, k1_entry), (0.0, k1_entry))
        ty = NoLearningType(
            prob=prob,
            mu=((mu00, mu01), (mu00 + tau, mu11)),
            costs=CostTable(k0=k0, k1=k1),
            beta=0.9,
        )
        gain1 = (mu11 - k1_entry) - (mu00 + tau)
        if abs(gain1) < MARGIN:
            continue
        w1 = max(mu11 - k1_entry, mu00 + tau)
        gains = (mu01 - k0[1]) - mu00 + 0.9 * (w1 - w1)
        if abs(gains) < MARGIN:
            continue
        return ty


def random_known_means(seed: int) -> NoLearning:
    """Types with commonly known arm means; parallel trends holds for every
    validated config, so no PT switch is offered."""
    rng = _rng_for("known_means", seed)
    k = rng.randint(1, 4)
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = sum(weights)
    mu00 = rng.uniform(0.2, 0.8)
    tau = rng.uniform(-0.15, 0.15)
    types = tuple(
        _known_means_type(rng, w / total, mu00, tau) for w in weights
    )
    return _validated(NoLearning(types=types))


# ---------------------------------------------------------------------------
# treated-arm learning


def _two_point_prior(rng: random.Random, lo: float = 0.05, hi: float = 0.95):
    a = rng.uniform(lo, hi)
    b = rng.uniform(lo, hi)
    while abs(a - b) < 0.05:
        b = rng.uniform(lo, hi)
    w = rng.uniform(0.2, 0.8)
    return ((min(a, b), w), (max(a, b), 1.0 - w))


def _treated_learning_type(
    rng: random.Random, prob: float, mu_ctrl: tuple[float, float]
) -> TreatedArmLearning:
    m1 = mu_ctrl[1]
    while True:
        prior = _two_point_prior(rng)
        k0 = (0.0, rng.uniform(0.0, 0.4))
        k1_entry = rng.uniform(0.0, 0.3)
        k1 = ((0.0, k1_entry), (0.0, k1_entry))
        ty = TreatedLearningType(
            prob=prob, prior=prior, mu_ctrl=mu_ctrl, costs=CostTable(k0=k0, k1=k1), beta=0.9
        )
        ybar = prior_mean(prior)
        margins = [abs(ybar - m1 - k1_entry)]
        for obs in (0, 1):
            post = posterior_mean_or_prior(prior, obs)
            margins.append(abs(post - m1 - k1_entry))
        if min(margins) < MARGIN:
            continue
        # the period-0 margin of the scenario's own decision rule
        if abs(ty._gains[0]) < MARGIN:
            continue
        return ty


def random_treated_learning(seed: int) -> TreatedArmLearning:
    """Learning happens only on the treated arm, so untreated trends stay
    clean: parallel trends holds for every validated config."""
    rng = _rng_for("treated_arm_learning", seed)
    k = rng.randint(1, 3)
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = sum(weights)
    m0 = rng.uniform(0.2, 0.6)
    mu_ctrl = (m0, m0 + rng.uniform(-0.1, 0.3))
    types = tuple(_treated_learning_type(rng, w / total, mu_ctrl) for w in weights)
    return _validated(TreatedArmLearning(types=types))


# ---------------------------------------------------------------------------
# control-arm learning


def _control_type_interior(rng: random.Random, prob: float, a: float, ktilde1: float) -> ControlLearningType:
    """A valuable learner: the treated option sits strictly inside the
    posterior band, with interior arm qualities so the untreated outcome
    actually moves."""
    while True:
        prior = _two_point_prior(rng, lo=0.05, hi=0.95)
        l0 = posterior_mean_or_prior(prior, 0)
        l1 = posterior_mean_or_prior(prior, 1)
        if l0 + MARGIN <= a <= l1 - MARGIN:
            return ControlLearningType(prob=prob, prior=prior, mu_treat1=a + ktilde1, ktilde1=ktilde1)


def _control_type_outside(rng: random.Random, prob: float, a: float, ktilde1: float) -> ControlLearningType:
    while True:
        prior = _two_point_prior(rng, lo=0.05, hi=0.95)
        l0 = posterior_mean_or_prior(prior, 0)
        l1 = posterior_mean_or_prior(prior, 1)
        if a < l0 - MARGIN or a > l1 + MARGIN:
            return ControlLearningType(prob=prob, prior=prior, mu_treat1=a + ktilde1, ktilde1=ktilde1)


def _control_type_degenerate(rng: random.Random, prob: float, a: float, ktilde1: float) -> ControlLearningType:
    # both arms certain: observing the period-0 outcome never changes beliefs
    w = rng.uniform(0.2, 0.8)
    prior = ((0.0, w), (1.0, 1.0 - w))
    return ControlLearningType(prob=prob, prior=prior, mu_treat1=a + ktilde1, ktilde1=ktilde1)


def random_control_learning(seed: int, pt: bool | None = None) -> ControlArmLearning:
    """Random mixture of always-takers, never-takers, and valuable learners.

    pt=True forces a config where parallel trends holds (no valuable
    learners, or only perfectly persistent ones); pt=False forces at least
    one interior valuable learner, which breaks parallel trends; None mixes.
    """
    rng = _rng_for("control_arm_learning", seed)
    if pt is None:
        pt = rng.random() < 0.5
    a = rng.uniform(0.2, 0.8)
    # mu_treat1 = a + ktilde1 must stay a valid Bernoulli mean
    ktilde1 = rng.uniform(0.0, min(0.3, 1.0 - a))
    k = rng.randint(1, 4)
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = sum(weights)
    types = []
    for i, w in enumerate(weights):
        prob = w / total
        if pt:
            if rng.random() < 0.5:
                types.append(_control_type_degenerate(rng, prob, a, ktilde1))
            else:
                types.append(_control_type_outside(rng, prob, a, ktilde1))
        else:
            if i == 0 or rng.random() < 0.5:
                types.append(_control_type_interior(rng, prob, a, ktilde1))
            else:
                types.append(_control_type_outside(rng, prob, a, ktilde1))
    return _validated(ControlArmLearning(types=tuple(types)))


def random_learner_bounds(seed: int) -> ControlArmLearning:
    """Configs where every type is a valuable learner facing one common
    treated option: switchers then come only from low posteriors, which is
    the monotone-selection ordering the bounds estimator assumes."""
    rng = _rng_for("learner_bounds", seed)
    a = rng.uniform(0.25, 0.75)
    ktilde1 = rng.uniform(0.0, min(0.3, 1.0 - a))
    k = rng.randint(1, 4)
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = sum(weights)
    types = tuple(
        _control_type_interior(rng, w / total, a, ktilde1) for w in weights
    )
    return _validated(ControlArmLearning(types=tuple(types)))


# ---------------------------------------------------------------------------
# Roy selection on contemporaneous outcomes


def _roy_swap(atom):
    y00, y01, y10, y11 = atom
    return (y10, y11, y00, y01)


def _all_atoms():
    return [
        (a, b, c, d)
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
        for d in (0, 1)
    ]


# Support on which degeneracy-at-1 holds by construction, for both Roy
# variants.  Enumerating the decision rules, the atoms that can land in an
# ever-untreated cell with some untreated outcome below 1 are (1,0,0,*)
# (untreated start, Y1(0)=0) and (*,*,1,0) with Y0(0)=0 (untreated end).
# Under the irreversible rule (0,1,1,0) is always-treated and so harmless,
# but dropping it keeps the set closed under the period swap, which is what
# makes swap-symmetrized weights deliver stationarity exactly.
_ROY_PT_SUPPORT = tuple(
    atom
    for atom in _all_atoms()
    if atom not in {(1, 0, 0, 0), (1, 0, 0, 1), (0, 0, 1, 0), (0, 1, 1, 0)}
)


def _symmetrized_pmf(rng: random.Random, support) -> tuple:
    weights = {atom: rng.uniform(0.1, 1.0) for atom in support}
    sym = {atom: (weights[atom] + weights[_roy_swap(atom)]) / 2.0 for atom in support}
    total = sum(sym.values())
    return tuple((atom, w / total) for atom, w in sorted(sym.items()))


def _random_pmf(rng: random.Random) -> tuple:
    atoms = _all_atoms()
    k = rng.randint(5, 16)
    chosen = sorted(rng.sample(atoms, k))
    weights = [rng.uniform(0.05, 1.0) for _ in chosen]
    total = sum(weights)
    return tuple((atom, w / total) for atom, w in zip(chosen, weights))


def random_roy(seed: int, pt: bool | None = None, irreversible: bool = False):
    """Random binary Roy config.  pt=True draws weights on a support where
    stationarity and degeneracy-at-1 hold by construction; pt=False rejects
    until the deviation is well away from zero.  Both keep the (0,0) and
    (0,1) cells populated."""
    rng = _rng_for(f"roy{int(irreversible)}", seed)
    if pt is None:
        pt = rng.random() < 0.5
    while True:
        pmf = _symmetrized_pmf(rng, _ROY_PT_SUPPORT) if pt else _random_pmf(rng)
        config = RoyIrreversible(pmf=pmf, beta=0.9) if irreversible else RoyRepeated(pmf=pmf)
        if not validate_scenario(config).ok:
            continue
        table = cell_table(build_joint(config))
        if table.prob(0, 0) < 0.01 or table.prob(0, 1) < 0.01:
            continue
        dev = pt_deviation(table)
        if pt and dev > 1e-12:
            raise RuntimeError(f"symmetric construction failed to give parallel trends: {dev}")
        if not pt and dev <= 1e-6:
            continue  # too close to the knife edge to certify failure
        return config


# ---------------------------------------------------------------------------
# optimal stopping


def _stopping_support(rng: random.Random) -> list[float]:
    k = rng.randint(2, 3)
    vals = sorted(rng.uniform(0.0, 3.0) for _ in range(k))
    while min(b - a for a, b in zip(vals, vals[1:])) < 0.1:
        vals = sorted(rng.uniform(0.0, 3.0) for _ in range(k))
    return vals


def _uninformative_type(rng: random.Random, prob: float, tau: float, k1: float) -> StoppingType:
    """Period-0 outcome carries no news: E[Y1(0)|u, y0] is the same for all
    y0, so the continue/stop split cannot depend on y0."""
    while True:
        support = _stopping_support(rng)
        weights = [rng.uniform(0.2, 1.0) for _ in support]
        total = sum(weights)
        weights = [w / total for w in weights]
        mean0 = sum(w * y for w, y in zip(weights, support))
        c = mean0 + tau
        if abs(c - k1) < MARGIN:
            continue
        spread = rng.choice([0.0, rng.uniform(0.05, 0.3)])
        pmf = []
        for y0, w in zip(support, weights):
            if spread:
                pmf.append(((y0, c - spread), w / 2.0))
                pmf.append(((y0, c + spread), w / 2.0))
            else:
                pmf.append(((y0, c), w))
        k0 = mean0 - rng.uniform(0.2, 1.0)  # keep period 0 clearly worth continuing
        ty = StoppingType(prob=prob, k0=k0, k1=k1, beta=0.9, pmf=tuple(pmf))
        if abs(ty._cont0) < MARGIN:
            continue
        return ty


def _informative_type(rng: random.Random, prob: float, tau: float, k1: float) -> StoppingType:
    """Two-point period-0 support where the conditional continuation mean
    moves with y0, so stopping selects on the untreated trend."""
    while True:
        lo, hi = sorted((rng.uniform(0.0, 1.2), rng.uniform(1.8, 3.0)))
        delta = rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0])
        m_lo = lo + tau + delta
        m_hi = hi + tau - delta
        # one branch must stop, the other continue
        if not (min(m_lo, m_hi) < k1 - MARGIN and max(m_lo, m_hi) > k1 + MARGIN):
            continue
        ty = StoppingType(
            prob=prob,
            k0=(lo + hi) / 2.0 - rng.uniform(0.3, 1.0),
            k1=k1,
            beta=0.9,
            pmf=(((lo, m_lo), 0.5), ((hi, m_hi), 0.5)),
        )
        # everyone must clearly continue at period 0, else nobody reaches
        # the period-1 stopping margin that breaks parallel trends
        if ty._cont0 < MARGIN:
            continue
        return ty


def random_stopping(seed: int, pt: bool | None = None) -> OptimalStopping:
    rng = _rng_for("stopping", seed)
    if pt is None:
        pt = rng.random() < 0.5
    builder = _uninformative_type if pt else _informative_type
    while True:
        tau = rng.uniform(-0.3, 0.3)
        k1 = rng.uniform(0.8, 2.2)
        k = rng.randint(1, 3)
        weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
        total = sum(weights)
        types = tuple(builder(rng, w / total, tau, k1) for w in weights)
        config = _validated(OptimalStopping(types=types))
        dev = pt_deviation(cell_table(build_joint(config)))
        if pt and dev > 1e-12:
            raise RuntimeError(f"uninformative construction failed parallel trends: {dev}")
        if not pt and dev <= 1e-6:
            continue  # residuals of opposite-signed types can cancel; redraw
        return config


# ---------------------------------------------------------------------------
# mixed dispatcher

_FAMILIES = (
    lambda s: random_selection_on_past(s, identity=True),
    lambda s: random_selection_on_past(s, identity=False),
    random_known_means,
    random_treated_learning,
    lambda s: random_control_learning(s, pt=True),
    lambda s: random_control_learning(s, pt=False),
    lambda s: random_roy(s, pt=True, irreversible=False),
    lambda s: random_roy(s, pt=False, irreversible=False),
    lambda s: random_roy(s, pt=True, irreversible=True),
    lambda s: random_roy(s, pt=False, irreversible=True),
    lambda s: random_stopping(s, pt=True),
    lambda s: random_stopping(s, pt=False),
)


def random_config(seed: int) -> ScenarioConfig:
    """Deterministically pick a scenario family and draw a validated config;
    cycling seeds covers parallel-trends successes and failures in every
    family."""
    return _FAMILIES[seed % len(_FAMILIES)](seed)
