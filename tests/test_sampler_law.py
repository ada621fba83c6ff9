"""The law of a replication's atom counts, checked against the joint, and
the exact binomial draw the multinomial chain is made of.

A replication's counts are Multinomial(n, p) over the joint's atoms, and the
12 numbers an ObservedCells table holds (4 masses, 4 sums of y0 and 4 of y1)
are linear in them: with x_a atom a's 12-vector (its cell indicator times
(1, y0, y1)), each sum has mean n * mu_j, mu = sum_a p_a x_a, and variance
n * sum_a p_a (x_aj - mu_j)^2.  So each sampler's replications can be held to
those exact moments.
"""

import math
import random

import numpy as np
import pytest

from didlab import _rng, scenarios
from didlab._rng import derive_seed
from didlab.scenarios import AtomSampler, _binomial, _btrd_squeeze, _log_pmf_ratio
from test_joint import _joint_of

N = 10_000
R = 200
SEED = 20_261_020
# Bands, fixed before any result was seen.  Mean: |z| <= 5 per sum, a
# two-sided normal tail of 5.7e-7.  Variance: (R - 1) s^2 / sigma^2 inside
# the chi^2(R - 1) quantiles at 5e-7 and 1 - 5e-7, an exact two-sided tail of
# 1e-6 for normal sums.  Over the at most 10 configs x 12 sums checked per
# sampler, a correct sampler leaves a band with probability about
# 120 * (5.7e-7 + 1e-6) = 1.9e-4.
Z_MAX = 5.0
CHI2_LO, CHI2_HI = 116.187, 312.291


def _cell_vectors(joint) -> np.ndarray:
    """Each atom's 12-vector: masses, then sums of y0, then sums of y1, each
    over the cells 2 * d0 + d1 in order."""
    onehot = (2 * joint.d0 + joint.d1)[:, None] == np.arange(4)
    return np.hstack([onehot, onehot * joint.y0[:, None], onehot * joint.y1[:, None]]).astype(np.float64)


def _assert_counts_have_the_multinomial_moments(joint, draw, label):
    """draw(r) is replication r's counts; check the 12 cell sums of R
    replications against their exact means and variances."""
    x = _cell_vectors(joint)
    p = joint.prob / np.sum(joint.prob)
    mu = p @ x
    var = N * (p @ (x - mu) ** 2)
    support = p > 0
    constant = (x[support] == x[support][0]).all(axis=0)
    sums = np.array([draw(r) for r in range(R)], dtype=np.float64) @ x
    for j in range(12):
        col = sums[:, j]
        if constant[j]:
            assert (col == N * x[support][0, j]).all(), (label, j)
            continue
        z = (col.mean() - N * mu[j]) / np.sqrt(var[j] / R)
        assert abs(z) <= Z_MAX, (label, j, z)
        stat = (R - 1) * col.var(ddof=1) / var[j]
        assert CHI2_LO <= stat <= CHI2_HI, (label, j, stat)


@pytest.mark.parametrize("method", ["counts", "multinomial"])
def test_replication_counts_have_the_multinomial_moments(shipped_joints, method):
    for name, joint in shipped_joints.items():
        draw = getattr(AtomSampler(joint), method)
        _assert_counts_have_the_multinomial_moments(joint, lambda r: draw(N, derive_seed(SEED, r)), (name, method))


# Goodness of fit of the scalar binomial.  Each case's draws are binned from
# k = 0 up, a bin closing once it expects >= GOF_MIN_EXPECTED draws (the last
# one taking what is left), and Pearson's X^2 over the bins must stay below
# the Wilson-Hilferty approximation of the chi^2(bins - 1) quantile at
# 1 - 1e-6, which overstates the exact quantile at this tail (27.5 against
# 23.9 at 1 df).  Fixed before any result was seen: over the 250 cases with
# more than one bin, a correct sampler fails with probability below
# 250 * 1e-6 = 2.5e-4.  A draw where the pmf is 0 fails outright.
GOF_Z = 4.753424  # the standard normal quantile at 1 - 1e-6
GOF_MIN_EXPECTED = 5.0
GOF_P = (0.0, 1e-12, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-12, 1.0)


def _pmf(n, p):
    return [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]


def _chi2_quantile(df):
    h = 2 / (9 * df)
    return df * (1 - h + GOF_Z * math.sqrt(h)) ** 3


def _assert_binomial_fits(n, p, draws, uniform):
    pmf = _pmf(n, p)
    hist = np.bincount([_binomial(n, p, uniform) for _ in range(draws)], minlength=n + 1)
    assert len(hist) == n + 1 and all(f > 0 for f, h in zip(pmf, hist) if h), (n, p, hist)
    bins, expected, observed = [], 0.0, 0
    for f, h in zip(pmf, hist.tolist()):
        expected += draws * f
        observed += h
        if expected >= GOF_MIN_EXPECTED:
            bins.append((observed, expected))
            expected, observed = 0.0, 0
    if bins:
        o, e = bins.pop()
        bins.append((o + observed, e + expected))
    if len(bins) > 1:
        x2 = sum((o - e) ** 2 / e for o, e in bins)
        assert x2 <= _chi2_quantile(len(bins) - 1), (n, p, x2, len(bins))


def test_binomial_matches_the_exact_pmf_for_every_n_to_50():
    uniform = random.Random(2026).random
    for n in range(51):
        for p in GOF_P:
            _assert_binomial_fits(n, p, 800, uniform)


@pytest.mark.parametrize("p", [0.03, 0.5])
def test_binomial_matches_the_exact_pmf_where_btrd_draws(p):
    assert 1000 * p >= scenarios.BTRD_MIN_MEAN
    _assert_binomial_fits(1000, p, 10_000, random.Random(1000).random)


def _exact_log_ratio(n, p, m, k):
    """ln f(k)/f(m) of Bin(n, p) as a sum of the log pmf ratios between
    neighbours, each ((n + 1)/i - 1) * p/(1 - p)."""
    i = np.arange(min(k, m) + 1, max(k, m) + 1, dtype=np.float64)
    step = math.fsum(np.log(((n + 1) / i - 1) * (p / (1 - p))))
    return step if k > m else -step


@pytest.mark.parametrize("n, p", [(1000, 0.5), (1000, 0.05), (10**9, 1e-6), (10**9, 5e-8), (10**9, 1e-3)])
def test_btrd_log_pmf_ratio_and_squeeze_away_from_the_mode(n, p):
    """BTRD's last test reads ln f(k)/f(m) to ~1e-11 even at n = 10^9, and
    its squeeze brackets it wherever the pmf is not negligible."""
    m, npq, r = int((n + 1) * p), n * p * (1 - p), p / (1 - p)
    sd = math.sqrt(npq)
    for z in np.linspace(-8, 8, 33):
        k = int(m + z * sd)
        if abs(k - m) <= 15 or not 0 <= k <= n:
            continue
        exact = _exact_log_ratio(n, p, m, k)
        assert abs(_log_pmf_ratio(n, r, m, k) - exact) <= 1e-9, (k, exact)
        t, rho = _btrd_squeeze(abs(k - m), npq)
        assert exact < -30 or t - rho <= exact <= t + rho, (k, exact, t, rho)


def test_multinomial_counts_sum_to_n(shipped_joints):
    for name, joint in shipped_joints.items():
        sampler = AtomSampler(joint)
        for n in (1, 2, 10**9):
            counts = sampler.multinomial(n, 3)
            assert counts.dtype == np.int64 and counts.sum() == n and (counts >= 0).all(), (name, n)
        assert np.array_equal(sampler.multinomial(10**5, 3), sampler.multinomial(10**5, 3))


def test_multinomial_gives_no_unit_to_a_zero_probability_atom():
    prob = np.array([0.0, 0.5, 0.0, 0.3, 0.0, 0.2, 0.0])
    sampler = AtomSampler(_joint_of(prob))
    for n in (1, 2, 1000, 10**9):
        for seed in range(5):
            counts = sampler.multinomial(n, seed)
            assert counts.sum() == n and not counts[prob == 0].any(), (n, seed)


def test_multinomial_of_one_atom_is_n():
    sampler = AtomSampler(_joint_of(np.array([1.0])))
    for n in (1, 2, 10**9):
        assert sampler.multinomial(n, 0).tolist() == [n]


def test_multinomial_reads_uniforms_in_order_and_o_of_atoms_of_them(shipped_joints, monkeypatch):
    """The draw's cost does not grow with n: at n = 10^9 it still reads a few
    uniforms per atom, one after another from the stream's start."""
    read = []

    def uniform_at(seed, index):
        read.append(index)
        return real(seed, index)

    real = _rng.uniform_at
    monkeypatch.setattr(_rng, "uniform_at", uniform_at)
    for name, joint in shipped_joints.items():
        read.clear()
        AtomSampler(joint).multinomial(10**9, 17)
        assert read == list(range(len(read))), name
        assert len(read) <= 3 * len(joint.prob), (name, len(read))


def test_inversion_starts_over_for_a_uniform_past_the_pmf_sum():
    """At n = 2, p = 167/401 the pmf's float sum falls 2^-52 short of 1, so
    the uniform 1 - 2^-53 lands past it: the draw reads a fresh uniform and
    is that uniform's draw alone."""
    read = []

    def uniform(stream=iter([1.0 - 2.0**-53, 0.5])):
        read.append(next(stream))
        return read[-1]

    p = 167 / 401
    alone = scenarios._binomial_inversion(2, p, iter([0.5]).__next__)
    assert scenarios._binomial_inversion(2, p, uniform) == alone == 1
    assert read == [1.0 - 2.0**-53, 0.5]
