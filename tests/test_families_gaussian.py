import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igopt import igo_ml_step, substream
from igopt.families import (
    DegenerateUpdate,
    Family,
    FullGaussianFamily,
    GaussianExpectationFamily,
    GaussianParams,
    GaussianSqrtParams,
    IsotropicGaussianFamily,
    MeanGaussianFamily,
    from_second_moment,
    gaussian_step,
    to_second_moment,
)
from igopt.families.gaussian import _gaussian_kl, utri_pack, utri_unpack
from igopt.fisher import mc_fisher


def random_spd(rng, d, scale=1.0):
    A = rng.normal(size=(d, d))
    return scale * (A @ A.T + d * np.eye(d))


def finite_diff_grad(family, theta, x, eps=1e-6):
    g = np.zeros((np.atleast_2d(x).shape[0], theta.size))
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        g[:, i] = (family.log_density(tp, x) - family.log_density(tm, x)) / (2 * eps)
    return g


@pytest.mark.parametrize("d", [1, 2, 3])
def test_full_gaussian_score_vs_finite_differences(d):
    rng = substream(11, d)
    fam = FullGaussianFamily(d)
    params = GaussianParams(rng.normal(size=d), random_spd(rng, d))
    theta = fam.pack(params)
    x = fam.sample(theta, 5, rng)
    np.testing.assert_allclose(fam.grad_log_density(theta, x),
                               finite_diff_grad(fam, theta, x), atol=1e-5)


def test_full_gaussian_natural_gradient_is_fisher_solve():
    rng = substream(12, 0)
    fam = FullGaussianFamily(2)
    theta = fam.pack(GaussianParams(rng.normal(size=2), random_spd(rng, 2)))
    x = fam.sample(theta, 6, rng)
    g = fam.grad_log_density(theta, x)
    nat = fam.natural_grad_log_density(theta, x)
    F = fam.fisher(theta)
    np.testing.assert_allclose(nat, np.linalg.solve(F, g.T).T, rtol=1e-9, atol=1e-9)


def test_isotropic_and_mean_families_score():
    rng = substream(13, 0)
    iso = IsotropicGaussianFamily(3)
    theta = np.array([0.5, -1.0, 2.0, math.log(0.7)])
    x = iso.sample(theta, 4, rng)
    np.testing.assert_allclose(iso.grad_log_density(theta, x),
                               finite_diff_grad(iso, theta, x), atol=1e-5)
    nat = iso.natural_grad_log_density(theta, x)
    np.testing.assert_allclose(nat, np.linalg.solve(iso.fisher(theta),
                                                    iso.grad_log_density(theta, x).T).T,
                               atol=1e-9)
    mean_fam = MeanGaussianFamily(2)
    theta_m = np.array([1.0, -2.0])
    xm = mean_fam.sample(theta_m, 4, rng)
    np.testing.assert_allclose(mean_fam.grad_log_density(theta_m, xm),
                               finite_diff_grad(mean_fam, theta_m, xm), atol=1e-5)


def test_expectation_parameter_hand_values_and_round_trip():
    # 1-D: (mu, sigma^2) = (1, 1) -> (Tbar1, Tbar2) = (1, 2)
    p = GaussianParams(np.array([1.0]), np.array([[1.0]]))
    m, m2 = to_second_moment(p)
    assert m[0] == 1.0 and m2[0, 0] == 2.0
    p0 = GaussianParams(np.array([0.0]), np.array([[1.0]]))
    _, m2_0 = to_second_moment(p0)
    assert m2_0[0, 0] == 1.0

    rng = substream(14, 0)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        params = GaussianParams(rng.normal(size=d), random_spd(rng, d))
        m, m2 = to_second_moment(params)
        back = from_second_moment(m, m2)
        worst = max(worst, np.abs(back.C - params.C).max(), np.abs(back.m - params.m).max())
    assert worst < 1e-12


def test_from_second_moment_rejects_non_pd():
    with pytest.raises(DegenerateUpdate):
        from_second_moment(np.array([2.0]), np.array([[1.0]]))  # implies sigma^2 = -3


def test_expectation_family_grad_and_fisher_consistency():
    # natural gradient in expectation coordinates is T(x) - Tbar; the
    # Jacobian-based Fisher/solve path must reproduce it
    rng = substream(15, 0)
    for d in (1, 2):
        fam = GaussianExpectationFamily(d)
        base = FullGaussianFamily(d)
        params = GaussianParams(rng.normal(size=d), random_spd(rng, d))
        tbar = fam.pack(params)
        x = base.sample(base.pack(params), 5, rng)
        nat = fam.natural_grad_log_density(tbar, x)
        g = fam.grad_log_density(tbar, x)
        F = fam.fisher(tbar)
        np.testing.assert_allclose(np.linalg.solve(F, g.T).T, nat, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(g, finite_diff_grad(fam, tbar, x, eps=1e-7), atol=2e-4)


def test_unified_j_ladder_hand_instance():
    # sigma^2 = 1, elite variance 0, squared mean shift 1, dt = 1/2
    params = GaussianParams(np.zeros(1), np.eye(1))
    samples = np.array([[1.0], [1.0]])
    w = np.array([0.5, 0.5])
    for j, expected in [(0, 1.0), (1, 0.75), (2, 0.625), (math.inf, 0.5)]:
        out = gaussian_step("unified", params, samples, w, dt=0.5, j=j)
        assert out.C[0, 0] == expected
        assert out.m[0] == 0.5


def test_cma_equals_unified_j0():
    rng = substream(16, 0)
    params = GaussianParams(rng.normal(size=2), random_spd(rng, 2))
    samples = rng.normal(size=(40, 2))
    w = np.full(40, 1.0 / 40)
    a = gaussian_step("cma", params, samples, w, dt=0.3)
    b = gaussian_step("unified", params, samples, w, dt=0.3, j=0)
    np.testing.assert_allclose(a.C, b.C, rtol=1e-12)
    np.testing.assert_allclose(a.m, b.m, rtol=1e-12)


def test_xnes_zero_update_keeps_square_root():
    params = GaussianSqrtParams(np.zeros(2), np.linalg.cholesky(np.array([[2.0, 0.3], [0.3, 1.0]])))
    # weights of zero: exp(0) = identity
    out = gaussian_step("xnes", params, np.zeros((3, 2)), np.zeros(3), dt=0.5)
    np.testing.assert_allclose(out.A, params.A)
    np.testing.assert_array_equal(out.m, params.m)


def test_emna_is_elite_mean_and_covariance():
    rng = substream(17, 0)
    samples = rng.normal(size=(30, 2))
    w = np.zeros(30)
    w[:10] = 0.1
    out = gaussian_step("emna", GaussianParams(np.zeros(2), np.eye(2)), samples, w)
    m_star = w @ samples / w.sum()
    dev = samples - m_star
    c_star = (dev * (w / w.sum())[:, None]).T @ dev
    np.testing.assert_allclose(out.m, m_star)
    np.testing.assert_allclose(out.C, c_star)


def test_cma_update_approaches_ml_blend_at_second_order():
    # mapped to expectation coordinates the cma and ML-blend steps differ by
    # O(dt^2): the gap ratio under dt halving stays near 4
    rng = substream(18, 0)
    d = 2
    fam = FullGaussianFamily(d)
    params = GaussianParams(rng.normal(size=d), random_spd(rng, d))
    samples = fam.sample(fam.pack(params), 64, rng)
    w = np.full(64, 1.0 / 64)
    gaps = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        cma = gaussian_step("cma", params, samples, w, dt=dt)
        ml = igo_ml_step(fam, fam.pack(params), samples, w, dt)
        gap = np.linalg.norm(fam.to_expectation(fam.pack(cma)) - fam.to_expectation(ml))
        gaps.append(gap)
    for i in range(3):
        assert 2.0 < gaps[i] / gaps[i + 1] < 8.0


def test_xnes_vs_cma_second_order_gap():
    rng = substream(19, 0)
    d = 2
    C = random_spd(rng, d)
    m = rng.normal(size=d)
    A = np.linalg.cholesky(C)
    samples = m + rng.normal(size=(64, d)) @ A.T
    w = np.full(64, 1.0 / 64)
    gaps = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        cma = gaussian_step("cma", GaussianParams(m, C), samples, w, dt=dt)
        xnes = gaussian_step("xnes", GaussianSqrtParams(m, A), samples, w, dt=dt)
        gaps.append(np.linalg.norm(cma.C - xnes.C))
    for i in range(3):
        assert 2.0 < gaps[i] / gaps[i + 1] < 8.0


def test_fisher_block_diagonal_between_mean_and_covariance():
    # Monte-Carlo estimate of the full-Gaussian Fisher: the mean/covariance
    # cross blocks vanish within 3 standard errors
    rng = substream(20, 0)
    d = 2
    fam = FullGaussianFamily(d)
    theta = fam.pack(GaussianParams(rng.normal(size=d), random_spd(rng, d)))
    m = 40000
    samples = fam.sample(theta, m, rng)
    g = fam.grad_log_density(theta, samples)
    prod = g[:, :d, None] * g[:, None, d:]
    cross_mean = prod.mean(axis=0)
    cross_se = prod.std(axis=0, ddof=1) / math.sqrt(m)
    assert np.all(np.abs(cross_mean) <= 3.5 * cross_se + 1e-12)
    # and the exact matrix is exactly block-diagonal
    F = fam.fisher(theta)
    np.testing.assert_allclose(F[:d, d:], 0.0, atol=1e-12)


def _reference_full_gaussian_fisher(fam, theta):
    """The exact full-Gaussian Fisher as an entry-by-entry loop over pairs of
    covariance coordinates, kept as the reference for the array form."""
    p = fam.unpack(theta)
    B = np.linalg.inv(p.C)
    d = fam.dim
    iu, ju = np.triu_indices(d)
    k = iu.size
    out = np.zeros((fam.dim_theta, fam.dim_theta))
    out[:d, :d] = B
    cc = np.zeros((k, k))
    for r in range(k):
        i, j = iu[r], ju[r]
        for s in range(r, k):
            a, b = iu[s], ju[s]
            if i == j and a == b:
                v = 0.5 * B[i, a] ** 2
            elif i == j:
                v = B[i, a] * B[i, b]
            elif a == b:
                v = B[a, i] * B[a, j]
            else:
                v = B[i, a] * B[j, b] + B[i, b] * B[j, a]
            cc[r, s] = cc[s, r] = v
    out[d:, d:] = cc
    return out


@settings(max_examples=60)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3),
       st.floats(1e-3, 10.0))
def test_full_gaussian_fisher_matches_the_entry_loop_bit_for_bit(d, seed, scale, ridge):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    fam = FullGaussianFamily(d)
    theta = fam.pack(GaussianParams(rng.normal(size=d), scale * (A @ A.T + ridge * np.eye(d))))
    assert np.array_equal(fam.fisher(theta), _reference_full_gaussian_fisher(fam, theta))


class _ReferenceExpectationFamily(Family):
    """Expectation-coordinate Gaussians as a wrapper around a private
    FullGaussianFamily that sends theta through unpack -> pack -> unpack,
    with the Jacobian built entry by entry; kept as the reference for the
    coordinate-map subclass."""

    def __init__(self, dim):
        self.dim = int(dim)
        self._base = FullGaussianFamily(dim)

    @property
    def dim_theta(self):
        return self._base.dim_theta

    def _to_base(self, theta):
        return self._base.pack(self.unpack(theta))

    def _jacobian(self, theta):
        d = self.dim
        m = theta[:d]
        J = np.eye(self.dim_theta)
        iu, ju = np.triu_indices(d)
        for r, (k, l) in enumerate(zip(iu, ju)):
            J[d + r, k] -= m[l]
            J[d + r, l] -= m[k]
        return J

    def sample(self, theta, n, rng):
        return self._base.sample(self._to_base(theta), n, rng)

    def log_density(self, theta, samples):
        return self._base.log_density(self._to_base(theta), samples)

    def grad_log_density(self, theta, samples):
        return self._base.grad_log_density(self._to_base(theta), samples) @ self._jacobian(theta)

    def natural_grad_log_density(self, theta, samples):
        return self.sufficient_stats(samples) - theta

    def fisher(self, theta):
        J = self._jacobian(theta)
        return J.T @ self._base.fisher(self._to_base(theta)) @ J

    def sufficient_stats(self, samples):
        return self._base.sufficient_stats(samples)

    def to_expectation(self, theta):
        return np.asarray(theta, dtype=float).copy()

    def from_expectation(self, tbar):
        self.unpack(tbar)  # domain check
        return np.asarray(tbar, dtype=float).copy()

    def pack(self, params):
        m, m2 = to_second_moment(params)
        return np.concatenate([m, utri_pack(m2)])

    def unpack(self, theta):
        d = self.dim
        return from_second_moment(theta[:d], utri_unpack(theta[d:], d))

    def exact_kl(self, theta_p, theta_q):
        return _gaussian_kl(self.unpack(np.asarray(theta_p, dtype=float)),
                            self.unpack(np.asarray(theta_q, dtype=float)))


@settings(max_examples=60)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.floats(1e-2, 1e2),
       st.floats(1e-3, 10.0))
def test_expectation_family_matches_the_wrapper_bit_for_bit(d, seed, scale, ridge):
    rng = np.random.default_rng(seed)
    fam, ref = GaussianExpectationFamily(d), _ReferenceExpectationFamily(d)
    thetas = []
    for _ in range(2):
        A = rng.normal(size=(d, d))
        params = GaussianParams(rng.normal(size=d), scale * (A @ A.T + ridge * np.eye(d)))
        thetas.append(ref.pack(params))
        assert np.array_equal(fam.pack(params), thetas[-1])
    theta, other = thetas
    assert fam.dim_theta == ref.dim_theta and fam.capabilities == ref.capabilities
    for a, b in [(fam.unpack(theta).m, ref.unpack(theta).m),
                 (fam.unpack(theta).C, ref.unpack(theta).C),
                 (fam.sample(theta, 6, substream(seed, 1)), ref.sample(theta, 6, substream(seed, 1))),
                 (fam.fisher(theta), ref.fisher(theta)),
                 (fam.to_expectation(theta), ref.to_expectation(theta)),
                 (fam.from_expectation(other), ref.from_expectation(other)),
                 (fam.exact_kl(theta, other), ref.exact_kl(theta, other))]:
        assert np.array_equal(a, b)
    x = ref.sample(other, 7, substream(seed, 2))
    for method in ("log_density", "grad_log_density", "natural_grad_log_density"):
        assert np.array_equal(getattr(fam, method)(theta, x), getattr(ref, method)(theta, x))
    assert np.array_equal(fam.sufficient_stats(x), ref.sufficient_stats(x))
    # a second moment below m m^T leaves the domain in both
    bad = theta.copy()
    bad[d] = theta[0] ** 2 - 1.0
    for family in (fam, ref):
        with pytest.raises(DegenerateUpdate):
            family.from_expectation(bad)


def test_mc_fisher_matches_exact_fisher_full_gaussian():
    rng = substream(21, 0)
    fam = FullGaussianFamily(2)
    theta = fam.pack(GaussianParams(np.array([0.3, -0.2]), np.array([[1.5, 0.4], [0.4, 0.9]])))
    est = mc_fisher(fam, theta, 200000, rng)
    F = fam.fisher(theta)
    np.testing.assert_allclose(est.matrix, F, rtol=0.08, atol=0.02)
