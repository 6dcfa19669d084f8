import math

import numpy as np
import pytest

from igopt import igo_step, substream, vanilla_step
from igopt.families import (
    CapabilityError,
    JointRbmFamily,
    MarginalRbmFamily,
    RbmParams,
    centered_to_standard,
    flip_hidden_params,
    flip_hidden_samples,
    rbm_init,
    standard_to_centered,
)


def tiny_params(n_x, n_h, seed=0, scale=0.5):
    rng = substream(seed, 0)
    return RbmParams(
        scale * rng.normal(size=n_x),
        scale * rng.normal(size=n_h),
        scale * rng.normal(size=(n_x, n_h)),
    )


def brute_force_moments(fam, theta):
    pts = fam.enumerate_points()
    if isinstance(pts, tuple):
        x, h = pts
        energies = fam.energy(theta, x, h)
        logmass = -energies
    else:
        raise AssertionError("expected joint enumeration")
    z = np.exp(logmass - logmass.max()).sum() * math.exp(logmass.max())
    probs = np.exp(logmass) / z
    T = fam.sufficient_stats(pts)
    mean = T.T @ probs
    cov = (T * probs[:, None]).T @ T - np.outer(mean, mean)
    return z, probs, mean, cov


def test_zero_parameters_give_uniform_distribution():
    fam = JointRbmFamily(2, 2)
    theta = np.zeros(fam.dim_theta)
    pts = fam.enumerate_points()
    logp = fam.log_density(theta, pts)
    np.testing.assert_allclose(np.exp(logp), 1.0 / 16.0, rtol=1e-12)
    np.testing.assert_allclose(fam.energy(theta, *pts), 0.0)


def test_partition_function_hand_value():
    # n_x = n_h = 1, w = 1, zero biases: Z = 3 + e, P(1,1) = e / (3 + e)
    fam = JointRbmFamily(1, 1)
    theta = RbmParams(np.zeros(1), np.zeros(1), np.ones((1, 1))).flat()
    z = math.exp(fam.log_partition(theta))
    assert z == pytest.approx(3.0 + math.e, rel=1e-12)
    p11 = math.exp(fam.log_density(theta, (np.array([[1]]), np.array([[1]])))[0])
    assert p11 == pytest.approx(math.e / (3.0 + math.e), rel=1e-12)


def test_partition_matches_brute_force():
    fam = JointRbmFamily(3, 2)
    theta = tiny_params(3, 2, seed=1).flat()
    z_brute, _, _, _ = brute_force_moments(fam, theta)
    assert math.exp(fam.log_partition(theta)) == pytest.approx(z_brute, rel=1e-10)


def test_conditionals_against_exact_joint():
    fam = JointRbmFamily(3, 2)
    theta = tiny_params(3, 2, seed=2).flat()
    x = np.array([[1, 0, 1]])
    ph = fam.p_hidden_given_visible(theta, x)[0]
    # oracle: P(h_j = 1 | x) from the enumerated joint
    H = np.array([[h0, h1] for h0 in (0, 1) for h1 in (0, 1)])
    logm = -fam.energy(theta, np.repeat(x, 4, axis=0), H)
    w = np.exp(logm - logm.max())
    w /= w.sum()
    for j in range(2):
        assert ph[j] == pytest.approx(float(w[H[:, j] == 1].sum()), rel=1e-10)


def test_exact_stats_and_fisher_against_brute_force():
    for n_x, n_h in [(2, 1), (3, 2), (2, 3)]:
        fam = JointRbmFamily(n_x, n_h)
        theta = tiny_params(n_x, n_h, seed=3 + n_x).flat()
        _, _, mean, cov = brute_force_moments(fam, theta)
        np.testing.assert_allclose(fam.exact_stats(theta), mean, atol=1e-12)
        np.testing.assert_allclose(fam.fisher(theta), cov, atol=1e-12)


def test_marginal_fisher_against_brute_force():
    n_x, n_h = 3, 2
    joint = JointRbmFamily(n_x, n_h)
    marg = MarginalRbmFamily(n_x, n_h)
    theta = tiny_params(n_x, n_h, seed=9).flat()
    # oracle: Cov(U) with U(x) = E[T | x] from the enumerated joint
    x_pts = marg.enumerate_points()
    probs_x = np.exp(marg.log_density(theta, x_pts))
    np.testing.assert_allclose(probs_x.sum(), 1.0, atol=1e-12)
    U = marg.score_stats(theta, x_pts)
    mean = U.T @ probs_x
    cov = (U * probs_x[:, None]).T @ U - np.outer(mean, mean)
    np.testing.assert_allclose(marg.fisher(theta), cov, atol=1e-12)
    # joint and marginal expectations of T agree
    np.testing.assert_allclose(marg.exact_stats(theta), joint.exact_stats(theta),
                               atol=1e-12)


def test_joint_fisher_dominates_marginal_fisher():
    for n_x, n_h in [(3, 1), (4, 2), (2, 2)]:
        theta = tiny_params(n_x, n_h, seed=20 + n_x).flat()
        i1 = JointRbmFamily(n_x, n_h).fisher(theta)
        i2 = MarginalRbmFamily(n_x, n_h).fisher(theta)
        min_eig = np.linalg.eigvalsh(i1 - i2).min()
        assert min_eig >= -1e-10


def test_grad_hand_example_zero_parameters():
    # marginal family at zero parameters, x all-ones: E[x h | x] = 0.5,
    # E[x h] = 0.25 -> weight-gradient 0.25
    marg = MarginalRbmFamily(1, 1)
    theta = np.zeros(3)
    g = marg.grad_log_density(theta, np.array([[1]]))[0]
    w_idx = 2  # order: a, b, W
    assert g[w_idx] == pytest.approx(0.25)
    # joint family with h = 1: x h - E[x h] = 1 - 0.25
    joint = JointRbmFamily(1, 1)
    gj = joint.grad_log_density(theta, (np.array([[1]]), np.array([[1]])))[0]
    assert gj[w_idx] == pytest.approx(0.75)


def test_scores_are_centered():
    joint = JointRbmFamily(3, 2)
    theta = tiny_params(3, 2, seed=5).flat()
    pts = joint.enumerate_points()
    probs = np.exp(joint.log_density(theta, pts))
    np.testing.assert_allclose(probs @ joint.grad_log_density(theta, pts), 0.0,
                               atol=1e-10)
    marg = MarginalRbmFamily(3, 2)
    x_pts = marg.enumerate_points()
    probs_x = np.exp(marg.log_density(theta, x_pts))
    np.testing.assert_allclose(probs_x @ marg.grad_log_density(theta, x_pts), 0.0,
                               atol=1e-10)


def test_grad_matches_finite_differences():
    # central differences on the exact log-density, eps = 1e-4, tol 1e-6
    for fam, sample in [
        (JointRbmFamily(2, 2), (np.array([[1, 0]]), np.array([[0, 1]]))),
        (MarginalRbmFamily(2, 2), np.array([[1, 0]])),
    ]:
        theta = tiny_params(2, 2, seed=6, scale=0.3).flat()
        g = fam.grad_log_density(theta, sample)[0]
        eps = 1e-4
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            fd = (fam.log_density(tp, sample)[0] - fam.log_density(tm, sample)[0]) / (2 * eps)
            assert abs(g[i] - fd) < 1e-6


def test_init_dimensions_and_balanced_activations():
    rng = substream(50, 0)
    params = rbm_init(4, 2, rng)
    assert params.dim == 4 + 2 + 8
    fam = JointRbmFamily(4, 2)
    for seed in range(5):
        theta = rbm_init(4, 2, substream(51, seed)).flat()
        marg = MarginalRbmFamily(4, 2)
        x_pts = marg.enumerate_points()
        probs = np.exp(marg.log_density(theta, x_pts))
        p_active = probs @ x_pts.astype(float)
        assert np.all(np.abs(p_active - 0.5) < 0.05)
        # hidden activations too
        stats = fam.exact_stats(theta)
        p_hidden = stats[4:6]
        assert np.all(np.abs(p_hidden - 0.5) < 0.05)


def test_init_zero_weights_give_uniform():
    params = rbm_init(1, 1, substream(52, 0))
    params.W[:] = 0.0
    params.b[:] = 0.0
    params.a[:] = 0.0
    fam = JointRbmFamily(1, 1)
    logp = fam.log_density(params.flat(), fam.enumerate_points())
    np.testing.assert_allclose(np.exp(logp), 0.25, atol=1e-12)


def test_gibbs_moments_approach_exact():
    fam = JointRbmFamily(3, 1, burn_in=60)
    theta = tiny_params(3, 1, seed=7, scale=0.4).flat()
    x, h = fam.sample(theta, 40000, substream(53, 0))
    est = fam.sufficient_stats((x, h)).mean(axis=0)
    exact = fam.exact_stats(theta)
    assert np.abs(est - exact).max() < 0.02


def test_flip_hidden_preserves_distribution():
    fam = JointRbmFamily(3, 2)
    theta = tiny_params(3, 2, seed=8).flat()
    params = fam.unpack(theta)
    flipped = flip_hidden_params(params, 1)
    pts = fam.enumerate_points()
    flipped_pts = flip_hidden_samples(pts, 1)
    np.testing.assert_allclose(fam.log_density(theta, pts),
                               fam.log_density(flipped.flat(), flipped_pts),
                               atol=1e-10)


def test_hflip_commutes_with_natural_step_not_vanilla():
    n_x, n_h = 3, 2
    fam = JointRbmFamily(n_x, n_h)
    theta = tiny_params(n_x, n_h, seed=10, scale=0.4).flat()
    rng = substream(54, 0)
    samples = fam.sample(theta, 32, rng)
    vals = samples[0].sum(axis=1).astype(float)
    from igopt import compute_quantile_weights, truncation
    rw = compute_quantile_weights(vals, truncation(0.5))
    j = 0

    def flip_theta(t):
        return flip_hidden_params(fam.unpack(t), j).flat()

    # natural-gradient step: the flip map is affine in theta, so the exact
    # natural step commutes with it
    step_then_flip = flip_theta(igo_step(fam, theta, samples, rw, 0.2,
                                         use_closed_form=False))
    flip_then_step = igo_step(fam, flip_theta(theta),
                              flip_hidden_samples(samples, j), rw, 0.2,
                              use_closed_form=False)
    assert np.abs(step_then_flip - flip_then_step).max() < 1e-6

    # the vanilla step does not commute
    v_step_then_flip = flip_theta(vanilla_step(fam, theta, samples, rw, 0.2))
    v_flip_then_step = vanilla_step(fam, flip_theta(theta),
                                    flip_hidden_samples(samples, j), rw, 0.2)
    assert np.abs(v_step_then_flip - v_flip_then_step).max() >= 1e-3


def test_exact_kl_matches_direct_sum():
    fam = JointRbmFamily(2, 2)
    t1 = tiny_params(2, 2, seed=11).flat()
    t2 = tiny_params(2, 2, seed=12).flat()
    pts = fam.enumerate_points()
    p = np.exp(fam.log_density(t1, pts))
    direct = float(p @ (fam.log_density(t1, pts) - fam.log_density(t2, pts)))
    assert fam.exact_kl(t1, t2) == pytest.approx(direct, rel=1e-10)


def test_enumeration_cutoff_enforced():
    fam = JointRbmFamily(18, 4)
    with pytest.raises(CapabilityError):
        fam.log_partition(np.zeros(fam.dim_theta))


def test_centered_parametrization_round_trip():
    params = tiny_params(3, 2, seed=13)
    centered = standard_to_centered(params)
    back = centered_to_standard(centered)
    np.testing.assert_allclose(back.a, params.a, atol=1e-12)
    np.testing.assert_allclose(back.b, params.b, atol=1e-12)
    np.testing.assert_allclose(back.W, params.W, atol=1e-12)


def test_serialization_order():
    params = RbmParams(np.array([1.0, 2.0]), np.array([3.0]),
                       np.array([[4.0], [5.0]]))
    np.testing.assert_array_equal(params.flat(), [1, 2, 3, 4, 5])
    back = RbmParams.from_flat(params.flat(), 2, 1)
    np.testing.assert_array_equal(back.W, params.W)


# -- frozen references: the sampler and exact quantities as first written ----
# The family now gathers P(x | h) from a per-hidden-state table and builds one
# visible table per theta; its outputs must equal these bit for bit.

def _ref_sigmoid(t):
    return 1.0 / (1.0 + np.exp(-np.clip(t, -40.0, 40.0)))


def _ref_bits(n):
    codes = np.arange(2**n, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def ref_gibbs(fam, theta, n, rng):
    p = fam.unpack(theta)
    x = (rng.random((n, fam.n_x)) < 0.5).astype(np.float64)
    for _ in range(fam.burn_in):
        h = (rng.random((n, fam.n_h)) < _ref_sigmoid(p.b + x @ p.W)).astype(np.float64)
        x = (rng.random((n, fam.n_x)) < _ref_sigmoid(p.a + h @ p.W.T)).astype(np.float64)
    h = (rng.random((n, fam.n_h)) < _ref_sigmoid(p.b + x @ p.W)).astype(np.float64)
    return x.astype(np.uint8), h.astype(np.uint8)


def ref_table(fam, theta):
    p = fam.unpack(theta)
    X = _ref_bits(fam.n_x)
    act = p.b + X.astype(float) @ p.W
    logmass = X.astype(float) @ p.a + np.logaddexp(0.0, act).sum(axis=1)
    m = logmass.max()
    log_z = float(m + np.log(np.exp(logmass - m).sum()))
    probs = np.exp(logmass - log_z)
    return X.astype(float), probs, _ref_sigmoid(act), log_z


def ref_stats(fam, theta):
    X, probs, PH, _ = ref_table(fam, theta)
    exh = (X * probs[:, None]).T @ PH
    return np.concatenate([X.T @ probs, PH.T @ probs, exh.ravel()])


def ref_joint_kl(fam, tp, tq):
    return float((tp - tq) @ ref_stats(fam, tp)
                 - ref_table(fam, tp)[3] + ref_table(fam, tq)[3])


def ref_marginal_kl(fam, tp, tq):
    x = _ref_bits(fam.n_x).astype(float)

    def log_density(theta):
        p = fam.unpack(theta)
        return (x @ p.a + np.logaddexp(0.0, p.b + x @ p.W).sum(axis=1)
                - ref_table(fam, theta)[3])

    lp, lq = log_density(tp), log_density(tq)
    return float(np.exp(lp) @ (lp - lq))


@pytest.mark.parametrize("n_x, n_h, n", [
    (16, 1, 500),   # per-hidden-state table
    (12, 3, 300),
    (2, 2, 64),
    (10, 5, 200),
    (10, 5, 32),    # 2^n_h == n: still the table
    (6, 8, 100),    # 2^n_h > n: matmul fallback
])
@pytest.mark.parametrize("burn_in", [0, 30])
def test_gibbs_matches_reference_bit_for_bit(n_x, n_h, n, burn_in):
    for seed, scale in [(0, 0.5), (1, 3.0)]:
        theta = tiny_params(n_x, n_h, seed=60 + seed, scale=scale).flat()
        joint = JointRbmFamily(n_x, n_h, burn_in=burn_in)
        x, h = joint.sample(theta, n, substream(61, seed))
        x_ref, h_ref = ref_gibbs(joint, theta, n, substream(61, seed))
        assert x.dtype == h.dtype == np.uint8
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(h, h_ref)
        marg = MarginalRbmFamily(n_x, n_h, burn_in=burn_in)
        np.testing.assert_array_equal(marg.sample(theta, n, substream(61, seed)), x_ref)


@pytest.mark.parametrize("n_x, n_h", [(8, 1), (5, 2), (4, 3), (1, 1)])
def test_exact_quantities_match_reference_bit_for_bit(n_x, n_h):
    tp = tiny_params(n_x, n_h, seed=70).flat()
    tq = tiny_params(n_x, n_h, seed=71, scale=0.8).flat()
    joint, marg = JointRbmFamily(n_x, n_h), MarginalRbmFamily(n_x, n_h)
    for fam in (joint, marg):
        for theta in (tp, tq):
            assert fam.log_partition(theta) == ref_table(fam, theta)[3]
            np.testing.assert_array_equal(fam.exact_stats(theta), ref_stats(fam, theta))
    assert joint.exact_kl(tp, tq) == ref_joint_kl(joint, tp, tq)
    assert marg.exact_kl(tp, tq) == ref_marginal_kl(marg, tp, tq)
