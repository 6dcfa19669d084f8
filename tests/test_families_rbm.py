import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_acceptance import _kl_hessian

from igopt import igo_step, lift_noisy, substream, vanilla_step
from igopt.experiment import MAX_ENTRIES
from igopt.families import (
    CapabilityError,
    JointRbmFamily,
    MarginalRbmFamily,
    RbmParams,
    flip_hidden_params,
    flip_hidden_samples,
    rbm_init,
)
from igopt.families import rbm as rbm_module
from igopt.flow import flow_rhs
from igopt.objectives import evaluate, onemax, two_min_random
from igopt.weights import truncation


def tiny_params(n_x, n_h, seed=0, scale=0.5):
    rng = substream(seed, 0)
    return RbmParams(
        scale * rng.normal(size=n_x),
        scale * rng.normal(size=n_h),
        scale * rng.normal(size=(n_x, n_h)),
    )


def joint_pairs(fam):
    """Every (x, h) pair of an RBM, x-major: the brute-force oracle."""
    x, h = _ref_bits(fam.n_x), _ref_bits(fam.n_h)
    return np.repeat(x, len(h), axis=0), np.tile(h, (len(x), 1))


def brute_force_moments(fam, theta):
    pts = joint_pairs(fam)
    logmass = -fam.energy(theta, *pts)
    z = np.exp(logmass - logmass.max()).sum() * math.exp(logmass.max())
    probs = np.exp(logmass) / z
    T = fam.sufficient_stats(pts)
    mean = T.T @ probs
    cov = (T * probs[:, None]).T @ T - np.outer(mean, mean)
    return z, probs, mean, cov


def test_zero_parameters_give_uniform_distribution():
    fam = JointRbmFamily(2, 2)
    theta = np.zeros(fam.dim_theta)
    pts = joint_pairs(fam)
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
    pts = joint_pairs(joint)
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
    logp = fam.log_density(params.flat(), joint_pairs(fam))
    np.testing.assert_allclose(np.exp(logp), 0.25, atol=1e-12)


def test_gibbs_moments_approach_exact():
    fam = JointRbmFamily(3, 1, burn_in=60)
    theta = tiny_params(3, 1, seed=7, scale=0.4).flat()
    x, h = fam._gibbs(theta, 40000, substream(53, 0))
    est = fam.sufficient_stats((x, h)).mean(axis=0)
    exact = fam.exact_stats(theta)
    assert np.abs(est - exact).max() < 0.02


def test_flip_hidden_preserves_distribution():
    fam = JointRbmFamily(3, 2)
    theta = tiny_params(3, 2, seed=8).flat()
    params = fam.unpack(theta)
    flipped = flip_hidden_params(params, 1)
    pts = joint_pairs(fam)
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
    step_then_flip = flip_theta(igo_step(fam, theta, samples, rw, 0.2))
    flip_then_step = igo_step(fam, flip_theta(theta),
                              flip_hidden_samples(samples, j), rw, 0.2)
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
    pts = joint_pairs(fam)
    p = np.exp(fam.log_density(t1, pts))
    direct = float(p @ (fam.log_density(t1, pts) - fam.log_density(t2, pts)))
    assert fam.exact_kl(t1, t2) == pytest.approx(direct, rel=1e-10)


def test_enumeration_cutoff_enforced():
    # joint quantities enumerate the smaller layer: 18 x 4 sums 16 states,
    # while the marginal family's Fisher and KL still need 2^18 visible ones
    fam = JointRbmFamily(18, 4)
    theta = np.zeros(fam.dim_theta)
    fam.fisher(theta)
    marg = MarginalRbmFamily(18, 4)
    for call in (lambda: marg.fisher(theta), lambda: marg.exact_kl(theta, theta),
                 fam.enumerate_points):
        with pytest.raises(CapabilityError, match="n_x \\+ n_h <= 20"):
            call()
    fam = JointRbmFamily(12, 12)  # 2^12 * 168^2 > 2^24
    with pytest.raises(CapabilityError, match="2\\^24"):
        fam.log_partition(np.zeros(fam.dim_theta))


def pair_table_drift(fam, theta, objective, scheme):
    """The exact joint flow by brute force: sum P(x, h) W(x) (T - E[T]) over
    every (x, h) pair, with W from the pairs' own running quantiles, and
    solve with the joint Fisher matrix."""
    x, h = joint_pairs(fam)
    probs = np.exp(fam.log_density(theta, (x, h)))
    values = evaluate(objective, x)
    w = np.empty_like(values)
    cum = 0.0
    for v in np.unique(values):
        group = values == v
        q_minus, cum = cum, min(1.0, cum + probs[group].sum())
        w[group] = scheme.integral(q_minus, cum) / (cum - q_minus)
    T = fam.sufficient_stats((x, h))
    grad = (probs * w) @ (T - probs @ T)
    return np.linalg.solve(fam.fisher(theta), grad)


@pytest.mark.parametrize("n_x, n_h", [(4, 2), (3, 3), (2, 4), (3, 5)])
def test_joint_flow_matches_the_pair_table_reference(n_x, n_h):
    # onemax ties the x with equal counts of ones: each tie group gets one weight
    fam = JointRbmFamily(n_x, n_h)
    points = fam.enumerate_points()  # the visible states, built once, read-only
    assert points is fam.enumerate_points() and not points.flags.writeable
    np.testing.assert_array_equal(points, _ref_bits(n_x))
    for seed in range(3):
        theta = tiny_params(n_x, n_h, seed=60 + seed).flat()
        for scheme in (truncation(0.3), truncation(0.6, shift=-0.2)):
            np.testing.assert_allclose(flow_rhs(fam, theta, onemax(n_x), scheme),
                                       pair_table_drift(fam, theta, onemax(n_x), scheme),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_x, n_h", [(4, 2), (2, 4)])
def test_joint_flow_is_hidden_flip_equivariant(n_x, n_h):
    # the flip A is linear in theta, so the exact flow satisfies
    # rhs(A theta) = A rhs(theta)
    fam = JointRbmFamily(n_x, n_h)
    obj = two_min_random(n_x, substream(61, 0))
    scheme = truncation(0.3)
    for seed in range(3):
        theta = tiny_params(n_x, n_h, seed=70 + seed).flat()
        for j in range(n_h):
            def flip(t, j=j):
                return flip_hidden_params(fam.unpack(t), j).flat()
            np.testing.assert_allclose(flow_rhs(fam, flip(theta), obj, scheme),
                                       flip(flow_rhs(fam, theta, obj, scheme)),
                                       rtol=0, atol=1e-12)


def test_every_shape_accepted_before_is_still_enumerable():
    for n_x in range(1, 20):
        for n_h in range(1, 21 - n_x):
            JointRbmFamily(n_x, n_h)._check_enumerable()
    JointRbmFamily(40, 1)._check_enumerable()


def test_serialization_order():
    params = RbmParams(np.array([1.0, 2.0]), np.array([3.0]),
                       np.array([[4.0], [5.0]]))
    np.testing.assert_array_equal(params.flat(), [1, 2, 3, 4, 5])
    back = RbmParams.from_flat(params.flat(), 2, 1)
    np.testing.assert_array_equal(back.W, params.W)


# -- frozen references: the sampler and exact quantities as first written ----
# The family's Gibbs chains now draw from raw Philox words with integer
# thresholds; they must equal ``ref_gibbs`` bit for bit, as its exact draws
# must equal ``ref_ancestral``.
# Its exact joint quantities sum over the smaller layer, while these sum
# over the visible states.

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
    (16, 1, 500),   # 2^n_h < n
    (12, 3, 300),
    (2, 2, 64),
    (10, 5, 200),
    (10, 5, 32),    # 2^n_h == n
    (6, 8, 100),    # 2^n_h > n
])
@pytest.mark.parametrize("burn_in", [0, 30])
def test_gibbs_matches_reference_bit_for_bit(n_x, n_h, n, burn_in):
    for seed, scale in [(0, 0.5), (1, 3.0)]:
        theta = tiny_params(n_x, n_h, seed=60 + seed, scale=scale).flat()
        joint = JointRbmFamily(n_x, n_h, burn_in=burn_in)
        x, h = joint._gibbs(theta, n, substream(61, seed))
        x_ref, h_ref = ref_gibbs(joint, theta, n, substream(61, seed))
        assert x.dtype == h.dtype == np.uint8
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(h, h_ref)
        marg = MarginalRbmFamily(n_x, n_h, burn_in=burn_in)
        np.testing.assert_array_equal(marg._gibbs(theta, n, substream(61, seed))[0], x_ref)


def test_gibbs_refuses_mt19937():
    # MT19937's random() is built from two 32-bit words, so the raw-word
    # thresholds would not reproduce it
    fam = JointRbmFamily(3, 1)
    with pytest.raises(ValueError, match="MT19937"):
        fam._gibbs(np.zeros(fam.dim_theta), 4, np.random.Generator(np.random.MT19937(0)))
    x, _ = fam._gibbs(np.zeros(fam.dim_theta), 4, np.random.default_rng(0))  # PCG64
    x_ref, _ = ref_gibbs(fam, np.zeros(fam.dim_theta), 4, np.random.default_rng(0))
    np.testing.assert_array_equal(x, x_ref)


def ref_ancestral(fam, theta, n, rng):
    """Exact draws as first written: the smaller layer (the hidden one
    unless n_x < n_h) by inverse CDF of its marginal, then the other layer
    given it, with ``random() < p``."""
    p = fam.unpack(theta)
    swap = fam.n_x < fam.n_h
    a, b, W = (p.b, p.a, p.W.T) if swap else (p.a, p.b, p.W)
    S = _ref_bits(W.shape[1]).astype(float)  # the smaller layer's states
    act = a + S @ W.T
    logmass = S @ b + np.logaddexp(0.0, act).sum(axis=1)
    m = logmass.max()
    probs = np.exp(logmass - float(m + np.log(np.exp(logmass - m).sum())))
    cdf = np.cumsum(probs)
    u = rng.random(n)
    k = np.array([min(int((cdf <= ui).sum()), len(S) - 1) for ui in u])
    other = (rng.random((n, W.shape[0])) < _ref_sigmoid(act)[k]).astype(np.uint8)
    small = S[k].astype(np.uint8)
    return (small, other) if swap else (other, small)


@pytest.mark.parametrize("n_x, n_h, n", [
    (16, 1, 500), (12, 3, 300), (2, 2, 64), (3, 5, 200),
    # refused by the exact quantities, yet their sampling tables are small
    (20, 12, 1000), (12, 20, 1000),
    (150, 5, 100),  # 2^n_h <= n
])
def test_sample_matches_ancestral_reference_bit_for_bit(n_x, n_h, n):
    for seed, scale in [(0, 0.5), (1, 3.0)]:
        theta = tiny_params(n_x, n_h, seed=80 + seed, scale=scale).flat()
        x, h = JointRbmFamily(n_x, n_h).sample(theta, n, substream(81, seed))
        x_ref, h_ref = ref_ancestral(JointRbmFamily(n_x, n_h), theta, n, substream(81, seed))
        assert x.dtype == h.dtype == np.uint8
        assert x.shape == (n, n_x) and h.shape == (n, n_h)
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(h, h_ref)
        marg = MarginalRbmFamily(n_x, n_h)
        np.testing.assert_array_equal(marg.sample(theta, n, substream(81, seed)), x_ref)


def test_sample_refuses_mt19937():
    fam = JointRbmFamily(3, 1)
    with pytest.raises(ValueError, match="MT19937"):
        fam.sample(np.zeros(fam.dim_theta), 4, np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize("n_x, n_h", [(3, 1), (3, 5)])  # (3, 5) draws x first
def test_sample_moments_match_exact(n_x, n_h):
    fam = JointRbmFamily(n_x, n_h)
    theta = tiny_params(n_x, n_h, seed=7, scale=0.4).flat()
    est = fam.sufficient_stats(fam.sample(theta, 40000, substream(53, 1))).mean(axis=0)
    assert np.abs(est - fam.exact_stats(theta)).max() < 0.02


def test_shapes_over_the_cutoff_sample_by_gibbs():
    # the smaller layer's table has 2^12 * 20 = 81,920 entries, more than
    # the chain's 32 n (n_x + n_h) = 16,384 at n = 16, so the chain runs;
    # 16 x 16 at n = 1000 has 2^16 * 16 = 1,048,576 against 1,024,000
    for n_x, n_h, n in [(20, 12, 16), (16, 16, 1000)]:
        theta = tiny_params(n_x, n_h, seed=82, scale=0.3).flat()
        joint = JointRbmFamily(n_x, n_h, burn_in=2)
        with pytest.raises(CapabilityError):
            joint._check_enumerable()
        x, h = joint.sample(theta, n, substream(83, 0))
        x_ref, h_ref = ref_gibbs(joint, theta, n, substream(83, 0))
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(h, h_ref)
        marg = MarginalRbmFamily(n_x, n_h, burn_in=2)
        np.testing.assert_array_equal(marg.sample(theta, n, substream(83, 0)), x_ref)


def test_exact_quantities_refuse_shapes_that_sample_exactly():
    # 20 x 12 draws from its sampling table, yet ln Z, E[T], the KL and
    # the Fisher matrix stay refused: 2^12 * 272^2 > EXACT_WORK_CUTOFF
    joint, marg = JointRbmFamily(20, 12), MarginalRbmFamily(20, 12)
    theta = tiny_params(20, 12, seed=84, scale=0.3).flat()
    x, h = joint.sample(theta, 1000, substream(85, 0))
    for call in (joint.check_fisher, lambda: joint.fisher(theta),
                 lambda: joint.exact_kl(theta, theta), lambda: joint.exact_stats(theta),
                 lambda: joint.log_density(theta, (x, h)),
                 lambda: marg.log_density(theta, x), lambda: marg.log_partition(theta)):
        with pytest.raises(CapabilityError, match="2\\^24"):
            call()


class _Chosen(Exception):
    """Raised by the stand-ins below: which sampler ``_sample`` chose."""


@pytest.fixture
def sampler_path(monkeypatch):
    """path(n_x, n_h, n): "exact" or "gibbs", the way ``sample`` draws, found
    without drawing: the smaller layer's state table and the chain stop
    with _Chosen as soon as they are asked for."""
    def stop(name):
        def chosen(*args):
            raise _Chosen(name)
        return chosen

    empty = RbmParams(np.zeros(0), np.zeros(0), np.zeros((0, 0)))
    monkeypatch.setattr(JointRbmFamily, "unpack", lambda self, theta: empty)
    monkeypatch.setattr(rbm_module, "enumerate_bits", stop("exact"))
    monkeypatch.setattr(JointRbmFamily, "_gibbs", stop("gibbs"))

    def path(n_x, n_h, n):
        try:
            JointRbmFamily(n_x, n_h).sample(None, n, None)
        except _Chosen as chosen:
            return chosen.args[0]
        raise AssertionError("sample drew without asking for a table or a chain")
    return path


def _accepted_shapes():
    """Every shape ``_check_enumerable`` accepts; its refusal only grows
    with either layer."""
    def accepted(n_x, n_h):
        try:
            JointRbmFamily(n_x, n_h)._check_enumerable()
        except CapabilityError:
            return False
        return True

    shapes = []
    for n_h in range(1, 2**12):
        if not accepted(1, n_h):
            break
        n_x = 1
        while accepted(n_x, n_h):
            shapes.append((n_x, n_h))
            n_x += 1
    return shapes


def test_sampler_draws_exactly_wherever_it_did_or_the_chain_had_a_table(sampler_path):
    # every shape the exact quantities accept draws exactly, at any n >= 1
    shapes = _accepted_shapes()
    assert (40, 1) in shapes and (1, 1447) in shapes and len(shapes) > 4000
    for n_x, n_h in shapes:
        for n in (1, 2, 1000, MAX_ENTRIES // n_x):
            assert sampler_path(n_x, n_h, n) == "exact", (n_x, n_h, n)
    # so does every batch the runner allows (n * n_x <= MAX_ENTRIES) that had
    # a chain over at most n hidden states (2^n_h <= n)
    for n_h in range(1, 25):
        top = MAX_ENTRIES // 2**n_h
        widths = {*range(1, min(top, 300) + 1), *np.geomspace(1, top, 60).astype(int).tolist(), top}
        for n_x in sorted(widths):
            for n in (2**n_h, 2**n_h + 1, MAX_ENTRIES // n_x):
                assert sampler_path(n_x, n_h, n) == "exact", (n_x, n_h, n)
    # and the chain still runs where the table costs more than it
    assert sampler_path(20, 12, 16) == sampler_path(16, 16, 1000) == "gibbs"
    assert sampler_path(30, 14, 100) == sampler_path(40, 16, 1000) == "gibbs"
    assert sampler_path(20, 12, 1000) == sampler_path(30, 14, 1000) == "exact"


def ref_fisher(fam, theta):
    """Cov(T) by total covariance over the visible states: Cov_x(E[T | x])
    plus E_x[Cov(T | x)], where h_j enters T only as h_j (1, x)."""
    X, probs, PH, _ = ref_table(fam, theta)
    nx, nh = fam.n_x, fam.n_h
    U = np.concatenate([X, PH, np.einsum("ri,rj->rij", X, PH).reshape(len(X), -1)], axis=1)
    U -= probs @ U
    cov = (U * probs[:, None]).T @ U
    xx = np.concatenate([np.ones((len(X), 1)), X], axis=1)
    for j in range(nh):
        at = [nx + j] + [nx + nh + i * nh + j for i in range(nx)]
        cov[np.ix_(at, at)] += (xx * (probs * PH[:, j] * (1.0 - PH[:, j]))[:, None]).T @ xx
    return cov


# The joint quantities now sum over the smaller layer, in another order than
# the references: they agree to 1e-13 absolute.  The marginal KL still sums
# over the visible states and stays bit for bit.
@pytest.mark.parametrize("n_x, n_h", [(8, 1), (5, 2), (4, 3), (1, 1),
                                      (12, 3), (16, 1), (10, 5), (8, 8), (3, 9)])
def test_exact_quantities_match_reference_bit_for_bit(n_x, n_h):
    tp = tiny_params(n_x, n_h, seed=70).flat()
    tq = tiny_params(n_x, n_h, seed=71, scale=0.8).flat()
    joint, marg = JointRbmFamily(n_x, n_h), MarginalRbmFamily(n_x, n_h)
    for fam in (joint, marg):
        for theta in (tp, tq):
            assert abs(fam.log_partition(theta) - ref_table(fam, theta)[3]) <= 1e-13
            np.testing.assert_allclose(fam.exact_stats(theta), ref_stats(fam, theta),
                                       rtol=0, atol=1e-13)
    np.testing.assert_allclose(joint.fisher(tp), ref_fisher(joint, tp), rtol=0, atol=1e-13)
    assert abs(joint.exact_kl(tp, tq) - ref_joint_kl(joint, tp, tq)) <= 1e-13
    assert marg.exact_kl(tp, tq) == ref_marginal_kl(marg, tp, tq)


def test_paper_scale_fisher_is_the_kl_hessian():
    # 40 x 1, refused before hidden-side enumeration; the criterion-13(b) oracle
    fam = JointRbmFamily(40, 1)
    theta = substream(72, 0).normal(scale=0.4, size=fam.dim_theta)
    hess = _kl_hessian(lambda d: fam.exact_kl(theta + d, theta), theta.size)
    F = fam.fisher(theta)
    assert np.linalg.norm(hess - F) / np.linalg.norm(F) < 1e-4


def _flip_matrix(fam, j):
    """The hidden flip of unit j is linear in theta: its matrix A."""
    eye = np.eye(fam.dim_theta)
    return np.stack([flip_hidden_params(fam.unpack(e), j).flat() for e in eye], axis=1)


@given(data=st.data(), n_x=st.integers(1, 6), n_h=st.integers(1, 6))
def test_hidden_flip_equivariance_of_exact_quantities(data, n_x, n_h):
    # theta' = A theta relabels h_j -> 1 - h_j: P_theta'(x, flip h) = P_theta(x, h)
    fam = JointRbmFamily(n_x, n_h)
    j = data.draw(st.integers(0, n_h - 1))
    coords = st.floats(-3.0, 3.0, allow_nan=False)
    tp, tq = (np.array(data.draw(st.lists(coords, min_size=fam.dim_theta,
                                          max_size=fam.dim_theta)))
              for _ in range(2))
    A = _flip_matrix(fam, j)
    np.testing.assert_array_equal(A @ A, np.eye(fam.dim_theta))  # an involution
    fp, fq = A @ tp, A @ tq
    b_j = fam.unpack(tp).b[j]
    assert abs(fam.log_partition(fp) - (fam.log_partition(tp) - b_j)) <= 1e-12
    assert abs(fam.exact_kl(fp, fq) - fam.exact_kl(tp, tq)) <= 1e-12
    # T(x, flip h) = A^T T(x, h) + e_{h_j}, so E[T] and Cov(T) move with A^T
    shift = np.zeros(fam.dim_theta)
    shift[n_x + j] = 1.0
    np.testing.assert_allclose(fam.exact_stats(fp), A.T @ fam.exact_stats(tp) + shift,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(fam.fisher(fp), A.T @ fam.fisher(tp) @ A, rtol=0, atol=1e-12)


def ref_stats_rows(x, h):
    """(x, h, x (x) h) row by row, as an einsum and a concatenation."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    xh = np.einsum("ri,rj->rij", x, h).reshape(x.shape[0], -1)
    return np.concatenate([x, h, xh], axis=1)


@pytest.mark.parametrize("n_x, n_h", [(16, 1), (5, 3), (3, 6), (12, 3)])
@pytest.mark.parametrize("kind", ["uint8", "float", "list", "real"])
def test_stats_rows_match_the_einsum_form_bit_for_bit(n_x, n_h, kind):
    theta = tiny_params(n_x, n_h, seed=90).flat()
    joint, marg = JointRbmFamily(n_x, n_h), MarginalRbmFamily(n_x, n_h)
    x, h = joint.sample(theta, 40, substream(90, 1))
    if kind == "real":  # not bits: the products must still be the same roundings
        rng = substream(90, 2)
        x, h = rng.normal(size=x.shape), rng.random(h.shape)
    x, h = {"uint8": (x, h), "float": (x.astype(float), h.astype(float)),
            "list": (x.tolist(), h.tolist()), "real": (x, h)}[kind]
    omega = substream(90, 3).random(40)
    joint_ref = ref_stats_rows(x, h)
    marg_ref = ref_stats_rows(x, marg.p_hidden_given_visible(theta, x))
    for got, want in [(joint.sufficient_stats((x, h)), joint_ref),
                      (joint.score_stats(theta, (x, h)), joint_ref),
                      (marg.score_stats(theta, x), marg_ref),
                      (lift_noisy(joint).sufficient_stats(((x, h), omega)), joint_ref),
                      (lift_noisy(joint).score_stats(theta, ((x, h), omega)), joint_ref),
                      (lift_noisy(marg).score_stats(theta, (x, omega)), marg_ref)]:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_x, n_h", [(16, 1), (5, 3), (3, 6)])
@pytest.mark.parametrize("kind", ["uint8", "float", "list"])
def test_joint_fisher_rows_are_the_statistics_as_column_major_bits(n_x, n_h, kind):
    theta = tiny_params(n_x, n_h, seed=92).flat()
    joint = JointRbmFamily(n_x, n_h)
    x, h = joint.sample(theta, 40, substream(92, 1))
    want = ref_stats_rows(x, h)
    x, h = {"uint8": (x, h), "float": (x.astype(float), h.astype(float)),
            "list": (x.tolist(), h.tolist())}[kind]
    omega = substream(92, 2).random(40)
    for got in (joint.fisher_rows(theta, (x, h)),
                lift_noisy(joint).fisher_rows(theta, ((x, h), omega))):
        assert got.dtype == np.uint8 and got.flags.f_contiguous
        np.testing.assert_array_equal(got, want)


def ref_one_shot(fam, theta, n, rng):
    """Exact draws that compare the larger layer's raw words with its
    thresholds in one (n, width) array: the reference for the blocks."""
    H, probs, PX, _ = fam._hidden_table(theta)
    raw = rng.bit_generator.random_raw
    k = np.searchsorted(np.cumsum(probs), rng.random(n), side="right")
    np.minimum(k, len(H) - 1, out=k)
    other = (raw((n, PX.shape[1])) <= rbm_module._thresholds(PX)[k]).astype(np.uint8)
    small = H[k].astype(np.uint8)
    return (other, small) if fam.n_x >= fam.n_h else (small, other)


@pytest.mark.parametrize("n_x, n_h", [(16, 1), (3, 5), (7, 7)])  # (3, 5) draws h in blocks
@pytest.mark.parametrize("block_words", [rbm_module.DRAW_BLOCK_WORDS, 3])
def test_blocked_draws_match_the_one_shot_draws_bit_for_bit(monkeypatch, n_x, n_h,
                                                             block_words):
    monkeypatch.setattr(rbm_module, "DRAW_BLOCK_WORDS", block_words)
    block = max(1, block_words // max(n_x, n_h))  # rows per block
    theta = tiny_params(n_x, n_h, seed=93, scale=1.0).flat()
    for n in sorted({1, max(1, block - 1), block, block + 1, 3 * block + 5}):
        for fam in (JointRbmFamily(n_x, n_h), MarginalRbmFamily(n_x, n_h)):
            want = ref_one_shot(fam, theta, n, substream(93, n))
            got = fam.sample(theta, n, substream(93, n))
            if isinstance(fam, MarginalRbmFamily):
                want = want[:1]
                got = (got,)
            for g, w in zip(got, want):
                assert g.dtype == np.uint8
                np.testing.assert_array_equal(g, w)
