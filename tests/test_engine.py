import math

import numpy as np
import pytest

from igopt import (
    adapt_dt,
    cem_step,
    compute_quantile_weights,
    igo_ml_step,
    igo_step,
    lift_noisy,
    smoothed_cem_step,
    step_diagnostics,
    substream,
    truncation,
    vanilla_step,
    weighted_ml,
)
from igopt.engine import StepReport
from igopt.families import (
    BernoulliFamily,
    CapabilityError,
    DegenerateUpdate,
    FullGaussianFamily,
    GaussianParams,
)
from igopt.fisher import exact_fisher


def test_igo_step_hand_example_bernoulli():
    # theta 0.5, one sample x=1 with unit weight, dt=0.1:
    # I^-1 = 0.25, grad = 2 -> theta' = 0.55
    fam = BernoulliFamily(1)
    out = igo_step(fam, np.array([0.5]), np.array([[1]]), np.array([1.0]), 0.1)
    np.testing.assert_allclose(out, [0.55])
    # the generic Fisher-solve path gives the same number
    out2 = igo_step(fam, np.array([0.5]), np.array([[1]]), np.array([1.0]), 0.1,
                    fisher=exact_fisher(fam, np.array([0.5])))
    np.testing.assert_allclose(out2, [0.55], rtol=1e-14)


def test_zero_weights_leave_theta_unchanged():
    fam = BernoulliFamily(2)
    theta = np.array([0.3, 0.7])
    samples = np.array([[1, 0], [0, 1]])
    out = igo_step(fam, theta, samples, np.zeros(2), 0.5)
    np.testing.assert_array_equal(out, theta)


def test_closed_form_and_solve_paths_agree():
    fam = BernoulliFamily(4)
    rng = substream(41, 0)
    theta = rng.uniform(0.2, 0.8, size=4)
    samples = fam.sample(theta, 16, rng)
    vals = samples.sum(axis=1).astype(float)
    rw = compute_quantile_weights(vals, truncation(0.5))
    a = igo_step(fam, theta, samples, rw, 0.05)
    b = igo_step(fam, theta, samples, rw, 0.05, fisher=exact_fisher(fam, theta))
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_igo_ml_hand_example_one_dim_gaussian():
    # prior (mu, sigma^2) = (0, 1); elite mean 1, elite variance 0; dt = 1/2:
    # new mu = 0.5, new sigma^2 = 0.5*1 + 0.5*0 + 0.5*0.5*1 = 0.75
    fam = FullGaussianFamily(1)
    theta = fam.pack(GaussianParams(np.zeros(1), np.eye(1)))
    samples = np.array([[1.0], [1.0]])
    w = np.array([0.5, 0.5])
    out = fam.unpack(igo_ml_step(fam, theta, samples, w, 0.5))
    assert out.m[0] == pytest.approx(0.5)
    assert out.C[0, 0] == pytest.approx(0.75)


def test_igo_ml_renormalizes_weights():
    fam = BernoulliFamily(2)
    theta = np.array([0.5, 0.5])
    samples = np.array([[1, 1], [0, 0], [1, 0]])
    w = np.array([0.25, 0.25, 0.0])
    np.testing.assert_array_equal(igo_ml_step(fam, theta, samples, w, 0.5),
                                  igo_ml_step(fam, theta, samples, 2.0 * w, 0.5))
    np.testing.assert_allclose(igo_ml_step(fam, theta, samples, w, 1.0), [0.5, 0.5])
    with pytest.raises(ValueError, match="sum to zero"):
        igo_ml_step(fam, theta, samples, np.zeros(3), 0.5)


def test_igo_ml_at_dt_one_is_cem():
    fam = FullGaussianFamily(2)
    rng = substream(42, 0)
    theta = fam.pack(GaussianParams(np.zeros(2), np.eye(2)))
    samples = fam.sample(theta, 40, rng)
    vals = (samples**2).sum(axis=1)
    n_elite = 10
    order = np.argsort(vals, kind="stable")
    w = np.zeros(40)
    w[order[:n_elite]] = 1.0 / n_elite
    jump = igo_ml_step(fam, theta, samples, w, 1.0)
    ml = cem_step(fam, samples, vals, elite_fraction=0.25)
    np.testing.assert_allclose(jump, ml, rtol=1e-12)


def test_cem_is_elite_mean_covariance_for_gaussians():
    fam = FullGaussianFamily(2)
    rng = substream(43, 0)
    samples = rng.normal(size=(20, 2))
    vals = samples[:, 0]
    out = fam.unpack(cem_step(fam, samples, vals, 0.5))
    elite = samples[np.argsort(vals, kind="stable")[:10]]
    np.testing.assert_allclose(out.m, elite.mean(axis=0), rtol=1e-12)
    dev = elite - elite.mean(axis=0)
    np.testing.assert_allclose(out.C, dev.T @ dev / 10, rtol=1e-10)


def test_cem_degenerate_elite_raises():
    fam = FullGaussianFamily(1)
    samples = np.array([[2.0], [2.0], [3.0], [4.0]])
    with pytest.raises(DegenerateUpdate):
        cem_step(fam, samples, np.array([0.0, 0.0, 1.0, 2.0]), 0.5)


def test_smoothed_cem_hand_example_and_alpha_one():
    # elite stats mu*=1, sigma*^2 = 0.04; prior (0, 1); alpha = 1/2 in
    # mean/covariance coordinates -> mu' = 0.5, sigma^2' = 0.52
    fam = FullGaussianFamily(1)
    theta = fam.pack(GaussianParams(np.zeros(1), np.eye(1)))
    samples = np.array([[0.8], [1.2]])
    w = np.array([0.5, 0.5])
    out = fam.unpack(smoothed_cem_step(fam, theta, samples, w, 0.5, "natural"))
    assert out.m[0] == pytest.approx(0.5)
    assert out.C[0, 0] == pytest.approx(0.52)
    for coords in ("natural", "expectation"):
        full = smoothed_cem_step(fam, theta, samples, w, 1.0, coords)
        np.testing.assert_allclose(full, weighted_ml(fam, samples, w), rtol=1e-12)
    with pytest.raises(ValueError, match="unknown parametrization"):
        smoothed_cem_step(fam, theta, samples, w, 0.5, "mean_cov")


def test_triple_equality_in_expectation_coordinates():
    # natural-gradient step, ML blend, and smoothed CEM coincide in
    # expectation coordinates when weights sum to one
    from igopt.families import GaussianExpectationFamily
    rng = substream(44, 0)
    fam = GaussianExpectationFamily(1)
    for _ in range(20):
        mu, var = rng.normal(), rng.uniform(0.5, 2.0)
        theta = np.array([mu, var + mu * mu])
        samples = mu + math.sqrt(var) * rng.normal(size=(12, 1))
        vals = samples[:, 0]
        w = compute_quantile_weights(vals, truncation(0.5)).normalized()
        dt = 0.3
        a = igo_step(fam, theta, samples, w, dt, fisher=exact_fisher(fam, theta))
        b = igo_ml_step(fam, theta, samples, w, dt)
        c = smoothed_cem_step(fam, theta, samples, w, dt, "expectation")
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(b, c, rtol=1e-12, atol=1e-12)


def test_weight_shift_leaves_expected_update_unchanged():
    # adding a constant to w changes single updates but not their mean:
    # over R batches the mean difference shrinks like 1/sqrt(R)
    fam = BernoulliFamily(3)
    theta = np.array([0.4, 0.5, 0.6])
    n, repeats = 16, 10000
    rng = substream(45, 0)
    scheme = truncation(0.5)
    shifted = scheme.shifted(0.8)
    diffs = np.zeros((repeats, 3))
    singles = np.zeros(repeats)
    for r in range(repeats):
        samples = fam.sample(theta, n, rng)
        vals = samples.sum(axis=1).astype(float)
        base = igo_step(fam, theta, samples, compute_quantile_weights(vals, scheme), 0.1)
        moved = igo_step(fam, theta, samples, compute_quantile_weights(vals, shifted), 0.1)
        diffs[r] = moved - base
        singles[r] = np.linalg.norm(moved - base)
    mean_diff = np.linalg.norm(diffs.mean(axis=0))
    typical = singles.mean()
    # mean shrinks like 1/sqrt(R) while a single difference does not
    assert mean_diff < 5.0 * typical / math.sqrt(repeats)
    assert typical > 1e-3


def test_step_diagnostics_exact_kl_hand_value():
    # d=1 Bernoulli 0.5 -> 0.55: KL = 0.5 ln(0.5/0.55) + 0.5 ln(0.5/0.45)
    fam = BernoulliFamily(1)
    rep = step_diagnostics(fam, np.array([0.5]), np.array([0.55]))
    expected = 0.5 * math.log(0.5 / 0.55) + 0.5 * math.log(0.5 / 0.45)
    assert rep.kl_estimate == pytest.approx(expected, rel=1e-12)
    assert rep.kl_estimate == pytest.approx(0.0050251679, abs=1e-9)
    assert rep.kl_stderr == 0.0
    assert rep.fisher_step_norm == pytest.approx(math.sqrt(0.05**2 * 4.0))


class _NoClosedFormKl(FullGaussianFamily):
    def exact_kl(self, theta_p, theta_q):
        raise CapabilityError("no closed-form KL")


def test_step_diagnostics_monte_carlo_kl():
    fam = _NoClosedFormKl(1)
    t0 = fam.pack(GaussianParams(np.zeros(1), np.eye(1)))
    t1 = fam.pack(GaussianParams(np.array([0.1]), np.eye(1)))
    samples = fam.sample(t0, 40000, substream(46, 0))
    rep = step_diagnostics(fam, t0, t1, samples=samples)
    exact = 0.5 * 0.1**2  # KL between unit normals shifted by 0.1
    assert 0.0 < rep.kl_stderr
    assert abs(rep.kl_estimate - exact) <= 3.5 * rep.kl_stderr + 1e-4
    # without samples the estimate is NaN
    rep = step_diagnostics(fam, t0, t1)
    assert math.isnan(rep.kl_estimate)
    # the plain family answers in closed form
    rep = step_diagnostics(FullGaussianFamily(1), t0, t1, samples=samples)
    assert rep.kl_estimate == pytest.approx(exact, rel=1e-12)
    assert rep.kl_stderr == 0.0


def test_cosine_and_adapt_dt():
    fam = BernoulliFamily(2)
    t0 = np.array([0.5, 0.5])
    t1 = np.array([0.55, 0.52])
    delta = t1 - t0
    rep = step_diagnostics(fam, t0, t1, previous_step=delta)
    assert rep.cosine_with_previous == pytest.approx(1.0)
    rep_back = step_diagnostics(fam, t0, t1, previous_step=-delta)
    assert rep_back.cosine_with_previous == pytest.approx(-1.0)
    beta = 0.5
    assert adapt_dt(rep, 0.2, beta) == pytest.approx(0.2 * math.exp(beta / 2))
    assert adapt_dt(rep_back, 0.2, beta) == pytest.approx(0.2 * math.exp(-beta / 2))
    none_rep = StepReport(0.0, 0.0, 0.0, None)
    assert adapt_dt(none_rep, 0.2, beta) == 0.2


def test_zero_length_step_has_no_cosine():
    fam = BernoulliFamily(1)
    rep = step_diagnostics(fam, np.array([0.5]), np.array([0.5]),
                           previous_step=np.array([0.01]))
    assert rep.cosine_with_previous is None
    assert rep.fisher_step_norm == 0.0


def test_vanilla_step_is_unpreconditioned():
    fam = BernoulliFamily(1)
    out = vanilla_step(fam, np.array([0.5]), np.array([[1]]), np.array([1.0]), 0.1)
    np.testing.assert_allclose(out, [0.5 + 0.1 * 2.0])


def test_lifted_family_properties():
    fam = BernoulliFamily(3)
    lifted = lift_noisy(fam)
    theta = np.array([0.3, 0.5, 0.7])
    rng = substream(47, 0)
    x, omega = lifted.sample(theta, 5, rng)
    assert x.shape == (5, 3) and omega.shape == (5,)
    g = lifted.grad_log_density(theta, (x, omega))
    np.testing.assert_array_equal(g, fam.grad_log_density(theta, x))
    np.testing.assert_array_equal(lifted.fisher(theta), fam.fisher(theta))
    assert lifted.dim_theta == fam.dim_theta


def test_lifted_coupling_short():
    # same substream, same draw order: noisy path and lifted path agree
    # bit for bit (the full 50-step version lives in the acceptance suite)
    from igopt import objectives
    fam = BernoulliFamily(4)
    lifted = lift_noisy(fam)
    base_obj = objectives.onemax(4)
    noisy_obj = objectives.add_noise(base_obj, "uniform", scale=0.5)
    theta_a = np.full(4, 0.5)
    theta_b = theta_a.copy()
    for step in range(5):
        rng_a = substream(99, step)
        samples = fam.sample(theta_a, 8, rng_a)
        vals_a = objectives.evaluate(noisy_obj, samples, rng_a)
        rw_a = compute_quantile_weights(vals_a, truncation(0.5))
        theta_a = igo_step(fam, theta_a, samples, rw_a, 0.1)

        rng_b = substream(99, step)
        pair = lifted.sample(theta_b, 8, rng_b)
        vals_b = objectives.noisy_value(noisy_obj, pair[0], pair[1])
        rw_b = compute_quantile_weights(vals_b, truncation(0.5))
        theta_b = igo_step(lifted, theta_b, pair, rw_b, 0.1)
    np.testing.assert_array_equal(theta_a, theta_b)


def test_fisher_estimate_can_replace_exact_in_step():
    from igopt.fisher import mc_fisher
    fam = BernoulliFamily(2)
    theta = np.array([0.4, 0.6])
    rng = substream(48, 0)
    samples = fam.sample(theta, 32, rng)
    vals = samples.sum(axis=1).astype(float)
    rw = compute_quantile_weights(vals, truncation(0.5))
    est = mc_fisher(fam, theta, 5000, substream(48, 1))
    stepped = igo_step(fam, theta, samples, rw, 0.1, fisher=est)
    exact = igo_step(fam, theta, samples, rw, 0.1, fisher=exact_fisher(fam, theta))
    assert np.linalg.norm(stepped - exact) < 0.05


def test_infinitesimal_weighted_ml_is_the_natural_gradient():
    # the argmax of (1 - eps) * E_{P0}[ln P] + eps * sum_i W_i ln P(x_i)
    # equals theta0 + eps * sum_i W_i (natural-gradient score) + O(eps^2);
    # for Bernoulli probabilities the argmax has the closed form
    # ((1 - eps) theta0 + eps sum W x) / (1 - eps + eps sum W)
    fam = BernoulliFamily(3)
    rng = substream(49, 0)
    theta0 = np.array([0.3, 0.55, 0.7])
    samples = fam.sample(theta0, 12, rng)
    w = rng.uniform(0.0, 1.0, size=12)
    nat_sum = w @ fam.natural_grad_log_density(theta0, samples)

    def argmax(eps):
        num = (1 - eps) * theta0 + eps * (w @ samples.astype(float))
        return num / (1 - eps + eps * w.sum())

    def remainder(eps):
        return np.linalg.norm(argmax(eps) - (theta0 + eps * nat_sum))

    r1, r2, r3 = remainder(0.02), remainder(0.01), remainder(0.005)
    assert 2.0 < r1 / r2 < 8.0
    assert 2.0 < r2 / r3 < 8.0
