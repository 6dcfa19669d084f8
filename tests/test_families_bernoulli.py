import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import xlogy

from igopt import igo_step, substream, truncation
from igopt.families import BernoulliFamily, CapabilityError, DomainError, LogitBernoulliFamily
from igopt.fisher import exact_fisher


def test_grad_and_fisher_hand_values():
    fam = BernoulliFamily(1)
    theta = np.array([0.5])
    assert fam.grad_log_density(theta, [[1]])[0, 0] == 2.0
    assert fam.grad_log_density(theta, [[0]])[0, 0] == -2.0
    assert fam.fisher(theta)[0, 0] == 4.0


def test_from_expectation_forgives_round_off_only():
    fam = BernoulliFamily(3)
    # a renormalized weighted average of a column of ones can land on 1 + 2^-52
    clipped = fam.from_expectation([1.0 + 2.0**-52, -(2.0**-53), 0.5])
    np.testing.assert_array_equal(clipped, [1.0 - 1e-6, 1e-6, 0.5])
    for bad in ([1.1, 0.5, 0.5], [0.5, -0.5, 0.5], [0.5, 0.5, 1.0 + 1e-12]):
        with pytest.raises(DomainError):
            fam.from_expectation(bad)


def test_fisher_hand_values_d2():
    fam = BernoulliFamily(2)
    F = fam.fisher(np.array([0.5, 0.2]))
    np.testing.assert_allclose(np.diag(F), [4.0, 6.25])
    assert F[0, 1] == 0.0


def test_score_is_centered_by_enumeration():
    fam = BernoulliFamily(3)
    theta = np.array([0.3, 0.5, 0.9])
    pts = fam.enumerate_points()
    probs = np.exp(fam.log_density(theta, pts))
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-14)
    mean_grad = probs @ fam.grad_log_density(theta, pts)
    np.testing.assert_allclose(mean_grad, 0.0, atol=1e-12)


def test_boundary_raises_domain_error():
    fam = BernoulliFamily(1)
    with pytest.raises(DomainError):
        fam.fisher(np.array([1.0]))
    with pytest.raises(DomainError):
        fam.grad_log_density(np.array([0.0]), [[0]])


def test_expectation_round_trip_and_projection():
    fam = BernoulliFamily(4)
    theta = np.array([0.2, 0.5, 0.7, 0.999])
    np.testing.assert_array_equal(fam.from_expectation(fam.to_expectation(theta)), theta)
    clipped = fam.project(np.array([0.0, 1.0, 0.5, 2e-7]))
    assert np.all(clipped > 0.0) and np.all(clipped < 1.0)


def test_igo_update_closed_form_hand_example():
    fam = BernoulliFamily(2)
    theta = np.array([0.5, 0.5])
    best = np.array([[1, 0]])
    out = igo_step(fam, theta, best, np.array([1.0]), dt=0.1)
    np.testing.assert_allclose(out, [0.55, 0.45])
    unchanged = igo_step(fam, theta, best, np.array([0.0]), dt=0.1)
    np.testing.assert_array_equal(unchanged, theta)


def test_generic_step_matches_closed_form_update():
    # Eq. check: the generic natural-gradient engine specializes to the
    # probability-coordinate blend on Bernoulli families.
    fam = BernoulliFamily(3)
    rng = substream(7, 0)
    theta = np.array([0.5, 0.5, 0.5])
    samples = fam.sample(theta, 4, rng)
    vals = (3 - samples.sum(axis=1)).astype(float)
    from igopt import compute_quantile_weights
    rw = compute_quantile_weights(vals, truncation(0.5))
    via_engine = igo_step(fam, theta, samples, rw, dt=0.1, fisher=exact_fisher(fam, theta))
    via_formula = fam.natural_step(theta, samples, rw.weights, 0.1)
    np.testing.assert_allclose(via_engine, via_formula, rtol=1e-13, atol=1e-15)


def test_logit_family_against_probability_family():
    d = 3
    prob = BernoulliFamily(d)
    logit = LogitBernoulliFamily(d)
    p = np.array([0.3, 0.5, 0.8])
    t = logit.from_probabilities(p)
    np.testing.assert_allclose(logit.mean(t), p, atol=1e-12)
    pts = prob.enumerate_points()
    np.testing.assert_allclose(logit.log_density(t, pts), prob.log_density(p, pts),
                               atol=1e-12)
    np.testing.assert_allclose(np.diag(logit.fisher(t)), p * (1 - p), atol=1e-12)
    assert logit.fisher(np.zeros(1) if d == 1 else np.zeros(d))[0, 0] == pytest.approx(0.25)


def test_logit_score_identity_vs_finite_differences():
    # exponential-family identity: score = x - E x; checked against an
    # independent finite-difference of the log-density
    fam = LogitBernoulliFamily(2)
    t = np.array([0.4, -1.1])
    x = np.array([[1, 0], [0, 1], [1, 1]])
    g = fam.grad_log_density(t, x)
    eps = 1e-6
    for i in range(2):
        tp, tm = t.copy(), t.copy()
        tp[i] += eps
        tm[i] -= eps
        fd = (fam.log_density(tp, x) - fam.log_density(tm, x)) / (2 * eps)
        np.testing.assert_allclose(g[:, i], fd, atol=1e-8)


def test_theta_vs_logit_steps_differ_at_second_order():
    # one shared batch; the two parametrizations' steps, mapped to common
    # coordinates, differ by O(dt^2): halving dt shrinks the gap ~4x
    prob = BernoulliFamily(3)
    logit = LogitBernoulliFamily(3)
    rng = substream(42, 0)
    theta = np.array([0.35, 0.5, 0.7])
    samples = prob.sample(theta, 64, rng)
    vals = (3 - samples.sum(axis=1)).astype(float)
    from igopt import compute_quantile_weights
    rw = compute_quantile_weights(vals, truncation(0.5))
    gaps = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        in_prob = igo_step(prob, theta, samples, rw, dt)
        in_logit = igo_step(logit, logit.from_probabilities(theta), samples, rw, dt)
        gaps.append(np.linalg.norm(in_prob - logit.mean(in_logit)))
    ratios = [gaps[i] / gaps[i + 1] for i in range(3)]
    for r in ratios:
        assert 2.0 < r < 8.0  # 4x within a factor of 2


def test_log_density_matches_xlogy_form_bit_for_bit():
    # frozen reference: two xlogy passes over the whole point matrix
    fam = BernoulliFamily(6)
    pts = fam.enumerate_points()   # includes the all-zeros point
    rng = substream(90, 0)
    thetas = [rng.random(6), np.full(6, 0.5),
              np.array([0.0, 1.0, 0.3, 0.0, 1.0, 0.9]),   # exact corners
              np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])]
    for theta in thetas:
        x = pts.astype(float)
        ref = xlogy(x, theta).sum(axis=1) + xlogy(1.0 - x, 1.0 - theta).sum(axis=1)
        np.testing.assert_array_equal(fam.log_density(theta, pts), ref)
    assert fam.log_density(thetas[3], pts)[0b000111] == 0.0
    assert fam.log_density(thetas[3], pts)[0] == -np.inf


# a probability, with exact 0, -0.0 and 1 drawn often
_PROBABILITY = st.one_of(st.just(0.0), st.just(-0.0), st.just(1.0), st.floats(0.0, 1.0))


def product_masses(theta):
    """Frozen reference: row k is the product, in bit order, of theta_i where
    bit i of k is on and 1 - theta_i where it is off (-0.0 read as +0.0)."""
    theta = [t + 0.0 for t in theta]
    return np.array([math.prod(t if k >> i & 1 else 1.0 - t for i, t in enumerate(theta))
                     for k in range(2 ** len(theta))])


@given(st.integers(1, 10).flatmap(lambda d: st.lists(_PROBABILITY, min_size=d, max_size=d)))
def test_enumerated_probs_are_the_products_in_bit_order_bit_for_bit(theta):
    got = BernoulliFamily(len(theta)).enumerated_probs(np.array(theta))
    np.testing.assert_array_equal(got.view(np.uint64), product_masses(theta).view(np.uint64))
    assert not np.signbit(got).any()  # no -0.0, whatever the sign of a zero theta_i


@given(st.integers(1, 12).flatmap(lambda d: st.lists(_PROBABILITY, min_size=d, max_size=d)))
def test_enumerated_probs_match_the_exponentiated_xlogy_row_sums(theta):
    # frozen reference: the former log form, two xlogy passes over
    # independently built bit rows, exponentiated.  Its exp rounds ln P's
    # error, which grows with |ln P|, so the bound does too.
    theta = np.array(theta)
    d = theta.size
    x = ((np.arange(2**d)[:, None] >> np.arange(d)) & 1).astype(float)
    log_ref = xlogy(x, theta).sum(axis=1) + xlogy(1.0 - x, 1.0 - theta).sum(axis=1)
    ref = np.exp(log_ref)
    got = BernoulliFamily(d).enumerated_probs(theta)
    np.testing.assert_array_equal(got == 0.0, ref == 0.0)
    normal = ref >= np.finfo(float).tiny
    bound = 4.0 * (d + np.abs(log_ref[normal])) * np.finfo(float).eps
    assert np.all(np.abs(got[normal] - ref[normal]) <= bound * ref[normal])
    assert abs(math.fsum(got) - 1.0) <= 1e-14


@pytest.mark.parametrize("theta", [[0.5, 1.125, 0.5], [-1e-300, 0.5, 0.5],
                                   [0.5, np.nan, 0.5], [np.inf, 0.5, 0.5]])
def test_enumerated_probs_refuse_theta_outside_the_unit_interval(theta):
    # an RK4 stage can overshoot [0, 1]; its products would look like masses
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        BernoulliFamily(3).enumerated_probs(np.array(theta))


def test_enumeration_is_built_once_and_read_only():
    fam = BernoulliFamily(5)
    pts = fam.enumerate_points()
    assert fam.enumerate_points() is pts
    assert pts.dtype == float and not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    logit = LogitBernoulliFamily(5)
    assert logit.enumerate_points() is logit.enumerate_points()
    # the logit family keeps its own masses through the base-class hook
    theta = substream(91, 0).normal(size=5)
    np.testing.assert_array_equal(logit.enumerated_probs(theta),
                                  np.exp(logit.log_density(theta, logit.enumerate_points())))
    big = BernoulliFamily(23)
    for call in (big.enumerate_points, lambda: big.enumerated_probs(np.full(23, 0.5))):
        with pytest.raises(CapabilityError):
            call()
