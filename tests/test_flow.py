import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy.special import ndtri
from scipy.stats import ncx2

import igopt.flow as flow_module
from igopt import compute_quantile_weights, igo_step, substream, truncation
from igopt.families import BernoulliFamily, DomainError
from igopt.flow import (
    SphereFlow,
    _ncx2_ppf,
    batch_quantile,
    critical_dt,
    exact_weight,
    exact_weights_all,
    f_quantile,
    flow_rhs,
    gaussian_linear_constants,
    integrate,
)
from igopt.normal import Phi_inv, phi
from igopt.objectives import PHI_REGISTRY, evaluate, linear, monotone_transform, onemax, two_min
from igopt.weights import WeightScheme, signed_median, table


def two_point_objective(dim=1):
    # f(x) = 1 - x on one bit: x = 1 is the good point
    return linear(np.ones(dim), 1.0, space="bits")


def reference_exact_weights(family, theta, objective, scheme):
    """The per-group loop the vectorized exact weights replace."""
    points = family.enumerate_points()
    probs = family.enumerated_probs(theta)
    values = evaluate(objective, family.points_of(points))
    w = np.empty_like(values)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    sorted_probs = probs[order]
    boundaries = np.nonzero(np.diff(sorted_vals))[0] + 1
    start = 0
    cum = 0.0
    for stop in list(boundaries) + [len(sorted_vals)]:
        mass = sorted_probs[start:stop].sum()
        q_minus, q_plus = cum, min(1.0, cum + mass)
        if mass > 0.0:
            w_val = scheme.integral(q_minus, q_plus) / (q_plus - q_minus)
        else:
            w_val = scheme(q_plus)
        w[order[start:stop]] = w_val
        cum = q_plus
        start = stop
    return w


@pytest.mark.parametrize("scheme", [truncation(0.3), truncation(0.45, shift=-0.2),
                                    signed_median(0.1),
                                    table([(0.0, 2.0), (0.25, 1.0), (0.6, -0.5)], shift=0.3)])
def test_exact_weights_match_per_group_loop_bit_for_bit_on_binval(scheme):
    # BinVal weighs bit i by 2**-i: every point is its own value group
    d = 8
    fam = BernoulliFamily(d)
    obj = linear(2.0 ** -np.arange(d), space="bits")
    theta = substream(65, 0).uniform(0.05, 0.95, size=d)
    _, _, values, w = exact_weights_all(fam, theta, obj, scheme)
    assert np.unique(values).size == values.size
    np.testing.assert_array_equal(w, reference_exact_weights(fam, theta, obj, scheme))


def test_exact_weights_all_matches_exact_weight_on_tied_onemax():
    d = 10
    fam = BernoulliFamily(d)
    obj = onemax(d)
    rng = substream(66, 0)
    for scheme in (truncation(0.3), signed_median(0.2), truncation(0.6, shift=0.5)):
        theta = rng.uniform(0.05, 0.95, size=d)
        points, _, _, w = exact_weights_all(fam, theta, obj, scheme)
        per_point = [exact_weight(fam, theta, obj, scheme, x) for x in points[::37]]
        np.testing.assert_allclose(w[::37], per_point, rtol=1e-12, atol=1e-15)


def test_exact_weights_degenerate_group_gets_w_at_its_quantile():
    # the points with the middle bit set carry mass ~1e-17, too small to
    # move the running quantile: they take w(q+) instead of 0/0
    fam = BernoulliFamily(3)
    obj = linear(2.0 ** -np.arange(3), space="bits")
    scheme = truncation(0.3)
    theta = np.array([0.5, 1e-17, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points, _, _, w = exact_weights_all(fam, theta, obj, scheme)
        rhs = flow_rhs(fam, theta, obj, scheme)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(rhs))
    per_point = [exact_weight(fam, theta, obj, scheme, x) for x in points]
    np.testing.assert_allclose(w, per_point, rtol=1e-12)


def test_exact_weight_two_point_hand_values():
    fam = BernoulliFamily(1)
    theta = np.array([0.4])
    scheme = truncation(0.5)
    w1 = exact_weight(fam, theta, two_point_objective(), scheme, np.array([1]))
    w0 = exact_weight(fam, theta, two_point_objective(), scheme, np.array([0]))
    assert w1 == pytest.approx(1.0)
    assert w0 == pytest.approx((0.5 - 0.4) / 0.6)


def test_expected_weight_is_scheme_mean_for_any_theta_and_f():
    rng = substream(61, 0)
    fam = BernoulliFamily(4)
    obj = onemax(4)  # many ties
    for k in range(10):
        theta = rng.uniform(0.05, 0.95, size=4)
        scheme = truncation(rng.uniform(0.1, 0.9)) if k % 2 else truncation(0.5, shift=0.3)
        _, probs, _, w = exact_weights_all(fam, theta, obj, scheme)
        assert probs @ w == pytest.approx(scheme.mean(), abs=1e-12)


def test_increasing_transform_leaves_exact_weight_unchanged():
    fam = BernoulliFamily(3)
    theta = np.array([0.3, 0.6, 0.5])
    scheme = truncation(0.5)
    obj = onemax(3)
    _, _, _, w_base = exact_weights_all(fam, theta, obj, scheme)
    _, _, _, w_tr = exact_weights_all(
        fam, theta, monotone_transform(obj, "scaled_shift"), scheme)
    np.testing.assert_array_equal(w_base, w_tr)


# a probability, with entries at or within 1e-6 of 0 and 1 drawn often
_PROBABILITY = st.one_of(st.floats(0.0, 1e-6), st.floats(1.0 - 1e-6, 1.0), st.floats(0.0, 1.0))


def frozen_masked_exact_weights(family, theta, objective, scheme):
    """exact_weights_all as it was before its every-group-wide fast path:
    each group through the masks, the shift term always added."""
    values = evaluate(objective, family.enumerate_points())
    inverse = np.unique(values, return_inverse=True)[1]
    probs = family.enumerated_probs(theta)
    q_plus = np.minimum(1.0, np.cumsum(np.bincount(inverse, weights=probs)))
    q_minus = np.concatenate(([0.0], q_plus[:-1]))
    wide = q_plus > q_minus
    a, b = q_minus[wide], q_plus[wide]
    integral = 0.0
    for lo, hi, v in scheme._cells():
        if v:
            integral = integral + v * np.maximum(0.0, np.minimum(b, hi) - np.maximum(a, lo))
    integral = integral + scheme.shift * (b - a)
    w = np.empty_like(q_plus)
    w[wide] = integral / (q_plus - q_minus)[wide]
    w[~wide] = scheme(q_plus[~wide])
    return probs, w[inverse]


_SHIFT = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


@given(st.integers(1, 8).flatmap(lambda d: st.tuples(
           st.lists(st.one_of(st.just(0.0), st.just(1.0), _PROBABILITY),
                    min_size=d, max_size=d),
           st.lists(st.integers(0, 1), min_size=d, max_size=d))),
       st.sampled_from(["onemax", "binval", "two_min"]),
       st.one_of(st.builds(truncation, st.floats(0.01, 1.0), _SHIFT),
                 st.builds(signed_median, _SHIFT),
                 st.builds(lambda shift: table([(0.0, 2.0), (0.25, 1.0), (0.6, -0.5)], shift),
                           _SHIFT)))
def test_exact_weights_all_matches_the_masked_form_bit_for_bit(case, kind, scheme):
    # ties (onemax, two_min), distinct values (BinVal), and corners that
    # leave groups degenerate
    theta, y = (np.array(v) for v in case)
    d = theta.size
    objective = {"onemax": onemax(d), "binval": linear(2.0 ** -np.arange(d), space="bits"),
                 "two_min": two_min(y.astype(float))}[kind]
    family = BernoulliFamily(d)
    _, probs, _, w = exact_weights_all(family, theta, objective, scheme)
    ref_probs, ref_w = frozen_masked_exact_weights(family, theta, objective, scheme)
    np.testing.assert_array_equal(probs, ref_probs)
    np.testing.assert_array_equal(w, ref_w)


# dyadic probabilities: the running quantile then hits 0.25, 0.5 and 0.75
# exactly, with the zero-mass groups of theta_i = 0 or 1 sitting on them
_DYADIC = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=60)
@given(st.integers(12, 13).flatmap(lambda d: st.lists(st.one_of(_DYADIC, _PROBABILITY),
                                                      min_size=d, max_size=d)),
       st.sampled_from(["binval", "paired_bits", "onemax"]),
       st.one_of(st.builds(truncation, st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                                                 st.floats(0.01, 1.0)), _SHIFT),
                 st.builds(signed_median, _SHIFT),
                 st.builds(lambda v, shift: table([(0.0, 1.0), (0.25, v), (0.75, -1.0)], shift),
                           st.sampled_from([0.0, 0.5]), _SHIFT)))
def test_exact_weights_all_stop_the_running_quantile_to_the_masked_bits(theta, kind, scheme):
    # 2^12 or 2^13 groups (BinVal) and 2^11 + 1 or 2^12 + 1 tied pairs
    # (paired_bits), so the running quantile is summed over several chunks
    theta = np.array(theta)
    d = theta.size
    paired = np.concatenate((2.0 ** np.arange(d - 1), [1.0]))  # bits 0 and d-1 tie
    objective = {"binval": linear(2.0 ** -np.arange(d), space="bits"),
                 "paired_bits": linear(paired, space="bits"), "onemax": onemax(d)}[kind]
    family = BernoulliFamily(d)
    _, probs, _, w = exact_weights_all(family, theta, objective, scheme)
    ref_probs, ref_w = frozen_masked_exact_weights(family, theta, objective, scheme)
    np.testing.assert_array_equal(probs, ref_probs)
    np.testing.assert_array_equal(w.view(np.int64), ref_w.view(np.int64))  # signed zeros too


def test_truncation_sums_and_integrates_only_up_to_its_quantile(monkeypatch):
    # flow_binval's state: the running quantile ends in the chunk where it
    # passes 0.3, and integral sees the one cell that straddles 0.3
    d = 14
    family, scheme = BernoulliFamily(d), truncation(0.3)
    objective = linear(2.0 ** -np.arange(d), space="bits")
    theta = np.random.default_rng(1106).uniform(0.3, 0.7, d)
    summed, integrated = [], []
    running_quantiles, integral = flow_module._running_quantiles, WeightScheme.integral
    monkeypatch.setattr(flow_module, "_running_quantiles",
                        lambda *args: summed.append(running_quantiles(*args)) or summed[-1])
    monkeypatch.setattr(WeightScheme, "integral",
                        lambda self, a, b: integrated.append(np.size(a)) or integral(self, a, b))
    _, _, _, w = exact_weights_all(family, theta, objective, scheme)
    assert len(summed) == 1 and summed[0].size < 2**d and summed[0][-1] > 0.3
    assert sum(integrated) <= 1
    monkeypatch.undo()
    np.testing.assert_array_equal(w, frozen_masked_exact_weights(family, theta, objective, scheme)[1])


@st.composite
def _bits_objective(draw):
    """(d, objective) among onemax, two_min and a bits-linear f; integer-valued,
    so every PHI_REGISTRY transform keeps the values apart."""
    d = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["onemax", "two_min", "linear"]))
    if kind == "onemax":
        return d, onemax(d)
    if kind == "two_min":
        return d, two_min(np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                                   min_size=d, max_size=d))))
    alpha = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    return d, linear(np.array(alpha, dtype=float), draw(st.integers(-5, 5)), space="bits")


@given(_bits_objective(), st.data(), st.floats(0.01, 0.99))
def test_exact_weights_are_rank_invariant_bit_for_bit(case, data, q0):
    d, obj = case
    theta = np.array(data.draw(st.lists(_PROBABILITY, min_size=d, max_size=d)))
    fam, scheme = BernoulliFamily(d), truncation(q0)
    _, probs, values, w = exact_weights_all(fam, theta, obj, scheme)
    for name, phi in PHI_REGISTRY.items():
        _, probs_t, values_t, w_t = exact_weights_all(
            fam, theta, monotone_transform(obj, name), scheme)
        # the transformed objective has its own values, not its base's
        np.testing.assert_array_equal(values_t, phi(values))
        np.testing.assert_array_equal(probs_t, probs)
        np.testing.assert_array_equal(w_t, w)


@given(st.one_of(_bits_objective(),
                 st.integers(1, 10).map(lambda d: (d, linear(2.0 ** -np.arange(d), space="bits")))),
       st.data(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
def test_exact_weights_conserve_mass_over_ties(case, data, q0, shift):
    # heavily tied (onemax, two_min) and tie-free (BinVal) objectives among others
    d, obj = case
    theta = np.array(data.draw(st.lists(_PROBABILITY, min_size=d, max_size=d)))
    scheme = truncation(q0, shift=shift)
    _, probs, _, w = exact_weights_all(BernoulliFamily(d), theta, obj, scheme)
    assert abs(probs @ w - scheme.mean()) <= 1e-12


def test_value_groups_follow_in_place_edits_of_params():
    fam, theta, scheme = BernoulliFamily(4), np.full(4, 0.4), truncation(0.3)
    obj = linear(np.array([1.0, 2.0, 3.0, 4.0]), space="bits")
    exact_weights_all(fam, theta, obj, scheme)
    obj.params["alpha"][0] = 9.0
    points, _, values, w = exact_weights_all(fam, theta, obj, scheme)
    np.testing.assert_array_equal(values, evaluate(obj, points))
    np.testing.assert_array_equal(w, reference_exact_weights(fam, theta, obj, scheme))


def test_equal_objectives_share_one_cache_entry():
    fam, theta, scheme = BernoulliFamily(5), np.full(5, 0.3), truncation(0.3)
    alpha = 2.0 ** -np.arange(5)
    _, probs, first, _ = exact_weights_all(fam, theta, linear(alpha, space="bits"), scheme)
    _, _, second, _ = exact_weights_all(fam, theta, linear(alpha.copy(), space="bits"), scheme)
    assert second is first and len(flow_module._groups_cache) == 1
    quantiles = [f_quantile(first, probs, q) for q in (0.0, 0.3, 0.5, 1.0)]
    # another family with the same enumeration replaces the entry; the old
    # values then take the sort path, to the same bits
    exact_weights_all(BernoulliFamily(5), theta, linear(alpha, space="bits"), scheme)
    assert len(flow_module._groups_cache) == 1 and flow_module._cached_groups(first) is None
    for q, cached in zip((0.0, 0.3, 0.5, 1.0), quantiles):
        assert_same_quantile(f_quantile(first, probs, q), cached, first)


def test_cached_values_are_read_only():
    fam = BernoulliFamily(3)
    _, _, values, _ = exact_weights_all(fam, np.full(3, 0.5), onemax(3), truncation(0.5))
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 1.0


def test_value_groups_cache_is_bounded():
    # the cache holds the last (family, objective content) only
    fam, theta, scheme = BernoulliFamily(3), np.full(3, 0.5), truncation(0.5)
    previous = None
    for k in range(4):
        obj = linear(np.array([1.0, 2.0, float(k)]), space="bits")
        _, probs, values, _ = exact_weights_all(fam, theta, obj, scheme)
        assert list(flow_module._groups_cache) == [(fam, flow_module._content_key(obj))]
        if previous is not None:  # replaced: the sort path gives the same bits
            old_values, old_probs, old_quantile = previous
            assert flow_module._cached_groups(old_values) is None
            assert_same_quantile(f_quantile(old_values, old_probs, 0.3), old_quantile,
                                 old_values)
        previous = values, probs, f_quantile(values, probs, 0.3)


def test_exact_weight_agrees_with_exact_weights_all_after_a_cache_hit():
    d = 6
    fam, obj, scheme = BernoulliFamily(d), two_min(np.array([1.0, 0, 1, 1, 0, 0])), truncation(0.3)
    theta = substream(67, 0).uniform(0.05, 0.95, size=d)
    exact_weights_all(fam, theta, obj, scheme)
    points, _, _, w = exact_weights_all(fam, theta, obj, scheme)
    per_point = [exact_weight(fam, theta, obj, scheme, x) for x in points]
    np.testing.assert_allclose(w, per_point, rtol=1e-12, atol=1e-15)


@given(st.integers(1, 10).flatmap(lambda d: st.tuples(
    st.lists(_PROBABILITY, min_size=d, max_size=d),
    st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=2**d, max_size=2**d))))
def test_bernoulli_natural_drift_matches_the_score_matrix_form(case):
    theta, mass = (np.array(v) for v in case)
    fam = BernoulliFamily(theta.size)
    points = fam.enumerate_points()
    ref = mass @ fam.natural_grad_log_density(theta, points)
    # atol: the scale at which the two summation orders cancel
    np.testing.assert_allclose(fam.enumerated_drift(theta, mass), ref,
                               rtol=1e-13, atol=1e-13 * np.abs(mass).sum())


def test_flow_rhs_one_dim_closed_form():
    fam = BernoulliFamily(1)
    scheme = truncation(0.5)
    obj = two_point_objective()
    rhs = flow_rhs(fam, np.array([0.4]), obj, scheme)
    assert rhs[0] == pytest.approx(0.2, abs=1e-12)  # theta / 2 below the median
    for theta in (0.1, 0.25, 0.49):
        assert flow_rhs(fam, np.array([theta]), obj, scheme)[0] == pytest.approx(theta / 2)
    for theta in (0.6, 0.9):
        assert flow_rhs(fam, np.array([theta]), obj, scheme)[0] == pytest.approx((1 - theta) / 2)


def test_flow_rhs_vanishes_at_corners():
    fam = BernoulliFamily(3)
    scheme = truncation(0.5)
    obj = onemax(3)
    for corner in (np.zeros(3), np.ones(3)):
        rhs = flow_rhs(fam, corner, obj, scheme)
        np.testing.assert_allclose(rhs, 0.0, atol=1e-14)


def test_rk4_matches_piecewise_analytic_solution():
    # below the median crossing d(theta)/dt = theta/2 exactly
    fam = BernoulliFamily(1)
    scheme = truncation(0.5)
    obj = two_point_objective()

    def rhs(t):
        return flow_rhs(fam, t, obj, scheme)

    traj = integrate(rhs, np.array([0.4]), horizon=0.4, step=1e-3)
    assert traj[-1].t == pytest.approx(0.4)
    assert traj[-1].theta[0] == pytest.approx(0.4 * math.exp(0.2), abs=1e-9)

    # across the crossing, the analytic solution continues as
    # 1 - (1 - 1/2) exp(-(t - t_cross)/2)
    t_cross = 2.0 * math.log(0.5 / 0.4)
    traj_full = integrate(rhs, np.array([0.4]), horizon=1.0, step=1e-3)
    expected = 1.0 - 0.5 * math.exp(-(1.0 - t_cross) / 2.0)
    assert traj_full[-1].theta[0] == pytest.approx(expected, abs=2e-6)


def test_euler_step_equals_large_n_update():
    # the sampled algorithm is the Euler scheme: an N -> infinity update
    # approaches theta + dt * rhs
    fam = BernoulliFamily(3)
    scheme = truncation(0.5)
    obj = onemax(3)
    theta = np.array([0.4, 0.55, 0.6])
    dt = 0.05
    rhs = flow_rhs(fam, theta, obj, scheme)
    rng = substream(62, 0)
    samples = fam.sample(theta, 200000, rng)
    from igopt.objectives import evaluate
    rw = compute_quantile_weights(evaluate(obj, samples), scheme)
    stepped = igo_step(fam, theta, samples, rw, dt)
    np.testing.assert_allclose(stepped, theta + dt * rhs, atol=2e-3)


def test_expectation_parameter_flow_identity():
    # d Tbar / dt = Cov(T, W): finite differences along the integrated
    # trajectory against the direct covariance, at matching states
    fam = BernoulliFamily(3)
    scheme = truncation(0.5)
    obj = onemax(3)

    def rhs(t):
        return flow_rhs(fam, t, obj, scheme)

    h = 1e-3
    traj = integrate(rhs, np.array([0.3, 0.5, 0.7]), horizon=0.2, step=h)
    for k in (50, 100, 150):
        theta = traj[k].theta
        pts, probs, _, w = exact_weights_all(fam, theta, obj, scheme)
        stats = fam.sufficient_stats(pts)
        cov = (probs * w) @ stats - (probs @ stats) * (probs @ w)
        fd = (traj[k + 1].theta - traj[k - 1].theta) / (2 * h)
        np.testing.assert_allclose(fd, cov, atol=1e-5)


def test_lyapunov_monitor_values():
    # alpha . dtheta/dt of the Bernoulli flow on -alpha . x under truncation(1/2),
    # the CLI's lyapunov column: non-negative, zero exactly at the corners
    def lyapunov_monitor(theta, alpha):
        obj = linear(alpha, 0.0, space="bits")
        return float(alpha @ flow_rhs(BernoulliFamily(alpha.size), theta, obj, truncation(0.5)))

    assert lyapunov_monitor(np.array([0.4]), np.array([1.0])) == pytest.approx(0.2)
    for corner in (np.zeros(4), np.ones(4)):
        assert lyapunov_monitor(corner, np.ones(4)) == pytest.approx(0.0, abs=1e-14)
    rng = substream(63, 0)
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        theta = rng.uniform(0.02, 0.98, size=d)
        alpha = rng.uniform(0.1, 2.0, size=d)
        assert lyapunov_monitor(theta, alpha) > 0.0


def quadrature_alpha(q0, d):
    """alpha = (integral_0^q0 Phi_inv(u)^2 du - q0) / (2d), with u = Phi(z)."""
    c = ndtri(q0)
    body = sp_integrate.quad(lambda z: z * z * math.exp(-0.5 * z * z), -np.inf, c,
                             epsabs=1e-14, epsrel=1e-13)[0]
    return (body / math.sqrt(2 * math.pi) - q0) / (2 * d)


def test_linear_constants_closed_form_oracle():
    for q0 in (1e-9, 0.01, 0.1, 0.25, 0.27, 0.5, 0.8, 0.99, 1 - 1e-9):
        for d in (1, 2, 5):
            lc = gaussian_linear_constants(q0, d)
            assert abs(lc.alpha - quadrature_alpha(q0, d)) < 1e-10
            assert lc.beta == pytest.approx(-phi(ndtri(q0)), rel=1e-12)
    half = gaussian_linear_constants(0.5, 3)
    assert half.alpha == 0.0
    assert half.beta == pytest.approx(-1.0 / math.sqrt(2 * math.pi), abs=1e-12)
    # frozen regression value, from the quadrature oracle (d = 1, q0 = 0.25)
    assert gaussian_linear_constants(0.25, 1).alpha == pytest.approx(0.1071685206, abs=1e-8)
    assert gaussian_linear_constants(1.0, 2).alpha == 0.0


@given(st.floats(1e-12, 1 - 1e-12), st.integers(1, 50))
def test_linear_constants_sign_symmetry_and_beta(q0, d):
    lc = gaussian_linear_constants(q0, d)
    assert (lc.alpha > 0.0) == (q0 < 0.5)
    # 1 - q0 rounds; its own complement is exact, so compare the two of those
    mirror = gaussian_linear_constants(1.0 - q0, d)
    assert mirror.alpha == pytest.approx(-gaussian_linear_constants(1.0 - mirror.q0, d).alpha,
                                         rel=1e-12, abs=1e-300)
    assert lc.beta == pytest.approx(-phi(ndtri(q0)), rel=1e-12)


def test_linear_constants_trajectory_forms():
    lc = gaussian_linear_constants(0.25, 2)
    assert lc.sigma_at(0.0, 1.5) == 1.5
    assert lc.mean_at(0.0, 3.0, 1.5) == 3.0
    # alpha = 0 limit is linear drift
    lc0 = gaussian_linear_constants(0.5, 2)
    assert lc0.mean_at(2.0, 0.0, 1.0) == pytest.approx(2.0 * lc0.beta)


def test_critical_dt_values():
    b = Phi_inv(0.75)
    expected = 0.25 * b * math.sqrt(2 * math.pi) * math.exp(b * b / 2)
    assert critical_dt(0.25, 1) == pytest.approx(expected, rel=1e-12)
    assert critical_dt(0.25, 1) == pytest.approx(0.5306, abs=1e-3)
    assert critical_dt(0.25, 2) == pytest.approx(math.sqrt(1 + expected) - 1, rel=1e-12)
    assert critical_dt(0.25, math.inf) == 0.0
    assert critical_dt(0.25, 0) == math.inf
    for j in (0, 1, 2, math.inf):
        assert critical_dt(0.6, j) == 0.0
        assert critical_dt(0.5, j) == 0.0


def test_critical_dt_against_simulation_free_variance_recursion():
    # independent oracle: with N -> infinity elite moments of a truncated
    # normal, the one-step variance ratio at dt_crit is exactly 1
    q = 0.25
    b = Phi_inv(1 - q)
    lam = phi(b) / q
    dt_c = critical_dt(q, 1)
    ratio = 1.0 + dt_c * b * lam - dt_c**2 * lam**2
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_sphere_flow_median_decreases():
    flow = SphereFlow(d=2, q0=0.5)
    state = np.array([3.0, 0.0])  # r = 3, sigma = 1
    traj = integrate(flow.rhs, state, horizon=2.0, step=0.05)
    medians = [flow.median_f(s.theta) for s in traj[::4]]
    diffs = np.diff(medians)
    assert np.all(diffs < 0.0)


def test_sphere_flow_refuses_a_quantile_or_median_that_is_not_finite():
    # (r / sigma)^2 = 1e300 is a float, its ncx2 quantile is not: refused
    # before quad sees a NaN bound and warns
    flow = SphereFlow(3, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (flow.rhs, flow.median_f, flow.speed):
            with pytest.raises(DomainError, match="0.5-quantile of f .* is nan, not a finite float"):
                call(np.array([1e150, 0.0]))
        # sigma^2 = e^709 is a float, sigma^2 times the median of chi2(3) is not
        with pytest.raises(DomainError, match="median of f .* overflows"):
            flow.median_f(np.array([0.0, 354.5]))


def test_sphere_flow_speed_bounded_by_weight_variance():
    flow = SphereFlow(d=2, q0=0.5)
    bound = math.sqrt(truncation(0.5).variance())
    for state in (np.array([3.0, 0.0]), np.array([0.5, -0.5]), np.array([0.0, 0.2])):
        assert flow.speed(state) <= bound * (1.0 + 1e-6)


def test_f_quantile_midpoint_interpolation():
    vals = np.array([0.0, 1.0, 2.0, 3.0])
    assert batch_quantile(vals, 0.5) == pytest.approx(1.5)
    assert batch_quantile(vals, 0.125) == pytest.approx(0.0)
    # atoms with unequal mass: midpoints at 0.35 and 0.85
    assert f_quantile([1.0, 5.0], [0.7, 0.3], 0.35) == pytest.approx(1.0)
    assert f_quantile([1.0, 5.0], [0.7, 0.3], 0.6) == pytest.approx(3.0)
    # dense continuous sample: agrees with the usual quantile
    rng = substream(64, 0)
    big = rng.normal(size=200001)
    assert batch_quantile(big, 0.5) == pytest.approx(np.median(big), abs=1e-6)


def reference_f_quantile(values, probs, q):
    """The np.unique / np.add.at form the single-sort quantile replaces."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    order = np.argsort(values, kind="stable")
    v = values[order]
    p = probs[order] / probs.sum()
    keep = p > 0.0
    v, p = v[keep], p[keep]
    uniq, inv = np.unique(v, return_inverse=True)
    mass = np.zeros_like(uniq)
    np.add.at(mass, inv, p)
    cum = np.cumsum(mass)
    mid = cum - 0.5 * mass
    if q <= mid[0]:
        return float(uniq[0])
    if q >= mid[-1]:
        return float(uniq[-1])
    return float(np.interp(q, mid, uniq))


QUANTILE_VALUES = st.one_of(
    st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]), min_size=1, max_size=60),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
)


def assert_same_quantile(got, ref, values):
    # Equal floats have equal bits except for the sign of zero, which may
    # differ only when a tied group mixes -0.0 and 0.0.
    assert got == ref
    if not np.any(np.signbit(values) & (np.asarray(values) == 0.0)):
        assert np.signbit(got) == np.signbit(ref)


@given(QUANTILE_VALUES, st.data(), st.floats(0.0, 1.0))
def test_f_quantile_matches_unique_form_bit_for_bit(values, data, q):
    probs = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                               min_size=len(values), max_size=len(values)))
    if not any(probs):
        probs[0] = 0.5
    assert_same_quantile(f_quantile(values, probs, q), reference_f_quantile(values, probs, q),
                         values)


@given(QUANTILE_VALUES, st.floats(0.0, 1.0))
def test_batch_quantile_matches_unique_form_bit_for_bit(values, q):
    equal = np.full(len(values), 1.0 / len(values))
    assert_same_quantile(batch_quantile(values, q), reference_f_quantile(values, equal, q),
                         values)


@given(st.integers(1, 10).flatmap(lambda d: st.tuples(
           st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.just(1.0), _PROBABILITY),
                    min_size=d, max_size=d),
           st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))),
       st.booleans(), st.floats(0.01, 1.0), st.floats(0.0, 1.0))
def test_distinct_values_gather_the_masses_to_the_bincount_bits(case, binval, q0, q):
    # every group holds one point: exact_weights_all and f_quantile gather
    # the masses by the cached permutation, and must give the bits of the
    # bincount path (exact_weights_all with the permutation dropped) and of
    # the sort path (f_quantile of a copy of the values)
    theta, alpha = (np.array(v) for v in case)
    d = theta.size
    if binval:
        alpha = 2.0 ** -np.arange(d)
    family, objective, scheme = BernoulliFamily(d), linear(alpha, space="bits"), truncation(q0)
    _, probs, values, w = exact_weights_all(family, theta, objective, scheme)
    (key, groups), = flow_module._groups_cache.items()
    order = groups[3]
    if np.unique(values).size < values.size:  # a drawn alpha tied two points
        assert order is None
        return
    np.testing.assert_array_equal(values[order], np.sort(values))
    assert_same_quantile(f_quantile(values, probs, q), f_quantile(values.copy(), probs, q), values)
    flow_module._groups_cache[key] = (*groups[:3], None)
    try:
        _, probs_b, _, w_b = exact_weights_all(family, theta, objective, scheme)
    finally:
        flow_module._groups_cache[key] = groups
    np.testing.assert_array_equal(probs_b, probs)
    np.testing.assert_array_equal(w_b.view(np.uint64), w.view(np.uint64))


def test_tied_values_keep_the_bincount_path():
    for objective in (onemax(5), two_min(np.array([1.0, 0, 1, 1, 0]))):
        exact_weights_all(BernoulliFamily(5), np.full(5, 0.3), objective, truncation(0.3))
        (groups,) = flow_module._groups_cache.values()
        assert groups[3] is None


@pytest.mark.parametrize("probs", [[0.0, 0.0], [np.nan, 0.5], [np.inf, 0.5]])
def test_f_quantile_refuses_a_total_mass_that_is_not_positive_and_finite(probs):
    # with no positive finite total, no group would hold mass to interpolate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive finite total mass"):
            f_quantile([1.0, 2.0], probs, 0.5)


@pytest.mark.parametrize("objective", [linear(2.0 ** -np.arange(14), space="bits"),
                                       onemax(8), onemax(10)])
def test_f_quantile_of_cached_values_matches_the_sort_path(objective):
    # values held by the exact-weights cache reuse its np.unique inverse;
    # a copy of them takes the argsort path, and the bits must agree
    family = BernoulliFamily(objective.dim)
    rng = substream(65, objective.dim)
    for _ in range(10):
        theta = rng.uniform(0.05, 0.95, objective.dim)
        _, probs, values, _ = exact_weights_all(family, theta, objective, truncation(0.3))
        assert flow_module._cached_groups(values) is not None
        assert flow_module._cached_groups(values.copy()) is None
        for q in (0.0, 0.1, 0.25, 0.3, 0.5, 0.77, 0.9, 1.0):
            assert_same_quantile(f_quantile(values, probs, q),
                                 f_quantile(values.copy(), probs, q), values)


def test_flow_rhs_matches_derivative_free_covariance_form():
    # for a family in natural exponential coordinates the flow is
    # Cov(T, T)^{-1} Cov(T, W), no derivatives involved: check the drift
    # against direct enumeration sums
    from igopt.families import LogitBernoulliFamily
    fam = LogitBernoulliFamily(3)
    theta = fam.from_probabilities(np.array([0.35, 0.5, 0.7]))
    obj = onemax(3)
    scheme = truncation(0.5)
    pts, probs, _, w = exact_weights_all(fam, theta, obj, scheme)
    stats = fam.sufficient_stats(pts)
    mean_t = probs @ stats
    cov_tt = (stats * probs[:, None]).T @ stats - np.outer(mean_t, mean_t)
    cov_tw = (probs * w) @ stats - mean_t * (probs @ w)
    expected = np.linalg.solve(cov_tt, cov_tw)
    got = flow_rhs(fam, theta, obj, scheme)
    np.testing.assert_allclose(got, expected, atol=1e-10)


# -- what importing the package loads ------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_scipy_modules(code):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); {code}; "
             "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    return set(out.stdout.split())


def test_import_loads_neither_scipy_stats_nor_integrate():
    loaded = fresh_scipy_modules("import igopt, igopt.cli")
    assert "scipy.stats" not in loaded
    assert "scipy.integrate" not in loaded
    assert "scipy.linalg" not in loaded


def test_import_leaves_scipy_special_unloaded():
    # normal, flow and bernoulli import it inside the functions that use it
    assert "scipy.special" not in fresh_scipy_modules("import igopt, igopt.cli")
    loaded = fresh_scipy_modules("import igopt; igopt.normal.Phi_inv(0.3)")
    assert "scipy.special" in loaded


def test_fisher_solve_leaves_scipy_linalg_unloaded():
    loaded = fresh_scipy_modules(
        "import numpy as np; import igopt, igopt.cli; from igopt import fisher; "
        "fisher.solve(fisher.FisherMatrix(np.eye(2)), np.ones(2))")
    assert "scipy.linalg" not in loaded


def test_sphere_flow_rhs_loads_scipy_integrate():
    loaded = fresh_scipy_modules(
        "from igopt.flow import SphereFlow; SphereFlow(5, 0.3).rhs((3.0, 0.0))")
    assert "scipy.integrate" in loaded
    assert "scipy.stats" not in loaded


@given(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
       st.integers(1, 200),
       st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
def test_ncx2_ppf_matches_scipy_stats_bit_for_bit(q, d, lam):
    got = np.float64(_ncx2_ppf(q, d, lam))
    assert got.tobytes() == np.float64(ncx2.ppf(q, d, lam)).tobytes()
