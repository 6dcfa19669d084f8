import numpy as np
import pytest

from igopt import compute_quantile_weights, substream, truncation
from igopt.objectives import (
    add_noise,
    evaluate,
    linear,
    monotone_transform,
    noisy_value,
    onemax,
    parse_objective,
    sphere,
    two_min,
    two_min_random,
)


def test_two_min_hand_values():
    y = np.array([1.0, 0.0, 1.0])
    obj = two_min(y)
    assert evaluate(obj, y)[0] == 0.0
    assert evaluate(obj, 1.0 - y)[0] == 0.0
    assert evaluate(obj, np.array([1.0, 1.0, 1.0]))[0] == 1.0


def test_two_min_symmetry_and_bounds():
    rng = substream(71, 0)
    for _ in range(20):
        d = int(rng.integers(1, 10))
        y = (rng.random(d) < 0.5).astype(float)
        obj = two_min(y)
        x = (rng.random((16, d)) < 0.5).astype(float)
        fx = evaluate(obj, x)
        fc = evaluate(obj, 1.0 - x)
        np.testing.assert_array_equal(fx, fc)
        assert np.all(fx >= 0.0) and np.all(fx <= d // 2)
    # exactly two global optima for every y (y and its complement differ)
    d = 5
    y = (substream(71, 1).random(d) < 0.5).astype(float)
    obj = two_min(y)
    codes = np.arange(2**d)
    bits = ((codes[:, None] >> np.arange(d)) & 1).astype(float)
    vals = evaluate(obj, bits)
    assert (vals == 0.0).sum() == 2


def test_onemax_and_linear_equivalence():
    obj_l = linear(np.ones(3), 3.0, space="bits")
    obj_o = onemax(3)
    x = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(evaluate(obj_l, x), evaluate(obj_o, x))
    assert evaluate(obj_l, np.ones((1, 3)))[0] == 0.0


def test_sphere():
    obj = sphere(2, center=np.array([1.0, -1.0]))
    assert evaluate(obj, np.array([[1.0, -1.0]]))[0] == 0.0
    assert evaluate(obj, np.array([[2.0, -1.0]]))[0] == 1.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate(onemax(3), np.zeros((2, 4)))


def test_monotone_transforms_preserve_ranked_weights():
    rng = substream(72, 0)
    vals_points = rng.normal(size=(20, 2))
    base = sphere(2)
    scheme = truncation(0.5)
    w_base = compute_quantile_weights(evaluate(base, vals_points), scheme).weights
    for phi in ("cube", "scaled_shift", "signed_power"):
        wrapped = monotone_transform(base, phi)
        w_tr = compute_quantile_weights(evaluate(wrapped, vals_points), scheme).weights
        np.testing.assert_array_equal(w_tr, w_base)


def test_cube_transform_values():
    obj = monotone_transform(linear(np.ones(1), 0.0), "cube")
    # base values -(-1, 0, 2) = (1, 0, -2) -> cubed (1, 0, -8)
    out = evaluate(obj, np.array([[-1.0], [0.0], [2.0]]))
    np.testing.assert_allclose(out, [1.0, 0.0, -8.0])


def test_noisy_objective_needs_rng_and_is_coupled_to_omega_form():
    obj = add_noise(onemax(2), "uniform", scale=0.5)
    with pytest.raises(ValueError):
        evaluate(obj, np.zeros((1, 2)))
    rng = substream(73, 0)
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    vals = evaluate(obj, x, rng)
    rng2 = substream(73, 0)
    omega = rng2.random(2)
    np.testing.assert_array_equal(vals, noisy_value(obj, x, omega))


def test_gaussian_noise_kind():
    obj = add_noise(onemax(1), "gaussian", scale=2.0)
    vals = noisy_value(obj, np.array([[1.0]]), np.array([0.5]))
    assert vals[0] == pytest.approx(0.0)  # Phi_inv(0.5) = 0


def test_parse_objective_strings():
    assert parse_objective("onemax:d=10").kind == "onemax"
    lin = parse_objective("linear:d=3,alpha=2,c=1,space=bits")
    np.testing.assert_array_equal(lin.params["alpha"], [2.0, 2.0, 2.0])
    tm = parse_objective("two_min:d=6,seed=7")
    tm2 = parse_objective("two_min:d=6,seed=7")
    np.testing.assert_array_equal(tm.params["y"], tm2.params["y"])
    noisy = parse_objective("sphere:d=2,noise=uniform,noise_scale=0.1")
    assert noisy.kind == "noisy" and noisy.base.kind == "sphere"
    wrapped = parse_objective("onemax:d=4,phi=cube")
    assert wrapped.kind == "transformed"
    with pytest.raises(ValueError):
        parse_objective("unknown:d=2")
    with pytest.raises(ValueError):
        parse_objective("onemax:d=2,bogus=1")
    with pytest.raises(ValueError):
        parse_objective("two_min:d=4")  # needs seed or per_run


def test_two_min_per_run_uses_stream():
    rng = substream(74, 0)
    obj = parse_objective("two_min:d=5,per_run=1", rng=rng)
    assert obj.params["y"].shape == (5,)
    a = two_min_random(5, substream(74, 1))
    b = two_min_random(5, substream(74, 1))
    np.testing.assert_array_equal(a.params["y"], b.params["y"])
