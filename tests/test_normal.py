import numpy as np
import scipy.special

from igopt.normal import Phi, Phi_inv, phi


def test_cdf_matches_scipy_reference():
    xs = np.concatenate([np.linspace(-8, 8, 4001), [-37.0, 37.0]])
    ref = scipy.special.ndtr(xs)
    got = Phi(xs)
    np.testing.assert_allclose(got, ref, rtol=5e-14, atol=1e-300)


def test_quantile_matches_scipy_reference():
    ps = np.concatenate([
        np.linspace(1e-6, 1 - 1e-6, 2001),
        [1e-12, 1e-9, 0.5, 1 - 1e-9, 1 - 1e-12],
    ])
    ref = scipy.special.ndtri(ps)
    got = Phi_inv(ps)
    assert np.max(np.abs(got - ref)) < 1e-10  # documented accuracy bound


def test_round_trip():
    # Positive side capped at 5: beyond that, Phi(x) rounds into 1 at double
    # resolution and the inverse problem itself is ill-posed.
    xs = np.linspace(-36.0, 5.0, 411)
    back = Phi_inv(Phi(xs))
    np.testing.assert_allclose(back, xs, atol=1e-9)


def test_density_and_quartile_values():
    assert phi(0.0) == 1.0 / np.sqrt(2.0 * np.pi)
    assert abs(Phi_inv(0.75) - 0.6744897501960817) < 1e-12
    assert Phi_inv(0.5) == 0.0 or abs(Phi_inv(0.5)) < 1e-15


def test_quantile_rejects_boundary():
    for bad in (0.0, 1.0, -0.1, 1.1):
        try:
            Phi_inv(bad)
        except ValueError:
            continue
        raise AssertionError(f"Phi_inv accepted {bad}")
    for bad in ([0.5, 0.0], [0.2, np.nan]):
        try:
            Phi_inv(np.array(bad))
        except ValueError:
            continue
        raise AssertionError(f"Phi_inv accepted {bad}")


def test_quantile_returns_float_for_scalars():
    assert type(Phi_inv(0.3)) is float
    assert type(Phi_inv(np.float64(0.3))) is float
    assert Phi_inv(np.array([0.3, 0.7])).shape == (2,)
