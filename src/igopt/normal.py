"""Standard normal cdf, density, and quantile function.

Frozen utility used by the flow constants and the critical-step-size
formulas.  ``Phi`` wraps the libm erfc rational approximation (relative
error below 1e-15).  ``Phi_inv`` is scipy's ``ndtri`` restricted to the open
interval (0, 1); see tests/test_normal.py for the grid and round-trip
checks.
"""

import math

import numpy as np

__all__ = ["phi", "Phi", "Phi_inv"]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def phi(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT2PI
    return float(out) if out.ndim == 0 else out


def Phi(x):
    """Standard normal cdf, accurate in both tails."""
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(-float(x) / _SQRT2)
    xs = np.asarray(x, dtype=float)
    return np.array([0.5 * math.erfc(-v / _SQRT2) for v in xs.ravel()]).reshape(xs.shape)


def Phi_inv(p):
    """Inverse of the standard normal cdf; p must lie strictly inside (0, 1)."""
    from scipy.special import ndtri  # scipy.special stays off igopt's import path

    ps = np.asarray(p, dtype=float)
    if not np.all((ps > 0.0) & (ps < 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = ndtri(ps)
    return float(out) if out.ndim == 0 else out
