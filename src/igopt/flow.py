"""Continuous-time natural-gradient flow: exact preference weights, exact
right-hand sides for enumerable families, fixed-step ODE integration, and
the closed-form reference constants for linear objectives.

The flow is d(theta)/dt = I(theta)^{-1} E[ W(x) d ln P(x)/d theta ] where W
maps each point to a weight through the quantile its objective value
occupies under the current distribution.  The sampled algorithm is the
Euler discretization of this ODE with Monte-Carlo averages, which the
consistency tests check directly.

W depends on theta only through P_theta: the objective's values on the
enumeration and the tie groups they form do not.  That half is computed
once per (family, objective) and kept for the last pair, keyed on the
objective's content; per theta only the masses, the running quantiles of
the groups and the scheme are left.  When every value is distinct the
groups are the points themselves, and the masses are summed into groups by
one cached permutation instead of ``np.bincount``, with the same bits.

The weights are computed only as far as the scheme needs them: cells inside
an exact step of w (value 0 or +-1, no shift) take its value, which is the
integral's mean bit for bit, and only the cells at a breakpoint or in an
inexact step are integrated (``WeightScheme.cell_means``).  When the last
step is exact, the running quantile is summed a chunk at a time and stops at
the first group strictly above that step's start (``scheme.stop``); every
later group takes the step's value.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fisher as fisher_mod
from . import objectives as objectives_mod
from .families.base import CapabilityError, DomainError
from .normal import Phi_inv, phi

__all__ = [
    "FlowState",
    "LinearFlowConstants",
    "exact_weight",
    "exact_weights_all",
    "flow_rhs",
    "integrate",
    "trajectory",
    "gaussian_linear_constants",
    "critical_dt",
    "f_quantile",
    "batch_quantile",
    "SphereFlow",
]


@dataclass
class FlowState:
    t: float
    theta: np.ndarray


@dataclass
class LinearFlowConstants:
    """Closed-form rates of the isotropic-Gaussian flow on a linear objective.

    With truncation weighting at quantile q0, log-sigma grows linearly at
    rate alpha (positive iff q0 < 1/2) and the mean drifts at sigma * beta
    per unit time with beta < 0 for q0 < 1.
    """

    alpha: float
    beta: float
    q0: float
    d: int

    def sigma_at(self, t, sigma0):
        return sigma0 * math.exp(self.alpha * t)

    def mean_at(self, t, m0, sigma0):
        # Initial-condition-consistent solution of m' = sigma(t) * beta;
        # expm1 keeps the alpha -> 0 limit (linear drift) accurate.
        if self.alpha == 0.0:
            return m0 + sigma0 * self.beta * t
        return m0 + sigma0 * self.beta / self.alpha * math.expm1(self.alpha * t)


# {(family, objective content): (values, distinct values, inverse, order)} of
# _value_groups, for the last pair only: a flow integrates one pair.  The key
# holds the family itself, and families compare by identity, so the entry can
# only be found by the family whose enumeration it was built on.
_groups_cache = {}


def _content_key(objective):
    """An Objective's content as a hashable key: kind, space, dim, params
    (non-strings by dtype, shape and bytes) and base, recursively.  Objectives
    are mutable, so the key is taken again on every call."""
    if objective is None:
        return None
    params = []
    for name, value in sorted(objective.params.items()):
        if not isinstance(value, str):
            value = np.asarray(value)
            value = (value.dtype.str, value.shape, value.tobytes())
        params.append((name, value))
    return (objective.kind, objective.space, objective.dim, tuple(params),
            _content_key(objective.base))


def _value_groups(family, objective, points):
    """The theta-independent half of the exact weights: the objective's
    values on ``points`` (the family's enumeration), read-only, then the
    ``np.unique`` distinct values, ascending, the inverse that numbers them
    and, when every value is distinct, the permutation ``np.argsort(inverse)``
    that sorts them (else None).

    Cached for the last (family, objective content) asked for.
    """
    key = (family, _content_key(objective))
    groups = _groups_cache.get(key)
    if groups is None:
        values = objectives_mod.evaluate(objective, points)
        values.flags.writeable = False
        uniq, inverse = np.unique(values, return_inverse=True)
        order = None
        if uniq.size == values.size:
            order = np.empty_like(inverse)
            order[inverse] = np.arange(inverse.size)
        groups = (values, uniq, inverse, order)
        _groups_cache.clear()
        _groups_cache[key] = groups
    return groups


def _cached_groups(values):
    """(distinct values, inverse, order) of ``values`` when they are the
    read-only values array of the ``_groups_cache`` entry, else None."""
    for cached, *groups in _groups_cache.values():
        if cached is values:
            return groups
    return None


def _group_sums(probs, inverse, order):
    """Each value group's mass: ``probs`` gathered by ``order`` when every
    group holds one point, else summed by ``np.bincount``.  The two agree
    bit for bit on masses >= +0, as 0.0 + p is p."""
    if order is not None:
        return probs[order]
    return np.bincount(inverse, weights=probs)


# Groups summed per chunk of the running quantile when it may stop early.
_CHUNK = 2048


def _running_quantiles(probs, inverse, order, stop):
    """The groups' running quantiles, capped at 1: the cumulative sum of
    their masses, sequential, so a chunk whose first mass takes the carry
    before its own ``np.cumsum`` continues the whole sum bit for bit.  With
    ``stop`` not None and more than one chunk of groups, the sum is taken a
    chunk at a time and ends at the first group strictly above ``stop``."""
    sums = None if order is not None else np.bincount(inverse, weights=probs)
    size = order.size if sums is None else sums.size
    if stop is None or size <= _CHUNK:
        q = np.cumsum(probs[order] if sums is None else sums)
    else:
        q = np.empty(size)
        carry = 0.0
        for lo in range(0, size, _CHUNK):
            part = q[lo:lo + _CHUNK]
            if sums is None:  # every index is valid; "clip" writes out unbuffered
                np.take(probs, order[lo:lo + _CHUNK], out=part, mode="clip")
            else:
                part[:] = sums[lo:lo + _CHUNK]
            part[0] += carry
            np.cumsum(part, out=part)
            carry = part[-1]
            if carry > stop:  # the first group strictly above stop ends the sum
                q = q[:lo + np.searchsorted(part, stop, side="right") + 1]
                break
    np.minimum(q, 1.0, out=q)
    return q


def exact_weights_all(family, theta, objective, scheme):
    """Preference weight of every enumerated point under P_theta.

    Returns (points, probabilities, values, weights), the values read-only.
    For a group of points sharing an objective value with lower/upper
    quantiles q- < q+, the weight is the average of w over [q-, q+].  A
    degenerate group, one whose mass is zero or too small to move the
    running quantile (q- == q+), gets w(q+), as in ``exact_weight``.  The
    running quantile stops past ``scheme.stop``, where every later group
    takes the last step's value (``WeightScheme.cell_means``).
    """
    points = family.enumerate_points()
    values, uniq, inverse, order = _value_groups(family, objective, points)
    probs = family.enumerated_probs(theta)
    q_plus = _running_quantiles(probs, inverse, order, scheme.stop)
    w = scheme.cell_means(q_plus, uniq.size)
    return points, probs, values, w[inverse]


def exact_weight(family, theta, objective, scheme, x):
    """W(x): exact quantile-rewritten preference of a single point."""
    values = _value_groups(family, objective, family.enumerate_points())[0]
    probs = family.enumerated_probs(theta)
    fx = float(objectives_mod.evaluate(objective, np.atleast_2d(x))[0])
    # capped as in exact_weights_all: the masses can sum to 1 + 2^-52
    q_minus = min(1.0, float(probs[values < fx].sum()))
    q_plus = min(1.0, float(probs[values <= fx].sum()))
    if q_plus == q_minus:
        return float(scheme(q_plus))
    return scheme.integral(q_minus, q_plus) / (q_plus - q_minus)


def flow_rhs(family, theta, objective, scheme, weights=None):
    """Exact d(theta)/dt at theta, by enumeration: the closed-form
    ``enumerated_drift``, else the exact Fisher solve of the weighted
    ``enumerated_score``.  ``weights`` is ``exact_weights_all``'s result at
    theta when the caller has it; its weight array is overwritten."""
    if weights is None:
        weights = exact_weights_all(family, theta, objective, scheme)
    _, probs, _, mass = weights
    mass *= probs
    try:
        return family.enumerated_drift(theta, mass)
    except CapabilityError:
        pass
    grad = mass @ family.enumerated_score(theta)
    return fisher_mod.solve(fisher_mod.exact_fisher(family, theta), grad)


def integrate(rhs, theta0, horizon, step, method="rk4"):
    """Fixed-step integration of d(theta)/dt = rhs(theta) over [0, horizon].

    The Euler method is kept deliberately: the sampled algorithm *is* the
    Euler scheme of this ODE, and the correspondence is tested.  rk4 is the
    default for accurate reference trajectories.
    """
    return list(trajectory(rhs, theta0, horizon, step, method))


def trajectory(rhs, theta0, horizon, step, method="rk4"):
    """The states of ``integrate``, yielded one at a time.  Each state is
    yielded before the step from it is taken, so a consumer that evaluates
    rhs at the state does so just before the step's first evaluation there."""
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown integration method: {method!r}")
    n_steps = int(round(horizon / step))
    theta = np.asarray(theta0, dtype=float).copy()
    yield FlowState(0.0, theta.copy())
    for k in range(n_steps):
        if method == "euler":
            theta = theta + step * rhs(theta)
        else:
            k1 = rhs(theta)
            k2 = rhs(theta + 0.5 * step * k1)
            k3 = rhs(theta + 0.5 * step * k2)
            k4 = rhs(theta + step * k3)
            theta = theta + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield FlowState((k + 1) * step, theta.copy())


# -- quantile reporting --------------------------------------------------------

def f_quantile(values, probs, q):
    """q-quantile of a discrete value distribution, midpoint-interpolated.

    The inverse cdf is interpolated through the midpoints of its risers
    (lower-midpoint tie-break at the ends), which makes the reported
    quantile move continuously as mass shifts between atoms; on an atomless
    distribution it coincides with the usual quantile.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    groups = _cached_groups(values)
    if groups is None:
        order = np.argsort(values)
        v = values[order]
        first = _group_starts(v)
        # Group ids scattered back to index order: bincount then sums each
        # group's probabilities in index order, so no stable sort is needed.
        group = np.empty(v.size, dtype=np.intp)
        group[order] = np.cumsum(first) - 1
        uniq, order = v[first], None  # sum by bincount: groups may hold ties
    else:
        uniq, group, order = groups  # the same ascending group ids, from the cache
    total = probs.sum()
    if not 0.0 < total < math.inf:  # else no group would hold mass
        raise ValueError(f"f_quantile needs a positive finite total mass, got {total}")
    mass = _group_sums(probs / total, group, order)
    held = mass > 0.0  # zero-mass groups would put repeated nodes into the interpolation
    if not held.all():
        uniq, mass = uniq[held], mass[held]
    return _group_quantile(uniq, mass, q)


def batch_quantile(values, q):
    """Empirical q-quantile of a batch, same midpoint convention."""
    # Equal probabilities sum to the same bits in any order, so a plain sort
    # gives f_quantile's bits; so does normalizing by their (pairwise) float sum.
    values = np.sort(np.asarray(values, dtype=float))
    probs = np.full(values.size, 1.0 / values.size)
    p = probs / probs.sum()
    first = _group_starts(values)
    return _group_quantile(values[first], np.bincount(np.cumsum(first) - 1, weights=p), q)


def _group_starts(v):
    """Mask of the first entry of each run of equal values in sorted v."""
    first = np.ones(v.size, dtype=bool)
    first[1:] = v[1:] != v[:-1]
    return first


def _group_quantile(uniq, mass, q):
    """f_quantile of ascending distinct values uniq with masses mass."""
    cum = np.cumsum(mass)
    mid = cum - 0.5 * mass
    if q <= mid[0]:
        return float(uniq[0])
    if q >= mid[-1]:
        return float(uniq[-1])
    return float(np.interp(q, mid, uniq))


# -- closed-form constants for linear objectives ------------------------------

def gaussian_linear_constants(q0, d):
    """Growth and drift rates of the isotropic-Gaussian flow on a linear f.

    With c = Phi_inv(q0):
    beta = E[Z 1{Z <= c}] = -phi(c);
    alpha = (1/(2d)) (integral_0^q0 Phi_inv(u)^2 du - q0) = c beta / (2d),
    since u = Phi(z) turns the integral into integral_{-inf}^c z^2 phi(z) dz
    = q0 - c phi(c).
    """
    if not 0.0 < q0 <= 1.0:
        raise ValueError("q0 must be in (0, 1]")
    if q0 == 1.0:
        # Everything selected: the full-normal moments give 0 exactly.
        return LinearFlowConstants(alpha=0.0, beta=0.0, q0=q0, d=d)
    c = Phi_inv(q0)
    beta = -phi(c)
    alpha = c * beta / (2.0 * d)
    return LinearFlowConstants(alpha=alpha, beta=beta, q0=q0, d=d)


def critical_dt(q, j):
    """Largest step size below which the variance still grows on a linear
    objective, for the update family indexed by j (truncation quantile q).

    j = 0 -> infinite for q < 1/2; j = 1 -> q b sqrt(2 pi) exp(b^2 / 2) with
    b the upper-q percentile; j = 2 -> sqrt(1 + dt_crit(1)) - 1;
    j = inf -> 0.  For q >= 1/2 every variant has critical step 0.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("selection quantile must be in (0, 1)")
    if q >= 0.5:
        return 0.0
    if j == 0:
        return math.inf
    b = Phi_inv(1.0 - q)
    dt1 = q * b * math.sqrt(2.0 * math.pi) * math.exp(0.5 * b * b)
    if j == 1:
        return dt1
    if j == 2:
        return math.sqrt(1.0 + dt1) - 1.0
    if j == math.inf:
        return 0.0
    raise ValueError("j must be one of 0, 1, 2, inf")


# -- exact flow for the sphere under isotropic Gaussians ----------------------

def _ncx2_ppf(q, d, lam):
    """q-quantile of the noncentral chi-square law with d degrees of freedom
    and noncentrality lam: the two branches ``scipy.stats.ncx2.ppf`` takes,
    without importing ``scipy.stats``."""
    from scipy.special import chndtrix, gammaincinv  # off igopt's import path

    if lam != 0:
        return chndtrix(q, d, lam)
    return 2 * gammaincinv(d / 2, q)


class SphereFlow:
    """Reduced exact flow of N(m, sigma^2 I) on f(x) = |x - center|^2.

    By symmetry the mean moves along the line through the center, so the
    state reduces to (r, log sigma) with r the signed distance of the mean
    from the center.  Writing f = (r + sigma z)^2 + sigma^2 Q with z
    standard normal and Q ~ chi2(d-1), the truncation-weight expectations
    become one-dimensional integrals in z, evaluated by adaptive quadrature:

        dr/dt          = sigma * Int z phi(z) F_k(tau(z)) dz
        dlog(sigma)/dt = (1/2d) Int phi(z) [(z^2 - d) F_k(tau(z))
                                            + k F_{k+2}(tau(z))] dz

    with tau(z) = y_q / sigma^2 - (r/sigma + z)^2, y_q the q0-quantile of f
    (a scaled noncentral chi-square quantile), and F_k the chi2(k) cdf.
    """

    def __init__(self, d, q0):
        if d < 2:
            raise ValueError("reduced sphere flow needs d >= 2")
        self.d = int(d)
        self.q0 = float(q0)

    def _split(self, state):
        """(r, sigma); DomainError unless sigma^2 > 0 and (r / sigma)^2 are finite floats."""
        r, s = state
        sigma = math.exp(min(s, 709.0))  # a larger exponent overflows
        mu = float(r) / sigma
        if not (0.0 < sigma * sigma < math.inf and mu * mu < math.inf):
            raise DomainError(f"(r, log sigma) = ({r}, {s}) puts sigma^2 or (r / sigma)^2 "
                              "outside the floats")
        return r, sigma

    def _tau_parts(self, state):
        r, sigma = self._split(state)
        return r, sigma, self._scaled_quantile(self.q0, r, sigma)

    def _scaled_quantile(self, q, r, sigma):
        """The q-quantile of f over sigma^2; DomainError unless it is finite,
        as scipy's noncentral chi-square quantile is not (NaN) once
        (r / sigma)^2 is past about 1e10."""
        y_over_s2 = float(_ncx2_ppf(q, self.d, (r / sigma) ** 2))
        if not math.isfinite(y_over_s2):
            raise DomainError(f"the {q}-quantile of f at (r, sigma) = ({r}, {sigma}) "
                              f"is {y_over_s2}, not a finite float")
        return y_over_s2

    def rhs(self, state):
        from scipy import integrate as sp_integrate
        from scipy.special import gammainc

        r, sigma, y = self._tau_parts(state)
        k = self.d - 1
        mu = r / sigma
        root = math.sqrt(y)
        z_lo, z_hi = -mu - root, -mu + root

        def cdf_k(tau):
            return gammainc(0.5 * k, 0.5 * tau)

        def cdf_k2(tau):
            return gammainc(0.5 * (k + 2), 0.5 * tau)

        def drift(z):
            tau = y - (mu + z) ** 2
            return z * phi(z) * cdf_k(tau)

        def radial(z):
            tau = y - (mu + z) ** 2
            return phi(z) * ((z * z - self.d) * cdf_k(tau) + k * cdf_k2(tau))

        i_drift = sp_integrate.quad(drift, z_lo, z_hi, limit=200)[0]
        i_radial = sp_integrate.quad(radial, z_lo, z_hi, limit=200)[0]
        out = np.array([sigma * i_drift, i_radial / (2.0 * self.d)])
        if not np.isfinite(out).all():
            raise DomainError(f"the sphere flow's drift at (r, log sigma) = ({state[0]}, "
                              f"{state[1]}) is {out}, not finite")
        return out

    def median_f(self, state):
        """Exact median of f under the current state (scaled ncx2 median);
        DomainError unless it is a finite float."""
        r, sigma = self._split(state)
        median = sigma**2 * self._scaled_quantile(0.5, r, sigma)
        if not math.isfinite(median):
            raise DomainError(f"the median of f at (r, sigma) = ({r}, {sigma}) overflows")
        return median

    def speed(self, state, drift=None):
        """Fisher norm of d(theta)/dt in (m, log sigma) coordinates; ``drift``
        is ``rhs(state)``, computed when not given."""
        rhs = self.rhs(state) if drift is None else drift
        sigma = self._split(state)[1]
        return math.sqrt((rhs[0] / sigma) ** 2 + 2.0 * self.d * rhs[1] ** 2)
