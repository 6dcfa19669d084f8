"""Independent Bernoulli bits, in probability and logit parametrizations.

The probability parameters are also the family's expectation parameters, so
the natural-gradient step in these coordinates is the convex blend
``(1 - w_total * dt) * theta + dt * (weighted bit average)``.  The logit
parametrization is the natural (exponential-family) one; mapped back to
probabilities its steps agree with the probability-coordinate steps to
O(dt^2), which the invariance tests exercise.
"""

from functools import cached_property

import numpy as np

from .base import CapabilityError, DomainError, Family, enumerate_bits

__all__ = ["BernoulliFamily", "LogitBernoulliFamily"]

EPS = 1e-6  # boundary clamp: the Fisher matrix blows up at 0 and 1
# Round-off a weighted average of bits may carry past 0 or 1 (renormalized
# weights can average a column of ones to 1 + 2^-52).
ROUND_OFF = 4 * np.finfo(float).eps


def _check_interior(theta):
    if np.any(theta <= 0.0) or np.any(theta >= 1.0):
        raise DomainError("Bernoulli probabilities must lie strictly inside (0, 1)")
    if np.any(theta * (1.0 - theta) < np.finfo(float).tiny):  # 1 / p(1 - p) overflows
        raise DomainError("Bernoulli probabilities within 2^-1022 of 0 or 1 have no "
                          "finite Fisher information")


class BernoulliFamily(Family):
    """Product of d Bernoulli laws, theta[i] = P(x_i = 1)."""

    def __init__(self, dim):
        self.dim = int(dim)

    @property
    def dim_theta(self):
        return self.dim

    def sample(self, theta, n, rng):
        return (rng.random((n, self.dim)) < theta).astype(np.uint8)

    def log_density(self, theta, samples):
        from scipy.special import xlogy  # scipy.special stays off igopt's import path

        # One log per coordinate, picked per bit.  xlogy(1, .) gives -inf at an
        # exact 0 without a warning, and np.where drops it where the bit does
        # not use it
        on = np.asarray(samples) != 0
        return (np.where(on, xlogy(1.0, theta), 0.0).sum(axis=1)
                + np.where(on, 0.0, xlogy(1.0, 1.0 - theta)).sum(axis=1))

    def grad_log_density(self, theta, samples):
        _check_interior(theta)
        x = np.asarray(samples, dtype=float)
        return x / theta - (1.0 - x) / (1.0 - theta)

    def natural_grad_log_density(self, theta, samples):
        return np.asarray(samples, dtype=float) - theta

    def natural_step(self, theta, samples, w, dt):
        """The convex blend (1 - w_total dt) theta + dt sum_i w_i x_i.  With
        one unit weight on the best sample and dt = LR this is the classic
        incremental update toward the best solution."""
        return (1.0 - w.sum() * dt) * theta + dt * (w @ np.asarray(samples, dtype=float))

    def fisher(self, theta):
        _check_interior(theta)
        return np.diag(1.0 / (theta * (1.0 - theta)))

    def sufficient_stats(self, samples):
        return np.asarray(samples, dtype=float)

    def to_expectation(self, theta):
        return np.asarray(theta, dtype=float).copy()

    def from_expectation(self, tbar):
        tbar = np.asarray(tbar, dtype=float)
        if np.any(tbar < -ROUND_OFF) or np.any(tbar > 1.0 + ROUND_OFF):
            raise DomainError("expectation parameters must lie in [0, 1]")
        return np.clip(tbar, EPS, 1.0 - EPS)

    def enumerate_points(self):
        self._check_enumerable()
        return self._points

    def _check_enumerable(self):
        if self.dim > 22:
            raise CapabilityError("Bernoulli enumeration limited to d <= 22")

    @cached_property
    def _points(self):
        """The 2^d points as float rows, built once."""
        X = enumerate_bits(self.dim).astype(float)
        X.flags.writeable = False
        return X

    def enumerated_probs(self, theta):
        # Row k holds the bits of k, so the first 2^i rows extend to the
        # first 2^(i+1) by one coordinate: bit i on (written from the lower
        # half), then bit i off (multiplied in place).  Row k is the product
        # of its d factors in bit order.  Adding +0.0 maps -0.0 to +0.0, so
        # no mass is -0.0.
        self._check_enumerable()
        theta = np.asarray(theta, dtype=float)
        if not np.all((theta >= 0.0) & (theta <= 1.0)):  # NaN fails too
            raise DomainError("Bernoulli probabilities must lie in [0, 1]")
        out = np.empty(2**self.dim)
        out[0] = 1.0
        size = 1
        for p in (theta + 0.0).tolist():
            np.multiply(out[:size], p, out=out[size:2 * size])
            out[:size] *= 1.0 - p
            size *= 2
        return out

    def enumerated_drift(self, theta, mass):
        # Row k holds the bits of k, so the rows with the top bit on are the
        # upper half; folding the upper half onto the lower one drops that bit.
        # Folding from the top gives every sum_x mass(x) x_i, then the total.
        upper = np.empty(self.dim)
        for i in reversed(range(self.dim)):
            half = mass.size // 2
            upper[i] = mass[half:].sum()
            mass = mass[:half] + mass[half:]
        return upper - mass[0] * theta

    def exact_kl(self, theta_p, theta_q):
        """KL between two product-Bernoulli laws, closed form."""
        from scipy.special import xlogy

        p = np.asarray(theta_p, dtype=float)
        q = np.asarray(theta_q, dtype=float)
        terms = xlogy(p, p / q) + xlogy(1.0 - p, (1.0 - p) / (1.0 - q))
        return float(terms.sum())

    def project(self, theta):
        return np.clip(theta, EPS, 1.0 - EPS)

    def check_domain(self, theta):
        _check_interior(theta)


class LogitBernoulliFamily(Family):
    """Same distributions in the logit representation P(x_i=1) = sigmoid(t_i).

    This is the exponential-family parametrization: the score is x - E x and
    the Fisher matrix is diag(Var x_i).
    """

    def __init__(self, dim):
        self.dim = int(dim)
        self._probabilities = BernoulliFamily(self.dim)  # shares its enumeration

    @property
    def dim_theta(self):
        return self.dim

    @staticmethod
    def mean(theta):
        with np.errstate(over="ignore"):  # exp(-theta) = inf gives the limit p = 0
            return 1.0 / (1.0 + np.exp(-np.asarray(theta, dtype=float)))

    @staticmethod
    def from_probabilities(p):
        p = np.asarray(p, dtype=float)
        _check_interior(p)
        return np.log(p) - np.log1p(-p)

    def sample(self, theta, n, rng):
        return (rng.random((n, self.dim)) < self.mean(theta)).astype(np.uint8)

    def _interior_mean(self, theta):
        """mean(theta); DomainError where p (1 - p) is 0, as once theta_i
        > ~37 rounds p_i to 1 (or < ~-745 to 0)."""
        p = self.mean(theta)
        if not np.all(p * (1.0 - p) > 0.0):
            raise DomainError("Bernoulli logits must keep every probability "
                              "strictly inside (0, 1)")
        return p

    def log_density(self, theta, samples):
        x = np.asarray(samples, dtype=float)
        p = self._interior_mean(theta)
        return x @ np.log(p) + (1.0 - x) @ np.log1p(-p)

    def grad_log_density(self, theta, samples):
        return np.asarray(samples, dtype=float) - self.mean(theta)

    def natural_grad_log_density(self, theta, samples):
        p = self._interior_mean(theta)
        return (np.asarray(samples, dtype=float) - p) / (p * (1.0 - p))

    def fisher(self, theta):
        p = self._interior_mean(theta)
        return np.diag(p * (1.0 - p))

    def check_domain(self, theta):
        self._interior_mean(theta)

    def sufficient_stats(self, samples):
        return np.asarray(samples, dtype=float)

    def to_expectation(self, theta):
        return self.mean(theta)

    def from_expectation(self, tbar):
        return self.from_probabilities(np.clip(tbar, EPS, 1.0 - EPS))

    def enumerate_points(self):
        return self._probabilities.enumerate_points()

    def exact_kl(self, theta_p, theta_q):
        return self._probabilities.exact_kl(self._interior_mean(theta_p),
                                            self._interior_mean(theta_q))

