"""Independent Bernoulli bits, in probability and logit parametrizations.

The probability parameters are also the family's expectation parameters, so
the natural-gradient step in these coordinates is the convex blend
``(1 - w_total * dt) * theta + dt * (weighted bit average)``.  The logit
parametrization is the natural (exponential-family) one; mapped back to
probabilities its steps agree with the probability-coordinate steps to
O(dt^2), which the invariance tests exercise.
"""

import numpy as np
from scipy.special import xlogy

from .base import CapabilityError, DomainError, Family, enumerate_bits

__all__ = ["BernoulliFamily", "LogitBernoulliFamily"]

EPS = 1e-6  # boundary clamp: the Fisher matrix blows up at 0 and 1


def _check_interior(theta):
    if np.any(theta <= 0.0) or np.any(theta >= 1.0):
        raise DomainError("Bernoulli probabilities must lie strictly inside (0, 1)")


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
        # One log per coordinate, picked per bit.  xlogy(1, .) gives -inf at an
        # exact 0 without a warning, and np.where drops it where the bit does
        # not use it (the flow evaluates corners)
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
        if np.any(tbar < 0.0) or np.any(tbar > 1.0):
            raise DomainError("expectation parameters must lie in [0, 1]")
        return np.clip(tbar, EPS, 1.0 - EPS)

    def enumerate_points(self):
        if self.dim > 22:
            raise CapabilityError("Bernoulli enumeration limited to d <= 22")
        return enumerate_bits(self.dim)

    def exact_kl(self, theta_p, theta_q):
        """KL between two product-Bernoulli laws, closed form."""
        p = np.asarray(theta_p, dtype=float)
        q = np.asarray(theta_q, dtype=float)
        terms = xlogy(p, p / q) + xlogy(1.0 - p, (1.0 - p) / (1.0 - q))
        return float(terms.sum())

    def project(self, theta):
        return np.clip(theta, EPS, 1.0 - EPS)


class LogitBernoulliFamily(Family):
    """Same distributions in the logit representation P(x_i=1) = sigmoid(t_i).

    This is the exponential-family parametrization: the score is x - E x and
    the Fisher matrix is diag(Var x_i).
    """

    def __init__(self, dim):
        self.dim = int(dim)

    @property
    def dim_theta(self):
        return self.dim

    @staticmethod
    def mean(theta):
        return 1.0 / (1.0 + np.exp(-np.asarray(theta, dtype=float)))

    @staticmethod
    def from_probabilities(p):
        p = np.asarray(p, dtype=float)
        _check_interior(p)
        return np.log(p) - np.log1p(-p)

    def sample(self, theta, n, rng):
        return (rng.random((n, self.dim)) < self.mean(theta)).astype(np.uint8)

    def log_density(self, theta, samples):
        x = np.asarray(samples, dtype=float)
        p = self.mean(theta)
        return x @ np.log(p) + (1.0 - x) @ np.log1p(-p)

    def grad_log_density(self, theta, samples):
        return np.asarray(samples, dtype=float) - self.mean(theta)

    def natural_grad_log_density(self, theta, samples):
        p = self.mean(theta)
        return (np.asarray(samples, dtype=float) - p) / (p * (1.0 - p))

    def fisher(self, theta):
        p = self.mean(theta)
        return np.diag(p * (1.0 - p))

    def sufficient_stats(self, samples):
        return np.asarray(samples, dtype=float)

    def to_expectation(self, theta):
        return self.mean(theta)

    def from_expectation(self, tbar):
        return self.from_probabilities(np.clip(tbar, EPS, 1.0 - EPS))

    def enumerate_points(self):
        return BernoulliFamily(self.dim).enumerate_points()

    def exact_kl(self, theta_p, theta_q):
        return BernoulliFamily(self.dim).exact_kl(self.mean(theta_p), self.mean(theta_q))

