"""Contract shared by all distribution families.

A family maps a flat parameter vector theta to a probability distribution on
its search space.  The step engines only ever touch theta as a vector and
treat samples as an opaque container, so families are free to represent
samples however is natural (bit matrices, float matrices, (x, h) pairs).

Methods are optional; a family advertises what it implements through
``capabilities`` and raises ``CapabilityError`` for the rest.
"""

import numpy as np

__all__ = ["Family", "CapabilityError", "DomainError", "DegenerateUpdate", "SingularFisher",
           "enumerate_bits"]


class CapabilityError(NotImplementedError):
    """Requested an operation the family does not support (at this size)."""


class DomainError(ValueError):
    """Parameter vector outside the family's valid domain."""


class DegenerateUpdate(ValueError):
    """Update left the family's parameter domain (e.g. non-PD covariance)."""


class SingularFisher(ValueError):
    """Fisher matrix not invertible (or condition number beyond threshold)."""


class Family:
    dim_theta = None
    # score U(x) - E[U], with U = score_stats(theta, x) and E[U] a batch mean
    centred_score = False

    # -- sampling and densities ------------------------------------------
    def sample(self, theta, n, rng):
        raise CapabilityError(f"{type(self).__name__} cannot sample")

    def log_density(self, theta, samples):
        raise CapabilityError(f"{type(self).__name__} has no log-density")

    def grad_log_density(self, theta, samples):
        """Per-sample score vectors, shape (n, dim_theta)."""
        raise CapabilityError(f"{type(self).__name__} has no score function")

    def fisher_rows(self, theta, samples):
        """Per-sample rows whose covariance (when ``centred_score``) or mean
        outer product (otherwise) estimates the Fisher matrix: the score
        statistics, or the scores.  Integer rows must hold 0/1 values."""
        if self.centred_score:
            return self.score_stats(theta, samples)
        return self.grad_log_density(theta, samples)

    def natural_grad_log_density(self, theta, samples):
        """Closed-form Fisher-preconditioned score, when known."""
        raise CapabilityError(f"{type(self).__name__} has no closed-form natural gradient")

    def natural_drift(self, theta, samples, mass):
        """sum_i mass_i (closed-form natural score at x_i)."""
        return mass @ self.natural_grad_log_density(theta, samples)

    def natural_step(self, theta, samples, w, dt):
        """theta + dt * sum_i w_i (closed-form natural score at x_i)."""
        return theta + dt * self.natural_drift(theta, samples, w)

    # -- geometry ----------------------------------------------------------
    def fisher(self, theta):
        """Exact Fisher information matrix at theta."""
        raise CapabilityError(f"{type(self).__name__} has no exact Fisher matrix")

    # -- exponential-family structure ---------------------------------------
    def sufficient_stats(self, samples):
        raise CapabilityError(f"{type(self).__name__} has no sufficient statistics")

    def to_expectation(self, theta):
        raise CapabilityError(f"{type(self).__name__} has no expectation parameters")

    def from_expectation(self, tbar):
        raise CapabilityError(f"{type(self).__name__} has no expectation parameters")

    def pack(self, params):
        """Flat theta from a (mean, covariance) GaussianParams."""
        raise CapabilityError(f"{type(self).__name__} has no (mean, covariance) form")

    # -- enumeration ---------------------------------------------------------
    def enumerate_points(self):
        """All points of the search space, as rows an objective takes."""
        raise CapabilityError(f"{type(self).__name__} is not enumerable")

    def enumerated_probs(self, theta):
        """P_theta of every row of ``enumerate_points()``, in that order."""
        return np.exp(self.log_density(theta, self.enumerate_points()))

    def enumerated_drift(self, theta, mass):
        """``natural_drift`` over the rows of ``enumerate_points()``."""
        return self.natural_drift(theta, self.enumerate_points(), mass)

    def enumerated_score(self, theta):
        """Score of every row of ``enumerate_points()``, for the exact flow."""
        return self.grad_log_density(theta, self.enumerate_points())

    # -- housekeeping ----------------------------------------------------------
    def project(self, theta):
        """Clamp theta back into the valid domain (identity by default)."""
        return theta

    def check_domain(self, theta):
        """DomainError when theta is outside the family's domain (by default
        no theta is)."""

    def points_of(self, samples):
        """Search-space points to hand to an objective function."""
        return samples

    @property
    def capabilities(self):
        caps = set()
        for cap, names in [
            ("grad_log_density", ["grad_log_density"]),
            ("expectation_params", ["to_expectation", "from_expectation"]),
            ("mean_cov", ["pack"]),
            ("enumerable", ["enumerate_points"]),
        ]:
            if all(getattr(type(self), name) is not getattr(Family, name) for name in names):
                caps.add(cap)
        return frozenset(caps)


def enumerate_bits(n):
    """All 2^n bit vectors as uint8 rows; row k holds the binary digits of k."""
    codes = np.arange(2**n, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def as_weight_array(weights):
    """Accept RankedWeights or a bare array; return the weight vector."""
    w = getattr(weights, "weights", weights)
    return np.asarray(w, dtype=float)
