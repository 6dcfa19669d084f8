"""Contract shared by all distribution families.

A family maps a flat parameter vector theta to a probability distribution on
its search space.  The step engines only ever touch theta as a vector and
treat samples as an opaque container, so families are free to represent
points however is natural (bit matrices, float matrices, (x, h) pairs).

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
    latent = False  # True when the density marginalizes hidden variables
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

    def natural_grad_log_density(self, theta, samples):
        """Closed-form Fisher-preconditioned score, when known."""
        raise CapabilityError(f"{type(self).__name__} has no closed-form natural gradient")

    def natural_step(self, theta, samples, w, dt):
        """theta + dt * sum_i w_i (closed-form natural score at x_i)."""
        return theta + dt * (w @ self.natural_grad_log_density(theta, samples))

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
        """All points of the search space, as a sample container."""
        raise CapabilityError(f"{type(self).__name__} is not enumerable")

    # -- housekeeping ----------------------------------------------------------
    def project(self, theta):
        """Clamp theta back into the valid domain (identity by default)."""
        return theta

    def points_of(self, samples):
        """Search-space points to hand to an objective function."""
        return samples

    def sample_size(self, samples):
        if isinstance(samples, tuple):
            return len(samples[0])
        return len(samples)

    @property
    def capabilities(self):
        caps = set()
        for cap, names in [
            ("sample", ["sample"]),
            ("grad_log_density", ["grad_log_density"]),
            ("exact_fisher", ["fisher"]),
            ("expectation_params", ["to_expectation", "from_expectation"]),
            ("mean_cov", ["pack"]),
            ("enumerable", ["enumerate_points"]),
        ]:
            if all(getattr(type(self), name) is not getattr(Family, name) for name in names):
                caps.add(cap)
        if self.latent:
            caps.add("latent")
        return frozenset(caps)


def enumerate_bits(n):
    """All 2^n bit vectors as uint8 rows; row k holds the binary digits of k."""
    codes = np.arange(2**n, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def as_weight_array(weights):
    """Accept RankedWeights or a bare array; return the weight vector."""
    w = getattr(weights, "weights", weights)
    return np.asarray(w, dtype=float)
