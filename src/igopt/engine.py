"""Step engines and per-step diagnostics.

All engines are pure functions of (family, theta, samples, weights, dt):
they never draw random numbers and never mutate their inputs, so they are
safe to call concurrently on distinct states.

``igo_step`` is the natural-gradient update
    theta' = theta + dt * I(theta)^{-1} sum_i w_i d/dtheta ln P_theta(x_i).
``igo_ml_step`` realizes the same move through expectation coordinates,
where it becomes the blend (1 - dt) Tbar + dt T*; for exponential families
written in those coordinates the two agree to machine precision when the
weights sum to one, and at dt = 1 both collapse onto the plain weighted
maximum-likelihood jump of ``cem_step``.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import fisher as fisher_mod
from .families.base import (CapabilityError, DegenerateUpdate, DomainError, Family,
                            as_weight_array)

__all__ = [
    "igo_step",
    "vanilla_step",
    "igo_ml_step",
    "weighted_ml",
    "cem_step",
    "smoothed_cem_step",
    "StepReport",
    "step_diagnostics",
    "adapt_dt",
    "lift_noisy",
    "LiftedNoisyFamily",
]

log = logging.getLogger(__name__)


def _score(family, theta, samples, model_stats):
    if model_stats is None:
        return family.grad_log_density(theta, samples)
    return family.grad_log_density(theta, samples, model_stats=model_stats)


def igo_step(family, theta, samples, weights, dt, *, fisher=None, model_stats=None):
    """One natural-gradient step.  Deterministic given its inputs.

    Without ``fisher`` the family's closed-form Fisher-preconditioned step
    is used when available; otherwise the step solves against ``fisher``
    (an explicit FisherMatrix) or the family's exact Fisher matrix.
    ``model_stats`` centres the score of a ``centred_score`` family.
    SingularFisher propagates to the caller.
    """
    w = as_weight_array(weights)
    theta = np.asarray(theta, dtype=float)
    if fisher is None:
        try:
            return family.natural_step(theta, samples, w, dt)
        except CapabilityError:
            pass
    grad_sum = w @ _score(family, theta, samples, model_stats)
    fm = fisher_mod.exact_fisher(family, theta) if fisher is None else fisher
    return theta + dt * fisher_mod.solve(fm, grad_sum)


def vanilla_step(family, theta, samples, weights, dt, *, model_stats=None):
    """Plain-gradient baseline: identical loop with the Fisher inverse
    replaced by the identity."""
    w = as_weight_array(weights)
    theta = np.asarray(theta, dtype=float)
    return theta + dt * (w @ _score(family, theta, samples, model_stats))


def _normalized(w, what):
    """w rescaled to sum to one (logged when it did not already)."""
    total = w.sum()
    if math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
        return w
    if total == 0.0:
        raise ValueError(f"{what}: weights sum to zero, cannot renormalize")
    log.info("%s: renormalizing weights (sum was %.6g)", what, total)
    return w / total


def igo_ml_step(family, theta, samples, weights, dt):
    """Smoothed maximum-likelihood step through expectation coordinates.

    Tbar' = (1 - dt) Tbar + dt T* with T* the weighted sufficient statistics
    of the sample; the result is mapped back to the family's own
    parametrization.  Weights that do not sum to one are rescaled (and the
    rescaling logged).  dt = 1 is the weighted ML jump; DegenerateUpdate
    propagates from the family when the blended statistics leave the valid
    domain.
    """
    if not 0.0 < dt <= 1.0:
        raise ValueError("igo_ml_step needs dt in (0, 1]")
    w = _normalized(as_weight_array(weights), "igo_ml_step")
    tbar = family.to_expectation(np.asarray(theta, dtype=float))
    t_star = w @ family.sufficient_stats(samples)
    return family.from_expectation((1.0 - dt) * tbar + dt * t_star)


def weighted_ml(family, samples, weights):
    """argmax over theta of the weighted log-likelihood (weights sum to 1).

    For exponential families this is the expectation-parameter average of
    the sufficient statistics.
    """
    w = _normalized(as_weight_array(weights), "weighted_ml")
    return family.from_expectation(w @ family.sufficient_stats(samples))


def cem_step(family, samples, values, elite_fraction):
    """Maximum-likelihood jump to the elite sample.

    The ceil(q N) best samples receive uniform weight 1/N_e (stable
    tie-break by sample order) and the family's weighted ML estimate is
    returned.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    n_elite = math.ceil(elite_fraction * n)
    if not 1 <= n_elite <= n:
        raise ValueError("elite fraction leaves no valid elite set")
    order = np.argsort(values, kind="stable")
    w = np.zeros(n)
    w[order[:n_elite]] = 1.0 / n_elite
    return weighted_ml(family, samples, w)


def smoothed_cem_step(family, theta, samples, weights, alpha, parametrization):
    """(1 - alpha) theta + alpha argmax, blended in the declared coordinates.

    parametrization: "natural" blends the family's own parameter vectors;
    "expectation" blends expectation parameters, which is ``igo_ml_step`` at
    dt = alpha on renormalized weights.

    In expectation coordinates the argmax is the weighted statistic average
    itself, so it is blended directly: a boundary-touching elite (where the
    materialized ML estimate would be degenerate or clipped) still yields a
    valid interior blend.  The "natural" path does materialize the argmax
    and inherits its domain policy.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("smoothed_cem_step needs alpha in (0, 1]")
    if parametrization == "natural":
        theta_star = weighted_ml(family, samples, weights)
        return (1.0 - alpha) * np.asarray(theta, dtype=float) + alpha * theta_star
    if parametrization == "expectation":
        return igo_ml_step(family, theta, samples, weights, alpha)
    raise ValueError(f"unknown parametrization: {parametrization!r}")


# -- diagnostics ---------------------------------------------------------------

@dataclass
class StepReport:
    kl_estimate: float
    kl_stderr: float
    fisher_step_norm: float
    cosine_with_previous: float = None  # None when no previous step


def step_diagnostics(family, theta_before, theta_after, *, previous_step=None,
                     fisher=None, samples=None):
    """KL spent by the step, its Fisher norm, and the turn angle.

    The KL is the family's closed form ``exact_kl`` (stderr 0).  A family
    without one, or a step it cannot answer, falls back to the mean
    old-minus-new log-likelihood on the update's own ``samples`` (drawn
    from the pre-step distribution); without samples, or if that fails
    too, the KL is NaN.  A DomainError from the new log-likelihood means
    theta_after left the family's domain: it raises DegenerateUpdate.  The
    norm is sqrt(delta M delta) with M the ``fisher`` estimate's matrix, or
    the family's exact Fisher matrix at theta_before (NaN when it has
    none).  The cosine is the same M's scalar product between the previous
    and current increments.
    """
    theta_before = np.asarray(theta_before, dtype=float)
    theta_after = np.asarray(theta_after, dtype=float)
    delta = theta_after - theta_before
    try:
        mat = family.fisher(theta_before) if fisher is None else fisher.matrix
        fisher_step_norm = math.sqrt(max(0.0, float(delta @ mat @ delta)))
    except (CapabilityError, DomainError):
        mat, fisher_step_norm = None, float("nan")

    try:
        kl, stderr = float(family.exact_kl(theta_before, theta_after)), 0.0
    except (CapabilityError, DomainError, DegenerateUpdate):
        try:
            if samples is None:
                raise CapabilityError("no samples for the KL estimate")
            before = family.log_density(theta_before, samples)
        except (CapabilityError, DomainError, DegenerateUpdate):
            kl, stderr = float("nan"), float("nan")
        else:
            try:
                diff = before - family.log_density(theta_after, samples)
            except DomainError as err:
                raise DegenerateUpdate(f"the update left the family's domain: {err}") from None
            m = diff.size
            kl = float(diff.mean())
            stderr = float(diff.std(ddof=1) / math.sqrt(m)) if m > 1 else float("inf")

    cosine = None
    if previous_step is not None and mat is not None:
        prev = np.asarray(previous_step, dtype=float)
        num = float(prev @ mat @ delta)
        den = math.sqrt(max(0.0, float(prev @ mat @ prev))) * fisher_step_norm
        if den > 0.0:
            cosine = max(-1.0, min(1.0, num / den))

    return StepReport(kl, stderr, fisher_step_norm, cosine)


def adapt_dt(report, dt, beta):
    """Step-size adaptation from the angle between consecutive steps.

    Multiplies dt by exp(beta cos(alpha) / 2).  A missing cosine (first or
    zero-length step) leaves dt unchanged.  Offered as optional: a positive
    cosine does not certify healthy progress.
    """
    c = report.cosine_with_previous
    if c is None:
        return dt
    return dt * math.exp(beta * c / 2.0)


# -- noisy objectives as a product family -------------------------------------

class LiftedNoisyFamily(Family):
    """Product of a base family with the uniform law on [0, 1].

    Samples are (base_samples, omega) pairs; the uniform coordinate carries
    no parameters, so scores, Fisher information, and every update are those
    of the base family.  Running the ordinary algorithm on a noisy objective
    is the same algorithm as running this family on the deterministic
    two-argument objective, and with shared substreams the two trajectories
    are identical bit for bit.
    """

    def __init__(self, base):
        self.base = base
        self.centred_score = base.centred_score
        self.dim_theta = base.dim_theta

    @property
    def capabilities(self):
        return super().capabilities & self.base.capabilities

    def sample(self, theta, n, rng):
        x = self.base.sample(theta, n, rng)
        omega = rng.random(n)
        return x, omega

    def log_density(self, theta, samples):
        return self.base.log_density(theta, samples[0])  # uniform density is 1

    def grad_log_density(self, theta, samples, **kwargs):
        return self.base.grad_log_density(theta, samples[0], **kwargs)

    def score_stats(self, theta, samples):
        return self.base.score_stats(theta, samples[0])

    def fisher_rows(self, theta, samples):
        return self.base.fisher_rows(theta, samples[0])

    def natural_step(self, theta, samples, w, dt):
        return self.base.natural_step(theta, samples[0], w, dt)

    def fisher(self, theta):
        return self.base.fisher(theta)

    def sufficient_stats(self, samples):
        return self.base.sufficient_stats(samples[0])

    def to_expectation(self, theta):
        return self.base.to_expectation(theta)

    def from_expectation(self, tbar):
        return self.base.from_expectation(tbar)

    def exact_kl(self, theta_p, theta_q):
        return self.base.exact_kl(theta_p, theta_q)

    def project(self, theta):
        return self.base.project(theta)

    def points_of(self, samples):
        return self.base.points_of(samples[0])


def lift_noisy(family):
    """Wrap a family on X into the product family on X x [0, 1]."""
    return LiftedNoisyFamily(family)
