"""Restricted Boltzmann machines as distribution families for optimization.

An RBM puts mass exp(-E(x, h)) / Z on pairs of visible bits x and hidden
bits h, with bilinear energy

    E(x, h) = - a.x - b.h - x^T W h.

Two families are exposed.  The joint family treats (x, h) as the sampled
point: its sufficient statistics are (x, h, x (x) h) and its Fisher matrix
is the plain covariance of those statistics.  The marginal family sums h
out: scores and Fisher are built from U(x) = E[T | x], which makes its
Fisher matrix dominated by the joint one.  The joint family is the default
for optimization (numerically the more stable choice); the marginal family
exists mainly for that comparison.

Exact quantities (partition function, moments, Fisher) enumerate the 2^n_x
visible configurations with the hidden layer marginalized analytically, and
are refused above ENUMERATION_CUTOFF total units.  Gibbs estimates remain
available at any size: chains are vectorized, one independent chain per
sample, with a configurable number of burn-in sweeps.  While 2^n_h <= n,
visible units are drawn from a per-hidden-state table of P(x | h), built
once per call; wider hidden layers fall back to one matmul per sweep.  Both
paths give the same bits.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base import CapabilityError, Family

__all__ = [
    "RbmParams",
    "JointRbmFamily",
    "MarginalRbmFamily",
    "rbm_init",
    "flip_hidden_params",
    "flip_hidden_samples",
    "centered_to_standard",
    "standard_to_centered",
]

ENUMERATION_CUTOFF = 20  # max n_x + n_h for exact Z / moments / Fisher


@dataclass
class RbmParams:
    a: np.ndarray  # visible biases (n_x,)
    b: np.ndarray  # hidden biases (n_h,)
    W: np.ndarray  # interaction weights (n_x, n_h)

    @property
    def dim(self):
        return self.a.size + self.b.size + self.W.size

    def flat(self):
        """Serialization order: a, then b, then W row-major."""
        return np.concatenate([self.a, self.b, self.W.ravel()])

    @staticmethod
    def from_flat(vec, n_x, n_h):
        a = vec[:n_x].copy()
        b = vec[n_x:n_x + n_h].copy()
        W = vec[n_x + n_h:].reshape(n_x, n_h).copy()
        return RbmParams(a, b, W)

    def copy(self):
        return RbmParams(self.a.copy(), self.b.copy(), self.W.copy())


def rbm_init(n_x, n_h, rng):
    """Weights ~ N(0, 1/(n_x n_h)); biases set so every unit starts near 1/2.

    b_j = -sum_i w_ij / 2 and a_i = -sum_j w_ij / 2 plus a tiny normal jitter
    (variance 0.01 / n_x^2) that breaks exact symmetry between runs.
    """
    W = rng.normal(0.0, 1.0 / math.sqrt(n_x * n_h), size=(n_x, n_h))
    b = -W.sum(axis=0) / 2.0
    a = -W.sum(axis=1) / 2.0 + rng.normal(0.0, 0.1 / n_x, size=n_x)
    return RbmParams(a, b, W)


def _sigmoid(t):
    # clipped logistic: saturation at |t| = 40 is far below double resolution
    return 1.0 / (1.0 + np.exp(-np.clip(t, -40.0, 40.0)))


def _softplus(t):
    return np.logaddexp(0.0, t)


def _enumerate_bits(n):
    codes = np.arange(2**n, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


class _RbmCommon(Family):
    def __init__(self, n_x, n_h, *, burn_in=100):
        self.n_x = int(n_x)
        self.n_h = int(n_h)
        self.burn_in = int(burn_in)

    @property
    def dim_theta(self):
        return self.n_x + self.n_h + self.n_x * self.n_h

    def unpack(self, theta):
        return RbmParams.from_flat(np.asarray(theta, dtype=float), self.n_x, self.n_h)

    def init_params(self, rng):
        return rbm_init(self.n_x, self.n_h, rng).flat()

    # -- conditionals -------------------------------------------------------
    def p_hidden_given_visible(self, theta, x):
        p = self.unpack(theta)
        return _sigmoid(p.b + np.asarray(x, dtype=float) @ p.W)

    def p_visible_given_hidden(self, theta, h):
        p = self.unpack(theta)
        return _sigmoid(p.a + np.asarray(h, dtype=float) @ p.W.T)

    def energy(self, theta, x, h):
        p = self.unpack(theta)
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        return -(x @ p.a + h @ p.b + ((x @ p.W) * h).sum(axis=1))

    def _gibbs(self, theta, n, rng):
        p = self.unpack(theta)
        x = (rng.random((n, self.n_x)) < 0.5).astype(np.float64)
        if 2**self.n_h <= n:
            # P(x | h) takes one row per hidden state: gather it by the
            # hidden code instead of a fresh n x n_x matmul and sigmoid
            H = _enumerate_bits(self.n_h).astype(np.float64)
            px_table = _sigmoid(p.a + H @ p.W.T)
            place = 2 ** np.arange(self.n_h)
            px, u = np.empty_like(x), np.empty_like(x)
            for _ in range(self.burn_in):
                h = rng.random((n, self.n_h)) < _sigmoid(p.b + x @ p.W)
                np.take(px_table, h @ place, axis=0, out=px, mode="clip")
                np.less(rng.random(out=u), px, out=x)
        else:
            for _ in range(self.burn_in):
                h = (rng.random((n, self.n_h)) < _sigmoid(p.b + x @ p.W)).astype(np.float64)
                x = (rng.random((n, self.n_x)) < _sigmoid(p.a + h @ p.W.T)).astype(np.float64)
        h = rng.random((n, self.n_h)) < _sigmoid(p.b + x @ p.W)
        return x.astype(np.uint8), h.astype(np.uint8)

    # -- exact quantities by visible-side enumeration -----------------------
    def _check_enumerable(self):
        if self.n_x + self.n_h > ENUMERATION_CUTOFF:
            raise CapabilityError(
                f"exact RBM quantities need n_x + n_h <= {ENUMERATION_CUTOFF}"
            )

    @cached_property
    def _visible_bits(self):
        """The 2^n_x visible configurations as float rows, built once."""
        self._check_enumerable()
        X = _enumerate_bits(self.n_x).astype(float)
        X.flags.writeable = False
        return X

    def _log_mass(self, theta):
        """Hidden activations and unnormalized log-mass of every visible config."""
        p = self.unpack(theta)
        X = self._visible_bits
        act = p.b + X @ p.W
        return act, X @ p.a + _softplus(act).sum(axis=1)

    def _visible_table(self, theta):
        """All visible configs with normalized mass, P(h | x) and ln Z."""
        act, logmass = self._log_mass(theta)
        log_z = _logsumexp(logmass)
        probs = np.exp(logmass - log_z)
        return self._visible_bits, probs, _sigmoid(act), log_z

    def log_partition(self, theta):
        return _logsumexp(self._log_mass(theta)[1])

    def exact_stats(self, theta):
        """Exact expectation of the sufficient statistics (x, h, x (x) h)."""
        return _stats_of(*self._visible_table(theta)[:3])


def _stats_of(X, probs, PH):
    ex = X.T @ probs
    eh = PH.T @ probs
    exh = (X * probs[:, None]).T @ PH
    return np.concatenate([ex, eh, exh.ravel()])


def _logsumexp(v):
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


class JointRbmFamily(_RbmCommon):
    """RBM over (x, h) pairs; samples are tuples (x_bits, h_bits)."""

    def sample(self, theta, n, rng):
        return self._gibbs(theta, n, rng)

    def points_of(self, samples):
        return samples[0]

    def sufficient_stats(self, samples):
        x = np.asarray(samples[0], dtype=float)
        h = np.asarray(samples[1], dtype=float)
        xh = np.einsum("ri,rj->rij", x, h).reshape(x.shape[0], -1)
        return np.concatenate([x, h, xh], axis=1)

    def log_density(self, theta, samples):
        return -self.energy(theta, *samples) - self.log_partition(theta)

    def grad_log_density(self, theta, samples, model_stats=None):
        """Score T(x, h) - E[T]; the model term is exact by default and can
        be replaced by a Gibbs estimate via ``model_stats``."""
        stats = self.exact_stats(theta) if model_stats is None else model_stats
        return self.sufficient_stats(samples) - stats

    def to_expectation(self, theta):
        return self.exact_stats(theta)

    def fisher(self, theta):
        """Exact Cov(T, T): second moments via conditional hidden moments."""
        X, probs, PH, _ = self._visible_table(theta)
        nx, nh = self.n_x, self.n_h
        var_h = PH * (1.0 - PH)

        pX = X * probs[:, None]
        m_xx = pX.T @ X
        m_xh = pX.T @ PH
        m_hh = (PH * probs[:, None]).T @ PH + np.diag(var_h.T @ probs)

        m_x_xh = np.einsum("r,ri,rk,rl->ikl", probs, X, X, PH).reshape(nx, nx * nh)
        m_h_xh = np.einsum("r,rj,rk,rl->jkl", probs, PH, X, PH)
        corr = np.einsum("r,rk,rl->kl", probs, X, var_h)  # E x_k var(h_l|x)
        for l in range(nh):
            m_h_xh[l, :, l] += corr[:, l]
        m_h_xh = m_h_xh.reshape(nh, nx * nh)

        m_xh_xh = np.einsum("r,ri,rj,rk,rl->ijkl", probs, X, PH, X, PH)
        corr2 = np.einsum("r,ri,rk,rj->ikj", probs, X, X, var_h)  # E x_i x_k var(h_j|x)
        for j in range(nh):
            m_xh_xh[:, j, :, j] += corr2[:, :, j]
        m_xh_xh = m_xh_xh.reshape(nx * nh, nx * nh)

        second = np.block([
            [m_xx, m_xh, m_x_xh],
            [m_xh.T, m_hh, m_h_xh],
            [m_x_xh.T, m_h_xh.T, m_xh_xh],
        ])
        mean = _stats_of(X, probs, PH)
        return second - np.outer(mean, mean)

    def enumerate_points(self):
        self._check_enumerable()
        X = _enumerate_bits(self.n_x)
        H = _enumerate_bits(self.n_h)
        x_all = np.repeat(X, len(H), axis=0)
        h_all = np.tile(H, (len(X), 1))
        return x_all, h_all

    def exact_kl(self, theta_p, theta_q):
        """KL between two joint RBM laws: the joint family is exponential in
        theta, so KL(P||Q) = (theta_p - theta_q) . E_P[T] - ln Z_p + ln Z_q."""
        tp = np.asarray(theta_p, dtype=float)
        tq = np.asarray(theta_q, dtype=float)
        X, probs, PH, log_zp = self._visible_table(tp)
        return float((tp - tq) @ _stats_of(X, probs, PH)
                     - log_zp + self.log_partition(tq))


class MarginalRbmFamily(_RbmCommon):
    """RBM marginalized over the hidden layer; samples are visible bits."""

    latent = True

    def sample(self, theta, n, rng):
        return self._gibbs(theta, n, rng)[0]

    def _u_stats(self, theta, x):
        """U(x) = E[T | x] = (x, p(h|x), x (x) p(h|x))."""
        x = np.asarray(x, dtype=float)
        ph = self.p_hidden_given_visible(theta, x)
        xh = np.einsum("ri,rj->rij", x, ph).reshape(x.shape[0], -1)
        return np.concatenate([x, ph, xh], axis=1)

    def log_density(self, theta, samples):
        p = self.unpack(theta)
        x = np.asarray(samples, dtype=float)
        act = p.b + x @ p.W
        return x @ p.a + _softplus(act).sum(axis=1) - self.log_partition(theta)

    def grad_log_density(self, theta, samples, model_stats=None):
        stats = self.exact_stats(theta) if model_stats is None else model_stats
        return self._u_stats(theta, samples) - stats

    def fisher(self, theta):
        """Exact Cov(U, U) over the visible marginal."""
        X, probs, _, _ = self._visible_table(theta)
        U = self._u_stats(theta, X)
        mean = U.T @ probs
        return (U * probs[:, None]).T @ U - np.outer(mean, mean)

    def enumerate_points(self):
        self._check_enumerable()
        return _enumerate_bits(self.n_x)

    def exact_kl(self, theta_p, theta_q):
        # The marginal law is not exponential in theta: sum directly.
        lp = self._log_mass(theta_p)[1]
        lp -= _logsumexp(lp)
        lq = self._log_mass(theta_q)[1]
        lq -= _logsumexp(lq)
        return float(np.exp(lp) @ (lp - lq))


# -- reparametrizations -------------------------------------------------------

def flip_hidden_params(params, j):
    """Relabel hidden unit j (h_j -> 1 - h_j) in parameter space.

    a_i += w_ij, b_j = -b_j, w_ij = -w_ij: an affine map of theta, so it
    commutes exactly with natural-gradient steps.
    """
    out = params.copy()
    out.a = out.a + out.W[:, j]
    out.b[j] = -out.b[j]
    out.W[:, j] = -out.W[:, j]
    return out


def flip_hidden_samples(samples, j):
    x, h = samples
    h = h.copy()
    h[:, j] = 1 - h[:, j]
    return x, h


def standard_to_centered(params):
    """Biases of the +-1/2-centered energy parametrization (A, B, W)."""
    A = params.a + params.W.sum(axis=1) / 2.0
    B = params.b + params.W.sum(axis=0) / 2.0
    return RbmParams(A, B, params.W.copy())


def centered_to_standard(centered):
    a = centered.a - centered.W.sum(axis=1) / 2.0
    b = centered.b - centered.W.sum(axis=0) / 2.0
    return RbmParams(a, b, centered.W.copy())
