"""Gaussian families and the classic Gaussian update rules.

Parametrizations provided:

* ``FullGaussianFamily``   -- flat theta = [mean, upper triangle of C].
* ``GaussianExpectationFamily`` -- same distributions in expectation
  coordinates [mean, upper triangle of E xx^T]; the natural-gradient step in
  these coordinates is the linear blend used by maximum-likelihood updates.
* ``IsotropicGaussianFamily``   -- theta = [mean, log sigma].
* ``MeanGaussianFamily``        -- mean only, identity covariance.

``gaussian_step`` implements the named update rules (cma / emna / xnes /
unified-j) on structured (m, C) or (m, A) parameters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .base import DegenerateUpdate, DomainError, Family

__all__ = [
    "GaussianParams",
    "GaussianSqrtParams",
    "FullGaussianFamily",
    "GaussianExpectationFamily",
    "IsotropicGaussianFamily",
    "MeanGaussianFamily",
    "gaussian_step",
    "to_second_moment",
    "from_second_moment",
]

_LOG2PI = math.log(2.0 * math.pi)


# -- upper-triangle packing (row-major, documented serialization order) ------

def utri_pack(mat):
    d = mat.shape[0]
    return mat[np.triu_indices(d)]


def utri_unpack(vec, d):
    out = np.zeros((d, d))
    iu = np.triu_indices(d)
    out[iu] = vec
    out.T[iu] = vec
    return out


def _tri_dim(d):
    return d * (d + 1) // 2


@dataclass
class GaussianParams:
    m: np.ndarray
    C: np.ndarray


@dataclass
class GaussianSqrtParams:
    """Mean plus covariance square root A with C = A A^T (xNES state)."""

    m: np.ndarray
    A: np.ndarray

    @property
    def C(self):
        return self.A @ self.A.T


def _chol(C):
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise DomainError("covariance matrix is not positive-definite") from None


def to_second_moment(params):
    """(m, C) -> (m, C + m m^T), the family's expectation parameters."""
    return params.m.copy(), params.C + np.outer(params.m, params.m)


def from_second_moment(m, second_moment):
    """Inverse map; raises DegenerateUpdate when the implied C is not PD."""
    C = second_moment - np.outer(m, m)
    C = 0.5 * (C + C.T)
    _require_pd(C)
    return GaussianParams(np.asarray(m, dtype=float).copy(), C)


class FullGaussianFamily(Family):
    """Multivariate normal with flat parameters [m, utri(C) row-major]."""

    def __init__(self, dim):
        self.dim = int(dim)

    @property
    def dim_theta(self):
        return self.dim + _tri_dim(self.dim)

    # -- structured <-> flat ------------------------------------------------
    def pack(self, params):
        return np.concatenate([params.m, utri_pack(params.C)])

    def unpack(self, theta):
        d = self.dim
        return GaussianParams(theta[:d].copy(), utri_unpack(theta[d:], d))

    def sample(self, theta, n, rng):
        p = self.unpack(theta)
        L = _chol(p.C)
        return p.m + rng.standard_normal((n, self.dim)) @ L.T

    def log_density(self, theta, samples):
        p = self.unpack(theta)
        L = _chol(p.C)
        y = np.linalg.solve(L, (np.asarray(samples, dtype=float) - p.m).T)
        logdet = 2.0 * np.log(np.diag(L)).sum()
        return -0.5 * (self.dim * _LOG2PI + logdet + (y * y).sum(axis=0))

    def grad_log_density(self, theta, samples):
        p = self.unpack(theta)
        B = np.linalg.inv(p.C)
        dev = np.asarray(samples, dtype=float) - p.m
        a = dev @ B                                    # rows: C^-1 (x - m)
        n = a.shape[0]
        iu, ju = np.triu_indices(self.dim)
        s = 0.5 * (a[:, iu] * a[:, ju] - B[iu, ju])    # matrix derivative entries
        off = (iu != ju)
        s[:, off] *= 2.0                               # c_ij appears twice in C
        return np.concatenate([a, s], axis=1)

    def natural_grad_log_density(self, theta, samples):
        # Fisher-preconditioned score in (m, C): [x - m, utri((x-m)(x-m)^T - C)].
        p = self.unpack(theta)
        dev = np.asarray(samples, dtype=float) - p.m
        iu, ju = np.triu_indices(self.dim)
        quad = dev[:, iu] * dev[:, ju] - p.C[iu, ju]
        return np.concatenate([dev, quad], axis=1)

    def fisher(self, theta):
        p = self.unpack(theta)
        B = np.linalg.inv(p.C)
        d = self.dim
        iu, ju = np.triu_indices(d)
        i, j, a, b = iu[:, None], ju[:, None], iu[None, :], ju[None, :]
        # entry (r, s) pairs covariance coordinates c_ij (row r) and c_ab;
        # float_power is the scalar pow of B[i, a] ** 2, bit for bit
        cc = np.where(i == j, np.where(a == b, 0.5 * np.float_power(B[i, a], 2.0),
                                       B[i, a] * B[i, b]),
                      np.where(a == b, B[a, i] * B[a, j],
                               B[i, a] * B[j, b] + B[i, b] * B[j, a]))
        out = np.zeros((self.dim_theta, self.dim_theta))
        out[:d, :d] = B
        out[d:, d:] = np.triu(cc) + np.triu(cc, 1).T  # the upper triangle, mirrored
        return out

    def sufficient_stats(self, samples):
        x = np.asarray(samples, dtype=float)
        iu, ju = np.triu_indices(self.dim)
        return np.concatenate([x, x[:, iu] * x[:, ju]], axis=1)

    def to_expectation(self, theta):
        p = self.unpack(theta)
        m, m2 = to_second_moment(p)
        return np.concatenate([m, utri_pack(m2)])

    def from_expectation(self, tbar):
        d = self.dim
        p = from_second_moment(tbar[:d], utri_unpack(tbar[d:], d))
        return self.pack(p)

    def exact_kl(self, theta_p, theta_q):
        return _gaussian_kl(self.unpack(np.asarray(theta_p, dtype=float)),
                            self.unpack(np.asarray(theta_q, dtype=float)))


class GaussianExpectationFamily(FullGaussianFamily):
    """Gaussians in expectation coordinates theta = [m, utri(E xx^T)]: the
    full family under another ``pack``/``unpack``.  Scores and the Fisher
    matrix follow by the chain rule with the Jacobian of (m, C) with respect
    to (m, E xx^T); the closed-form natural gradient is T(x) - theta."""

    def pack(self, params):
        m, m2 = to_second_moment(params)
        return np.concatenate([m, utri_pack(m2)])

    def unpack(self, theta):
        d = self.dim
        return from_second_moment(theta[:d], utri_unpack(theta[d:], d))

    def _jacobian(self, theta):
        # J[r, c] = d(base coord r) / d(expectation coord c): c_kl = M_kl - m_k m_l
        d = self.dim
        iu, ju = np.triu_indices(d)
        rows = d + np.arange(iu.size)
        J = np.eye(self.dim_theta)
        J[rows, iu] -= theta[ju]
        J[rows, ju] -= theta[iu]
        return J

    def grad_log_density(self, theta, samples):
        return super().grad_log_density(theta, samples) @ self._jacobian(theta)

    def natural_grad_log_density(self, theta, samples):
        return self.sufficient_stats(samples) - theta

    def fisher(self, theta):
        J = self._jacobian(theta)
        return J.T @ super().fisher(theta) @ J

    def to_expectation(self, theta):
        return np.asarray(theta, dtype=float).copy()

    def from_expectation(self, tbar):
        self.unpack(tbar)  # domain check
        return np.asarray(tbar, dtype=float).copy()


class IsotropicGaussianFamily(Family):
    """N(m, sigma^2 I) with theta = [m_1..m_d, log sigma]."""

    def __init__(self, dim):
        self.dim = int(dim)

    @property
    def dim_theta(self):
        return self.dim + 1

    def split(self, theta):
        """(m, sigma); DomainError when sigma^2 is not a positive finite float."""
        sigma = math.exp(min(theta[self.dim], 709.0))  # a larger exponent overflows
        if not 0.0 < sigma * sigma < math.inf:
            raise DomainError(f"log sigma = {theta[self.dim]} puts sigma^2 outside the floats")
        return theta[: self.dim], sigma

    def sample(self, theta, n, rng):
        m, sigma = self.split(theta)
        return m + sigma * rng.standard_normal((n, self.dim))

    def log_density(self, theta, samples):
        m, sigma = self.split(theta)
        z = (np.asarray(samples, dtype=float) - m) / sigma
        return -self.dim * math.log(sigma) - 0.5 * (z * z).sum(axis=1) - 0.5 * self.dim * _LOG2PI

    def grad_log_density(self, theta, samples):
        m, sigma = self.split(theta)
        z = (np.asarray(samples, dtype=float) - m) / sigma
        return np.concatenate([z / sigma, ((z * z).sum(axis=1) - self.dim)[:, None]], axis=1)

    def natural_grad_log_density(self, theta, samples):
        m, sigma = self.split(theta)
        z = (np.asarray(samples, dtype=float) - m) / sigma
        radial = 0.5 * ((z * z).sum(axis=1) / self.dim - 1.0)
        return np.concatenate([sigma * z, radial[:, None]], axis=1)

    def fisher(self, theta):
        _, sigma = self.split(theta)
        diag = np.full(self.dim + 1, 1.0 / sigma**2)
        diag[-1] = 2.0 * self.dim
        return np.diag(diag)

    def exact_kl(self, theta_p, theta_q):
        mp, sp = self.split(np.asarray(theta_p, dtype=float))
        mq, sq = self.split(np.asarray(theta_q, dtype=float))
        d = self.dim
        ratio = (sp / sq) ** 2
        return 0.5 * (d * ratio + float((mq - mp) @ (mq - mp)) / sq**2
                      - d + d * math.log(1.0 / ratio))


class MeanGaussianFamily(Family):
    """N(theta, I): the Gaussian with unknown mean and identity covariance."""

    def __init__(self, dim):
        self.dim = int(dim)

    @property
    def dim_theta(self):
        return self.dim

    def sample(self, theta, n, rng):
        x = rng.standard_normal((n, self.dim))
        x += theta  # in place: one n x d array at a time
        return x

    def log_density(self, theta, samples):
        dev = (np.asarray(samples, dtype=float) - theta).T.copy()  # C order: sums in turn
        return -0.5 * (self.dim * _LOG2PI + (dev * dev).sum(axis=0))

    def grad_log_density(self, theta, samples):
        return np.asarray(samples, dtype=float) - theta

    natural_grad_log_density = grad_log_density  # the Fisher matrix is I

    def fisher(self, theta):
        return np.eye(self.dim)

    def exact_kl(self, theta_p, theta_q):
        dev = np.asarray(theta_q, dtype=float) - np.asarray(theta_p, dtype=float)
        return 0.5 * float(dev @ dev)


# -- named update rules ------------------------------------------------------

def _expm_sym(mat):
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.exp(vals)) @ vecs.T


def _elite_stats(samples, w):
    total = w.sum()
    if total <= 0.0:
        raise DegenerateUpdate("update weights must have positive total mass")
    wn = w / total
    m_star = wn @ samples
    dev = samples - m_star
    c_star = (dev * wn[:, None]).T @ dev
    return m_star, c_star


def gaussian_step(kind, params, samples, weights, *, dt=None, j=None):
    """One step of a named Gaussian update rule.

    kind = "cma":  m += dt * sum w (x - m); C += dt * sum w ((x-m)(x-m)^T - C).
    kind = "emna": jump to the weighted mean / covariance of the elite.
    kind = "xnes": multiplicative update of the square root A (params must be
                   GaussianSqrtParams); C = A A^T is derived, never touched.
    kind = "unified": blend with cross term dt (1-dt)^j (m*-m)(m*-m)^T;
                   j = 0, 1, 2, or math.inf select the classic variants.

    Raises DegenerateUpdate when the resulting covariance is not PD.
    """
    x = np.asarray(samples, dtype=float)
    w = np.asarray(getattr(weights, "weights", weights), dtype=float)

    if kind == "cma":
        dev = x - params.m
        m_new = params.m + dt * (w @ dev)
        C_new = params.C + dt * ((dev * w[:, None]).T @ dev - w.sum() * params.C)
        _require_pd(C_new)
        return GaussianParams(m_new, C_new)

    if kind == "emna":
        m_star, c_star = _elite_stats(x, w)
        _require_pd(c_star)
        return GaussianParams(m_star, c_star)

    if kind == "xnes":
        if not isinstance(params, GaussianSqrtParams):
            raise TypeError("xnes updates operate on GaussianSqrtParams")
        dev = x - params.m
        z = np.linalg.solve(params.A, dev.T).T
        d = params.A.shape[0]
        Y = (z * w[:, None]).T @ z - w.sum() * np.eye(d)
        m_new = params.m + dt * (w @ dev)
        A_new = params.A @ _expm_sym(0.5 * dt * Y)
        return GaussianSqrtParams(m_new, A_new)

    if kind == "unified":
        if j is None or dt is None:
            raise ValueError("unified updates need both dt and j")
        total = w.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            w = w / total
        m_star, c_star = _elite_stats(x, w)
        cross = 0.0 if math.isinf(j) else (1.0 - dt) ** j
        diff = m_star - params.m
        C_new = (1.0 - dt) * params.C + dt * c_star + dt * cross * np.outer(diff, diff)
        m_new = (1.0 - dt) * params.m + dt * m_star
        _require_pd(C_new)
        return GaussianParams(m_new, C_new)

    raise ValueError(f"unknown gaussian update kind: {kind!r}")


def _require_pd(C):
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise DegenerateUpdate("updated covariance is not positive-definite") from None


def _gaussian_kl(p, q):
    """KL(N(m_p, C_p) || N(m_q, C_q)), closed form."""
    d = p.m.size
    Lq = _chol(q.C)
    dev = q.m - p.m
    y = np.linalg.solve(Lq, dev)
    sol = np.linalg.solve(q.C, p.C)
    logdet_q = 2.0 * np.log(np.diag(Lq)).sum()
    logdet_p = 2.0 * np.log(np.diag(_chol(p.C))).sum()
    return 0.5 * (np.trace(sol) + float(y @ y) - d + logdet_q - logdet_p)
