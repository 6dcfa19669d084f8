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

Exact joint quantities (ln Z, E[T], the joint KL and Fisher) enumerate the
2^k states of the smaller layer, k = min(n_x, n_h), and sum the other layer
out analytically: given h the x_i are independent Bernoulli(sigma(a + W h)),
so with the free energy of h (Salakhutdinov & Murray, ICML 2008)

    ln Z = logsumexp_h [b.h + sum_i softplus(a_i + (W h)_i)],
    E[T] = sum_h P(h) (p(h), h, p(h) (x) h),        p(h) = sigma(a + W h),
    Cov(T) = Cov_h(E[T | h]) + sum_h P(h) diag(p (1 - p)) (x) hh^T,

with hh = (1, h).  When n_x < n_h the same sums run with the layers' roles
swapped, (a, b, W) -> (b, a, W^T), and the statistics are permuted back.
They are refused when 2^k * dim_theta^2 exceeds EXACT_WORK_CUTOFF.  Both
families enumerate the 2^n_x visible states, the search space, for the exact
flow and the marginal Fisher and KL (P(h | x) is not linear in x); that
table is refused above ENUMERATION_CUTOFF total units.

Sampling has its own bound, checked in ``_sample`` alone: a batch of n
draws exactly when the smaller layer's table, 2^k * max(n_x, n_h) entries,
is within EXACT_WORK_CUTOFF and within max(32 n (n_x + n_h), 2^14), about
where 100 Gibbs sweeps cost as much.  The smaller layer's state is drawn
from P(h) by inverse CDF (one uniform per sample), then the other layer
from P(x | h): no chain, no burn-in.  Every shape the exact quantities
accept draws so, as does every batch with 2^n_h <= n and n * n_x within
EXACT_WORK_CUTOFF.  Other batches run Gibbs chains, one per sample, of
``burn_in`` vectorized sweeps.  Each Bernoulli draw compares a raw Philox
word with an integer threshold (see ``_thresholds``), which gives the bits
of ``rng.random() < p``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base import CapabilityError, Family, enumerate_bits

__all__ = [
    "RbmParams",
    "JointRbmFamily",
    "MarginalRbmFamily",
    "rbm_init",
    "flip_hidden_params",
    "flip_hidden_samples",
]

# max n_x + n_h for tables over the 2^n_x visible states: enumerate_points
# and the marginal family's Fisher and KL
ENUMERATION_CUTOFF = 20
# max 2^min(n_x, n_h) * dim_theta^2, the multiply-adds of the exact joint
# Fisher; it also bounds the 2^min(n_x, n_h) x dim_theta table behind it and
# the Fisher itself.  ln Z, E[T] and the joint KL share the bound.  Every
# shape with n_x + n_h <= 20 is within it (10 x 10: 1.47e7).  The sampler
# caps its 2^min(n_x, n_h) x max(n_x, n_h) table at as many entries.
EXACT_WORK_CUTOFF = 2**24
# raw words per block of exact draws of the larger layer: 2,048 rows of 16
DRAW_BLOCK_WORDS = 2**15


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


def _thresholds(p):
    """Integer form of the Bernoulli draw ``u < p``.

    For Philox and numpy's other 64-bit bit generators (not MT19937),
    ``Generator.random()`` is ``(raw >> 11) * 2**-53`` of the next raw
    word, so ``u < p`` holds exactly when ``raw <= (ceil(p 2^53)
    << 11) - 1`` in uint64.  The wrap at p = 1 gives 2^64 - 1 (always), which
    is right; p = 0 would wrap the same way and be wrong, so p must lie in
    (0, 1], as ``_sigmoid`` keeps it for finite activations.
    """
    t = np.ceil(p * 2.0**53).astype(np.uint64)
    t <<= np.uint64(11)
    t -= np.uint64(1)
    return t


def _raw_words(rng):
    """The raw 64-bit words of ``rng`` that ``_thresholds`` compares with."""
    if isinstance(rng.bit_generator, np.random.MT19937):
        # its random() combines two 32-bit words; _thresholds needs one 64-bit word
        raise ValueError("RBM sampling needs a 64-bit bit generator, not MT19937")
    return rng.bit_generator.random_raw


class _RbmCommon(Family):
    centred_score = True

    def __init__(self, n_x, n_h, *, burn_in=100):
        self.n_x = int(n_x)
        self.n_h = int(n_h)
        self.burn_in = int(burn_in)
        self.dim = self.n_x  # the objective sees the visible bits

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

    def energy(self, theta, x, h):
        p = self.unpack(theta)
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        return -(x @ p.a + h @ p.b + ((x @ p.W) * h).sum(axis=1))

    def _sample(self, theta, n, rng):
        """n draws (x, h), exact or by Gibbs (see the module docstring)."""
        table = 2**min(self.n_x, self.n_h) * max(self.n_x, self.n_h)
        if table > min(EXACT_WORK_CUTOFF, max(32 * n * (self.n_x + self.n_h), 2**14)):
            return self._gibbs(theta, n, rng)
        H, probs, PX, _ = self._hidden_table(theta)
        raw = _raw_words(rng)
        k = np.searchsorted(np.cumsum(probs), rng.random(n), side="right")
        np.minimum(k, len(H) - 1, out=k)  # the cumulative sum may end below 1
        # the same raw words in the same order as one (n, width) draw, taken
        # a block of rows at a time, so no n x width word array is built
        thresholds = _thresholds(PX)
        width = PX.shape[1]
        other = np.empty((n, width), dtype=bool)
        rows = max(1, DRAW_BLOCK_WORDS // width)
        for start in range(0, n, rows):
            block = k[start:start + rows]
            np.less_equal(raw((len(block), width)), thresholds[block],
                          out=other[start:start + rows])
        other = other.view(np.uint8)
        small = H[k].astype(np.uint8)
        return (other, small) if self.n_x >= self.n_h else (small, other)

    def _gibbs(self, theta, n, rng):
        raw = _raw_words(rng)
        p = self.unpack(theta)
        x = (raw((n, self.n_x)) < np.uint64(2**63)).astype(np.float64)  # u < 1/2
        for _ in range(self.burn_in):
            h = (raw((n, self.n_h)) <= _thresholds(_sigmoid(p.b + x @ p.W))).astype(np.float64)
            x = (raw((n, self.n_x)) <= _thresholds(_sigmoid(p.a + h @ p.W.T))).astype(np.float64)
        h = raw((n, self.n_h)) <= _thresholds(_sigmoid(p.b + x @ p.W))
        return x.astype(np.uint8), h.astype(np.uint8)

    # -- exact quantities ----------------------------------------------------
    def _check_visible_table(self):
        if self.n_x + self.n_h > ENUMERATION_CUTOFF:
            raise CapabilityError(
                f"tables over the 2^n_x visible states need n_x + n_h <= {ENUMERATION_CUTOFF}")

    def _check_enumerable(self):
        k = min(self.n_x, self.n_h)
        if 2**k * self.dim_theta**2 > EXACT_WORK_CUTOFF:
            raise CapabilityError(
                f"exact RBM quantities need 2^min(n_x, n_h) * dim_theta^2 <= 2^"
                f"{EXACT_WORK_CUTOFF.bit_length() - 1}; n_x={self.n_x}, n_h={self.n_h} "
                f"gives 2^{k} * {self.dim_theta}^2")

    @cached_property
    def _enumerated(self):
        """The smaller layer's 2^k states as float rows, and the permutation
        that puts statistics computed with the layers' roles swapped back in
        (x, h, x (x) h) order (the identity when n_x >= n_h)."""
        n_x, n_h = self.n_x, self.n_h
        if n_x >= n_h:
            perm = np.arange(self.dim_theta)
        else:  # the swapped statistics are (h, x, h (x) x)
            xh = n_x + n_h + np.arange(n_h) * n_x + np.arange(n_x)[:, None]
            perm = np.concatenate([n_h + np.arange(n_x), np.arange(n_h), xh.ravel()])
        H = enumerate_bits(min(n_x, n_h)).astype(float)
        H.flags.writeable = False
        return H, perm

    def _hidden_table(self, theta):
        """Sum over the smaller layer, called h here (the layers' roles swap
        when n_x < n_h): its states H, P(h), p(h) = P(x = 1 | h) and ln Z."""
        p = self.unpack(theta)
        a, b, W = (p.a, p.b, p.W) if self.n_x >= self.n_h else (p.b, p.a, p.W.T)
        H = self._enumerated[0]
        act = a + H @ W.T
        logmass = H @ b + _softplus(act).sum(axis=1)
        log_z = _logsumexp(logmass)
        return H, np.exp(logmass - log_z), _sigmoid(act), log_z

    def _stats_and_log_z(self, theta):
        self._check_enumerable()
        H, probs, PX, log_z = self._hidden_table(theta)
        exh = (PX * probs[:, None]).T @ H
        stats = np.concatenate([PX.T @ probs, H.T @ probs, exh.ravel()])
        return stats[self._enumerated[1]], log_z

    def log_partition(self, theta):
        self._check_enumerable()
        return self._hidden_table(theta)[3]

    def exact_stats(self, theta):
        """Exact expectation of the sufficient statistics (x, h, x (x) h);
        for the marginal family it is also E[U], since U(x) = E[T | x]."""
        return self._stats_and_log_z(theta)[0]

    # -- the 2^n_x visible states, the search space ---------------------------
    @cached_property
    def _visible_bits(self):
        """The 2^n_x visible configurations as float rows, built once."""
        self._check_visible_table()
        X = enumerate_bits(self.n_x).astype(float)
        X.flags.writeable = False
        return X

    def _visible_logmass(self, theta, x):
        """ln P(x) + ln Z of visible rows x, by the free energy of x."""
        p = self.unpack(theta)
        x = np.asarray(x, dtype=float)
        return x @ p.a + _softplus(p.b + x @ p.W).sum(axis=1)

    def _visible_stats(self, theta, x):
        """U(x) = E[T | x] = (x, p(h|x), x (x) p(h|x))."""
        x = np.asarray(x, dtype=float)
        return _stats_rows(x, self.p_hidden_given_visible(theta, x))

    def enumerate_points(self):
        return self._visible_bits

    def enumerated_probs(self, theta):
        """P(x) of every visible state: h summed out."""
        return np.exp(self._visible_logmass(theta, self._visible_bits) - self.log_partition(theta))

    def enumerated_score(self, theta):
        """U(x) - E[T] of every visible state: the marginal score, and the
        joint score T(x, h) - E[T] averaged over h given x."""
        return self._visible_stats(theta, self._visible_bits) - self.exact_stats(theta)


def _stats_rows(x, h):
    """The rows (x, h, x (x) h) of two float arrays, written into one array."""
    n, nx = x.shape
    nh = h.shape[1]
    out = np.empty((n, nx + nh + nx * nh))
    out[:, :nx] = x
    out[:, nx:nx + nh] = h
    np.multiply(x[:, :, None], h[:, None, :],
                out=out[:, nx + nh:].reshape(n, nx, nh, copy=False))
    return out


def _logsumexp(v):
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


class JointRbmFamily(_RbmCommon):
    """RBM over (x, h) pairs; samples are tuples (x_bits, h_bits)."""

    check_fisher = _RbmCommon._check_enumerable  # CapabilityError when refused

    def sample(self, theta, n, rng):
        return self._sample(theta, n, rng)

    def points_of(self, samples):
        return samples[0]

    def sufficient_stats(self, samples):
        return _stats_rows(np.asarray(samples[0], dtype=float),
                           np.asarray(samples[1], dtype=float))

    def log_density(self, theta, samples):
        return -self.energy(theta, *samples) - self.log_partition(theta)

    def grad_log_density(self, theta, samples, model_stats=None):
        """Score T(x, h) - E[T]; the model term is exact by default and can
        be replaced by a batch estimate via ``model_stats``."""
        stats = self.exact_stats(theta) if model_stats is None else model_stats
        return self.sufficient_stats(samples) - stats

    def score_stats(self, theta, samples):
        return self.sufficient_stats(samples)

    def fisher_rows(self, theta, samples):
        """T = (x, h, x (x) h) as 0/1 uint8 rows in a column-major array,
        which ``mc_fisher`` counts exactly."""
        x = np.asarray(samples[0], dtype=np.uint8)
        h = np.asarray(samples[1], dtype=np.uint8)
        n, nx = x.shape
        nh = h.shape[1]
        out = np.empty((n, nx + nh + nx * nh), dtype=np.uint8, order="F")
        out[:, :nx] = x
        out[:, nx:nx + nh] = h
        np.bitwise_and(x[:, :, None], h[:, None, :],
                       out=out[:, nx + nh:].reshape(n, nx, nh, copy=False))
        return out

    def fisher(self, theta):
        """Exact Cov(T) by total covariance over the smaller layer h:
        Cov_h(E[T | h]) + E_h[Cov(T | h)].  Given h the x_i are independent
        and x_i enters T only as x_i (1, h), so Cov(T | h) is one
        var(x_i | h) (1, h)(1, h)^T block per x_i."""
        self._check_enumerable()
        H, probs, PX, _ = self._hidden_table(theta)
        rows, nx = PX.shape
        nh = H.shape[1]
        cond = _stats_rows(PX, H)
        cond -= probs @ cond
        cond *= np.sqrt(probs)[:, None]
        cov = cond.T @ cond
        hh = np.concatenate([np.ones((rows, 1)), H], axis=1)
        within = ((PX * (1.0 - PX) * probs[:, None]).T
                  @ (hh[:, :, None] * hh[:, None, :]).reshape(rows, -1))
        # the coordinates x_i (1, h) of each x_i
        at = np.concatenate([np.arange(nx)[:, None],
                             nx + nh + np.arange(nx * nh).reshape(nx, nh)], axis=1)
        cov[at[:, :, None], at[:, None, :]] += within.reshape(nx, nh + 1, nh + 1)
        perm = self._enumerated[1]
        return cov[np.ix_(perm, perm)]

    def exact_kl(self, theta_p, theta_q):
        """KL between two joint RBM laws: the joint family is exponential in
        theta, so KL(P||Q) = (theta_p - theta_q) . E_P[T] - ln Z_p + ln Z_q."""
        tp = np.asarray(theta_p, dtype=float)
        tq = np.asarray(theta_q, dtype=float)
        stats, log_zp = self._stats_and_log_z(tp)
        return float((tp - tq) @ stats - log_zp + self.log_partition(tq))


class MarginalRbmFamily(_RbmCommon):
    """RBM marginalized over the hidden layer; samples are visible bits."""

    check_fisher = _RbmCommon._check_visible_table  # CapabilityError when refused

    def sample(self, theta, n, rng):
        return self._sample(theta, n, rng)[0]

    score_stats = _RbmCommon._visible_stats

    def log_density(self, theta, samples):
        return self._visible_logmass(theta, samples) - self.log_partition(theta)

    def grad_log_density(self, theta, samples, model_stats=None):
        stats = self.exact_stats(theta) if model_stats is None else model_stats
        return self.score_stats(theta, samples) - stats

    def _visible_log_probs(self, theta):
        """ln P(x) of every visible configuration, normalized over the table."""
        logmass = self._visible_logmass(theta, self._visible_bits)
        return logmass - _logsumexp(logmass)

    def fisher(self, theta):
        """Exact Cov(U, U) over the visible marginal."""
        probs = np.exp(self._visible_log_probs(theta))
        U = self.score_stats(theta, self._visible_bits)
        mean = U.T @ probs
        return (U * probs[:, None]).T @ U - np.outer(mean, mean)

    def exact_kl(self, theta_p, theta_q):
        # The marginal law is not exponential in theta: sum directly.
        lp = self._visible_log_probs(theta_p)
        lq = self._visible_log_probs(theta_q)
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
