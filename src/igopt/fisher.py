"""Fisher information matrices: exact forms, Monte-Carlo estimation,
reliability cross-validation, and guarded inversion.

A Monte-Carlo estimate averages rank-one terms g g^T of per-sample scores,
so it needs at least dim(theta) distinct samples to stand a chance of being
invertible; reliability is judged by comparing two independent estimates
F1, F2 through the mean eigenvalue of F1 F2^{-1}, accepted inside [1/2, 2].
Singular or ill-conditioned matrices raise ``SingularFisher``; ridge
regularization is strictly opt-in and recorded in the provenance.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .families.base import SingularFisher

__all__ = [
    "FisherMatrix",
    "exact_fisher",
    "mc_fisher",
    "reliability_check",
    "invert",
    "solve",
    "CONDITION_LIMIT",
]

CONDITION_LIMIT = 1e12  # double-precision safety margin


@dataclass
class FisherMatrix:
    matrix: np.ndarray
    provenance: str = "exact"          # "exact" | "monte_carlo" | suffixed "+ridge"
    sample_count: int = 0              # Monte-Carlo sample count (0 for exact)
    reliability: str = "unchecked"     # "unchecked" | "pass" | "fail"
    mean_eigenvalue: float = None
    notes: dict = field(default_factory=dict)
    model_stats: np.ndarray = None     # batch mean the score is centred on, if any

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-10 * scale:
            raise ValueError("Fisher matrix must be symmetric")
        self.matrix = 0.5 * (m + m.T)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def to_csv(self, path):
        np.savetxt(path, self.matrix, delimiter=",", fmt="%.17g",
                   header=f"fisher provenance={self.provenance} M={self.sample_count}")


def exact_fisher(family, theta):
    return FisherMatrix(family.fisher(theta), provenance="exact")


def mc_fisher(family, theta, m, rng, *, samples=None):
    """Monte-Carlo Fisher matrix from one batch of m samples (or ``samples``).

    Returns the full-batch estimate annotated with the ``reliability_check``
    verdict and mean eigenvalue of its two halves.  For a family with a
    ``centred_score`` it is the covariance of the score statistics, whose
    batch mean becomes ``model_stats``; otherwise the mean score outer product.
    """
    p = family.dim_theta
    if m < p:
        raise ValueError(f"need at least dim_theta = {p} samples, got {m}")
    if samples is None:
        samples = family.sample(theta, m, rng)
    elif family.sample_size(samples) != m:
        raise ValueError("sample container does not match requested count")
    centred = family.centred_score
    if centred:
        rows = family.score_stats(theta, samples)
    else:
        rows = family.grad_log_density(theta, samples)
    half = m // 2
    full = _outer_mean(rows, centred)
    f1 = _outer_mean(rows[:half], centred)
    full.reliability = reliability_check(f1, _outer_mean(rows[half:], centred))
    full.mean_eigenvalue = f1.mean_eigenvalue
    full.model_stats = rows.mean(axis=0) if centred else None
    return full


def _outer_mean(rows, centred):
    """Mean outer product of the rows, about their own mean when centred."""
    dev = rows - rows.mean(axis=0) if centred else rows
    return FisherMatrix(dev.T @ dev / rows.shape[0], "monte_carlo", rows.shape[0])


def reliability_check(f1, f2, *, variant="mean", log_bound=None):
    """Cross-validate two independent estimates of the same Fisher matrix.

    Default criterion: the average eigenvalue of F1 F2^{-1} must lie in
    [1/2, 2].  The stricter log-symmetric variant ("log") instead bounds the
    mean |log eigenvalue| by log_bound (default ln 2); it is symmetric in
    (F1, F2) but not the protocol default.

    Both matrices are annotated with the verdict; the verdict is returned.
    """
    if f1.dim != f2.dim:
        raise ValueError("Fisher estimates must have matching dimension")
    p = f1.dim
    try:
        if variant == "mean":
            ratio = np.linalg.solve(f2.matrix, f1.matrix)
            mean_eig = float(np.trace(ratio)) / p
        elif variant == "log":
            eigs = scipy.linalg.eigh(f1.matrix, f2.matrix, eigvals_only=True)
            if np.any(eigs <= 0):
                raise np.linalg.LinAlgError("non-positive generalized eigenvalue")
            bound = np.log(2.0) if log_bound is None else log_bound
            mean_eig = float(np.exp(np.mean(np.log(eigs))))
            ok = float(np.mean(np.abs(np.log(eigs)))) <= bound
            _annotate(f1, f2, ok, mean_eig)
            return "pass" if ok else "fail"
        else:
            raise ValueError(f"unknown reliability variant: {variant!r}")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        _annotate(f1, f2, False, float("nan"))
        return "fail"
    ok = 0.5 <= mean_eig <= 2.0
    _annotate(f1, f2, ok, mean_eig)
    return "pass" if ok else "fail"


def _annotate(f1, f2, ok, mean_eig):
    verdict = "pass" if ok else "fail"
    for f in (f1, f2):
        f.reliability = verdict
        f.mean_eigenvalue = mean_eig


def _factor(fm, ridge):
    mat = fm.matrix
    if ridge is not None:
        mat = mat + ridge * np.eye(fm.dim)
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > CONDITION_LIMIT:
        raise SingularFisher(
            f"Fisher matrix not safely invertible (eig range [{eigs[0]:.3e}, {eigs[-1]:.3e}])"
        )
    return scipy.linalg.cho_factor(mat, lower=True)


def invert(fm, ridge=None):
    """Inverse through an SPD factorization.

    Raises SingularFisher when the factorization fails or the condition
    number exceeds CONDITION_LIMIT.  With ``ridge`` set, inverts
    F + ridge * I instead and flags the provenance as regularized.
    """
    inv = solve(fm, np.eye(fm.dim), ridge)
    return 0.5 * (inv + inv.T)


def solve(fm, rhs, ridge=None):
    """F^{-1} rhs with the same guards as ``invert``."""
    cf = _factor(fm, ridge)
    if ridge is not None:
        fm.provenance = fm.provenance.split("+")[0] + "+ridge"
        fm.notes["ridge"] = ridge
    return scipy.linalg.cho_solve(cf, rhs)
