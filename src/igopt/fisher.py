"""Fisher information matrices: exact forms, Monte-Carlo estimation,
reliability cross-validation, and guarded inversion.

A Monte-Carlo estimate averages rank-one terms g g^T of per-sample scores,
so it needs at least dim(theta) distinct samples to stand a chance of being
invertible; reliability is judged by comparing the estimates F1, F2 of the
batch's two halves through the mean eigenvalue of F1 F2^{-1}, accepted
inside [1/2, 2].  The full-batch estimate is not reduced again: it is
merged from the halves' Gram products by the pairwise update of Chan,
Golub & LeVeque (Am. Stat. 1983), so one pass over the rows gives all
three.  Rows of 0/1 statistics are counted exactly (see ``_gram``).
Singular or ill-conditioned matrices raise ``SingularFisher``; a solve
goes through one symmetric eigendecomposition.
"""

from dataclasses import dataclass

import numpy as np

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
# float32 holds every integer up to 2^24 exactly, so a Gram product of at most
# this many 0/1 rows is exact in any summation order
EXACT_COUNT_ROWS = 2**24


@dataclass
class FisherMatrix:
    matrix: np.ndarray
    provenance: str = "exact"          # "exact" | "monte_carlo"
    sample_count: int = 0              # Monte-Carlo sample count (0 for exact)
    reliability: str = "unchecked"     # "unchecked" | "pass" | "fail"
    mean_eigenvalue: float = None
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


def exact_fisher(family, theta):
    return FisherMatrix(family.fisher(theta), provenance="exact")


def mc_fisher(family, theta, m, rng):
    """Monte-Carlo Fisher matrix from one batch of m samples, in one pass.

    The batch's rows are ``family.fisher_rows``: score statistics for a
    family with a ``centred_score``, scores otherwise.  The batch is split
    into halves of n1 = m // 2 and n2 = m - n1 rows, and each half's Gram
    product S_k is formed once: about the half's own mean when centred,
    about zero otherwise.  The halves' estimates S_k / n_k go to
    ``reliability_check``.  The full-batch estimate is their pairwise merge
    (Chan, Golub & LeVeque, Am. Stat. 1983),

        F = (S1 + S2 + n1 n2 / m * delta delta^T) / m,   delta = mean1 - mean2,

    without the delta term when uncentred; for a centred family the merged
    batch mean becomes ``model_stats``.  The result carries the verdict and
    mean eigenvalue of the halves.
    """
    p = family.dim_theta
    if m < max(2, p):
        raise ValueError(f"need at least max(2, dim_theta = {p}) samples, got {m}")
    samples = family.sample(theta, m, rng)
    centred = family.centred_score
    rows = family.fisher_rows(theta, samples)
    n1 = m // 2
    n2 = m - n1
    s1, mean1 = _gram(rows[:n1], centred)
    s2, mean2 = _gram(rows[n1:], centred)
    total = s1 + s2
    model_stats = None
    if centred:
        delta = mean1 - mean2
        total += (n1 * n2 / m) * np.outer(delta, delta)
        model_stats = (n1 * mean1 + n2 * mean2) / m
    f1 = FisherMatrix(s1 / n1, "monte_carlo", n1)
    verdict = reliability_check(f1, FisherMatrix(s2 / n2, "monte_carlo", n2))
    return FisherMatrix(total / m, "monte_carlo", m, reliability=verdict,
                        mean_eigenvalue=f1.mean_eigenvalue, model_stats=model_stats)


def _gram(rows, centred):
    """Gram product of the rows about their own mean when centred (about
    zero otherwise), and that mean.

    Float rows are centred where they lie, which spares a copy per half.
    Integer rows must hold 0/1 statistics.  Their Gram C and column counts
    c are exact integers: C comes from a float32 product whose every partial
    sum is an integer of at most n <= EXACT_COUNT_ROWS.  The centred Gram
    C - c c^T / n is then formed as (n C - c c^T) / n, exact until that one
    division, so each entry is rounded once.
    """
    n = len(rows)
    if rows.dtype.kind == "f":
        if not centred:
            return rows.T @ rows, None
        mean = rows.mean(axis=0)
        rows -= mean
        return rows.T @ rows, mean
    if n > EXACT_COUNT_ROWS:
        raise ValueError(f"{n} integer rows exceed the exact float32 count bound "
                         f"EXACT_COUNT_ROWS = 2^24")
    bits = rows.astype(np.float32)
    gram = (bits.T @ bits).astype(np.float64)
    if not centred:
        return gram, None
    counts = rows.sum(axis=0, dtype=np.int64).astype(np.float64)
    gram *= n
    gram -= np.outer(counts, counts)
    gram /= n
    return gram, counts / n


def reliability_check(f1, f2):
    """Cross-validate two independent estimates of the same Fisher matrix.

    The average eigenvalue of F1 F2^{-1} must lie in [1/2, 2].  Both
    matrices are annotated with the verdict; the verdict is returned.
    """
    if f1.dim != f2.dim:
        raise ValueError("Fisher estimates must have matching dimension")
    try:
        mean_eig = float(np.trace(np.linalg.solve(f2.matrix, f1.matrix))) / f1.dim
    except np.linalg.LinAlgError:
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


def invert(fm):
    """Inverse through the eigendecomposition of ``solve``.

    Raises SingularFisher when the matrix is not positive definite or its
    condition number exceeds CONDITION_LIMIT.
    """
    inv = solve(fm, np.eye(fm.dim))
    return 0.5 * (inv + inv.T)


def solve(fm, rhs):
    """F^{-1} rhs with the same guards as ``invert``: with F = V diag(eigs) V^T
    from one symmetric eigendecomposition, V ((V^T rhs) / eigs)."""
    eigs, vecs = np.linalg.eigh(fm.matrix)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > CONDITION_LIMIT:
        raise SingularFisher(
            f"Fisher matrix not safely invertible (eig range [{eigs[0]:.3e}, {eigs[-1]:.3e}])"
        )
    coords = vecs.T @ rhs
    coords /= eigs if coords.ndim == 1 else eigs[:, None]
    return vecs @ coords
