import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from igopt import fisher, lift_noisy, substream
from igopt.families import BernoulliFamily, JointRbmFamily, LogitBernoulliFamily, SingularFisher
from igopt.fisher import (
    FisherMatrix,
    exact_fisher,
    invert,
    mc_fisher,
    reliability_check,
    solve,
)


def test_exact_fisher_bernoulli_hand_values():
    fam = BernoulliFamily(2)
    F = exact_fisher(fam, np.array([0.5, 0.2]))
    np.testing.assert_allclose(np.diag(F.matrix), [4.0, 6.25])
    assert F.provenance == "exact"
    logit = LogitBernoulliFamily(1)
    F0 = exact_fisher(logit, np.zeros(1))
    assert F0.matrix[0, 0] == pytest.approx(0.25)


def test_exact_fisher_vs_negative_log_density_hessian():
    # independent oracle: I = -E[d^2 ln P / d theta^2], second-order central
    # differences on the exact log-density, averaged by enumeration
    fam = BernoulliFamily(3)
    rng = substream(31, 0)
    theta = rng.uniform(0.2, 0.8, size=3)
    pts = fam.enumerate_points()
    probs = np.exp(fam.log_density(theta, pts))
    eps = 1e-4
    hess = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            tpp, tpm, tmp, tmm = (theta.copy() for _ in range(4))
            tpp[i] += eps; tpp[j] += eps
            tpm[i] += eps; tpm[j] -= eps
            tmp[i] -= eps; tmp[j] += eps
            tmm[i] -= eps; tmm[j] -= eps
            second = (fam.log_density(tpp, pts) - fam.log_density(tpm, pts)
                      - fam.log_density(tmp, pts) + fam.log_density(tmm, pts)) / (4 * eps**2)
            hess[i, j] = -(probs @ second)
    F = exact_fisher(fam, theta).matrix
    np.testing.assert_allclose(hess, F, rtol=1e-4, atol=1e-6)


def test_mc_fisher_bernoulli_converges_to_exact():
    fam = BernoulliFamily(2)
    theta = np.array([0.5, 0.5])
    est = mc_fisher(fam, theta, 100000, substream(32, 0))
    assert est.provenance == "monte_carlo" and est.sample_count == 100000
    # diagonal entries are +-2 squared = 4 for every sample, exactly
    np.testing.assert_allclose(np.diag(est.matrix), [4.0, 4.0], rtol=1e-12)
    # off-diagonal: mean of +-4 signs, se = 4 / sqrt(M)
    assert abs(est.matrix[0, 1]) <= 3.0 * 4.0 / math.sqrt(100000)


def test_mc_fisher_sample_count_guard():
    fam = BernoulliFamily(3)
    with pytest.raises(ValueError):
        mc_fisher(fam, np.full(3, 0.5), 2, substream(33, 0))
    # each half of the batch needs a row, even when dim_theta = 1
    one = BernoulliFamily(1)
    with pytest.raises(ValueError, match="max\\(2, dim_theta = 1\\)"):
        mc_fisher(one, np.full(1, 0.5), 1, substream(33, 1))
    assert mc_fisher(one, np.full(1, 0.5), 2, substream(33, 1)).sample_count == 2


def test_mc_fisher_rank_deficiency_with_duplicated_samples():
    fam = BernoulliFamily(3)
    theta = np.full(3, 0.5)

    # the mean score outer product of the rows, as mc_fisher forms it
    def estimate(samples):
        g = fam.grad_log_density(theta, samples)
        return FisherMatrix(g.T @ g / 3, "monte_carlo", 3)

    dup = np.tile(np.array([[1, 0, 1]], dtype=np.uint8), (3, 1))
    with pytest.raises(SingularFisher):
        invert(estimate(dup))
    distinct = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.uint8)
    assert np.linalg.matrix_rank(estimate(distinct).matrix) == 3


def test_mc_fisher_unbiased_scaling():
    # averaging R independent estimates shrinks the deviation like 1/sqrt(R)
    fam = BernoulliFamily(2)
    theta = np.array([0.35, 0.6])
    exact = exact_fisher(fam, theta).matrix
    m = 200

    def deviation(n_estimates, tag):
        mats = [mc_fisher(fam, theta, m, substream(35, tag, k)).matrix
                for k in range(n_estimates)]
        return np.abs(np.mean(mats, axis=0) - exact).max()

    single = np.mean([deviation(1, 100 + i) for i in range(8)])
    pooled = deviation(100, 0)
    ratio = single / pooled
    assert 5.0 < ratio < 20.0  # sqrt(100) = 10 within a factor of 2


class _FixedRows:
    """A stand-in family whose every batch is one given row matrix."""

    def __init__(self, rows, centred):
        self.rows = rows
        self.centred_score = centred
        self.dim_theta = rows.shape[1]

    def sample(self, theta, m, rng):
        assert m == len(self.rows)

    def score_stats(self, theta, samples):
        return self.rows.copy()  # mc_fisher centres its batch in place

    grad_log_density = fisher_rows = score_stats


def _outer_mean(rows, centred):
    """The two-pass reference: the mean outer product of the rows, about
    their own mean when centred."""
    dev = rows - rows.mean(axis=0) if centred else rows
    return FisherMatrix(dev.T @ dev / rows.shape[0], "monte_carlo", rows.shape[0])


@st.composite
def _row_matrices(draw):
    """m x p rows, each column of one kind: unit spread, constant, or unit
    spread about an offset of up to 1e6 (where centring cancels digits)."""
    p = draw(st.integers(1, 5))
    m = draw(st.integers(max(2, p), 40))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(["unit", "constant", "offset"]))
        if kind == "constant":
            columns.append(np.full(m, draw(st.floats(-1e6, 1e6, allow_nan=False))))
            continue
        spread = np.array(draw(st.lists(unit, min_size=m, max_size=m)))
        offset = draw(st.floats(-1e6, 1e6, allow_nan=False)) if kind == "offset" else 0.0
        columns.append(offset + spread)
    return np.column_stack(columns)


@given(rows=_row_matrices(), centred=st.booleans())
def test_mc_fisher_one_pass_matches_the_two_pass_form(rows, centred):
    halves = []

    def spy(f1, f2):
        halves[:] = f1, f2
        return reliability_check(f1, f2)

    m = len(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fisher, "reliability_check", spy)
        got = mc_fisher(_FixedRows(rows, centred), None, m, None)
    half = m // 2
    ref1, ref2 = _outer_mean(rows[:half], centred), _outer_mean(rows[half:], centred)
    verdict = reliability_check(ref1, ref2)
    # the halves and everything judged from them keep their bits
    assert halves[0].matrix.tobytes() == ref1.matrix.tobytes()
    assert halves[1].matrix.tobytes() == ref2.matrix.tobytes()
    assert got.reliability == verdict
    assert np.array_equal(got.mean_eigenvalue, ref1.mean_eigenvalue, equal_nan=True)
    assert (got.provenance, got.sample_count) == ("monte_carlo", m)
    # the merged full matrix moves only by rounding: 1e-12 of its norm, plus,
    # when centred, the first-order effect of the rounding of the half means
    # on the n1 n2 / m^2 delta delta^T term (an error e_j <= m u (|mean1_j| +
    # |mean2_j|) in each delta_j; Chan, Golub & LeVeque's condition number)
    full = _outer_mean(rows, centred).matrix
    bound = 1e-12 * np.linalg.norm(full)
    if centred:
        mean1, mean2 = rows[:half].mean(axis=0), rows[half:].mean(axis=0)
        delta = np.abs(mean1 - mean2)
        err = m * np.finfo(float).eps * (np.abs(mean1) + np.abs(mean2))
        term = np.outer(delta, err) + np.outer(err, delta) + np.outer(err, err)
        bound += half * (m - half) / m**2 * np.linalg.norm(term)
        np.testing.assert_allclose(got.model_stats, rows.mean(axis=0), rtol=0,
                                   atol=1e-13 * np.abs(rows).max())
    else:
        assert got.model_stats is None
    assert np.linalg.norm(got.matrix - full) <= bound


def test_reliability_check_identity_and_scaled():
    rng = substream(36, 0)
    A = rng.normal(size=(4, 4))
    spd = A @ A.T + 4 * np.eye(4)
    f1 = FisherMatrix(spd.copy())
    f2 = FisherMatrix(spd.copy())
    assert reliability_check(f1, f2) == "pass"
    assert f1.mean_eigenvalue == pytest.approx(1.0)
    f3 = FisherMatrix(3.0 * spd)
    assert reliability_check(f3, f2) == "fail"
    assert f3.mean_eigenvalue == pytest.approx(3.0)


def test_reliability_check_singular_second_estimate():
    f1 = FisherMatrix(np.eye(2))
    f2 = FisherMatrix(np.zeros((2, 2)))
    assert reliability_check(f1, f2) == "fail"


def test_reliability_mean_criterion_with_spread_eigenvalues():
    f1 = FisherMatrix(np.diag([1.9, 1 / 1.9]))
    f2 = FisherMatrix(np.eye(2))
    # mean eigenvalue (1.9 + 0.526)/2 = 1.21 passes
    assert reliability_check(f1, f2) == "pass"


def test_invert_hand_value_and_guards():
    fm = FisherMatrix(np.diag([4.0, 4.0]))
    np.testing.assert_allclose(invert(fm), np.diag([0.25, 0.25]))
    rank1 = FisherMatrix(np.outer([1.0, 2.0], [1.0, 2.0]))
    with pytest.raises(SingularFisher):
        invert(rank1)
    # positive definite, but its condition number 1e15 is above CONDITION_LIMIT
    near = FisherMatrix(np.diag([1.0, 1e-15]), provenance="monte_carlo")
    with pytest.raises(SingularFisher):
        invert(near)


def test_solve_matches_invert():
    rng = substream(37, 0)
    A = rng.normal(size=(3, 3))
    fm = FisherMatrix(A @ A.T + 3 * np.eye(3))
    rhs = rng.normal(size=3)
    np.testing.assert_allclose(solve(fm, rhs), invert(fm) @ rhs, rtol=1e-10)


def test_symmetry_enforced():
    with pytest.raises(ValueError):
        FisherMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_kl_expansion_defines_fisher_metric():
    # KL(P_{theta+d} || P_theta) = (1/2) d^T I d + O(|d|^3): the remainder
    # shrinks ~8x when the perturbation halves (enumeration-exact KL)
    fam = BernoulliFamily(3)
    rng = substream(38, 0)
    theta = rng.uniform(0.25, 0.75, size=3)
    F = exact_fisher(fam, theta).matrix
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)

    def remainder(scale):
        d = scale * direction
        return abs(fam.exact_kl(theta + d, theta) - 0.5 * d @ F @ d)

    r1, r2, r3 = remainder(0.04), remainder(0.02), remainder(0.01)
    assert 4.0 < r1 / r2 < 16.0
    assert 4.0 < r2 / r3 < 16.0


def test_rbm_reliability_calibration_baseline():
    # two split M=10000 estimates on freshly initialized 16+1 machines pass
    # the cross-validation on (at least) 95% of seeds; regression baseline
    from igopt.families import JointRbmFamily, rbm_init
    fam = JointRbmFamily(16, 1)
    passes = 0
    seeds = 40
    for seed in range(seeds):
        theta = rbm_init(16, 1, substream(39, seed, 0)).flat()
        stats_rng = substream(39, seed, 1)
        x, h = fam.sample(theta, 10000, stats_rng)
        stats = fam.sufficient_stats((x, h))
        half = 5000
        f1 = FisherMatrix(np.cov(stats[:half].T, bias=True), "monte_carlo", half)
        f2 = FisherMatrix(np.cov(stats[half:].T, bias=True), "monte_carlo", half)
        passes += reliability_check(f1, f2) == "pass"
    assert passes / seeds >= 0.95


@st.composite
def _bit_matrices(draw):
    """n x p 0/1 rows, n = 2..64; each column random, all 0 or all 1."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(2, 64))
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(["random", "zeros", "ones"]))
        if kind == "random":
            columns.append(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        else:
            columns.append([int(kind == "ones")] * n)
    return np.array(columns, dtype=np.uint8).T


@given(bits=_bit_matrices(), centred=st.booleans(), fortran=st.booleans())
def test_count_gram_of_bit_rows_matches_the_exact_rational_form(bits, centred, fortran):
    n, p = bits.shape
    rows = np.asfortranarray(bits) if fortran else bits
    gram, mean = fisher._gram(rows, centred)
    counts = [int(c) for c in bits.sum(axis=0)]
    exact_mean = [Fraction(c, n) for c in counts]
    centre = exact_mean if centred else [0] * p
    exact = [[sum((int(r[i]) - centre[i]) * (int(r[j]) - centre[j]) for r in bits)
              for j in range(p)] for i in range(p)]
    assert gram.dtype == np.float64 and gram.shape == (p, p)
    # (n C - c c^T) / n is exact until its division: within half an ulp
    scale = max(abs(float(e)) for row in exact for e in row)
    for i in range(p):
        for j in range(p):
            assert abs(Fraction(float(gram[i, j])) - exact[i][j]) <= 2 * np.spacing(scale)
    if centred:
        assert mean.tolist() == [float(m) for m in exact_mean]
    else:
        assert mean is None


def test_count_gram_refuses_more_rows_than_float32_counts_exactly():
    rows = np.broadcast_to(np.zeros((1, 1), dtype=np.uint8), (fisher.EXACT_COUNT_ROWS + 1, 1))
    with pytest.raises(ValueError, match="EXACT_COUNT_ROWS"):
        fisher._gram(rows, True)


@pytest.mark.parametrize("n_x, n_h", [(16, 1), (3, 5), (6, 2)])
def test_joint_rbm_bit_rows_match_the_float_statistics(n_x, n_h):
    # the same batch through its float statistics: the two-pass float Gram
    fam = JointRbmFamily(n_x, n_h)
    theta = fam.init_params(substream(40, n_x, 0))
    m = 2001
    got = mc_fisher(fam, theta, m, substream(40, n_x, 1))
    stats = fam.sufficient_stats(fam.sample(theta, m, substream(40, n_x, 1)))
    want = mc_fisher(_FixedRows(stats, True), None, m, None)
    assert got.model_stats.tobytes() == want.model_stats.tobytes()
    assert got.reliability == want.reliability
    assert got.mean_eigenvalue == pytest.approx(want.mean_eigenvalue, rel=1e-12)
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=0,
                               atol=1e-13 * np.abs(want.matrix).max())


def test_lifted_joint_rbm_gives_the_same_monte_carlo_fisher_bits():
    fam = JointRbmFamily(6, 2)
    theta = fam.init_params(substream(41, 0))
    plain = mc_fisher(fam, theta, 500, substream(41, 1))
    lifted = mc_fisher(lift_noisy(fam), theta, 500, substream(41, 1))
    assert plain.matrix.tobytes() == lifted.matrix.tobytes()
    assert plain.model_stats.tobytes() == lifted.model_stats.tobytes()
    assert (plain.reliability, plain.mean_eigenvalue) == (lifted.reliability,
                                                          lifted.mean_eigenvalue)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12),
       log_cond=st.floats(0.0, 10.0), log_scale=st.floats(-3.0, 3.0))
def test_solve_residual_is_small_up_to_condition_1e10(seed, dim, log_cond, log_scale):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = 10.0**log_scale * np.logspace(0.0, -log_cond, dim)
    fm = FisherMatrix((q * eigs) @ q.T)
    norm = np.linalg.norm(fm.matrix, 2)
    for rhs in (rng.normal(size=dim), rng.normal(size=(dim, 3))):
        x = solve(fm, rhs)
        assert x.shape == rhs.shape
        assert np.linalg.norm(fm.matrix @ x - rhs) <= 1e-13 * norm * np.linalg.norm(x)
