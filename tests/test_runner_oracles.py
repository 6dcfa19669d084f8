"""Runner-level oracles: every algorithm through ``run_experiment``.

Each test runs a config through the runner, then chains the same run by
hand in the style of acceptance criterion 1: it draws from the runner's
substreams, calls the public step function, applies ``project``, and
requires the runner's parameter trace to match bit for bit.
"""

import numpy as np
import pytest

from igopt import (
    cem_step,
    compute_quantile_weights,
    igo_ml_step,
    igo_step,
    smoothed_cem_step,
    step_diagnostics,
    truncation,
    vanilla_step,
)
from igopt.experiment import parse_config, run_experiment
from igopt.families import (
    BernoulliFamily,
    FullGaussianFamily,
    GaussianParams,
    GaussianSqrtParams,
    IsotropicGaussianFamily,
    LogitBernoulliFamily,
    MeanGaussianFamily,
    gaussian_step,
)
from igopt.fisher import mc_fisher
from igopt.objectives import evaluate, onemax, sphere
from igopt.rng import FISHER, SAMPLING, spawn_run_seed, substream


def _assert_runner_matches(text, family, theta, objective, scheme, update):
    """Run ``text`` and chain ``update(theta, samples, values, weights,
    run_seed, step)`` by hand from the same substreams."""
    cfg = parse_config(text)
    rec = run_experiment(cfg)[0]
    assert rec.status == "step_limit"

    run_seed = spawn_run_seed(cfg.seed, 0)
    oracle = [theta.copy()]
    for step in range(cfg.steps):
        rng = substream(run_seed, step, SAMPLING)
        x = family.sample(theta, cfg.n, rng)
        f = evaluate(objective, x, rng)
        w = compute_quantile_weights(f, scheme).weights
        theta = family.project(update(theta, x, f, w, run_seed, step))
        oracle.append(np.array(theta, dtype=float, copy=True))

    assert len(rec.thetas) == len(oracle) == cfg.steps + 1
    for ours, ref in zip(rec.thetas, oracle):
        assert np.array_equal(ours, ref)  # bit-for-bit
    return rec


def _gaussian_start(fam, m0, sigma0):
    return fam.pack(GaussianParams(m0 * np.ones(fam.dim), sigma0**2 * np.eye(fam.dim)))


GAUSS = ("family = gaussian:d=2,m0=1,sigma0=0.5\nobjective = sphere:d=2\n"
         "scheme = truncation:q0=0.5\nn = 40\ndt = 0.3\nsteps = 15\nseed = 31\n")


def test_cma_matches_hand_chained_reference():
    fam = FullGaussianFamily(2)
    _assert_runner_matches(
        GAUSS + "algorithm = cma\n", fam, _gaussian_start(fam, 1.0, 0.5), sphere(2),
        truncation(0.5),
        lambda th, x, f, w, seed, step: fam.pack(
            gaussian_step("cma", fam.unpack(th), x, w, dt=0.3)))


def test_emna_matches_hand_chained_reference():
    fam = FullGaussianFamily(2)
    _assert_runner_matches(
        GAUSS + "algorithm = emna\n", fam, _gaussian_start(fam, 1.0, 0.5), sphere(2),
        truncation(0.5),
        lambda th, x, f, w, seed, step: fam.pack(
            gaussian_step("emna", fam.unpack(th), x, w)))


def test_xnes_matches_hand_chained_reference():
    fam = FullGaussianFamily(2)
    theta0 = _gaussian_start(fam, 1.0, 0.5)
    p = fam.unpack(theta0)
    state = [GaussianSqrtParams(p.m, np.linalg.cholesky(p.C))]

    def update(th, x, f, w, seed, step):
        # xNES moves the square root A; C = A A^T is only ever derived
        state[0] = gaussian_step("xnes", state[0], x, w, dt=0.3)
        return fam.pack(GaussianParams(state[0].m, state[0].C))

    _assert_runner_matches(GAUSS + "algorithm = xnes\n", fam, theta0, sphere(2),
                           truncation(0.5), update)


def test_cem_matches_hand_chained_reference():
    fam = FullGaussianFamily(2)
    text = GAUSS.replace("q0=0.5", "q0=0.3").replace("n = 40", "n = 50")
    _assert_runner_matches(
        text + "algorithm = cem\n", fam, _gaussian_start(fam, 1.0, 0.5), sphere(2),
        truncation(0.3),
        lambda th, x, f, w, seed, step: cem_step(fam, x, f, 0.3))


def test_smoothed_cem_matches_hand_chained_reference():
    fam = LogitBernoulliFamily(8)
    _assert_runner_matches(
        "family = bernoulli_logit:d=8\nobjective = onemax:d=8\nscheme = truncation:q0=0.3\n"
        "algorithm = smoothed_cem\nn = 30\ndt = 0.2\nsteps = 20\nseed = 32\n",
        fam, np.zeros(8), onemax(8), truncation(0.3),
        lambda th, x, f, w, seed, step: smoothed_cem_step(fam, th, x, w, 0.2, "natural"))


def test_vanilla_gradient_matches_hand_chained_reference():
    fam = MeanGaussianFamily(3)
    _assert_runner_matches(
        "family = gaussian_mean:d=3,m0=2\nobjective = sphere:d=3\n"
        "scheme = truncation:q0=0.5\nalgorithm = vanilla_gradient\nn = 30\ndt = 0.2\n"
        "steps = 20\nseed = 33\n",
        fam, np.full(3, 2.0), sphere(3), truncation(0.5),
        lambda th, x, f, w, seed, step: vanilla_step(fam, th, x, w, 0.2))


def test_igo_ml_matches_hand_chained_reference():
    fam = LogitBernoulliFamily(6)
    _assert_runner_matches(
        "family = bernoulli_logit:d=6\nobjective = onemax:d=6\n"
        "scheme = truncation:q0=0.5\nalgorithm = igo_ml\nn = 30\ndt = 0.3\n"
        "steps = 20\nseed = 34\n",
        fam, LogitBernoulliFamily.from_probabilities(np.full(6, 0.5)), onemax(6),
        truncation(0.5),
        lambda th, x, f, w, seed, step: igo_ml_step(fam, th, x, w, 0.3))


def test_igo_with_monte_carlo_fisher_matches_hand_chained_reference():
    fam = IsotropicGaussianFamily(2)

    def update(th, x, f, w, seed, step):
        est = mc_fisher(fam, th, 400, substream(seed, step, FISHER))
        return igo_step(fam, th, x, w, 0.2, fisher=est)

    rec = _assert_runner_matches(
        "family = gaussian_iso:d=2,m0=1\nobjective = sphere:d=2\n"
        "scheme = truncation:q0=0.5\nalgorithm = igo\nfisher = mc:m=400\nn = 50\n"
        "dt = 0.2\nsteps = 15\nseed = 35\n",
        fam, np.array([1.0, 1.0, 0.0]), sphere(2), truncation(0.5), update)
    assert all(row.reliability == "pass" for row in rec.rows)


@pytest.mark.parametrize("text, family", [
    ("family = bernoulli:d=8\nobjective = onemax:d=8\nalgorithm = igo\nn = 30\n"
     "dt = 0.2\nsteps = 12\nseed = 36\n", BernoulliFamily(8)),
    (GAUSS + "algorithm = cma\n", FullGaussianFamily(2)),
    ("family = gaussian_iso:d=2,m0=1\nobjective = sphere:d=2\nalgorithm = igo\nn = 30\n"
     "dt = 0.2\nsteps = 12\nseed = 37\n", IsotropicGaussianFamily(2)),
])
def test_row_diagnostics_are_the_step_report(text, family):
    """The runs CSV's kl, kl_stderr and speed_norm are ``step_diagnostics``
    of each recorded step, bit for bit."""
    rec = run_experiment(parse_config(text))[0]
    assert rec.rows and len(rec.thetas) == len(rec.rows) + 1
    for k, row in enumerate(rec.rows):
        rep = step_diagnostics(family, rec.thetas[k], rec.thetas[k + 1])
        assert rep.kl_stderr == 0.0 and rep.kl_estimate > 0.0
        assert (row.kl, row.kl_stderr, row.speed_norm) == (
            rep.kl_estimate, rep.kl_stderr, rep.fisher_step_norm)
