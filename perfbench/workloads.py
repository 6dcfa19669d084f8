"""The benchmark's workloads.

Each workload builds its inputs from a seed (``prepare``), runs one unit of
work (``run``, the timed section) and checks that unit's outputs against
properties the paper proves (``outcome``, untimed).  Every call into igopt
inside ``run`` goes through a module attribute (``flow.integrate``, not a
name imported from it), so that the tracer in ``tracing.py`` can wrap it.
"""

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from igopt import experiment, flow, objectives
from igopt.families import BernoulliFamily
from igopt.weights import truncation

# A second seed, never used while a change is written, for the held-out
# check that a performance claim needs.
HELD_OUT_SEED = 3708


@dataclass
class Outcome:
    """What one unit produced, as the benchmark reports it."""

    evals: int                 # objective evaluations done by the unit
    fingerprint: str           # sha256 of the unit's output bytes
    runs: int                  # repeats (or flows) the unit attempted
    failed_runs: int           # of which ended in a failed_* status
    checks: dict = field(default_factory=dict)  # check name -> passed


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# -- config-driven workloads ----------------------------------------------------

def _speed_kl_bounds_hold(record):
    """Criterion 9: speed and KL bounds on every step of a run."""
    var_w = record.weight_variance
    return all(
        row.speed_norm / row.dt <= math.sqrt(var_w) * 1.05
        and row.kl <= 0.5 * row.dt**2 * var_w * 1.1 + 3.0 * row.kl_stderr
        for row in record.rows)


def _rbm16_checks(records):
    return {
        "no_failed_status": not any(r.failed for r in records),
        "reliability_pass": all(row.reliability == "pass"
                                for r in records for row in r.rows),
        "speed_kl_bounds": all(_speed_kl_bounds_hold(r) for r in records),
    }


def _gauss_checks(records):
    return {"converged": all(r.status == "converged" for r in records)}


def _linear_checks(records):
    # Criterion 6: the flow speed of signed-median weighting on a linear
    # objective is 2/sqrt(2 pi) in every dimension.
    expected = 2.0 / math.sqrt(2.0 * math.pi)
    speeds = [row.speed_norm / row.dt for r in records for row in r.rows]
    return {
        "speed_kl_bounds": all(_speed_kl_bounds_hold(r) for r in records),
        "flow_speed_2_over_sqrt_2pi": abs(np.mean(speeds) / expected - 1.0) < 0.05,
    }


class ExperimentWorkload:
    """One repeat of an experiment config, CSV output included."""

    def __init__(self, name, config, default_seed, checks):
        self.name = name
        self.config = config
        self.default_seed = default_seed
        self.checks = checks

    def prepare(self, seed, out_dir=None):
        """Parse the config; parsing validates it by building the family."""
        cfg = experiment.parse_config(self.config.format(seed=seed))
        return cfg, out_dir

    def run(self, state):
        cfg, out_dir = state
        return experiment.run_experiment(cfg, out_dir)

    def outcome(self, state, records):
        cfg, out_dir = state
        runs_csv = Path(out_dir) / f"{cfg.out_prefix}_runs.csv"
        return Outcome(
            evals=sum(len(r.rows) for r in records) * cfg.n,
            fingerprint=_sha256(runs_csv.read_bytes()),
            runs=len(records),
            failed_runs=sum(r.failed for r in records),
            checks=self.checks(records),
        )


# -- exact flow ------------------------------------------------------------------

class FlowBinvalWorkload:
    """Exact RK4 flow of Bernoulli(14) on BinVal, plus the linear-Gaussian
    constants grid.

    BinVal weighs bit i by 2**-i, so all 2**14 points have distinct values
    and every value group of the exact weights holds one point.  The seed
    draws the initial probabilities.
    """

    name = "flow_binval"
    default_seed = 1106
    dim = 14
    q0 = 0.3
    horizon = 1.0
    step = 0.2
    grid = tuple(k / 20 for k in range(1, 20))  # q0 values of the constants

    def prepare(self, seed, out_dir=None):
        family = BernoulliFamily(self.dim)
        objective = objectives.linear(2.0 ** -np.arange(self.dim), space="bits")
        theta0 = np.random.default_rng(seed).uniform(0.3, 0.7, self.dim)
        return family, objective, truncation(self.q0), theta0

    def run(self, state):
        family, objective, scheme, theta0 = state
        rhs_calls = 0

        def rhs(theta):
            nonlocal rhs_calls
            rhs_calls += 1
            return flow.flow_rhs(family, theta, objective, scheme)

        trajectory = flow.integrate(rhs, theta0, self.horizon, self.step)
        quantiles = []
        for state_k in trajectory:
            _, probs, values, _ = flow.exact_weights_all(
                family, state_k.theta, objective, scheme)
            quantiles.append(flow.f_quantile(values, probs, self.q0))
        constants = [flow.gaussian_linear_constants(q, 2) for q in self.grid]
        return trajectory, quantiles, constants, rhs_calls

    def outcome(self, state, result):
        trajectory, quantiles, constants, rhs_calls = result
        thetas = np.array([s.theta for s in trajectory])
        # Reference beta = -phi(Phi^-1(q0)) from scipy's own quantile function.
        z = ndtri(np.array(self.grid))
        beta_ref = -np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        betas = np.array([c.beta for c in constants])
        return Outcome(
            evals=rhs_calls * 2**self.dim,
            fingerprint=_sha256(thetas.tobytes()),
            runs=1,
            failed_runs=0,
            checks={
                "quantile_strictly_decreasing": bool(np.all(np.diff(quantiles) < 0.0)),
                "beta_is_minus_phi_of_quantile": bool(
                    np.allclose(betas, beta_ref, rtol=1e-12, atol=0.0)),
                "alpha_positive_iff_q0_below_half": all(
                    (c.alpha > 0.0) == (c.q0 < 0.5) for c in constants),
            },
        )


WORKLOADS = {w.name: w for w in (
    ExperimentWorkload(
        "rbm16",
        "family = rbm:n_x=16,n_h=1\nobjective = two_min:d=16,per_run=1\n"
        "scheme = truncation:q0=0.5\nalgorithm = igo\nfisher = mc:m=10000\n"
        "n = 1000\ndt = 1.0\nsteps = 5\nstop = steps\nseed = {seed}\nworkers = 1\n",
        161616, _rbm16_checks),
    ExperimentWorkload(
        "gauss_full20",
        "family = gaussian:d=20,m0=3\nobjective = sphere:d=20\n"
        "scheme = truncation:q0=0.5\nalgorithm = igo\nfisher = exact\n"
        "n = 200\ndt = 0.3\nsteps = 1000\nstop = target:1e-4\nseed = {seed}\nworkers = 1\n",
        1, _gauss_checks),
    ExperimentWorkload(
        "linear_100k",
        "family = gaussian_mean:d=10\nobjective = linear:d=10,alpha=-1,c=0\n"
        "scheme = signed_median\nalgorithm = igo\nn = 100000\ndt = 0.01\n"
        "steps = 5\nseed = {seed}\nworkers = 1\n",
        99, _linear_checks),
    FlowBinvalWorkload(),
)}
