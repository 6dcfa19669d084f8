import ast
import math
import re
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from igopt import cli
from igopt import experiment
from igopt import flow as flow_mod
from igopt import objectives
from igopt.experiment import (
    CSV_SCHEMA_VERSION,
    ExperimentConfig,
    parse_config,
    run_experiment,
    status_counts,
    write_csv,
)
from igopt.families import BernoulliFamily
from igopt.objectives import onemax
from igopt.weights import truncation

PBIL_CONFIG = """
# incremental-learning run
family = bernoulli:d=10
objective = onemax:d=10
scheme = pbil:mu=1,lr=0.1
algorithm = igo
n = 50
dt = 0.1
steps = 30
seed = 1234
repeats = 2
"""


def test_parse_config_round_trip():
    cfg = parse_config(PBIL_CONFIG)
    assert cfg.family == "bernoulli:d=10"
    assert cfg.n == 50 and cfg.dt == 0.1 and cfg.repeats == 2
    assert cfg.algorithm == "igo"


@pytest.mark.parametrize("bad", [
    "family = bernoulli:d=5\nobjective = onemax:d=5\nsurprise = 1\n",
    "family = bernoulli:d=5\nobjective = onemax:d=5\nn = 0\n",
    "family = bernoulli:d=5\nobjective = onemax:d=5\nalgorithm = sgd\n",
    "family = bernoulli:d=5\nobjective = onemax:d=5\nfisher = bogus\n",
    "family = bernoulli:d=5\nobjective = onemax:d=5\nn = 10\nn = 20\n",
    "family = bernoulli:d=5\nobjective = onemax:d=5\njust a line\n",
    "family = rbm:n_x=12,n_h=12\nobjective = two_min:d=12,seed=1\nfisher = exact\n",
    "family = gaussian_iso:d=5\nobjective = sphere:d=5\nfisher = mc:m=3\n",
])
def test_bad_configs_rejected(bad):
    with pytest.raises(ValueError):
        parse_config(bad)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\nfamily = bernoulli:d=3\nobjective = onemax:d=3 # why\n")
    assert cfg.objective == "onemax:d=3"


def test_run_is_deterministic_and_csv_byte_identical(tmp_path):
    cfg = parse_config(PBIL_CONFIG)
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    second = run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("experiment_runs.csv", "experiment_summary.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
    assert all(np.array_equal(x.thetas, y.thetas) for x, y in zip(first, second, strict=True))


def test_worker_pool_gives_identical_csv(tmp_path):
    cfg = parse_config(PBIL_CONFIG)
    run_experiment(cfg, out_dir=tmp_path / "serial")
    cfg2 = parse_config(PBIL_CONFIG + "workers = 2\n")
    run_experiment(cfg2, out_dir=tmp_path / "pool")
    assert (tmp_path / "serial" / "experiment_runs.csv").read_bytes() == \
        (tmp_path / "pool" / "experiment_runs.csv").read_bytes()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_worker_pool_is_bounded_by_repeats_and_cpus(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 4)
    _RecordingPool.sizes = []
    run_experiment(parse_config(PBIL_CONFIG), out_dir=tmp_path / "serial")
    run_experiment(parse_config(PBIL_CONFIG + "workers = 100000\n"), out_dir=tmp_path / "pool")
    run_experiment(parse_config(_override(PBIL_CONFIG, "workers = 100000\nrepeats = 9\n")))
    run_experiment(parse_config(_override(PBIL_CONFIG, "workers = 3\nrepeats = 1\n")))
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: None)
    run_experiment(parse_config(PBIL_CONFIG + "workers = 100000\n"))
    assert _RecordingPool.sizes == [2, 4]  # the last two runs open no pool
    assert (tmp_path / "serial" / "experiment_runs.csv").read_bytes() == \
        (tmp_path / "pool" / "experiment_runs.csv").read_bytes()


def test_zero_steps_gives_empty_trajectory(tmp_path):
    cfg = parse_config("family = bernoulli:d=4\nobjective = onemax:d=4\nsteps = 0\n")
    records = run_experiment(cfg, out_dir=tmp_path)
    assert records[0].status == "step_limit"
    assert records[0].rows == []
    lines = (tmp_path / "experiment_runs.csv").read_text().splitlines()
    assert len(lines) == 2  # schema comment + header only


def test_target_stop_marks_converged():
    cfg = parse_config(
        "family = bernoulli:d=6\nobjective = onemax:d=6\nn = 80\ndt = 0.2\n"
        "steps = 200\nseed = 5\nstop = target:0\n")
    rec = run_experiment(cfg)[0]
    assert rec.status == "converged"
    assert rec.rows[-1].best_f <= 0.0


@pytest.mark.parametrize("family, objective", [("bernoulli:d=6", "onemax:d=6"),
                                               ("gaussian:d=3", "sphere:d=3")])
def test_single_run_frees_each_batch_before_drawing_the_next(monkeypatch, family, objective):
    cfg = parse_config(f"family = {family}\nobjective = {objective}\n"
                       "n = 40\ndt = 0.1\nsteps = 5\nseed = 3\n")
    batches = []
    real_setup = experiment._setup

    def setup(*args):
        fam, *rest = real_setup(*args)
        real_sample = fam.sample

        def sample(theta, n, rng):
            assert all(ref() is None for ref in batches)  # the previous batch is dead
            batch = real_sample(theta, n, rng)
            batches.append(weakref.ref(batch))
            return batch

        fam.sample = sample
        return (fam, *rest)

    monkeypatch.setattr(experiment, "_setup", setup)
    assert experiment.single_run(cfg.validate(), 0).status == "step_limit"
    assert len(batches) == 5


@pytest.mark.parametrize("scheme", ["signed_median", "truncation:q0=0.3", "pbil:mu=5,lr=0.2"])
def test_mean_gaussian_run_sorts_each_batch_once(monkeypatch, scheme):
    # the weights and the reported f-quantile share one sort of the batch
    cfg = parse_config("family = gaussian_mean:d=3\nobjective = linear:d=3,alpha=-1,c=0\n"
                       f"scheme = {scheme}\nn = 200\ndt = 0.01\nsteps = 4\nseed = 5\n")
    calls = Counter()
    for name in ("argsort", "sort", "unique"):
        def counted(*args, _name=name, _original=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    assert len(experiment.single_run(cfg, 0).rows) == 4
    assert calls["argsort"] + calls["sort"] == 4 and not calls["unique"]


def test_both_optima_stop():
    cfg = parse_config(
        "family = rbm:n_x=8,n_h=1\nobjective = two_min:d=8,per_run=1\n"
        "algorithm = igo\nfisher = exact\nn = 200\ndt = 0.5\nsteps = 60\n"
        "seed = 21\nstop = both_optima\ngibbs_burn_in = 30\n")
    rec = run_experiment(cfg)[0]
    assert rec.status in ("both_optima_reached", "step_limit")
    # d=8 with a diverse start: both optima show up fast
    assert rec.status == "both_optima_reached"


def test_csv_schema(tmp_path):
    cfg = parse_config(PBIL_CONFIG)
    records = run_experiment(cfg, out_dir=tmp_path)
    runs = (tmp_path / "experiment_runs.csv").read_text().splitlines()
    assert runs[0].startswith("# igopt runs schema v1")
    header = runs[1].split(",")
    assert header[:4] == ["run_id", "step", "time", "best_f"]
    first = runs[2].split(",")
    assert len(first) == len(header)
    assert int(first[0]) == 0 and int(first[1]) == 0
    summary = (tmp_path / "experiment_summary.csv").read_text().splitlines()
    assert "best_f_p16" in summary[1] and "best_f_p84" in summary[1]
    assert len(summary) == 2 + max(len(r.rows) for r in records)


def _summary_by_cell(records):
    """The summary CSV rows as one ``np.percentile`` call per (step,
    quantity, percentile) over the repeats alive at that step."""
    quantities = ["best_f", "f_quantile", "dist_second", "mean_hidden", "kl", "speed_norm"]
    lines = []
    for k in range(max(len(r.rows) for r in records)):
        cells = [str(k)]
        for q in quantities:
            vals = np.array([getattr(r.rows[k], q) for r in records if len(r.rows) > k])
            vals = vals[~np.isnan(vals)]
            cells += (["nan"] * 3 if vals.size == 0 else
                      [experiment._fmt(np.percentile(vals, p)) for p in (16, 50, 84)])
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("text", [
    "family = bernoulli:d=10\nobjective = onemax:d=10\nstop = target:0\nseed = 5\n",
    "family = gaussian_iso:d=3,m0=2\nobjective = sphere:d=3\nstop = target:0.05\nseed = 6\n",
    "family = rbm:n_x=6,n_h=1\nobjective = two_min:d=6,seed=2\nstop = both_optima\n"
    "gibbs_burn_in = 10\nseed = 7\n",
])
def test_summary_percentiles_match_one_call_per_cell(tmp_path, text):
    # repeats that end at different steps, and all-NaN quantities
    records = run_experiment(parse_config(text + "n = 30\ndt = 0.3\nsteps = 60\nrepeats = 5\n"),
                             out_dir=tmp_path)
    assert len({len(r.rows) for r in records}) > 1
    summary = (tmp_path / "experiment_summary.csv").read_bytes()
    assert summary.split(b"\n", 2)[2] == _summary_by_cell(records).encode()


def test_status_counts():
    cfg = parse_config(PBIL_CONFIG)
    records = run_experiment(cfg)
    counts = status_counts(records)
    assert counts == {"step_limit": 2}


def test_pbil_trajectory_matches_handrolled_reference():
    # 30-step spot check of the bit-for-bit acceptance criterion
    from igopt.rng import SAMPLING, spawn_run_seed, substream
    cfg = parse_config(PBIL_CONFIG)
    rec = run_experiment(cfg)[0]

    lr, d, n = 0.1, 10, 50
    seed = spawn_run_seed(cfg.seed, 0)
    theta = np.full(d, 0.5)
    trace = [theta.copy()]
    for step in range(cfg.steps):
        rng = substream(seed, step, SAMPLING)
        x = (rng.random((n, d)) < theta).astype(np.uint8)
        f = d - x.sum(axis=1)
        best = x[np.argmin(f)]
        theta = (1.0 - lr) * theta + lr * best.astype(float)
        theta = np.clip(theta, 1e-6, 1 - 1e-6)
        trace.append(theta.copy())
    assert all(np.array_equal(a, b) for a, b in zip(rec.thetas, trace))


def test_intrinsic_time_collapse():
    # best-f curves plotted against k*dt approach each other as dt shrinks
    import igopt.experiment as E
    curves = {}
    for dt in (0.5, 0.25, 0.125):
        steps = int(round(3.0 / dt))
        cfg = parse_config(
            f"family = bernoulli:d=10\nobjective = onemax:d=10\n"
            f"scheme = truncation:q0=0.5\nn = 200\ndt = {dt}\nsteps = {steps}\n"
            f"seed = 777\nrepeats = 16\n")
        records = E.run_experiment(cfg)
        # median best-f at intrinsic times 1, 2, 3
        curve = []
        for t in (1.0, 2.0, 3.0):
            k = int(round(t / dt)) - 1
            curve.append(np.median([r.rows[k].best_f for r in records]))
        curves[dt] = np.array(curve)
    gap_coarse = np.abs(curves[0.5] - curves[0.25]).max()
    gap_fine = np.abs(curves[0.25] - curves[0.125]).max()
    assert gap_fine <= gap_coarse + 0.6  # shrinking up to sampling noise


def test_exit_codes(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    good = tmp_path / "good.cfg"
    good.write_text(PBIL_CONFIG)
    assert cli.main(["run", str(good)]) == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("family = bernoulli:d=5\nobjective = onemax:d=5\nwhat = 1\n")
    assert cli.main(["run", str(bad)]) == 2
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2

    # an unreliable Monte-Carlo Fisher estimate (splits of one sample each)
    flaky = tmp_path / "flaky.cfg"
    flaky.write_text(
        "family = gaussian_mean:d=2\nobjective = sphere:d=2\nalgorithm = igo\n"
        "fisher = mc:m=2\nn = 10\ndt = 0.05\nsteps = 3\nseed = 9\n")
    assert cli.main(["run", str(flaky)]) == 3


def test_overflowing_objective_fails_the_run_with_one_line(tmp_path, monkeypatch, capsys):
    # |m0|^2 = 2e320 overflows the sphere: the repeat ends failed_nonfinite
    # before its first row, with no warning and no traceback
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("family = gaussian_iso:d=2,m0=1e160\nobjective = sphere:d=2\n"
                       "n = 20\nsteps = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(cfgfile)]) == 3
    out, err = capsys.readouterr()
    assert out == "failed_nonfinite: 1\n"
    assert err == "1 repeat(s) failed: failed_nonfinite 1\n"
    assert (tmp_path / "experiment_runs.csv").read_text().count("\n") == 2  # comment, header


def test_cli_names_each_failed_status_and_its_count(tmp_path, monkeypatch, capsys):
    records = [experiment.RunRecord(r, r) for r in range(4)]
    for record, status in zip(records, ["failed_unreliable", "converged",
                                        "failed_singular", "failed_unreliable"]):
        record.status = status
    monkeypatch.setattr(experiment, "run_experiment", lambda cfg, out_dir: records)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(PBIL_CONFIG)
    assert cli.main(["run", str(cfgfile)]) == 3
    assert capsys.readouterr().err == ("3 repeat(s) failed: failed_singular 1, "
                                       "failed_unreliable 2\n")


@pytest.mark.parametrize("text, steps_written", [
    # the second step sends log sigma to -398: sigma^2 underflows to 0
    ("n = 20\nobjective = sphere:d=2\ndt = 1e3\n", 1),
    ("n = 100\nobjective = sphere:d=2\ndt = 1e3\n", 1),
    # the first step of 1e5 overflows exp(log sigma)
    ("n = 20\nobjective = linear:d=2\nscheme = truncation:q0=0.2\ndt = 1e5\n", 0),
])
def test_isotropic_gaussian_leaving_the_float_range_fails_the_run(tmp_path, monkeypatch, capsys,
                                                                   text, steps_written):
    # the step that leaves the domain ends the run and writes no row
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"family = gaussian_iso:d=2\nalgorithm = igo\nsteps = 5\nseed = 1\n{text}")
    assert cli.main(["run", str(cfgfile)]) == 3
    assert capsys.readouterr().out == "failed_singular: 1\n"
    _, header, *runs = (tmp_path / "experiment_runs.csv").read_text().splitlines()
    assert len(runs) == steps_written
    for row in runs:
        assert row.endswith(",failed_singular")
        assert math.isfinite(float(row.split(",")[header.split(",").index("kl")]))


@pytest.mark.parametrize("text", [
    # LAPACK finds the xNES update's matrix singular
    "family = gaussian:d=2\nobjective = sphere:d=2\nalgorithm = xnes\ndt = 50\n",
    # the step's squared Fisher length overflows
    "family = gaussian:d=2\nobjective = sphere:d=2\nalgorithm = xnes\ndt = 1e300\n",
    "family = gaussian_iso:d=2\nobjective = sphere:d=2\ndt = 1e300\n",
    "family = bernoulli_logit:d=2\nobjective = onemax:d=2\ndt = 1e300\n",
    "family = rbm:n_x=3,n_h=1\nobjective = onemax:d=3\ndt = 1e300\n",
    # the step rounds a probability to 0: its KL is infinite
    "family = bernoulli_logit:d=2\nobjective = onemax:d=2\ndt = 50\n",
])
def test_numbers_leaving_the_floats_fail_the_run_with_one_line(tmp_path, monkeypatch, capsys,
                                                               text):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text + "n = 20\nsteps = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(cfgfile)]) == 3
    assert capsys.readouterr().err == "1 repeat(s) failed: failed_singular 1\n"


def test_noise_near_the_float_limit_keeps_a_finite_quantile(tmp_path, monkeypatch, capsys):
    # values of about +-1e308 differ by more than the largest float
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("family = bernoulli:d=3\nobjective = onemax:d=3,noise=gaussian,"
                       "noise_scale=1e308\nn = 20\nsteps = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(cfgfile)]) == 0
    assert capsys.readouterr().err == ""
    _, header, *runs = (tmp_path / "experiment_runs.csv").read_text().splitlines()
    column = header.split(",").index("f_quantile")
    assert all(math.isfinite(float(row.split(",")[column])) for row in runs)

def test_cli_table_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(["table", "critical_dt:points=30,q_min=0.05,q_max=0.6"]) == 0
    rows = np.genfromtxt(tmp_path / "critical_dt.csv", delimiter=",", names=True,
                         skip_header=1)
    # j2 = sqrt(1 + j1) - 1 row by row; q >= 1/2 rows are zero
    np.testing.assert_allclose(rows["j2"], np.sqrt(1.0 + rows["j1"]) - 1.0, atol=1e-12)
    above = rows["q"] >= 0.5
    assert np.all(rows["j1"][above] == 0.0)
    assert np.all(np.isinf(rows["j0"][~above]))
    assert np.all(rows["j_inf"] == 0.0)
    # j1 value near q = 0.25
    q_idx = np.argmin(np.abs(rows["q"] - 0.25))
    assert abs(rows["j1"][q_idx] - 0.5306) < 0.02

    assert cli.main(["table", "linear_constants:d=2,points=10"]) == 0
    lc = np.genfromtxt(tmp_path / "linear_constants_d2.csv", delimiter=",",
                       names=True, skip_header=1)
    # log-sigma growth rate positive iff q0 < 1/2; drift always negative
    assert np.all((lc["alpha"] > 0) == (lc["q0"] < 0.5))
    assert np.all(lc["beta"] < 0)


@pytest.mark.parametrize("spec, message", [
    ("critical_dt:points=many", "option points must be an integer, got 'many'"),
    ("linear_constants:d=0", "option d must be at least 1, got 0"),
    ("linear_constants:d=-2", "option d must be at least 1, got -2"),
    ("linear_constants:points=-1", "option points must be in [1, 10000], got -1"),
    ("critical_dt:points=0", "option points must be in [1, 10000], got 0"),
    ("critical_dt:points=10001", "option points must be in [1, 10000], got 10001"),
    ("critical_dt:q_min=0", "option q_min must be in (0, 1), got 0.0"),
    ("critical_dt:q_max=1", "option q_max must be in (0, 1), got 1.0"),
    ("linear_constants:q_min=-0.5", "option q_min must be in (0, 1], got -0.5"),
    ("linear_constants:q_max=1.5", "option q_max must be in (0, 1], got 1.5"),
])
def test_cli_table_bad_number_names_the_option(tmp_path, monkeypatch, capsys, spec, message):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(["table", spec]) == 2
    assert capsys.readouterr().err == f"config error: {spec!r}: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_cli_flow_bernoulli(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text(
        "family = bernoulli:d=3\nobjective = onemax:d=3\n"
        "scheme = truncation:q0=0.5\nhorizon = 1.0\nflow_step = 0.05\n")
    assert cli.main(["flow", str(cfgfile)]) == 0
    rows = np.genfromtxt(tmp_path / "flow_trajectory.csv", delimiter=",",
                         names=True, skip_header=1)
    assert rows["t"][-1] == pytest.approx(1.0)
    # onemax is a positive-coefficient linear function: monitor stays >= 0
    assert np.all(rows["lyapunov"] >= 0)
    assert np.all(np.diff(rows["f_quantile"]) < 0)  # median improves
    assert np.all(rows["speed"] <= 0.5 + 1e-9)      # sqrt(Var w) bound


def test_cli_flow_on_binval_is_the_linear_bits_flow(tmp_path, monkeypatch):
    # binval:d=N spells linear(2^-i, space=bits): the CSV bytes agree
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text("family = bernoulli:d=10\nobjective = binval:d=10\n"
                       "scheme = truncation:q0=0.3\nhorizon = 0.4\nflow_step = 0.1\n")
    assert cli.main(["flow", str(cfgfile)]) == 0
    spelled = (tmp_path / "flow_trajectory.csv").read_bytes()
    built = objectives.linear(2.0 ** -np.arange(10), space="bits")
    monkeypatch.setattr(objectives, "parse_objective", lambda spec, rng=None: built)
    assert cli.main(["flow", str(cfgfile)]) == 0
    assert (tmp_path / "flow_trajectory.csv").read_bytes() == spelled
    assert spelled.count(b"\n") == 7  # comment, header and five states


def test_cli_flow_sphere(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "sphere.cfg"
    cfgfile.write_text(
        "family = gaussian_iso:d=2,r0=3,sigma0=1\nobjective = sphere:d=2\n"
        "scheme = truncation:q0=0.5\nhorizon = 1.0\nflow_step = 0.05\n"
        "out_prefix = sphere\n")
    assert cli.main(["flow", str(cfgfile)]) == 0
    rows = np.genfromtxt(tmp_path / "sphere_trajectory.csv", delimiter=",",
                         names=True, skip_header=1)
    assert np.all(np.diff(rows["f_quantile"]) < 0)


def test_cli_sphere_flow_refuses_other_schemes(tmp_path, monkeypatch, capsys):
    # the reduced sphere flow is derived for truncation weights only
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "sphere.cfg"
    cfgfile.write_text(
        "family = gaussian_iso:d=5,r0=3\nobjective = sphere:d=5\nscheme = signed_median\n"
        "horizon = 0.2\nflow_step = 0.1\n")
    assert cli.main(["flow", str(cfgfile)]) == 2
    assert capsys.readouterr().err == (
        "config error: the sphere flow needs a truncation scheme, got 'signed_median'\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("family", ["rbm:n_x=4,n_h=1", "bernoulli_logit:d=4"])
def test_cli_flow_fills_the_lyapunov_column_for_bernoulli_only(tmp_path, monkeypatch, family):
    # the monitor is alpha . d(theta)/dt in Bernoulli mean coordinates
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text(f"family = {family}\nobjective = onemax:d=4\n"
                       "horizon = 0.2\nflow_step = 0.1\n")
    assert cli.main(["flow", str(cfgfile)]) == 0
    rows = np.genfromtxt(tmp_path / "flow_trajectory.csv", delimiter=",",
                         names=True, skip_header=1)
    assert rows.size == 3 and np.all(np.isnan(rows["lyapunov"]))
    assert np.all(np.isfinite(rows["speed"]))


def test_cli_flow_singular_fisher_exits_3(tmp_path, monkeypatch, capsys):
    # a singular Fisher matrix met while integrating is no config error
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text("family = rbm_marginal:n_x=5,n_h=2\nobjective = onemax:d=5\n"
                       "scheme = truncation:q0=0.3\n")
    assert cli.main(["flow", str(cfgfile)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("flow failed: Fisher matrix not safely")
    # so is a state that leaves the family's domain: one Euler step of
    # length 5 moves p = 0.4 by 5 * 0.2 to 1.4
    cfgfile.write_text("family = bernoulli:d=1\nobjective = linear:d=1,space=bits\n"
                       "method = euler\nflow_step = 5\nhorizon = 5\ntheta0 = 0.4\n")
    assert cli.main(["flow", str(cfgfile)]) == 3
    assert capsys.readouterr().err == "flow failed: Bernoulli probabilities must lie in [0, 1]\n"
    # so is an RK4 stage that leaves [0, 1]: theta + (h / 2) k1 = 1.125 here,
    # whose products would pass for masses
    cfgfile.write_text("family = bernoulli:d=3\nobjective = onemax:d=3\n"
                       "horizon = 10\nflow_step = 10\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["flow", str(cfgfile)]) == 3
    assert capsys.readouterr().err == "flow failed: Bernoulli probabilities must lie in [0, 1]\n"
    # a logit that rounds p to 1 fails before any log1p(-p) or 1 / (p (1 - p)):
    # no numpy warning precedes the line
    cfgfile.write_text("family = bernoulli_logit:d=2\nobjective = onemax:d=2\ntheta0 = 30 3\n"
                       "method = euler\nflow_step = 1\nhorizon = 50\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["flow", str(cfgfile)]) == 3
    assert capsys.readouterr().err == (
        "flow failed: Bernoulli logits must keep every probability strictly inside (0, 1)\n")
    assert not list(tmp_path.glob("*.csv"))


def test_cli_flow_and_table_refuse_unknown_spec_options(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "sphere.cfg"
    cfgfile.write_text("family = gaussian_iso:d=2,r0=3,m0=1\nobjective = sphere:d=2\n")
    assert cli.main(["flow", str(cfgfile)]) == 2
    assert capsys.readouterr().err == (
        "config error: 'gaussian_iso:d=2,r0=3,m0=1': unknown option 'm0'\n")
    assert cli.main(["table", "linear_constants:d=2,q0=0.3"]) == 2
    assert capsys.readouterr().err == (
        "config error: 'linear_constants:d=2,q0=0.3': unknown option 'q0'\n")
    assert not list(tmp_path.glob("*.csv"))


def _unmemoized_flow_rows(theta0):
    """The Bernoulli flow rows as ``igopt flow`` built them without its
    drift memo: every row evaluates the drift of its state again."""
    fam, obj, scheme = BernoulliFamily(theta0.size), onemax(theta0.size), truncation(0.5)

    def rhs(theta):
        return flow_mod.flow_rhs(fam, theta, obj, scheme)

    rows = []
    for state in flow_mod.integrate(rhs, theta0, 1.0, 0.1):
        _, probs, values, _ = flow_mod.exact_weights_all(fam, state.theta, obj, scheme)
        drift = rhs(state.theta)
        speed = math.sqrt(max(0.0, float(drift @ fam.fisher(state.theta) @ drift)))
        rows.append([state.t, *state.theta, flow_mod.f_quantile(values, probs, 0.5),
                     speed, float(np.ones(theta0.size) @ drift)])
    return rows


def test_cli_flow_reuses_the_drift_of_each_state(tmp_path, monkeypatch):
    # RK4 evaluates every state but the last as the next step's k1; its CSV
    # row reuses that drift, and the bytes are those of the unmemoized rows
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    theta0 = np.linspace(0.2, 0.7, 10)
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text(
        "family = bernoulli:d=10\nobjective = onemax:d=10\nhorizon = 1.0\n"
        "flow_step = 0.1\ntheta0 = " + " ".join(repr(float(t)) for t in theta0) + "\n")
    header = ["t"] + [f"theta_{i}" for i in range(10)] + ["f_quantile", "speed", "lyapunov"]
    reference = write_csv(tmp_path, "unmemoized.csv", f"igopt flow schema v{CSV_SCHEMA_VERSION}",
                          header, _unmemoized_flow_rows(theta0))
    calls = dict.fromkeys(("flow_rhs", "exact_weights_all"), 0)
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(flow_mod, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(flow_mod, name, counted)
    assert cli.main(["flow", str(cfgfile)]) == 0
    # 10 RK4 steps of 4 drifts plus the final state; the 11 rows' quantiles
    # reuse the weights of their states' drifts
    assert calls == {"flow_rhs": 41, "exact_weights_all": 41}
    assert (tmp_path / "flow_trajectory.csv").read_bytes() == open(reference, "rb").read()


def test_cli_sphere_flow_reuses_the_drift_of_each_state(tmp_path, monkeypatch):
    # as for enumerable families: a row's speed reuses RK4's k1 of its state,
    # and the bytes are those of rows that evaluate every drift again
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "sphere.cfg"
    cfgfile.write_text(
        "family = gaussian_iso:d=5\nobjective = sphere:d=5\nscheme = truncation:q0=0.3\n"
        "horizon = 1.0\nflow_step = 0.1\nout_prefix = sphere\n")
    sphere = flow_mod.SphereFlow(5, 0.3)
    rows = [[s.t, *s.theta, sphere.median_f(s.theta), sphere.speed(s.theta), float("nan")]
            for s in flow_mod.integrate(sphere.rhs, np.array([3.0, 0.0]), 1.0, 0.1)]
    reference = write_csv(tmp_path, "unmemoized.csv", f"igopt flow schema v{CSV_SCHEMA_VERSION}",
                          ["t", "r", "log_sigma", "f_quantile", "speed", "lyapunov"], rows)
    calls = dict.fromkeys(("rhs", "_tau_parts"), 0)
    for name in calls:
        def counted(self, state, _name=name, _inner=getattr(flow_mod.SphereFlow, name)):
            calls[_name] += 1
            return _inner(self, state)
        monkeypatch.setattr(flow_mod.SphereFlow, name, counted)
    assert cli.main(["flow", str(cfgfile)]) == 0
    # 10 RK4 steps of 4 drifts plus the final state; only a drift needs
    # the q0-quantile of _tau_parts
    assert calls == {"rhs": 41, "_tau_parts": 41}
    assert (tmp_path / "sphere_trajectory.csv").read_bytes() == open(reference, "rb").read()


@pytest.mark.parametrize("family, line, message", [
    ("bernoulli:d=3", "horizon = 2.0\n", "line 4: duplicate key 'horizon'"),
    ("bernoulli:d=3", "", "line 3: horizon must be a number, got 'abc'"),
    ("bernoulli:d=3", "method = midpoint\n", "line 4: method must be euler or rk4, got 'midpoint'"),
    ("bernoulli:d=3", "theta0 = 0.5 0.5\n", "theta0 needs 3 numbers, got 2"),
    # a theta0 outside the family's domain is a config error, not a failed flow
    ("bernoulli:d=3", "theta0 = 0.5 0.5 1.5\n",
     "theta0 is outside the family's domain: Bernoulli probabilities must lie strictly "
     "inside (0, 1)"),
    ("bernoulli:d=3", "theta0 = 0.5 0 0.5\n",
     "theta0 is outside the family's domain: Bernoulli probabilities must lie strictly "
     "inside (0, 1)"),
    # a logit that rounds a probability to 0 or 1 has a singular Fisher matrix
    ("bernoulli_logit:d=3", "theta0 = 50 3 0\n",
     "theta0 is outside the family's domain: Bernoulli logits must keep every probability "
     "strictly inside (0, 1)"),
    ("bernoulli:d=3", "theta0 = 5e-324 0.5 0.5\n",
     "theta0 is outside the family's domain: Bernoulli probabilities within 2^-1022 of 0 "
     "or 1 have no finite Fisher information"),
    ("bernoulli_logit:d=3", "theta0 = -1e300 0 0\n",
     "theta0 is outside the family's domain: Bernoulli logits must keep every probability "
     "strictly inside (0, 1)"),
    ("bernoulli:d=3", "theta0 = nan 0.5 0.5\n",
     "line 4: theta0 must be finite numbers separated by spaces, got 'nan 0.5 0.5'"),
    ("rbm:n_x=3,n_h=1", "theta0 = nan 0.5 0.5 0 0 0 0\n",
     "line 4: theta0 must be finite numbers separated by spaces, got 'nan 0.5 0.5 0 0 0 0'"),
    ("rbm:n_x=3,n_h=1", "theta0 = 0 0 0 0 inf 0 0\n",
     "line 4: theta0 must be finite numbers separated by spaces, got '0 0 0 0 inf 0 0'"),
])
def test_cli_flow_config_grammar(tmp_path, monkeypatch, capsys, family, line, message):
    # the flow config shares the run config's grammar and its messages
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    horizon = "horizon = 1.0\n" if line else "horizon = abc\n"
    cfgfile.write_text(f"family = {family}\nobjective = onemax:d=3\n" + horizon + line)
    assert cli.main(["flow", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_cli_flow_logit_reaching_a_rounded_probability_exits_3(tmp_path, monkeypatch, capsys):
    # Euler steps of length 1 carry the second logit from 3 past ~37
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text("family = bernoulli_logit:d=2\nobjective = onemax:d=2\n"
                       "theta0 = 30 3\nmethod = euler\nflow_step = 1\nhorizon = 50\n")
    with np.errstate(all="ignore"):
        assert cli.main(["flow", str(cfgfile)]) == 3
    assert capsys.readouterr().err.endswith(
        "flow failed: Bernoulli logits must keep every probability strictly inside (0, 1)\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("line, message", [
    ("flow_step = 0", "flow_step must be finite and > 0, got 0.0"),
    ("flow_step = -0.1", "flow_step must be finite and > 0, got -0.1"),
    ("flow_step = inf", "flow_step must be finite and > 0, got inf"),
    ("horizon = -1", "horizon must be finite and >= 0, got -1.0"),
    ("horizon = nan", "horizon must be finite and >= 0, got nan"),
    ("horizon = inf", "horizon must be finite and >= 0, got inf"),
    ("q_report = 2", "q_report must be in [0, 1], got 2.0"),
    ("q_report = -1", "q_report must be in [0, 1], got -1.0"),
    ("out_prefix = a/b", "out_prefix must be a file name prefix with no path separator, got 'a/b'"),
])
def test_cli_flow_refuses_numbers_out_of_range(tmp_path, monkeypatch, capsys, line, message):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text(f"family = bernoulli:d=3\nobjective = onemax:d=3\n{line}\n")
    assert cli.main(["flow", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("line, message", [
    ("horizon = 1\nflow_step = 0.3",
     "horizon 1.0 is not a whole number of flow_step 0.3 (horizon / flow_step = 3.33333)"),
    ("horizon = 2\nflow_step = 5",
     "horizon 2.0 is not a whole number of flow_step 5.0 (horizon / flow_step = 0.4)"),
    ("horizon = 1\nflow_step = 1e-9",
     "horizon / flow_step = 1e+09 steps, above MAX_FLOW_STEPS = 100000"),
    ("horizon = 1e300\nflow_step = 1e-300",
     "horizon / flow_step = inf steps, above MAX_FLOW_STEPS = 100000"),
])
def test_cli_flow_steps_must_fit_the_horizon(tmp_path, monkeypatch, capsys, line, message):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text(f"family = bernoulli:d=3\nobjective = onemax:d=3\n{line}\n")
    assert cli.main(["flow", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))
    # a step count within rounding of a whole number, and the cap itself, pass
    cli._check_flow_steps(3.0, 0.1)  # 30.000000000000004 steps
    cli._check_flow_steps(1.0, 1.0 / cli.MAX_FLOW_STEPS)
    cli._check_flow_steps(0.0, 0.1)


@pytest.mark.parametrize("family, objective, refusal", [
    ("bernoulli:d=40", "onemax:d=40", "Bernoulli enumeration limited to d <= 22"),
    ("rbm:n_x=16,n_h=8", "onemax:d=16",
     "tables over the 2^n_x visible states need n_x + n_h <= 20"),
    ("bernoulli:d=3", "onemax:d=4", "objective dimension 4 does not match the family's 3"),
    # the sphere flow's family spec has the same domains as a run's
    ("gaussian_iso:d=5,sigma0=0", "sphere:d=5", "option sigma0 must be finite and > 0, got 0.0"),
    ("gaussian_iso:d=0", "sphere:d=5", "'gaussian_iso:d=0': option d must be at least 1, got 0"),
    ("gaussian_iso:d=3,r0=nan", "sphere:d=3", "option r0 must be a finite number, got nan"),
    ("bernoulli:d=3", "linear:d=3,alpha=inf,space=bits",
     "'linear:d=3,alpha=inf,space=bits': option alpha must be a finite number, got inf"),
    # an objective that overflows on some point of the enumeration
    ("bernoulli:d=3", "linear:d=3,alpha=1e308,space=bits",
     "'linear:d=3,alpha=1e308,space=bits' is not a finite float on every point"),
    # the exact flow has no noise stream, for either flow kind
    ("bernoulli:d=3", "onemax:d=3,noise=uniform",
     "the exact flow needs a noise-free objective, got 'onemax:d=3,noise=uniform'"),
    ("gaussian_iso:d=3", "sphere:d=3,noise=gaussian",
     "the exact flow needs a noise-free objective, got 'sphere:d=3,noise=gaussian'"),
    ("gaussian_iso:d=3", "sphere:d=4", "objective dimension 4 does not match the family's 3"),
])
def test_cli_flow_refuses_a_family_it_cannot_enumerate_at_parse_time(
        tmp_path, monkeypatch, capsys, family, objective, refusal):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text(f"family = {family}\nobjective = {objective}\n")
    assert cli.main(["flow", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and refusal in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("family, line, message", [
    ("gaussian_iso:d=3", "theta0 = 1 2 3", "theta0 needs 2 numbers, got 3"),
    ("gaussian_iso:d=3", "q_report = 0.1",
     "the sphere flow reports the exact median, so q_report must be 0.5, got 0.1"),
    # a start whose sigma^2 or (r / sigma)^2 leaves the floats, before any numpy warning
    ("gaussian_iso:d=3,r0=1e300", "", "theta0 is outside the family's domain: "
     "(r, log sigma) = (1e+300, 0.0) puts sigma^2 or (r / sigma)^2 outside the floats"),
    ("gaussian_iso:d=3,sigma0=1e-300", "", "theta0 is outside the family's domain: "
     "(r, log sigma) = (3.0, -690.7755278982137) puts sigma^2 or (r / sigma)^2 outside the floats"),
    ("gaussian_iso:d=3", "theta0 = 0 800", "theta0 is outside the family's domain: "
     "(r, log sigma) = (0.0, 800.0) puts sigma^2 or (r / sigma)^2 outside the floats"),
    # (r / sigma)^2 = 1e300 is a float, but its median is not: no quadrature runs
    ("gaussian_iso:d=3,r0=1e150", "", "theta0 is outside the family's domain: "
     "the 0.5-quantile of f at (r, sigma) = (1e+150, 1.0) is nan, not a finite float"),
])
def test_cli_sphere_flow_checks_its_start_and_report(tmp_path, monkeypatch, capsys, family,
                                                     line, message):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "sphere.cfg"
    cfgfile.write_text(f"family = {family}\nobjective = sphere:d=3\n"
                       f"horizon = 0.1\nflow_step = 0.1\n{line}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["flow", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_cli_sphere_flow_starts_at_theta0(tmp_path, monkeypatch):
    # the sphere's theta0 is (r, log sigma), the trajectory's two state columns
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "sphere.cfg"
    cfgfile.write_text("family = gaussian_iso:d=3\nobjective = sphere:d=3\ntheta0 = 1 2\n"
                       "q_report = 0.5\nhorizon = 0.1\nflow_step = 0.1\n")
    assert cli.main(["flow", str(cfgfile)]) == 0
    rows = np.genfromtxt(tmp_path / "flow_trajectory.csv", delimiter=",",
                         names=True, skip_header=1)
    assert (rows["t"][0], rows["r"][0], rows["log_sigma"][0]) == (0.0, 1.0, 2.0)
    assert rows["f_quantile"][0] == flow_mod.SphereFlow(3, 0.5).median_f(np.array([1.0, 2.0]))
    assert rows.size == 2 and rows["r"][1] != 1.0


def test_one_function_opens_files_for_writing():
    # every file igopt writes goes through experiment.write_csv
    writers = []

    def visit(node, path, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            if not all(isinstance(m, ast.Constant) and set(m.value) <= set("rbt") for m in modes):
                writers.append((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in sorted(Path(experiment.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert writers == [("experiment.py", "write_csv")]


def test_marginal_rbm_runs_on_a_monte_carlo_fisher():
    # the estimate centres the marginal family's own score statistics
    # U(x) = (x, p(h|x), x p(h|x)^T) on the batch
    for algorithm in ("igo", "vanilla_gradient"):
        cfg = parse_config(
            "family = rbm_marginal:n_x=6,n_h=1\nobjective = two_min:d=6,seed=3\n"
            f"algorithm = {algorithm}\nfisher = mc:m=2000\nn = 100\ndt = 0.5\n"
            "steps = 4\nseed = 12\ngibbs_burn_in = 10\n")
        rec = run_experiment(cfg)[0]
        assert rec.rows and rec.rows[0].reliability == "pass"
        assert all(row.reliability in ("pass", "fail") for row in rec.rows)
        if algorithm == "vanilla_gradient":
            assert rec.status == "step_limit" and len(rec.rows) == 4
        else:
            # the marginal Fisher matrix degenerates within a few natural
            # steps here (so does the exact one); the run records it
            assert rec.status in ("step_limit", "failed_singular", "failed_unreliable")


@pytest.mark.parametrize("algorithm", ["smoothed_cem", "cem"])
def test_bernoulli_blends_survive_round_off(tmp_path, monkeypatch, algorithm):
    # renormalized weights average a column of ones to 1 + 2^-52 on this seed
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "blend.cfg"
    cfgfile.write_text(
        "family = bernoulli:d=8\nobjective = onemax:d=8\nscheme = truncation:q0=0.3\n"
        f"algorithm = {algorithm}\nn = 30\ndt = 0.2\nsteps = 20\nseed = 32\n")
    assert cli.main(["run", str(cfgfile)]) == 0


def test_explicit_config_defaults():
    cfg = ExperimentConfig(family="bernoulli:d=3", objective="onemax:d=3").validate()
    assert cfg.scheme == "truncation:q0=0.5"
    assert cfg.fisher == "exact"


def test_paper_scale_defaults():
    cfg = parse_config("paper_scale = true\nfisher = mc:m=10000\nseed = 3\n")
    assert cfg.family == "rbm:n_x=40,n_h=1"
    assert cfg.n == 10000
    assert cfg.repeats == 100
    # explicit keys still win
    cfg2 = parse_config("paper_scale = true\nfisher = mc:m=10000\nn = 50\nseed = 3\n")
    assert cfg2.n == 50


def test_paper_scale_runs_on_the_exact_fisher():
    # 40 x 1 sums over the 2 hidden states, so fisher = exact is accepted there
    assert parse_config("paper_scale = true\nfisher = exact\n").family == "rbm:n_x=40,n_h=1"
    cfg = parse_config("paper_scale = true\nfisher = exact\nn = 200\nrepeats = 1\n"
                       "steps = 2\ngibbs_burn_in = 10\nseed = 3\n")
    rec = run_experiment(cfg)[0]
    assert rec.status == "step_limit" and len(rec.rows) == 2
    assert all(row.reliability == "exact" and row.kl > 0.0 for row in rec.rows)


def _override(text, extra):
    """``text`` with the lines of ``extra`` added, each replacing the line
    that sets the same key."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


GAUSS_ISO = "family = gaussian_iso:d=10\nobjective = sphere:d=10\nscheme = truncation:q0=0.5\n"


@pytest.mark.parametrize("extra, key", [
    ("lift_noisy = ture\n", "lift_noisy"),
    ("paper_scale = 2\n", "paper_scale"),
    ("gibbs_burn_in = -1\n", "gibbs_burn_in"),
    ("family = rbm:n_x=20,n_h=12\nobjective = two_min:d=20,per_run=1\n"
     "scheme = truncation:q0=0.5\ngibbs_burn_in = 1000000000\n",
     "MAX_GIBBS_BURN_IN = 100000"),
    # each half of a Monte-Carlo Fisher batch needs a row, even when dim_theta = 1
    ("family = bernoulli:d=1\nobjective = onemax:d=1\nfisher = mc:m=1\n",
     "fisher sample count 1 below 2: each half of the batch needs a row"),
    ("fisher = mc:m=0\n", "fisher sample count 0 below 10"),
    ("fisher = mc:m=-3\n", "fisher sample count -3 below 10"),
    ("fisher = mc:m=9\n", "fisher sample count 9 below 10"),
    ("family = bernoulli\n", "needs option 'd'"),
    ("objective = zeromax:d=10\n", "unknown objective kind 'zeromax'"),
    ("family = bernoulli:d=4\nobjective = onemax:d=3\n", "objective dimension 3"),
    ("stop = target:abc\n", "stop target"),
    ("algorithm = xnes\n", "algorithm xnes needs a family with mean_cov"),
    ("algorithm = emna\n", "algorithm emna needs a family with mean_cov"),
    (GAUSS_ISO + "algorithm = cma\n", "algorithm cma needs a family with mean_cov"),
    ("scheme = signed_median\nalgorithm = cem\n", "cem needs a truncation scheme"),
    (GAUSS_ISO + "algorithm = igo_ml\n", "igo_ml needs a family with expectation_params"),
    ("family = gaussian_mean:d=10\nobjective = sphere:d=10\nscheme = truncation:q0=0.5\n"
     "algorithm = cem\n", "cem needs a family with expectation_params"),
    ("family = rbm:n_x=10,n_h=1\nobjective = two_min:d=10,per_run=1\n"
     "scheme = truncation:q0=0.5\nalgorithm = smoothed_cem\n",
     "smoothed_cem needs a family with expectation_params"),
    ("family = gaussian:d=10\nobjective = sphere:d=10,noise=uniform\n"
     "scheme = truncation:q0=0.5\nalgorithm = cma\nlift_noisy = true\n",
     "algorithm cma needs a family with mean_cov"),
    ("family = rbm:n_x=12,n_h=12\nobjective = two_min:d=12,per_run=1\n"
     "scheme = truncation:q0=0.5\nfisher = exact\n",
     "fisher = exact: exact RBM quantities need 2"),
    ("family = rbm_marginal:n_x=30,n_h=1\nobjective = two_min:d=30,per_run=1\n"
     "scheme = truncation:q0=0.5\nfisher = exact\n", "visible states need n_x"),
    ("workers = 0\n", "workers"),
    ("lift_noisy = true\n", "lift_noisy needs a noisy objective"),
    ("algorithm = igo_ml\ndt = 1.5\n", "igo_ml needs dt in"),
    ("algorithm = smoothed_cem\ndt = 1.5\n", "smoothed_cem needs dt in"),
    ("algorithm = smoothed_cem\nsmoothed_cem_coords = logit\n",
     "unknown config key 'smoothed_cem_coords'"),
    ("fisher = mc:m=abc\n", "'mc:m=abc': option m must be an integer, got 'abc'"),
    ("family = bernoulli:d=x\n", "'bernoulli:d=x': option d must be an integer, got 'x'"),
    ("family = bernoulli:d=10,p0=half\n", "option p0 must be a number, got 'half'"),
    ("objective = onemax:d=1e1\n", "'onemax:d=1e1': option d must be an integer, got '1e1'"),
    ("scheme = pbil:mu=1,lr=fast\n", "option lr must be a number, got 'fast'"),
    ("scheme = table:nodes=0:2;half:1\n", "option nodes must be q:v pairs"),
    # each spec kind takes only its own options
    ("scheme = truncation:q=0.2\n", "'truncation:q=0.2': unknown option 'q'"),
    ("scheme = table:nodes=0:2;0.5:0,q0=0.3\n", "unknown option 'q0'"),
    ("scheme = pbil:mu=1,lr=0.1,q0=0.3\n", "'pbil:mu=1,lr=0.1,q0=0.3': unknown option 'q0'"),
    ("family = bernoulli:d=10,p=0.3\n", "'bernoulli:d=10,p=0.3': unknown option 'p'"),
    ("family = bernoulli_logit:d=10,m0=1\n", "unknown option 'm0'"),
    ("family = gaussian:d=10,p0=0.3\nobjective = sphere:d=10\n",
     "'gaussian:d=10,p0=0.3': unknown option 'p0'"),
    ("family = gaussian_mean:d=10,sigma0=2\nobjective = sphere:d=10\n",
     "unknown option 'sigma0'"),
    ("fisher = mc:m=500,k=3\n", "'mc:m=500,k=3': unknown option 'k'"),
    ("family = rbm:n_x=10,n_h=1,burn=5\nobjective = two_min:d=10,per_run=1\n",
     "'rbm:n_x=10,n_h=1,burn=5': unknown option 'burn'"),
    ("objective = onemax:d=10,k=1,j=2\n", "'onemax:d=10,k=1,j=2': unknown options 'j', 'k'"),
    ("family = bernoulli:d=10,d=3\n", "'bernoulli:d=10,d=3': duplicate option 'd'"),
    # spec numbers outside their option's domain
    ("family = bernoulli:d=3\nobjective = onemax:d=3\nscheme = pbil:mu=5,lr=0.1\nn = 3\n",
     "'pbil:mu=5,lr=0.1': option mu must be at most n = 3, got 5"),
    ("scheme = pbil:mu=0,lr=0.1\n", "option mu must be at least 1, got 0"),
    ("scheme = pbil:mu=1,lr=2\n", "'pbil:mu=1,lr=2': option lr must be in (0, 1], got 2.0"),
    ("scheme = pbil:mu=1,lr=-1\n", "option lr must be in (0, 1], got -1.0"),
    ("scheme = pbil:mu=1,lr=0\n", "option lr must be in (0, 1], got 0.0"),
    ("family = rbm:n_x=4,n_h=0\nobjective = two_min:d=4,per_run=1\n",
     "'rbm:n_x=4,n_h=0': option n_h must be at least 1, got 0"),
    ("family = rbm_marginal:n_x=0\nobjective = two_min:d=4,per_run=1\n",
     "option n_x must be at least 1, got 0"),
    ("family = bernoulli:d=0\nobjective = onemax:d=0\n",
     "'bernoulli:d=0': option d must be at least 1, got 0"),
    ("family = gaussian_mean:d=-2\nobjective = sphere:d=2\n",
     "option d must be at least 1, got -2"),
    ("family = bernoulli:d=10,p0=2\n", "option p0 must be in (0, 1), got 2.0"),
    ("family = bernoulli_logit:d=10,p0=0\n", "option p0 must be in (0, 1), got 0.0"),
    ("family = bernoulli:d=10,p0=1\n", "option p0 must be in (0, 1), got 1.0"),
    ("family = gaussian:d=10,sigma0=-1\nobjective = sphere:d=10\n",
     "'gaussian:d=10,sigma0=-1': option sigma0 must be finite and > 0, got -1.0"),
    ("family = gaussian_iso:d=10,sigma0=0\nobjective = sphere:d=10\n",
     "option sigma0 must be finite and > 0, got 0.0"),
    ("family = gaussian_iso:d=10,sigma0=inf\nobjective = sphere:d=10\n",
     "option sigma0 must be finite and > 0, got inf"),
    # sigma0 is a float, but sigma^2 underflows to 0 or overflows
    ("family = gaussian_iso:d=2,sigma0=1e-200\nobjective = sphere:d=2\n",
     "'gaussian_iso:d=2,sigma0=1e-200': log sigma = -460.51701859880916 puts sigma^2 "
     "outside the floats"),
    ("family = gaussian_iso:d=2,sigma0=1e200\nobjective = linear:d=2\n",
     "'gaussian_iso:d=2,sigma0=1e200': log sigma = 460.51701859880916 puts sigma^2 "
     "outside the floats"),
    # sigma^2 of a full Gaussian start, or p (1 - p) of a Bernoulli one, outside the floats
    ("family = gaussian:d=2,sigma0=1e200\nobjective = sphere:d=2\n",
     "'gaussian:d=2,sigma0=1e200': sigma0 = 1e+200 puts sigma^2 outside the floats"),
    ("family = gaussian:d=2,sigma0=1e-200\nobjective = sphere:d=2\n",
     "'gaussian:d=2,sigma0=1e-200': sigma0 = 1e-200 puts sigma^2 outside the floats"),
    ("family = bernoulli:d=10,p0=1e-320\n", "'bernoulli:d=10,p0=1e-320': Bernoulli "
     "probabilities within 2^-1022 of 0 or 1 have no finite Fisher information"),
    ("family = bernoulli_logit:d=10,p0=1e-320\n", "'bernoulli_logit:d=10,p0=1e-320': "
     "Bernoulli probabilities within 2^-1022 of 0 or 1 have no finite Fisher information"),
    # a shift whose square overflows
    ("scheme = truncation:q0=0.3,shift=1e308\n",
     "'truncation:q0=0.3,shift=1e308': the mean of w^2 is not a finite float"),
    ("scheme = signed_median:shift=1e300\n",
     "'signed_median:shift=1e300': the mean of w^2 is not a finite float"),
    ("scheme = table:nodes=0:1;0.5:0,shift=1e300\n",
     "'table:nodes=0:1;0.5:0,shift=1e300': the mean of w^2 is not a finite float"),
    ("scheme = table:nodes=0:1e300;0.5:0\n",
     "'table:nodes=0:1e300;0.5:0': the mean of w^2 is not a finite float"),
    # the blends divide by the sum of the weights
    ("scheme = signed_median\nalgorithm = igo_ml\n",
     "igo_ml needs a scheme whose w has a positive mean, got 'signed_median'"),
    ("stop = target:nan\n", "stop target must be a finite number, got 'nan'"),
    # a number with no range of its own must be finite
    ("family = gaussian:d=3,m0=nan\nobjective = sphere:d=3\n",
     "'gaussian:d=3,m0=nan': option m0 must be a finite number, got nan"),
    ("family = gaussian:d=3,m0=inf\nobjective = sphere:d=3\n",
     "option m0 must be a finite number, got inf"),
    ("scheme = truncation:q0=0.5,shift=nan\n",
     "'truncation:q0=0.5,shift=nan': option shift must be a finite number, got nan"),
    ("family = gaussian:d=3\nobjective = sphere:d=3,center=nan\n",
     "option center must be a finite number, got nan"),
    ("family = gaussian:d=3\nobjective = linear:d=3,alpha=nan\n",
     "option alpha must be a finite number, got nan"),
    ("family = gaussian:d=3\nobjective = linear:d=3,c=inf\n",
     "option c must be a finite number, got inf"),
    ("family = gaussian:d=3\nobjective = sphere:d=3,noise=uniform,noise_scale=nan\n",
     "option noise_scale must be a finite number, got nan"),
    ("scheme = table:nodes=0:1;nan:0\n", "option nodes must be q:v pairs of finite numbers"),
    ("scheme = table:nodes=0:nan\n", "option nodes must be q:v pairs of finite numbers"),
    # words outside their option's choices
    ("objective = onemax:d=10,noise=bogus\n",
     "'onemax:d=10,noise=bogus': option noise must be uniform or gaussian, got 'bogus'"),
    ("objective = linear:d=10,space=bogus\n",
     "option space must be bits or reals, got 'bogus'"),
    ("objective = two_min:d=10,per_run=0\n", "option per_run must be 1, got 0"),
    ("stop = target:-inf\n", "stop target must be a finite number, got '-inf'"),
    # settings that cannot take effect
    ("stop = both_optima\n",
     "stop = both_optima needs a noise-free two_min objective, got 'onemax:d=10'"),
    ("family = bernoulli:d=10\nobjective = two_min:d=10,seed=3,noise=uniform\n"
     "stop = both_optima\n", "got 'two_min:d=10,seed=3,noise=uniform'"),
    ("concentration_stop = 5\n", "concentration_stop watches the hidden unit of an rbm family"),
    ("family = rbm_marginal:n_x=10\nobjective = two_min:d=10,per_run=1\n"
     "concentration_stop = 5\n", "got 'rbm_marginal:n_x=10'"),
    ("concentration_stop = -3\n", "concentration_stop must be >= 0, got -3"),
    ("out_prefix = a/b\n", "out_prefix must be a file name prefix with no path separator"),
])
def test_bad_values_exit_2_with_one_line(tmp_path, monkeypatch, capsys, extra, key):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    with pytest.raises(ValueError, match=re.escape(key)):
        parse_config(_override(PBIL_CONFIG, extra))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_override(PBIL_CONFIG, extra))
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("text, message", [
    (PBIL_CONFIG + "gibbs_burn_in = abc\n", "line 12: gibbs_burn_in must be an integer, got 'abc'"),
    (PBIL_CONFIG.replace("dt = 0.1", "dt = fast"), "line 8: dt must be a number, got 'fast'"),
    (PBIL_CONFIG.replace("dt = 0.1", "dt = nan"), "dt must be finite and > 0, got nan"),
])
def test_bad_numbers_exit_2_with_one_line(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


CAPPED = "family = bernoulli:d=16\nobjective = onemax:d=16\nscheme = truncation:q0=0.5\n"


@pytest.mark.parametrize("at_cap, over_cap, message", [
    ("n = 1048576\n", "n = 1048577\n", "n * dim = 16777232"),
    ("fisher = mc:m=1048576\n", "fisher = mc:m=1048577\n", "fisher m * dim_theta = 16777232"),
    ("steps = 4095\nrepeats = 256\n", "steps = 4095\nrepeats = 257\n",
     "repeats * (steps + 1) * dim_theta = 16842752"),
    ("steps = 1048575\n", "steps = 1048576\n", "repeats * (steps + 1) * dim_theta = 16777232"),
])
def test_resource_caps_exit_2_with_one_line(tmp_path, monkeypatch, capsys, at_cap, over_cap,
                                            message):
    # parsing only: no batch of this size is ever drawn
    assert experiment.MAX_ENTRIES == 2**24
    parse_config(CAPPED + at_cap)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfg = tmp_path / "big.cfg"
    for text in (over_cap, "n = 100000000000\n", "repeats = 1000000000\n"):
        cfg.write_text(CAPPED + text)
        assert cli.main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "above the cap of MAX_ENTRIES = 2^24" in err
    cfg.write_text(CAPPED + over_cap)
    cli.main(["run", str(cfg)])
    assert capsys.readouterr().err == (f"config error: {message} is above the cap of "
                                       "MAX_ENTRIES = 2^24 = 16777216\n")
    assert not list(tmp_path.glob("*.csv"))


def test_gibbs_burn_in_cap_is_inclusive():
    # parsing only: no chain runs
    assert experiment.MAX_GIBBS_BURN_IN == 100_000
    assert parse_config(CAPPED + "gibbs_burn_in = 100000\n").gibbs_burn_in == 100_000
    with pytest.raises(ValueError, match="MAX_GIBBS_BURN_IN = 100000], got 100001"):
        parse_config(CAPPED + "gibbs_burn_in = 100001\n")


def test_booleans_parse_strictly():
    for word, value in [("true", True), ("On", True), ("1", True),
                        ("false", False), ("NO", False), ("0", False)]:
        text = _override(PBIL_CONFIG, f"objective = onemax:d=10,noise=uniform\nlift_noisy = {word}\n")
        assert parse_config(text).lift_noisy is value


def test_lift_noisy_joint_rbm_runs_as_the_noisy_objective(tmp_path):
    # the product family draws omega right after the base sample, as the
    # noisy objective does, so the two runs share every bit
    text = ("family = rbm:n_x=6,n_h=1\nobjective = two_min:d=6,seed=3,noise=uniform\n"
            "algorithm = igo\nn = 50\ndt = 0.5\nsteps = 3\nseed = 4\n")
    csv = {}
    for lifted in ("false", "true"):
        cfg = parse_config(text + f"lift_noisy = {lifted}\n")
        rec = run_experiment(cfg, out_dir=tmp_path / lifted)[0]
        assert rec.status == "step_limit"
        assert all(0.0 <= row.mean_hidden <= 1.0 for row in rec.rows)
        csv[lifted] = (tmp_path / lifted / "experiment_runs.csv").read_bytes()
    assert csv["true"] == csv["false"]


@pytest.mark.parametrize("algorithm", ["igo_ml", "smoothed_cem", "cem"])
@pytest.mark.parametrize("problem", [
    "family = bernoulli:d=6\nobjective = onemax:d=6,noise=uniform,noise_scale=0.7\n",
    "family = gaussian:d=2\nobjective = sphere:d=2,noise=gaussian\n",
])
def test_lift_noisy_expectation_steps_run_as_the_noisy_objective(tmp_path, algorithm, problem):
    # the expectation-coordinate steps reach the base family through the
    # product family's forwarders, with the same bits
    text = problem + f"algorithm = {algorithm}\nn = 40\ndt = 0.3\nsteps = 5\nseed = 8\n"
    csv = {}
    for lifted in ("false", "true"):
        rec = run_experiment(parse_config(text + f"lift_noisy = {lifted}\n"),
                             out_dir=tmp_path / lifted)[0]
        assert rec.status == "step_limit"
        csv[lifted] = (tmp_path / lifted / "experiment_runs.csv").read_bytes()
    assert csv["true"] == csv["false"]


def test_lift_noisy_forwards_the_sampled_kl_and_the_centred_score(tmp_path):
    # n_x + n_h = 21 leaves the marginal RBM without a closed-form KL, so the
    # KL is estimated through log_density; its Monte-Carlo Fisher is the
    # covariance of score_stats
    text = ("family = rbm_marginal:n_x=20,n_h=1\nobjective = onemax:d=20,noise=uniform\n"
            "algorithm = vanilla_gradient\nfisher = mc:m=100\nn = 40\ndt = 0.3\nsteps = 3\n"
            "seed = 8\ngibbs_burn_in = 5\n")
    csv = {}
    for lifted in ("false", "true"):
        rec = run_experiment(parse_config(text + f"lift_noisy = {lifted}\n"),
                             out_dir=tmp_path / lifted)[0]
        assert all(row.kl_stderr > 0.0 for row in rec.rows) and len(rec.rows) == 3
        csv[lifted] = (tmp_path / lifted / "experiment_runs.csv").read_bytes()
    assert csv["true"] == csv["false"]


def test_cli_help_lists_the_subcommands_main_registers(capsys):
    # the module docstring is the --help description: its subcommand list
    # must be the one argparse shows as {run,...}
    with pytest.raises(SystemExit) as stop:
        cli.main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    registered = re.search(r"\{([a-z,]+)\}", out).group(1).split(",")
    listed = re.findall(r"^  ([a-z]+) ", cli.__doc__, flags=re.M)
    assert cli.__doc__.strip() in out
    assert listed == registered


@st.composite
def _summary_grids(draw):
    """(quantity, repeat, step) grids with NaN holes, all-NaN quantities and
    signed zeros among the values."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    cell = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan]),
                     st.floats(-1e3, 1e3, allow_nan=False))
    grid = np.array(draw(st.lists(cell, min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)
    empty = draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]))
    grid[np.array(empty)] = math.nan
    return grid


@given(grid=_summary_grids())
def test_summary_percentiles_equal_nanpercentile_bit_for_bit(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN cells
        want = np.nanpercentile(grid, (16, 50, 84), axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = experiment._percentiles(grid, (16, 50, 84))
    assert got.tobytes() == want.tobytes()
