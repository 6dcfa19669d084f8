import numpy as np
import pytest

from igopt import cli
from igopt.experiment import (
    ExperimentConfig,
    parse_config,
    run_experiment,
    status_counts,
)

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
    "family = rbm:n_x=30,n_h=1\nobjective = two_min:d=30,seed=1\nfisher = exact\n",
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
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("experiment_runs.csv", "experiment_summary.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_worker_pool_gives_identical_csv(tmp_path):
    cfg = parse_config(PBIL_CONFIG)
    run_experiment(cfg, out_dir=tmp_path / "serial")
    cfg2 = parse_config(PBIL_CONFIG + "workers = 2\n")
    run_experiment(cfg2, out_dir=tmp_path / "pool")
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


@pytest.mark.parametrize("line, message", [
    ("horizon = 2.0\n", "line 4: duplicate key 'horizon'"),
    ("", "line 3: horizon must be a number, got 'abc'"),
])
def test_cli_flow_config_grammar(tmp_path, monkeypatch, capsys, line, message):
    # the flow config shares the run config's grammar and its messages
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfgfile = tmp_path / "flow.cfg"
    horizon = "horizon = 1.0\n" if line else "horizon = abc\n"
    cfgfile.write_text("family = bernoulli:d=3\nobjective = onemax:d=3\n" + horizon + line)
    assert cli.main(["flow", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


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


def test_cli_selftest():
    assert cli.main(["selftest"]) == 0


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
    ("workers = 0\n", "workers"),
])
def test_bad_values_exit_2_with_one_line(tmp_path, monkeypatch, capsys, extra, key):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    with pytest.raises(ValueError, match=key):
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
    (PBIL_CONFIG.replace("dt = 0.1", "dt = nan"), "dt must be positive and finite"),
])
def test_bad_numbers_exit_2_with_one_line(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_booleans_parse_strictly():
    for word, value in [("true", True), ("On", True), ("1", True),
                        ("false", False), ("NO", False), ("0", False)]:
        assert parse_config(PBIL_CONFIG + f"lift_noisy = {word}\n").lift_noisy is value
