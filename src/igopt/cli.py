"""Command-line experiment driver.

Subcommands:

  run <config>    execute a config file; writes <prefix>_runs.csv and
                  <prefix>_summary.csv into $IGOPT_OUTPUT_DIR (default .)
  flow <config>   integrate the exact flow for an enumerable-family config
                  (or the reduced sphere flow) and write a trajectory CSV
  table <spec>    emit reference tables: critical_dt:... or
                  linear_constants:...
  selftest        fast internal consistency checks

Exit codes: 0 success, 2 config error, 3 when any repeat failed on a
singular or unreliable Fisher estimate (counts reported on stderr).
"""

import argparse
import math
import os
import sys

import numpy as np

from . import experiment as exp_mod
from . import flow as flow_mod
from . import objectives as objectives_mod
from .rng import INIT, substream

OUTPUT_DIR_ENV = "IGOPT_OUTPUT_DIR"


def _out_dir():
    return os.environ.get(OUTPUT_DIR_ENV, ".")


def cmd_run(args):
    try:
        with open(args.config) as fh:
            cfg = exp_mod.parse_config(fh.read())
    except (OSError, ValueError, TypeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    records = exp_mod.run_experiment(cfg, out_dir=_out_dir())
    counts = exp_mod.status_counts(records)
    for status, count in sorted(counts.items()):
        print(f"{status}: {count}")
    failures = sum(c for s, c in counts.items() if s.startswith("failed"))
    if failures:
        print(f"{failures} repeat(s) failed on singular/unreliable Fisher",
              file=sys.stderr)
        return 3
    return 0


_FLOW_KEYS = {"family", "objective", "scheme", "horizon", "flow_step", "method",
              "out_prefix", "theta0", "q_report", "seed"}
_FLOW_TYPED = {**dict.fromkeys(("horizon", "flow_step", "q_report"), (float, "a number")),
               "seed": (int, "an integer"),
               "theta0": (lambda v: np.array([float(t) for t in v.split()]),
                          "numbers separated by spaces")}


def cmd_flow(args):
    try:
        with open(args.config) as fh:
            spec = exp_mod.read_key_values(fh.read(), _FLOW_KEYS, _FLOW_TYPED)
        for required in ("family", "objective"):
            if required not in spec:
                raise ValueError(f"flow config needs {required!r}")
        header, rows = _run_flow(spec)
        path = _write_csv(f"{spec.get('out_prefix', 'flow')}_trajectory.csv",
                          f"igopt flow schema v{exp_mod.CSV_SCHEMA_VERSION}", header, rows)
    except (OSError, ValueError, TypeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print(path)
    return 0


def _run_flow(spec):
    """Integrate the flow of a flow config; returns the CSV header and rows."""
    horizon = spec.get("horizon", 1.0)
    step = spec.get("flow_step", 0.01)
    method = spec.get("method", "rk4")
    q_report = spec.get("q_report", 0.5)
    scheme = exp_mod._parse_scheme(spec.get("scheme", "truncation:q0=0.5"))
    if isinstance(scheme, tuple):
        raise ValueError("flow integration needs a quantile scheme, not a schedule")
    fam_kind, fam_opts = objectives_mod.parse_spec(spec["family"])
    obj = objectives_mod.parse_objective(spec["objective"])

    if fam_kind == "gaussian_iso" and obj.kind == "sphere":
        d = int(fam_opts["d"])
        sphere = flow_mod.SphereFlow(d, scheme.q0)
        r0 = float(fam_opts.get("r0", 3.0))
        s0 = math.log(float(fam_opts.get("sigma0", 1.0)))
        traj = flow_mod.integrate(sphere.rhs, np.array([r0, s0]), horizon, step, method)
        rows = []
        for state in traj:
            rows.append([state.t, state.theta[0], state.theta[1],
                         sphere.median_f(state.theta), sphere.speed(state.theta),
                         float("nan")])
        return ["t", "r", "log_sigma", "f_quantile", "speed", "lyapunov"], rows

    cfg = exp_mod.ExperimentConfig(family=spec["family"], objective=spec["objective"])
    family, start = exp_mod._family_and_start(cfg, substream(spec.get("seed", 1), 0, INIT))
    if "enumerable" not in family.capabilities:
        raise ValueError("flow integration needs an enumerable family "
                         "(or gaussian_iso with a sphere objective)")
    theta0 = spec.get("theta0", start)
    alpha = None
    if obj.kind == "onemax":
        alpha = np.ones(obj.dim)
    elif obj.kind == "linear" and obj.space == "bits":
        alpha = obj.params["alpha"]

    def rhs(theta):
        return flow_mod.flow_rhs(family, theta, obj, scheme)

    traj = flow_mod.integrate(rhs, theta0, horizon, step, method)
    rows = []
    for state in traj:
        pts, probs, values, _ = flow_mod.exact_weights_all(family, state.theta, obj, scheme)
        quant = flow_mod.f_quantile(values, probs, q_report)
        drift = rhs(state.theta)
        fmat = family.fisher(state.theta)
        speed = math.sqrt(max(0.0, float(drift @ fmat @ drift)))
        lyap = float(alpha @ drift) if alpha is not None else float("nan")
        rows.append([state.t, *state.theta, quant, speed, lyap])
    header = (["t"] + [f"theta_{i}" for i in range(len(theta0))]
              + ["f_quantile", "speed", "lyapunov"])
    return header, rows


def _write_csv(name, comment, header, rows):
    """Write ``# comment``, the header and the rows to ``name`` in the output
    directory; returns the path."""
    path = os.path.join(_out_dir(), name)
    os.makedirs(_out_dir(), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n" + ",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(exp_mod._fmt(v) for v in row) + "\n")
    return path


def cmd_table(args):
    try:
        kind, opts = objectives_mod.parse_spec(args.spec)
        if kind not in _TABLES:
            raise ValueError(f"unknown table {kind!r}")
        path = _TABLES[kind](opts)
    except (ValueError, TypeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print(path)
    return 0


def _grid(opts, lo_key="q_min", hi_key="q_max", default_lo=0.01, default_hi=0.6):
    lo = float(opts.get(lo_key, default_lo))
    hi = float(opts.get(hi_key, default_hi))
    points = int(opts.get("points", 60))
    return np.linspace(lo, hi, points)

def _critical_dt_table(opts):
    rows = [[q] + [flow_mod.critical_dt(float(q), j) for j in (0, 1, 2, math.inf)]
            for q in _grid(opts)]
    return _write_csv("critical_dt.csv",
                      "critical step size vs truncation quantile, per update family j",
                      ["q", "j0", "j1", "j2", "j_inf"], rows)


def _linear_constants_table(opts):
    d = int(opts.get("d", 1))
    rows = []
    for q0 in _grid(opts, default_lo=0.05, default_hi=0.95):
        lc = flow_mod.gaussian_linear_constants(float(q0), d)
        rows.append([q0, lc.alpha, lc.beta])
    return _write_csv(f"linear_constants_d{d}.csv",
                      "isotropic-Gaussian linear-objective flow rates",
                      ["q0", "alpha", "beta"], rows)


_TABLES = {"critical_dt": _critical_dt_table, "linear_constants": _linear_constants_table}


def cmd_selftest(args):
    import tempfile

    from . import compute_quantile_weights, truncation
    from .families import BernoulliFamily

    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as err:  # selftest reports, never raises
            checks.append((name, False, str(err)))

    def weights_hand():
        rw = compute_quantile_weights([3.0, 1.0, 4.0, 2.0], truncation(0.5))
        assert np.array_equal(rw.weights, [0.0, 0.25, 0.0, 0.25])

    def critical_value():
        assert abs(flow_mod.critical_dt(0.25, 1) - 0.5306320605) < 1e-9

    def flow_hand():
        fam = BernoulliFamily(1)
        obj = objectives_mod.linear(np.ones(1), 1.0, space="bits")
        rhs = flow_mod.flow_rhs(fam, np.array([0.4]), obj, truncation(0.5))
        assert abs(rhs[0] - 0.2) < 1e-12

    def run_determinism():
        cfg = exp_mod.parse_config(
            "family = bernoulli:d=5\nobjective = onemax:d=5\n"
            "scheme = truncation:q0=0.5\nn = 20\ndt = 0.1\nsteps = 5\n"
            "seed = 7\nrepeats = 2\n")
        with tempfile.TemporaryDirectory() as tmp:
            a = exp_mod.run_experiment(cfg, out_dir=tmp)
            first = open(os.path.join(tmp, "experiment_runs.csv")).read()
            b = exp_mod.run_experiment(cfg, out_dir=tmp)
            second = open(os.path.join(tmp, "experiment_runs.csv")).read()
        assert first == second
        assert all(np.array_equal(x.thetas[-1], y.thetas[-1]) for x, y in zip(a, b))

    check("quantile weights hand example", weights_hand)
    check("critical step size", critical_value)
    check("exact flow hand value", flow_hand)
    check("run determinism", run_determinism)

    ok = True
    for name, passed, msg in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {msg}" if msg else ""))
        ok = ok and passed
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="igopt", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_flow = sub.add_parser("flow", help="integrate the exact flow for a config")
    p_flow.add_argument("config")
    p_flow.set_defaults(func=cmd_flow)

    p_table = sub.add_parser("table", help="emit reference tables as CSV")
    p_table.add_argument("spec")
    p_table.set_defaults(func=cmd_table)

    p_self = sub.add_parser("selftest", help="fast internal consistency checks")
    p_self.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
