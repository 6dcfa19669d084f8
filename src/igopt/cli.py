"""Command-line experiment driver.

Subcommands:

  run <config>    execute a config file; writes <prefix>_runs.csv and
                  <prefix>_summary.csv into $IGOPT_OUTPUT_DIR (default .)
  flow <config>   integrate the exact flow for an enumerable-family config
                  (or the reduced sphere flow) and write a trajectory CSV
  table <spec>    emit reference tables: critical_dt:... or
                  linear_constants:...

Exit codes: 0 success, 2 config error (a file that cannot be read or
parsed), 3 when any repeat of ``run`` ended in a ``failed_*`` status (a
singular or unreliable Fisher estimate, or objective values that are not
finite; one line on stderr names each failed status and its count), or
when ``flow`` meets a singular Fisher matrix or leaves the family's domain
(one line on stderr).
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import experiment as exp_mod
from . import flow as flow_mod
from . import objectives as objectives_mod
from .experiment import FILE_PREFIX, key
from .families import (BernoulliFamily, CapabilityError, DegenerateUpdate, DomainError,
                       SingularFisher)
from .objectives import COUNT, FINITE, INT, NUMBER, SCALE, TEXT, Option, finite_numbers
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
    failed = {s: c for s, c in sorted(counts.items()) if s.startswith("failed")}
    if failed:
        print(f"{sum(failed.values())} repeat(s) failed: "
              + ", ".join(f"{status} {count}" for status, count in failed.items()),
              file=sys.stderr)
        return 3
    return 0


MAX_FLOW_STEPS = 100_000  # fixed steps of one flow integration


@dataclass
class FlowConfig:
    family: str = key(TEXT)
    objective: str = key(TEXT)
    scheme: str = key(TEXT, "truncation:q0=0.5")
    horizon: float = key(NUMBER, 1.0, (lambda x: 0.0 <= x < math.inf, "finite and >= 0"))
    flow_step: float = key(NUMBER, 0.01, SCALE)
    method: str = key(({"euler": "euler", "rk4": "rk4"}.__getitem__, "euler or rk4"), "rk4")
    out_prefix: str = key(TEXT, "flow", FILE_PREFIX)
    theta0: np.ndarray = key((lambda text: np.array(finite_numbers(text)),
                              "finite numbers separated by spaces"), None)
    q_report: float = key(NUMBER, 0.5, (lambda x: 0.0 <= x <= 1.0, "in [0, 1]"))
    seed: int = key(INT, 1)


_ISO = exp_mod.FAMILIES["gaussian_iso"]  # the sphere flow starts at (r0, log sigma0)
SPHERE_FLOW = {"gaussian_iso": {"d": _ISO["d"], "r0": Option(NUMBER, 3.0, FINITE),
                                "sigma0": _ISO["sigma0"]}}


def cmd_flow(args):
    try:
        with open(args.config) as fh:
            cfg = FlowConfig(**exp_mod.read_config(fh.read(), FlowConfig, "flow config"))
        exp_mod.check_keys(cfg)
        _check_flow_steps(cfg.horizon, cfg.flow_step)
        header, theta0, rhs, cells = _flow_setup(cfg)
    except (OSError, ValueError, TypeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        states = flow_mod.trajectory(rhs, theta0, cfg.horizon, cfg.flow_step, cfg.method)
        rows = [[state.t, *state.theta, *cells(state.theta)] for state in states]
    except (SingularFisher, DomainError, DegenerateUpdate) as err:
        print(f"flow failed: {err}", file=sys.stderr)
        return 3
    print(exp_mod.write_csv(_out_dir(), f"{cfg.out_prefix}_trajectory.csv",
                            f"igopt flow schema v{exp_mod.CSV_SCHEMA_VERSION}", header, rows))
    return 0


def _check_flow_steps(horizon, step):
    """``flow.integrate`` takes round(horizon / step) fixed steps: refuse a
    count above MAX_FLOW_STEPS, or one that does not end at the horizon."""
    steps = horizon / step
    if not steps <= MAX_FLOW_STEPS:
        raise ValueError(f"horizon / flow_step = {steps:.6g} steps, above "
                         f"MAX_FLOW_STEPS = {MAX_FLOW_STEPS}")
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):  # allows 3 / 0.1
        raise ValueError(f"horizon {horizon!r} is not a whole number of "
                         f"flow_step {step!r} (horizon / flow_step = {steps:.6g})")


def _flow_setup(cfg):
    """The CSV header, starting state and drift of a flow config, and
    cells(theta): a state's f-quantile, speed and Lyapunov cells."""
    scheme = exp_mod.parse_scheme(cfg.scheme)
    if scheme.kind == "pbil":
        raise ValueError("flow integration needs a quantile scheme, not a schedule")
    obj = objectives_mod.parse_objective(cfg.objective)
    if obj.kind == "noisy":
        raise ValueError(f"the exact flow needs a noise-free objective, "
                         f"got {cfg.objective!r}")

    if obj.kind == "sphere" and cfg.family.partition(":")[0].strip() == "gaussian_iso":
        if scheme.kind != "truncation":
            raise ValueError(f"the sphere flow needs a truncation scheme, "
                             f"got {cfg.scheme!r}")
        if cfg.q_report != 0.5:
            raise ValueError(f"the sphere flow reports the exact median, so q_report "
                             f"must be 0.5, got {cfg.q_report!r}")
        _, o = objectives_mod.parse_spec(cfg.family, SPHERE_FLOW, "")
        sphere = flow_mod.SphereFlow(o["d"], scheme.q0)
        start = np.array([o["r0"], math.log(o["sigma0"])])
        dim, in_domain = sphere.d, sphere.median_f  # as the f_quantile cell of every row
        points = None  # the sphere flow has its objective in closed form
        header = ["t", "r", "log_sigma"]
        memo = _last_state(lambda theta: (sphere.rhs(theta),))

        def cells(theta):
            return [sphere.median_f(theta), sphere.speed(theta, memo(theta)[0]), float("nan")]
    else:
        family, start = exp_mod.parse_family(cfg.family, 0,  # the flow draws nothing
                                             substream(cfg.seed, 0, INIT))
        try:
            points = family.enumerate_points()  # refuses a family, or a size, it cannot enumerate
        except CapabilityError as err:
            raise ValueError(f"flow integration needs an enumerable family "
                             f"(or gaussian_iso with a sphere objective): {err}") from None
        dim, in_domain = family.dim, family.fisher  # as the speed cell of every row does
        header = ["t"] + [f"theta_{i}" for i in range(len(start))]
        alpha = None  # the lyapunov column's alpha: Bernoulli flows on c - alpha . x
        if isinstance(family, BernoulliFamily):
            if obj.kind == "onemax":
                alpha = np.ones(obj.dim)
            elif obj.kind == "linear" and obj.space == "bits":
                alpha = obj.params["alpha"]

        def evaluate(theta):
            weights = flow_mod.exact_weights_all(family, theta, obj, scheme)
            drift = flow_mod.flow_rhs(family, theta, obj, scheme, weights=weights)
            return drift, weights[2], weights[1]

        memo = _last_state(evaluate)

        def cells(theta):
            drift, values, probs = memo(theta)
            speed = math.sqrt(max(0.0, float(drift @ family.fisher(theta) @ drift)))
            lyap = float(alpha @ drift) if alpha is not None else float("nan")
            return [flow_mod.f_quantile(values, probs, cfg.q_report), speed, lyap]

    if obj.dim != dim:
        raise ValueError(f"objective dimension {obj.dim} does not match "
                         f"the family's {dim}")
    if points is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            finite = np.isfinite(objectives_mod.evaluate(obj, points)).all()
        if not finite:
            raise ValueError(f"{cfg.objective!r} is not a finite float on every point")
    theta0 = start if cfg.theta0 is None else cfg.theta0
    if len(theta0) != len(start):
        raise ValueError(f"theta0 needs {len(start)} numbers, got {len(theta0)}")
    try:
        in_domain(theta0)
    except DomainError as err:
        raise ValueError(f"theta0 is outside the family's domain: {err}") from None
    return (header + ["f_quantile", "speed", "lyapunov"], theta0,
            lambda theta: memo(theta)[0], cells)


def _last_state(evaluate):
    """``evaluate`` (the drift at a state, then what the state's cells need)
    remembered for the state it met last.  ``flow.trajectory`` yields each
    state before stepping from it, so the CSV row of a state and the step's
    first evaluation there share one call."""
    last = {}

    def memo(theta):
        key = theta.tobytes()
        if key not in last:
            result = evaluate(theta)
            last.clear()
            last[key] = result
        return last[key]

    return memo


def cmd_table(args):
    try:
        kind, o = objectives_mod.parse_spec(args.spec, TABLES, "unknown table {kind!r}")
        path = _critical_dt_table(o) if kind == "critical_dt" else _linear_constants_table(o)
    except (ValueError, TypeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print(path)
    return 0


MAX_TABLE_POINTS = 10_000  # rows of one reference table


def _grid_options(lo, hi, valid):
    """A table's q grid: q_min, q_max (defaults lo, hi, each ``valid``) and points."""
    return {"q_min": Option(NUMBER, lo, valid), "q_max": Option(NUMBER, hi, valid),
            "points": Option(INT, 60, (lambda n: 1 <= n <= MAX_TABLE_POINTS,
                                       f"in [1, {MAX_TABLE_POINTS}]"))}


TABLES = {
    "critical_dt": _grid_options(0.01, 0.6, (lambda q: 0.0 < q < 1.0, "in (0, 1)")),
    "linear_constants": {"d": Option(INT, 1, COUNT),
                         **_grid_options(0.05, 0.95, (lambda q: 0.0 < q <= 1.0, "in (0, 1]"))},
}


def _critical_dt_table(o):
    rows = [[q] + [flow_mod.critical_dt(float(q), j) for j in (0, 1, 2, math.inf)]
            for q in np.linspace(o["q_min"], o["q_max"], o["points"])]
    return exp_mod.write_csv(_out_dir(), "critical_dt.csv",
                             "critical step size vs truncation quantile, per update family j",
                             ["q", "j0", "j1", "j2", "j_inf"], rows)


def _linear_constants_table(o):
    rows = []
    for q0 in np.linspace(o["q_min"], o["q_max"], o["points"]):
        lc = flow_mod.gaussian_linear_constants(float(q0), o["d"])
        rows.append([q0, lc.alpha, lc.beta])
    return exp_mod.write_csv(_out_dir(), f"linear_constants_d{o['d']}.csv",
                             "isotropic-Gaussian linear-objective flow rates",
                             ["q0", "alpha", "beta"], rows)


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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
