"""Config-driven experiment runner.

Configs are flat ``key = value`` text files (``#`` comments, no nesting);
unknown keys are rejected.  A batch executes one algorithm loop per repeat,
each repeat on its own seed substream, and emits two CSV files: a per-step
row file and a 16th/50th/84th-percentile summary across repeats.  Identical
config + seed gives byte-identical CSV regardless of worker count.

Failure semantics follow the Fisher reliability protocol: when the
natural-gradient algorithm runs on a Monte-Carlo Fisher estimate, two
independent sample splits cross-validate it; a singular or unreliable
estimate marks the run ``failed_singular`` / ``failed_unreliable`` and stops
it.  These statuses are recorded in the run record, never raised.
"""

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import objectives as objectives_mod
from . import rng as rng_mod
from .engine import (
    cem_step,
    igo_ml_step,
    igo_step,
    lift_noisy,
    smoothed_cem_step,
    vanilla_step,
)
from .families import (
    BernoulliFamily,
    CapabilityError,
    DegenerateUpdate,
    DomainError,
    FullGaussianFamily,
    GaussianParams,
    GaussianSqrtParams,
    IsotropicGaussianFamily,
    JointRbmFamily,
    LogitBernoulliFamily,
    MarginalRbmFamily,
    MeanGaussianFamily,
    SingularFisher,
    gaussian_step,
)
# reliability_check and solve run inside mc_fisher and igo_step; they stay
# names of this module because perfbench/tracing.py wraps them here
from .fisher import mc_fisher, reliability_check, solve  # noqa: F401
from .flow import batch_quantile
from .objectives import parse_spec
from .rng import spawn_run_seed, substream
from .weights import (
    compute_quantile_weights,
    pbil_schedule,
    schedule_variance,
    signed_median,
    table,
    truncation,
)

__all__ = ["ExperimentConfig", "RunRecord", "StepRow", "parse_config",
           "run_experiment", "write_csv_outputs", "status_counts",
           "CSV_SCHEMA_VERSION"]

CSV_SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    family: str = ""
    objective: str = ""
    scheme: str = "truncation:q0=0.5"
    algorithm: str = "igo"
    fisher: str = "exact"
    n: int = 100
    dt: float = 0.1
    steps: int = 100
    seed: int = 1
    repeats: int = 1
    stop: str = "steps"          # steps | both_optima | target:<value>
    gibbs_burn_in: int = 100
    smoothed_cem_coords: str = "natural"
    lift_noisy: bool = False
    workers: int = 1
    out_prefix: str = "experiment"
    paper_scale: bool = False
    concentration_stop: int = 0  # stop after this many steps of pinned hidden unit

    def validate(self):
        if self.algorithm not in STEPS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.n < 1 or self.steps < 0 or self.repeats < 1 or self.workers < 1:
            raise ValueError("n, repeats and workers must be positive, steps non-negative")
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if self.gibbs_burn_in < 0:
            raise ValueError("gibbs_burn_in must be non-negative")
        m = _fisher_sample_count(self.fisher)
        if not (self.stop in ("steps", "both_optima") or _stop_target(self) is not None):
            raise ValueError(f"unknown stop rule {self.stop!r}")
        rng = np.random.default_rng(0)  # stands in for the run's streams
        fam = _setup(self, rng, rng)[0]
        if 0 < m < fam.dim_theta:
            raise ValueError(f"fisher sample count {m} below dim_theta = {fam.dim_theta}; "
                             "a rank-1-sum estimate cannot be invertible")
        if not m and isinstance(fam, (JointRbmFamily, MarginalRbmFamily)):
            if fam.n_x + fam.n_h > 20:
                raise ValueError("exact Fisher needs n_x + n_h <= 20; use fisher = mc:m=...")
        return self


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_TYPED_KEYS = {**dict.fromkeys(("n", "steps", "seed", "repeats", "gibbs_burn_in", "workers",
                                 "concentration_stop"), (int, "an integer")),
               "dt": (float, "a number"),
               **dict.fromkeys(("lift_noisy", "paper_scale"),
                               (lambda v: _BOOL_WORDS[v.lower()], "true or false"))}


def read_key_values(text, known, typed):
    """Values of a flat config text by key: ``#`` comments, one known key per
    ``key = value`` line, each key once; ``typed`` maps a key to (convert,
    what the value must be).  Errors are ValueErrors that name the line."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        convert, kind = typed.get(key, (str, "text"))
        try:
            values[key] = convert(val)
        except (ValueError, KeyError):
            raise ValueError(f"line {lineno}: {key} must be {kind}, got {val!r}") from None
    return values


def parse_config(text):
    """Parse flat ``key = value`` config text; unknown keys are rejected."""
    values = read_key_values(text, {f.name for f in fields(ExperimentConfig)}, _TYPED_KEYS)
    cfg = ExperimentConfig(**values)
    if cfg.paper_scale:
        _apply_paper_scale(cfg, values)
    return cfg.validate()


def _apply_paper_scale(cfg, given):
    """Full-protocol defaults (40 visible units, 10,000 objective calls per
    step, 100 repeats); explicit keys always win."""
    if "family" not in given:
        cfg.family = "rbm:n_x=40,n_h=1"
    if "objective" not in given:
        d = int(parse_spec(cfg.family)[1].get("n_x", 40))
        cfg.objective = f"two_min:d={d},per_run=1"
    if "n" not in given:
        cfg.n = 10000
    if "fisher" not in given:
        cfg.fisher = "mc:m=10000"
    if "repeats" not in given:
        cfg.repeats = 100


def _fisher_sample_count(spec):
    """Monte-Carlo Fisher sample count of a ``fisher`` spec; 0 for exact."""
    if spec == "exact":
        return 0
    kind, opts = parse_spec(spec)
    if kind != "mc" or "m" not in opts:
        raise ValueError(f"bad fisher spec {spec!r}; expected exact or mc:m=<count>")
    return int(opts["m"])


# -- spec-string builders ------------------------------------------------------

def _family_and_start(cfg, rng):
    """The family of ``cfg`` and its starting theta; ``rng`` draws an RBM's."""
    kind, opts = parse_spec(cfg.family)
    if kind in ("rbm", "rbm_marginal"):
        rbm = JointRbmFamily if kind == "rbm" else MarginalRbmFamily
        family = rbm(int(opts["n_x"]), int(opts.get("n_h", 1)), burn_in=cfg.gibbs_burn_in)
        return family, family.init_params(rng)
    d = int(opts["d"])
    p0 = float(opts.get("p0", 0.5)) * np.ones(d)
    m0 = float(opts.get("m0", 0.0)) * np.ones(d)
    s0 = float(opts.get("sigma0", 1.0))
    if kind == "bernoulli":
        return BernoulliFamily(d), p0
    if kind == "bernoulli_logit":
        return LogitBernoulliFamily(d), LogitBernoulliFamily.from_probabilities(p0)
    if kind == "gaussian":
        family = FullGaussianFamily(d)
        return family, family.pack(GaussianParams(m0, s0**2 * np.eye(d)))
    if kind == "gaussian_iso":
        return IsotropicGaussianFamily(d), np.concatenate([m0, [math.log(s0)]])
    if kind == "gaussian_mean":
        return MeanGaussianFamily(d), m0
    raise ValueError(f"unknown family spec {cfg.family!r}")


def _stop_target(cfg):
    """The value that ends a run under ``stop = target:<value>``, else None."""
    kind, _, value = cfg.stop.partition(":")
    try:
        return float(value) if kind == "target" else None
    except ValueError:
        raise ValueError(f"stop target must be a number, got {value!r}") from None


def _setup(cfg, objective_rng, init_rng):
    """Family, starting theta, objective, weight scheme and step part of one
    run; raises ValueError when they do not fit together."""
    family, theta = _family_and_start(cfg, init_rng)
    obj = objectives_mod.parse_objective(cfg.objective, rng=objective_rng)
    if obj.dim != family.dim:
        raise ValueError(f"objective dimension {obj.dim} does not match "
                         f"the family's {family.dim}")
    scheme = _parse_scheme(cfg.scheme)
    needs, make = STEPS[cfg.algorithm]
    missing = needs - (lift_noisy(family) if cfg.lift_noisy else family).capabilities
    if missing:
        raise ValueError(f"algorithm {cfg.algorithm} needs a family with "
                         f"{', '.join(sorted(missing))}; {cfg.family} has none")
    return family, theta, obj, scheme, make(cfg, scheme)


def _parse_scheme(spec):
    kind, opts = parse_spec(spec)
    if kind == "truncation":
        return truncation(float(opts.get("q0", 0.5)),
                          shift=float(opts.get("shift", 0.0)))
    if kind == "signed_median":
        return signed_median(shift=float(opts.get("shift", 0.0)),
                             scale=float(opts.get("scale", 1.0)))
    if kind == "table":
        # nodes=q:v;q:v;...  e.g. table:nodes=0:2;0.25:1;0.5:0
        nodes = [tuple(float(p) for p in pair.split(":"))
                 for pair in opts["nodes"].split(";")]
        return table(nodes, shift=float(opts.get("shift", 0.0)))
    if kind == "pbil":
        return ("pbil", int(opts.get("mu", 1)), float(opts["lr"]))
    raise ValueError(f"unknown scheme spec {spec!r}")


# -- run records ---------------------------------------------------------------

@dataclass
class StepRow:
    step: int
    time: float
    best_f: float
    f_quantile: float
    dist_second: float
    mean_hidden: float
    kl: float
    kl_stderr: float
    speed_norm: float
    reliability: str
    dt: float


@dataclass
class RunRecord:
    run_id: int
    seed: int
    status: str = "step_limit"
    rows: list = field(default_factory=list)
    thetas: list = field(default_factory=list)  # in-memory trace, not CSV
    weight_variance: float = 0.0

    @property
    def failed(self):
        return self.status.startswith("failed")


def _weights_for(values, scheme_obj, n):
    if isinstance(scheme_obj, tuple):  # ("pbil", mu, lr)
        _, mu, lr = scheme_obj
        schedule = pbil_schedule(n, mu, lr)
        order = np.argsort(values, kind="stable")
        w = np.zeros(n)
        w[order] = schedule
        return w, schedule_variance(schedule)
    rw = compute_quantile_weights(values, scheme_obj)
    return rw.weights, scheme_obj.variance()


def single_run(cfg, run_id):
    """Execute one repeat; returns its RunRecord."""
    run_seed = spawn_run_seed(cfg.seed, run_id)
    family, theta, obj, scheme_obj, part = _setup(
        cfg, substream(run_seed, 0, rng_mod.OBJECTIVE), substream(run_seed, 0, rng_mod.INIT))
    if cfg.lift_noisy:
        if obj.kind != "noisy":
            raise ValueError("lift_noisy needs a noisy objective")
        family = lift_noisy(family)

    record = RunRecord(run_id, run_seed)
    record.thetas.append(np.array(theta, dtype=float, copy=True))
    joint_rbm = isinstance(family, JointRbmFamily)
    mc_count = _fisher_sample_count(cfg.fisher)
    two_min_y = obj.params["y"] if obj.kind == "two_min" else None
    target = _stop_target(cfg)
    truncating = not isinstance(scheme_obj, tuple) and scheme_obj.kind == "truncation"
    q_report = scheme_obj.q0 if truncating else 0.5
    seen_optima = (False, False)
    pinned_steps = 0

    for step in range(cfg.steps):
        rng = substream(run_seed, step, rng_mod.SAMPLING)
        try:
            samples = family.sample(theta, cfg.n, rng)
        except DomainError:
            # a previous unconstrained step left the parameter domain
            record.status = "failed_singular"
            break
        if cfg.lift_noisy:
            values = objectives_mod.noisy_value(obj, family.points_of(samples)[0],
                                                samples[1])
            bit_points = samples[0]
        else:
            values = objectives_mod.evaluate(obj, family.points_of(samples), rng)
            bit_points = family.points_of(samples)
        weights, record.weight_variance = _weights_for(values, scheme_obj, cfg.n)

        fm = None
        reliability = "exact"
        if mc_count:
            fm = mc_fisher(family, theta, mc_count,
                           substream(run_seed, step, rng_mod.FISHER))
            reliability = fm.reliability
            # only the natural gradient steps on the estimate itself
            if cfg.algorithm == "igo" and reliability == "fail":
                record.status = "failed_unreliable"
                break

        try:
            new_theta = part(family, theta, samples, values, weights, cfg.dt, fm)
        except (SingularFisher, DegenerateUpdate):
            # a degenerate parameter state has the same operational meaning
            # as a singular Fisher matrix: the run cannot continue
            record.status = "failed_singular"
            break

        new_theta = family.project(new_theta)
        kl, kl_stderr = _kl_for(family, theta, new_theta, samples)
        speed = _speed_for(family, theta, new_theta, fm)

        record.rows.append(StepRow(
            step=step,
            time=(step + 1) * cfg.dt,
            best_f=float(values.min()),
            f_quantile=batch_quantile(values, q_report),
            dist_second=(_dist_second(bit_points, two_min_y, values)
                         if two_min_y is not None else float("nan")),
            mean_hidden=(float(np.asarray(samples[1], dtype=float).mean())
                         if joint_rbm else float("nan")),
            kl=kl,
            kl_stderr=kl_stderr,
            speed_norm=speed,
            reliability=reliability,
            dt=cfg.dt,
        ))
        theta = new_theta
        record.thetas.append(np.array(theta, dtype=float, copy=True))

        if two_min_y is not None and cfg.stop == "both_optima":
            seen_optima = _both_optima_seen(bit_points, two_min_y, seen_optima)
            if all(seen_optima):
                record.status = "both_optima_reached"
                break
        if target is not None and values.min() <= target:
            record.status = "converged"
            break
        if cfg.concentration_stop and joint_rbm:
            h_mean = record.rows[-1].mean_hidden
            pinned_steps = pinned_steps + 1 if (h_mean > 0.99 or h_mean < 0.01) else 0
            if pinned_steps >= cfg.concentration_stop:
                # the distribution has collapsed onto one hidden mode;
                # nothing can change from here but burned compute
                record.status = "converged"
                break
    else:
        record.status = "step_limit"
    return record


# -- step parts ----------------------------------------------------------------
# One part per algorithm, built once per run by its maker make(cfg, scheme):
#     part(family, theta, samples, values, weights, dt, fisher) -> new theta,
# with ``fisher`` the step's Monte-Carlo estimate or None.  STEPS maps each
# algorithm to the family capabilities its part uses and to its maker.

def _igo(family, theta, samples, values, weights, dt, fm):
    return igo_step(family, theta, samples, weights, dt, fisher=fm,
                    model_stats=getattr(fm, "model_stats", None))


def _vanilla(family, theta, samples, values, weights, dt, fm):
    return vanilla_step(family, theta, samples, weights, dt,
                        model_stats=getattr(fm, "model_stats", None))


def _igo_ml(family, theta, samples, values, weights, dt, fm):
    return igo_ml_step(family, theta, samples, weights, dt, on_unnormalized="renormalize")


def _cem(cfg, scheme):
    if isinstance(scheme, tuple) or scheme.kind != "truncation":
        raise ValueError("cem needs a truncation scheme for its elite fraction")
    return lambda family, theta, samples, values, weights, dt, fm: cem_step(
        family, samples, values, scheme.q0)


def _smoothed_cem(cfg, scheme):
    return lambda family, theta, samples, values, weights, dt, fm: smoothed_cem_step(
        family, theta, samples, weights, dt, cfg.smoothed_cem_coords)


def _gaussian_rule(kind):
    return lambda family, theta, samples, values, weights, dt, fm: family.pack(
        gaussian_step(kind, family.unpack(theta), samples, weights, dt=dt))


def _xnes(cfg, scheme):
    """xNES moves the square root A of C; the part keeps A between steps."""
    sqrt = None

    def part(family, theta, samples, values, weights, dt, fm):
        nonlocal sqrt
        if sqrt is None:
            start = family.unpack(theta)
            sqrt = GaussianSqrtParams(start.m, np.linalg.cholesky(start.C))
        sqrt = gaussian_step("xnes", sqrt, samples, weights, dt=dt)
        return family.pack(GaussianParams(sqrt.m, sqrt.C))
    return part


STEPS = {
    "igo": ({"grad_log_density"}, lambda cfg, scheme: _igo),
    "vanilla_gradient": ({"grad_log_density"}, lambda cfg, scheme: _vanilla),
    "igo_ml": ({"expectation_params"}, lambda cfg, scheme: _igo_ml),
    "cem": ({"expectation_params"}, _cem),
    "smoothed_cem": ({"expectation_params"}, _smoothed_cem),
    "cma": ({"mean_cov"}, lambda cfg, scheme: _gaussian_rule("cma")),
    "emna": ({"mean_cov"}, lambda cfg, scheme: _gaussian_rule("emna")),
    "xnes": ({"mean_cov"}, _xnes),
}


def _kl_for(family, theta, new_theta, samples):
    try:
        return family.exact_kl(theta, new_theta), 0.0
    except (CapabilityError, DomainError, DegenerateUpdate):
        pass
    try:
        diff = family.log_density(theta, samples) - family.log_density(new_theta, samples)
    except (CapabilityError, DomainError, DegenerateUpdate):
        return float("nan"), float("nan")
    m = diff.size
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(m))


def _speed_for(family, theta, new_theta, fm):
    delta = np.asarray(new_theta, dtype=float) - np.asarray(theta, dtype=float)
    if fm is not None:
        mat = fm.matrix
    else:
        try:
            mat = family.fisher(theta)
        except (CapabilityError, DomainError):
            return float("nan")
    return math.sqrt(max(0.0, float(delta @ mat @ delta)))


def _both_optima_seen(points, y, seen):
    hits_y = bool(np.any(np.all(points == y, axis=1)))
    hits_c = bool(np.any(np.all(points == 1 - y, axis=1)))
    return seen[0] or hits_y, seen[1] or hits_c


def _dist_second(points, y, values):
    """Closest approach of the batch to the optimum the search is NOT
    currently exploiting: the first optimum is the one nearest the best
    sample, the second is its complement."""
    d1 = np.abs(points - y).sum(axis=1)
    d2 = np.abs(points - (1 - y)).sum(axis=1)
    best = int(np.argmin(values))
    second = d2 if d1[best] <= d2[best] else d1
    return float(second.min())


# -- batch driver and CSV ------------------------------------------------------

def run_experiment(cfg, out_dir=None):
    """Run all repeats; write CSV files when out_dir is given."""
    cfg.validate()
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(single_run, [cfg] * cfg.repeats, range(cfg.repeats)))
    else:
        records = [single_run(cfg, r) for r in range(cfg.repeats)]
    records.sort(key=lambda r: r.run_id)
    if out_dir is not None:
        write_csv_outputs(cfg, records, out_dir)
    return records


_RUN_COLUMNS = ["run_id", "step", "time", "best_f", "f_quantile", "dist_second",
                "mean_hidden", "kl", "kl_stderr", "speed_norm", "reliability", "dt",
                "status"]


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.17g}"


def write_csv_outputs(cfg, records, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    runs_path = os.path.join(out_dir, f"{cfg.out_prefix}_runs.csv")
    with open(runs_path, "w") as fh:
        fh.write(f"# igopt runs schema v{CSV_SCHEMA_VERSION}; seed={cfg.seed}; "
                 f"algorithm={cfg.algorithm}\n")
        fh.write(",".join(_RUN_COLUMNS) + "\n")
        for rec in records:
            for row in rec.rows:
                out = [rec.run_id, row.step, row.time, row.best_f, row.f_quantile,
                       row.dist_second, row.mean_hidden, row.kl, row.kl_stderr,
                       row.speed_norm, row.reliability, row.dt, rec.status]
                fh.write(",".join(_fmt(v) for v in out) + "\n")

    summary_path = os.path.join(out_dir, f"{cfg.out_prefix}_summary.csv")
    quantities = ["best_f", "f_quantile", "dist_second", "mean_hidden", "kl",
                  "speed_norm"]
    with open(summary_path, "w") as fh:
        fh.write(f"# igopt summary schema v{CSV_SCHEMA_VERSION}; "
                 "percentiles 16/50/84 across repeats\n")
        header = ["step"] + [f"{q}_p{p}" for q in quantities for p in (16, 50, 84)]
        fh.write(",".join(header) + "\n")
        max_steps = max((len(r.rows) for r in records), default=0)
        for k in range(max_steps):
            cells = [str(k)]
            for q in quantities:
                vals = np.array([getattr(r.rows[k], q) for r in records
                                 if len(r.rows) > k], dtype=float)
                vals = vals[~np.isnan(vals)]
                if vals.size == 0:
                    cells += ["nan", "nan", "nan"]
                else:
                    cells += [_fmt(np.percentile(vals, p)) for p in (16, 50, 84)]
            fh.write(",".join(cells) + "\n")
    return runs_path, summary_path


def status_counts(records):
    return dict(Counter(r.status for r in records))
