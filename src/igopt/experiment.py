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
it, as do objective values that are not all finite (``failed_nonfinite``).
These statuses are recorded in the run record, never raised.
"""

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import objectives as objectives_mod
from . import rng as rng_mod
from .engine import (
    cem_step,
    igo_ml_step,
    igo_step,
    lift_noisy,
    smoothed_cem_step,
    step_diagnostics,
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
from .objectives import (COUNT, FINITE, INT, NUMBER, SCALE, TEXT, Option, check_value,
                         finite_numbers, parse_spec, read_value)
from .rng import spawn_run_seed, substream
from .weights import (
    Pbil,
    compute_quantile_weights,
    pbil_schedule,
    schedule_variance,
    signed_median,
    table,
    truncation,
)

__all__ = ["ExperimentConfig", "RunRecord", "StepRow", "parse_config",
           "run_experiment", "write_csv", "write_csv_outputs", "status_counts",
           "CSV_SCHEMA_VERSION"]

CSV_SCHEMA_VERSION = 1
# the most float entries a config may ask for: a sample batch (n * dim), the
# Monte-Carlo Fisher batch (m * dim_theta) or the kept theta trajectories
# (repeats * (steps + 1) * dim_theta); 128 MiB as float64
MAX_ENTRIES = 2**24
# the most Gibbs sweeps before an RBM draw (1,000 times the default); it
# applies only to shapes that sample by Gibbs, yet is checked for every config
MAX_GIBBS_BURN_IN = 100_000
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
BOOL = (lambda v: _BOOL_WORDS[v.lower()], "true or false")
NON_NEGATIVE = (lambda k: k >= 0, ">= 0")
# the CSV files go into the output directory itself
FILE_PREFIX = (lambda p: not {os.sep, "/"} & set(p), "a file name prefix with no path separator")


def key(kind, default=MISSING, valid=None):
    """A config dataclass field whose key reads as ``Option(kind, default, valid)``."""
    return field(default=default, metadata={"option": Option(kind, default, valid)})


@dataclass
class ExperimentConfig:
    family: str = key(TEXT, "")
    objective: str = key(TEXT, "")
    scheme: str = key(TEXT, "truncation:q0=0.5")
    algorithm: str = key(TEXT, "igo")
    fisher: str = key(TEXT, "exact")
    n: int = key(INT, 100, COUNT)
    dt: float = key(NUMBER, 0.1, SCALE)
    steps: int = key(INT, 100, NON_NEGATIVE)
    seed: int = key(INT, 1)
    repeats: int = key(INT, 1, COUNT)
    stop: str = key(TEXT, "steps")  # steps | both_optima | target:<value>
    gibbs_burn_in: int = key(INT, 100, (lambda k: 0 <= k <= MAX_GIBBS_BURN_IN,
                                        f"in [0, MAX_GIBBS_BURN_IN = {MAX_GIBBS_BURN_IN}]"))
    lift_noisy: bool = key(BOOL, False)
    workers: int = key(INT, 1, COUNT)
    out_prefix: str = key(TEXT, "experiment", FILE_PREFIX)
    paper_scale: bool = key(BOOL, False)
    concentration_stop: int = key(INT, 0, NON_NEGATIVE)  # steps of pinned hidden unit

    def validate(self):
        check_keys(self)
        if self.algorithm not in STEPS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        m = _fisher_sample_count(self.fisher)
        if not (self.stop in ("steps", "both_optima") or _stop_target(self) is not None):
            raise ValueError(f"unknown stop rule {self.stop!r}")
        rng = np.random.default_rng(0)  # stands in for the run's streams
        fam, _, obj, scheme, _ = _setup(self, rng, rng)
        if scheme.kind == "pbil" and scheme.mu > self.n:
            raise ValueError(f"{self.scheme!r}: option mu must be at most n = {self.n}, "
                             f"got {scheme.mu}")
        if self.stop == "both_optima" and obj.kind != "two_min":
            raise ValueError(f"stop = both_optima needs a noise-free two_min objective, "
                             f"got {self.objective!r}")
        if self.concentration_stop and not isinstance(fam, JointRbmFamily):
            raise ValueError(f"concentration_stop watches the hidden unit of an rbm family, "
                             f"got {self.family!r}")
        for what, entries in (("n * dim", self.n * fam.dim),
                              ("fisher m * dim_theta", m * fam.dim_theta),
                              ("repeats * (steps + 1) * dim_theta",
                               self.repeats * (self.steps + 1) * fam.dim_theta)):
            if entries > MAX_ENTRIES:
                raise ValueError(f"{what} = {entries} is above the cap of "
                                 f"MAX_ENTRIES = 2^24 = {MAX_ENTRIES}")
        if self.fisher != "exact" and m < max(2, fam.dim_theta):
            raise ValueError(f"fisher sample count {m} below {max(2, fam.dim_theta)}: each "
                             "half of the batch needs a row, and the estimate needs "
                             f"dim_theta = {fam.dim_theta} rows to be invertible")
        if not m and isinstance(fam, (JointRbmFamily, MarginalRbmFamily)):
            try:
                fam.check_fisher()
            except CapabilityError as err:
                raise ValueError(f"fisher = exact: {err}; use fisher = mc:m=...") from None
        return self


def read_config(text, cls, name="config"):
    """The values by key of flat config text for the config dataclass ``cls``:
    ``#`` comments, one ``key = value`` line per key, each key once, converted
    as its field declares; a missing required key is refused as ``name``'s."""
    options = {f.name: f.metadata["option"] for f in fields(cls)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = map(str.strip, line.partition("="))
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in options:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = read_value(key, options[key], val)
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    for key, option in options.items():
        if option.default is MISSING and key not in values:
            raise ValueError(f"{name} needs {key!r}")
    return values


def check_keys(cfg):
    """Check each field of the config dataclass ``cfg`` against its key's range."""
    for f in fields(cfg):
        check_value(f.name, f.metadata["option"], getattr(cfg, f.name))


# full-protocol defaults under paper_scale: 40 visible units, 10,000 objective
# calls per step, 100 repeats, and a two_min objective of the family's n_x
PAPER_SCALE = {"family": "rbm:n_x=40,n_h=1", "n": 10000, "fisher": "mc:m=10000", "repeats": 100}


def parse_config(text):
    """Parse flat ``key = value`` config text; unknown keys are rejected."""
    values = read_config(text, ExperimentConfig)
    if values.get("paper_scale"):  # the keys the config gives win
        values = {**PAPER_SCALE, **values}
        if "objective" not in values:
            d = parse_spec(values["family"], FAMILIES, _UNKNOWN_FAMILY)[1].get("n_x", 40)
            values["objective"] = f"two_min:d={d},per_run=1"
    return ExperimentConfig(**values).validate()


# -- spec-string builders ------------------------------------------------------
# Each spec kind's options, by name, as parse_spec reads them.

_DIM = Option(INT, valid=COUNT)
_P0 = Option(NUMBER, 0.5, (lambda p: 0.0 < p < 1.0, "in (0, 1)"))
_M0 = Option(NUMBER, 0.0, FINITE)
FAMILIES = {
    **dict.fromkeys(("rbm", "rbm_marginal"), {"n_x": _DIM, "n_h": Option(INT, 1, COUNT)}),
    **dict.fromkeys(("bernoulli", "bernoulli_logit"), {"d": _DIM, "p0": _P0}),
    **dict.fromkeys(("gaussian", "gaussian_iso"),
                    {"d": _DIM, "m0": _M0, "sigma0": Option(NUMBER, 1.0, SCALE)}),
    "gaussian_mean": {"d": _DIM, "m0": _M0},
}
_UNKNOWN_FAMILY = "unknown family spec {spec!r}"
_SHIFT = {"shift": Option(NUMBER, 0.0, FINITE)}
SCHEMES = {
    "truncation": {"q0": Option(NUMBER, 0.5, FINITE), **_SHIFT},
    "signed_median": _SHIFT,
    # nodes=q:v;q:v;...  e.g. table:nodes=0:2;0.25:1;0.5:0
    "table": {"nodes": Option((lambda text: [finite_numbers(p, ":") for p in text.split(";")],
                               "q:v pairs of finite numbers separated by ';'")), **_SHIFT},
    "pbil": {"mu": Option(INT, 1, COUNT), "lr": Option(NUMBER, valid=(
        lambda r: 0.0 < r <= 1.0, "in (0, 1]"))},
}
FISHERS = {"exact": {}, "mc": {"m": Option(INT)}}


def _fisher_sample_count(spec):
    """Monte-Carlo Fisher sample count of a ``fisher`` spec; 0 for exact."""
    return parse_spec(spec, FISHERS, "bad fisher spec {spec!r}; expected exact or "
                      "mc:m=<count>")[1].get("m", 0)


def parse_family(spec, burn_in, rng):
    """The family of a family ``spec`` and its start; ``rng`` draws an RBM's,
    which takes ``burn_in`` Gibbs sweeps per draw."""
    kind, o = parse_spec(spec, FAMILIES, _UNKNOWN_FAMILY)
    if kind in ("rbm", "rbm_marginal"):
        rbm = JointRbmFamily if kind == "rbm" else MarginalRbmFamily
        family = rbm(o["n_x"], o["n_h"], burn_in=burn_in)
        return family, family.init_params(rng)
    d = o["d"]
    if kind == "gaussian_mean":
        return MeanGaussianFamily(d), o["m0"] * np.ones(d)
    try:
        if kind == "bernoulli":
            family, theta = BernoulliFamily(d), o["p0"] * np.ones(d)
        elif kind == "bernoulli_logit":
            family = LogitBernoulliFamily(d)
            theta = family.from_probabilities(o["p0"] * np.ones(d))
        elif kind == "gaussian":
            family, var = FullGaussianFamily(d), o["sigma0"] * o["sigma0"]
            if not 0.0 < var < math.inf:
                raise DomainError(f"sigma0 = {o['sigma0']!r} puts sigma^2 outside the floats")
            theta = family.pack(GaussianParams(o["m0"] * np.ones(d), var * np.eye(d)))
        else:
            family = IsotropicGaussianFamily(d)
            theta = np.concatenate([o["m0"] * np.ones(d), [math.log(o["sigma0"])]])
        family.check_domain(theta)
    except DomainError as err:
        raise ValueError(f"{spec!r}: {err}") from None
    return family, theta


def _stop_target(cfg):
    """The value that ends a run under ``stop = target:<value>``, else None."""
    kind, _, value = cfg.stop.partition(":")
    if kind != "target":
        return None
    try:
        (target,) = finite_numbers(value)
    except ValueError:
        raise ValueError(f"stop target must be a finite number, got {value!r}") from None
    return target


def _setup(cfg, objective_rng, init_rng):
    """Family, starting theta, objective, weight scheme and step part of one
    run; raises ValueError when they do not fit together."""
    family, theta = parse_family(cfg.family, cfg.gibbs_burn_in, init_rng)
    obj = objectives_mod.parse_objective(cfg.objective, rng=objective_rng)
    if obj.dim != family.dim:
        raise ValueError(f"objective dimension {obj.dim} does not match "
                         f"the family's {family.dim}")
    if cfg.lift_noisy and obj.kind != "noisy":
        raise ValueError("lift_noisy needs a noisy objective")
    scheme = parse_scheme(cfg.scheme)
    needs, make = STEPS[cfg.algorithm]
    missing = needs - (lift_noisy(family) if cfg.lift_noisy else family).capabilities
    if missing:
        raise ValueError(f"algorithm {cfg.algorithm} needs a family with "
                         f"{', '.join(sorted(missing))}; {cfg.family} has none")
    return family, theta, obj, scheme, make(cfg, scheme)


def parse_scheme(spec):
    """The WeightScheme, or Pbil record, of a scheme ``spec``; a WeightScheme's
    w must have a finite second moment."""
    kind, o = parse_spec(spec, SCHEMES, "unknown scheme spec {spec!r}")
    if kind == "pbil":
        return Pbil(o["mu"], o["lr"])
    if kind == "truncation":
        scheme = truncation(o["q0"], shift=o["shift"])
    elif kind == "signed_median":
        scheme = signed_median(shift=o["shift"])
    else:
        scheme = table(o["nodes"], shift=o["shift"])
    if not math.isfinite(scheme.second_moment()):  # the square of w overflows
        raise ValueError(f"{spec!r}: the mean of w^2 is not a finite float")
    return scheme


# -- run records ---------------------------------------------------------------

@dataclass
class StepRow:
    """One step of a repeat; its fields, in order, are the runs-CSV columns
    between run_id and status."""

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
    """The batch's weights, the variance of w behind them and the values in
    ascending order, all from one sort of the batch."""
    if scheme_obj.kind == "pbil":
        schedule = pbil_schedule(n, scheme_obj.mu, scheme_obj.lr)
        order = np.argsort(values, kind="stable")
        w = np.zeros(n)
        w[order] = schedule
        return w, schedule_variance(schedule), values[order]
    rw = compute_quantile_weights(values, scheme_obj)
    return rw.weights, scheme_obj.variance(), rw.sorted_values


def single_run(cfg, run_id):
    """Execute one repeat; returns its RunRecord."""
    run_seed = spawn_run_seed(cfg.seed, run_id)
    family, theta, obj, scheme_obj, part = _setup(
        cfg, substream(run_seed, 0, rng_mod.OBJECTIVE), substream(run_seed, 0, rng_mod.INIT))
    joint_rbm = isinstance(family, JointRbmFamily)
    if cfg.lift_noisy:
        family = lift_noisy(family)

    record = RunRecord(run_id, run_seed)
    record.thetas.append(np.array(theta, dtype=float, copy=True))
    mc_count = _fisher_sample_count(cfg.fisher)
    two_min_y = obj.params["y"] if obj.kind == "two_min" else None
    target = _stop_target(cfg)
    q_report = scheme_obj.q0 if scheme_obj.kind == "truncation" else 0.5
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
        points = family.points_of(samples)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow ends the run below
            if cfg.lift_noisy:
                values = objectives_mod.noisy_value(obj, points, samples[1])
                base_samples = samples[0]
            else:
                values = objectives_mod.evaluate(obj, points, rng)
                base_samples = samples
        if not np.isfinite(values).all():
            # no rank exists once an objective value overflows or is NaN
            record.status = "failed_nonfinite"
            break
        weights, record.weight_variance, ranked = _weights_for(values, scheme_obj, cfg.n)

        fm = None
        reliability = "exact"
        if mc_count:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                fm = mc_fisher(family, theta, mc_count,
                               substream(run_seed, step, rng_mod.FISHER))
            if not np.isfinite(fm.matrix).all():  # the scores' products overflow
                record.status = "failed_singular"
                break
            reliability = fm.reliability
            # only the natural gradient steps on the estimate itself
            if cfg.algorithm == "igo" and reliability == "fail":
                record.status = "failed_unreliable"
                break

        try:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                new_theta = family.project(
                    part(family, theta, samples, values, weights, cfg.dt, fm))
            if not np.isfinite(new_theta).all():
                raise DegenerateUpdate("the update left the floats")
            report = step_diagnostics(family, theta, new_theta, fisher=fm, samples=samples)
        except (SingularFisher, DegenerateUpdate, DomainError, np.linalg.LinAlgError):
            # a degenerate parameter state (one LAPACK finds singular too) has
            # the same operational meaning as a singular Fisher matrix: the
            # run cannot continue, and an update that left the domain writes
            # no row
            record.status = "failed_singular"
            break
        if two_min_y is not None:
            # each point's distances to the optimum y and to its complement
            dists = (np.abs(points - two_min_y).sum(axis=1),
                     np.abs(points - (1 - two_min_y)).sum(axis=1))

        record.rows.append(StepRow(
            step=step,
            time=(step + 1) * cfg.dt,
            best_f=float(values.min()),
            f_quantile=batch_quantile(ranked, q_report),
            dist_second=(_dist_second(dists, values)
                         if two_min_y is not None else float("nan")),
            mean_hidden=(float(np.asarray(base_samples[1], dtype=float).mean())
                         if joint_rbm else float("nan")),
            kl=report.kl_estimate,
            kl_stderr=report.kl_stderr,
            speed_norm=report.fisher_step_norm,
            reliability=reliability,
            dt=cfg.dt,
        ))
        theta = new_theta
        record.thetas.append(np.array(theta, dtype=float, copy=True))
        del samples, points, base_samples  # this batch dies before the next is drawn

        if two_min_y is not None and cfg.stop == "both_optima":
            seen_optima = [seen or d.min() == 0 for seen, d in zip(seen_optima, dists)]
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


def _blend(cfg, scheme):
    """Refuse what the blending steps cannot take: theirs is a convex weight
    dt of the weighted average, whose weights must have a positive sum."""
    if cfg.dt > 1.0:
        raise ValueError(f"{cfg.algorithm} needs dt in (0, 1], got {cfg.dt:g}")
    if scheme.kind != "pbil" and not scheme.mean() > 0.0:
        raise ValueError(f"{cfg.algorithm} needs a scheme whose w has a positive mean, "
                         f"got {cfg.scheme!r}")


def _igo_ml(cfg, scheme):
    _blend(cfg, scheme)
    return lambda family, theta, samples, values, weights, dt, fm: igo_ml_step(
        family, theta, samples, weights, dt)


def _cem(cfg, scheme):
    if scheme.kind != "truncation":
        raise ValueError("cem needs a truncation scheme for its elite fraction")
    return lambda family, theta, samples, values, weights, dt, fm: cem_step(
        family, samples, values, scheme.q0)


def _smoothed_cem(cfg, scheme):
    """Blends in the family's own coordinates; in expectation ones it is igo_ml."""
    _blend(cfg, scheme)
    return lambda family, theta, samples, values, weights, dt, fm: smoothed_cem_step(
        family, theta, samples, weights, dt, "natural")


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
    "igo_ml": ({"expectation_params"}, _igo_ml),
    "cem": ({"expectation_params"}, _cem),
    "smoothed_cem": ({"expectation_params"}, _smoothed_cem),
    "cma": ({"mean_cov"}, lambda cfg, scheme: _gaussian_rule("cma")),
    "emna": ({"mean_cov"}, lambda cfg, scheme: _gaussian_rule("emna")),
    "xnes": ({"mean_cov"}, _xnes),
}


def _dist_second(dists, values):
    """Closest approach of the batch to the optimum the search is NOT
    currently exploiting: the first optimum is the one nearest the best
    sample, the second is its complement.  ``dists`` holds each point's
    distances to the two optima."""
    d1, d2 = dists
    best = int(np.argmin(values))
    second = d2 if d1[best] <= d2[best] else d1
    return float(second.min())


# -- batch driver and CSV ------------------------------------------------------

def run_experiment(cfg, out_dir=None):
    """Run all repeats; write CSV files when out_dir is given.  The pool has
    no more workers than repeats or CPUs; the CSV bytes do not depend on it."""
    cfg.validate()
    workers = min(cfg.workers, cfg.repeats, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(single_run, [cfg] * cfg.repeats, range(cfg.repeats)))
    else:
        records = [single_run(cfg, r) for r in range(cfg.repeats)]
    records.sort(key=lambda r: r.run_id)
    if out_dir is not None:
        write_csv_outputs(cfg, records, out_dir)
    return records


_STEP_COLUMNS = [f.name for f in fields(StepRow)]


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.17g}"


def write_csv(directory, name, comment, header, rows):
    """Write ``# comment``, the header and the rows (cells through ``_fmt``) to
    the file ``name`` in ``directory``, made if missing; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n" + ",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_csv_outputs(cfg, records, out_dir):
    runs_path = write_csv(
        out_dir, f"{cfg.out_prefix}_runs.csv",
        f"igopt runs schema v{CSV_SCHEMA_VERSION}; seed={cfg.seed}; algorithm={cfg.algorithm}",
        ["run_id", *_STEP_COLUMNS, "status"],
        ([rec.run_id, *(getattr(row, c) for c in _STEP_COLUMNS), rec.status]
         for rec in records for row in rec.rows))
    quantities = ["best_f", "f_quantile", "dist_second", "mean_hidden", "kl", "speed_norm"]
    max_steps = max((len(r.rows) for r in records), default=0)
    # (quantity, repeat, step), NaN past a repeat's last step
    grid = np.full((len(quantities), len(records), max_steps), np.nan)
    for r, rec in enumerate(records):
        for k, row in enumerate(rec.rows):
            grid[:, r, k] = [getattr(row, q) for q in quantities]
    pct = _percentiles(grid, (16, 50, 84))  # (percentile, quantity, step)
    return runs_path, write_csv(
        out_dir, f"{cfg.out_prefix}_summary.csv",
        f"igopt summary schema v{CSV_SCHEMA_VERSION}; percentiles 16/50/84 across repeats",
        ["step"] + [f"{q}_p{p}" for q in quantities for p in (16, 50, 84)],
        ([k, *pct[:, :, k].T.ravel()] for k in range(max_steps)))


def _percentiles(grid, q):
    """``np.nanpercentile(grid, q, axis=1)`` of a (quantity, repeat, step)
    grid, bit for bit: one ``np.percentile`` call over the (quantity, step)
    cells without NaN, ``np.nanpercentile`` per cell for the rest, and NaN
    without a warning for a cell that holds no value."""
    cells = np.moveaxis(grid, 1, -1)  # (quantity, step, repeat)
    full = ~np.isnan(cells).any(axis=-1)
    out = np.full((len(q), *full.shape), np.nan)
    if full.any():
        out[:, full] = np.percentile(cells[full], q, axis=-1)
    for i, k in zip(*np.nonzero(~full)):
        if not np.isnan(cells[i, k]).all():
            out[:, i, k] = np.nanpercentile(cells[i, k], q)
    return out


def status_counts(records):
    return dict(Counter(r.status for r in records))
