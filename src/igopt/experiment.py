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
from .families.bernoulli import bernoulli_igo_update
from .fisher import FisherMatrix, reliability_check, solve
from .flow import batch_quantile
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

ALGORITHMS = ("igo", "igo_ml", "cem", "smoothed_cem", "cma", "emna", "xnes",
              "vanilla_gradient")


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
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.n < 1 or self.steps < 0 or self.repeats < 1:
            raise ValueError("n, steps, repeats must be positive")
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if self.gibbs_burn_in < 0:
            raise ValueError("gibbs_burn_in must be non-negative")
        if not (self.fisher == "exact" or self.fisher.startswith("mc:")):
            raise ValueError(f"unknown fisher mode {self.fisher!r}")
        if not (self.stop in ("steps", "both_optima") or self.stop.startswith("target:")):
            raise ValueError(f"unknown stop rule {self.stop!r}")
        fam = _build_family(self)
        if self.fisher.startswith("mc:"):
            m = _fisher_sample_count(self.fisher)
            if m < fam.dim_theta:
                raise ValueError(
                    f"fisher sample count {m} below dim_theta = {fam.dim_theta}; "
                    "a rank-1-sum estimate cannot be invertible")
        if self.fisher == "exact" and isinstance(fam, (JointRbmFamily, MarginalRbmFamily)):
            if fam.n_x + fam.n_h > 20:
                raise ValueError("exact Fisher needs n_x + n_h <= 20; use fisher = mc:m=...")
        _parse_scheme(self.scheme)
        return self


_BOOL_KEYS = {"lift_noisy", "paper_scale"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_NUMBER_KEYS = {**dict.fromkeys(("n", "steps", "seed", "repeats", "gibbs_burn_in", "workers",
                                  "concentration_stop"), (int, "an integer")),
                "dt": (float, "a number")}


def parse_config(text):
    """Parse flat ``key = value`` config text; unknown keys are rejected."""
    known = {f.name for f in fields(ExperimentConfig)}
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
        if key in _BOOL_KEYS:
            if val.lower() not in _BOOL_WORDS:
                raise ValueError(f"line {lineno}: {key} must be true or false, got {val!r}")
            values[key] = _BOOL_WORDS[val.lower()]
        elif key in _NUMBER_KEYS:
            convert, kind = _NUMBER_KEYS[key]
            try:
                values[key] = convert(val)
            except ValueError:
                raise ValueError(f"line {lineno}: {key} must be {kind}, got {val!r}") from None
        else:
            values[key] = val
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
        d = int(_kv(cfg.family)[1].get("n_x", 40))
        cfg.objective = f"two_min:d={d},per_run=1"
    if "n" not in given:
        cfg.n = 10000
    if "fisher" not in given:
        cfg.fisher = "mc:m=10000"
    if "repeats" not in given:
        cfg.repeats = 100


def _fisher_sample_count(spec):
    kind, opts = _kv(spec)
    if kind != "mc" or "m" not in opts:
        raise ValueError(f"bad fisher spec {spec!r}; expected mc:m=<count>")
    return int(opts["m"])


# -- spec-string builders ------------------------------------------------------

def _kv(spec):
    kind, _, rest = spec.partition(":")
    opts = {}
    if rest:
        for item in rest.split(","):
            k, sep, v = item.partition("=")
            if not sep:
                raise ValueError(f"bad option {item!r} in {spec!r}")
            opts[k.strip()] = v.strip()
    return kind.strip(), opts


def _build_family(cfg):
    kind, opts = _kv(cfg.family)
    if kind == "bernoulli":
        return BernoulliFamily(int(opts["d"]))
    if kind == "bernoulli_logit":
        return LogitBernoulliFamily(int(opts["d"]))
    if kind == "gaussian":
        return FullGaussianFamily(int(opts["d"]))
    if kind == "gaussian_iso":
        return IsotropicGaussianFamily(int(opts["d"]))
    if kind == "gaussian_mean":
        return MeanGaussianFamily(int(opts["d"]))
    if kind == "rbm":
        return JointRbmFamily(int(opts["n_x"]), int(opts.get("n_h", 1)),
                              burn_in=cfg.gibbs_burn_in)
    if kind == "rbm_marginal":
        return MarginalRbmFamily(int(opts["n_x"]), int(opts.get("n_h", 1)),
                                 burn_in=cfg.gibbs_burn_in)
    raise ValueError(f"unknown family spec {cfg.family!r}")


def _init_theta(cfg, family, rng):
    kind, opts = _kv(cfg.family)
    if kind == "bernoulli":
        return float(opts.get("p0", 0.5)) * np.ones(family.dim)
    if kind == "bernoulli_logit":
        p0 = float(opts.get("p0", 0.5)) * np.ones(family.dim)
        return LogitBernoulliFamily.from_probabilities(p0)
    if kind == "gaussian":
        d = family.dim
        m0 = float(opts.get("m0", 0.0)) * np.ones(d)
        s0 = float(opts.get("sigma0", 1.0))
        return family.pack(GaussianParams(m0, s0**2 * np.eye(d)))
    if kind == "gaussian_iso":
        m0 = float(opts.get("m0", 0.0)) * np.ones(family.dim)
        return np.concatenate([m0, [math.log(float(opts.get("sigma0", 1.0)))]])
    if kind == "gaussian_mean":
        return float(opts.get("m0", 0.0)) * np.ones(family.dim)
    return family.init_params(rng)  # rbm variants


def _parse_scheme(spec):
    kind, opts = _kv(spec)
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


def _report_quantile(scheme_obj):
    if not isinstance(scheme_obj, tuple) and scheme_obj.kind == "truncation":
        return scheme_obj.q0
    return 0.5


def _base_of(family):
    return family.base if hasattr(family, "base") else family


def _is_rbm(family):
    return isinstance(_base_of(family), (JointRbmFamily, MarginalRbmFamily))


def single_run(cfg, run_id):
    """Execute one repeat; returns its RunRecord."""
    run_seed = spawn_run_seed(cfg.seed, run_id)
    family = _build_family(cfg)
    obj = objectives_mod.parse_objective(
        cfg.objective, rng=substream(run_seed, 0, rng_mod.OBJECTIVE))
    scheme_obj = _parse_scheme(cfg.scheme)
    theta = _init_theta(cfg, family, substream(run_seed, 0, rng_mod.INIT))
    if cfg.lift_noisy:
        if obj.kind != "noisy":
            raise ValueError("lift_noisy needs a noisy objective")
        family = lift_noisy(family)

    record = RunRecord(run_id, run_seed)
    record.thetas.append(np.array(theta, dtype=float, copy=True))
    joint_rbm = isinstance(family, JointRbmFamily)
    mc_mode = cfg.fisher.startswith("mc:")
    mc_count = _fisher_sample_count(cfg.fisher) if mc_mode else 0
    gate_on_fisher = cfg.algorithm == "igo" and mc_mode
    two_min_y = obj.params["y"] if obj.kind == "two_min" else None
    target = float(cfg.stop.split(":", 1)[1]) if cfg.stop.startswith("target:") else None
    seen_optima = (False, False)
    pinned_steps = 0
    xnes_state = None
    if cfg.algorithm == "xnes":
        params = FullGaussianFamily(_base_of(family).dim).unpack(theta)
        xnes_state = GaussianSqrtParams(params.m, np.linalg.cholesky(params.C))

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

        fm = model_stats = None
        reliability = "exact"
        if mc_mode:
            try:
                fm, reliability, model_stats = _estimate_fisher(
                    family, theta, mc_count, run_seed, step)
            except SingularFisher:
                if gate_on_fisher:
                    record.status = "failed_singular"
                    break
                fm, reliability = None, "skipped"
            if gate_on_fisher and reliability == "fail":
                record.status = "failed_unreliable"
                break

        try:
            new_theta, xnes_state = _advance(cfg, family, scheme_obj, theta, samples,
                                             values, weights, fm, model_stats,
                                             xnes_state)
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
            f_quantile=batch_quantile(values, _report_quantile(scheme_obj)),
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


def _estimate_fisher(family, theta, m, run_seed, step):
    """Monte-Carlo Fisher with split-sample cross-validation.

    One batch of m samples is drawn; the two halves give independent
    estimates for the reliability check and the full batch gives the
    estimate actually used.  For RBM families the same batch also provides
    the model-expectation term of the score.
    """
    rng = substream(run_seed, step, rng_mod.FISHER)
    samples = family.sample(theta, m, rng)
    if _is_rbm(family):
        stats = family.sufficient_stats(samples)
        model_stats = stats.mean(axis=0)
        half = m // 2
        f1, f2 = _cov_fisher(stats[:half]), _cov_fisher(stats[half:])
        full = _cov_fisher(stats)
    else:
        model_stats = None
        g = family.grad_log_density(theta, samples)
        half = m // 2
        f1 = FisherMatrix(g[:half].T @ g[:half] / half, "monte_carlo", half)
        f2 = FisherMatrix(g[half:].T @ g[half:] / (m - half), "monte_carlo", m - half)
        full = FisherMatrix(g.T @ g / m, "monte_carlo", m)
    verdict = reliability_check(f1, f2)
    full.reliability = verdict
    full.mean_eigenvalue = f1.mean_eigenvalue
    return full, verdict, model_stats


def _cov_fisher(stats_matrix):
    mean = stats_matrix.mean(axis=0)
    dev = stats_matrix - mean
    return FisherMatrix(dev.T @ dev / dev.shape[0], "monte_carlo", dev.shape[0])


def _advance(cfg, family, scheme_obj, theta, samples, values, weights, fm,
             model_stats, xnes_state):
    algo = cfg.algorithm
    if algo == "igo":
        if isinstance(_base_of(family), BernoulliFamily):
            bits = samples[0] if cfg.lift_noisy else samples
            return bernoulli_igo_update(theta, bits, weights, cfg.dt), xnes_state
        if model_stats is not None:
            g = family.grad_log_density(theta, samples, model_stats=model_stats)
            return theta + cfg.dt * solve(fm, weights @ g), xnes_state
        return igo_step(family, theta, samples, weights, cfg.dt, fisher=fm), xnes_state
    if algo == "vanilla_gradient":
        if model_stats is not None:
            g = family.grad_log_density(theta, samples, model_stats=model_stats)
            return theta + cfg.dt * (weights @ g), xnes_state
        return vanilla_step(family, theta, samples, weights, cfg.dt), xnes_state
    if algo == "igo_ml":
        return igo_ml_step(family, theta, samples, weights, cfg.dt,
                           on_unnormalized="renormalize"), xnes_state
    if algo == "cem":
        if isinstance(scheme_obj, tuple) or scheme_obj.kind != "truncation":
            raise ValueError("cem needs a truncation scheme for its elite fraction")
        return cem_step(family, samples, values, scheme_obj.q0), xnes_state
    if algo == "smoothed_cem":
        return smoothed_cem_step(family, theta, samples, weights, cfg.dt,
                                 cfg.smoothed_cem_coords), xnes_state
    # Gaussian structured rules
    gfam = FullGaussianFamily(_base_of(family).dim)
    if algo == "xnes":
        new_state = gaussian_step("xnes", xnes_state, samples, weights, dt=cfg.dt)
        return gfam.pack(GaussianParams(new_state.m, new_state.C)), new_state
    params = gfam.unpack(theta)
    if algo == "emna":
        return gfam.pack(gaussian_step("emna", params, samples, weights)), xnes_state
    return gfam.pack(gaussian_step("cma", params, samples, weights, dt=cfg.dt)), xnes_state


def _kl_for(family, theta, new_theta, samples):
    if hasattr(family, "exact_kl"):
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
            records = list(pool.map(_run_one, [(cfg, r) for r in range(cfg.repeats)]))
    else:
        records = [single_run(cfg, r) for r in range(cfg.repeats)]
    records.sort(key=lambda r: r.run_id)
    if out_dir is not None:
        write_csv_outputs(cfg, records, out_dir)
    return records


def _run_one(args):
    cfg, run_id = args
    return single_run(cfg, run_id)


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
    out = {}
    for r in records:
        out[r.status] = out.get(r.status, 0) + 1
    return out
