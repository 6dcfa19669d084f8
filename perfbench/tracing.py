"""Spans and counters around igopt's layers, recorded from outside the package.

``instrument(tracer)`` replaces igopt's public functions with wrappers for
the duration of a ``with`` block and restores the originals on exit.  A
function is wrapped at every place it is looked up: in its own module (for
calls through the module, and for the module's own global lookups) and in
every module that imports it by name.  Family methods are wrapped on their
classes.

A span records (name, start, end, parent).  A layer's busy time is the
total duration of its outermost spans (a span with no enclosing span of the
same name), and its self time is each span's duration less the part its
child spans cover.  Counters are updated when an outermost span returns,
after its end time is taken.
"""

import functools
import inspect
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from igopt import engine, experiment, families, fisher, flow, normal, objectives, rng, weights


class Tracer:
    """In-memory spans and counters for one traced unit of work."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, outermost]
        self.counts = Counter()
        self._stack = []
        self._depth = {}

    def wrap(self, name, fn, on_return=None):
        """``fn`` recording a span ``name``; ``on_return(tracer, args,
        result)`` runs after each outermost span of that name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = self._depth.get(name, 0)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, depth == 0]
            self._depth[name] = depth + 1
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._depth[name] = depth
            if on_return is not None and depth == 0:
                on_return(self, args, result)
            return result

        return traced

    def count_calls(self, key, fn):
        """``fn`` counting its calls under ``key``, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def busy_and_self(self):
        """Per span name: (busy seconds, self seconds, outermost spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _, outermost), children in zip(self.spans, child_time):
            busy, self_s, calls = out.get(name, (0.0, 0.0, 0))
            if outermost:
                busy += end - start
                calls += 1
            out[name] = (busy, self_s + (end - start - children), calls)
        return out


# -- counters taken at span boundaries -------------------------------------------

def _weight_groups(tracer, args, result):
    # Distinct values = points less the extra members of each tie group.
    n = result.weights.size
    tracer.counts["weights.groups"] += n - sum(g.size - 1 for g in result.tie_groups)


def _objective_evals(tracer, args, result):
    tracer.counts["objectives.evals"] += len(result)


def _sample_points(tracer, args, result):
    family, _, n = args[:3]
    tracer.counts["families.sample.points"] += n
    burn_in = getattr(family, "burn_in", None)
    if burn_in is not None:
        tracer.counts["families.gibbs_sweeps"] += n * (burn_in + 1)


def _reliability(tracer, args, result):
    tracer.counts["fisher.checks"] += 1
    tracer.counts["fisher.passes"] += result == "pass"


def _engine_step(tracer, args, result):
    tracer.counts["engine.steps"] += 1


def _flow_groups(tracer, args, result):
    tracer.counts["flow.groups"] += np.unique(result[2]).size


def _csv_bytes(tracer, args, result):
    tracer.counts["experiment.csv.bytes"] += sum(os.path.getsize(p) for p in result)


# (span name, functions, modules that look them up by name, counter)
_FUNCTIONS = [
    ("weights", ["compute_quantile_weights"], [weights, experiment], _weight_groups),
    ("objectives", ["evaluate", "noisy_value"], [objectives], _objective_evals),
    ("objectives", ["parse_objective"], [objectives], None),
    ("fisher", ["reliability_check"], [fisher, experiment], _reliability),
    ("fisher", ["solve"], [fisher, experiment], None),
    ("fisher", ["invert"], [fisher], None),
    ("engine", ["igo_step", "vanilla_step", "igo_ml_step", "cem_step", "smoothed_cem_step"],
     [engine, experiment], _engine_step),
    ("engine", ["lift_noisy"], [engine, experiment], None),
    ("engine", ["weighted_ml", "step_diagnostics", "adapt_dt"], [engine], None),
    ("flow.integrate", ["integrate"], [flow], None),
    ("flow.rhs", ["flow_rhs"], [flow], None),
    ("flow.weights", ["exact_weights_all"], [flow], _flow_groups),
    ("flow.weights", ["exact_weight"], [flow], None),
    ("flow.quantile", ["batch_quantile"], [flow, experiment], None),
    ("flow.quantile", ["f_quantile"], [flow], None),
    ("flow.constants", ["gaussian_linear_constants", "critical_dt"], [flow], None),
    ("normal", ["phi", "Phi_inv"], [normal, flow], None),
    ("normal", ["Phi"], [normal], None),
    ("experiment", ["parse_config", "run_experiment", "single_run"], [experiment], None),
    ("experiment.csv", ["write_csv_outputs"], [experiment], _csv_bytes),
]

# (span name, family methods, counter)
_METHODS = [
    ("families.sample", ["sample"], _sample_points),
    ("families.score", ["grad_log_density", "natural_grad_log_density"], None),
    ("families.fisher", ["fisher"], None),
    ("families.kl", ["exact_kl"], None),
    ("families.density", ["log_density"], None),
    ("families.stats", ["sufficient_stats", "to_expectation", "from_expectation"], None),
]

_COUNTED = [("rng.substream.calls", "substream", [rng, experiment])]


def _family_classes():
    return [c for c in vars(families).values()
            if isinstance(c, type) and issubclass(c, families.Family) and c is not families.Family]


@contextmanager
def instrument(tracer):
    """Wrap igopt's layers with ``tracer`` inside the block."""
    originals = []

    def patch(owner, attr, wrapper):
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        for name, attrs, modules, counter in _FUNCTIONS:
            for attr in attrs:
                for module in modules:
                    patch(module, attr, tracer.wrap(name, getattr(module, attr), counter))
        for name, methods, counter in _METHODS:
            for cls in _family_classes():
                for method in methods:
                    if inspect.isfunction(vars(cls).get(method)):
                        patch(cls, method, tracer.wrap(name, vars(cls)[method], counter))
        for key, attr, modules in _COUNTED:
            for module in modules:
                patch(module, attr, tracer.count_calls(key, getattr(module, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """The per-layer metrics of one traced unit, by name."""
    spans = tracer.busy_and_self()
    counts = tracer.counts

    def busy(name):
        return spans.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return spans.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return spans.get(name, (0.0, 0.0, 0))[2]

    checks = counts["fisher.checks"]
    return {
        "weights.busy_s": busy("weights"),
        "weights.calls": calls("weights"),
        "weights.groups": counts["weights.groups"],
        "objectives.busy_s": busy("objectives"),
        "objectives.evals": counts["objectives.evals"],
        "families.sample.busy_s": busy("families.sample"),
        "families.sample.points": counts["families.sample.points"],
        "families.gibbs_sweeps": counts["families.gibbs_sweeps"],
        "families.kl.busy_s": busy("families.kl"),
        "families.kl.calls": calls("families.kl"),
        "families.fisher.busy_s": busy("families.fisher"),
        "families.fisher.calls": calls("families.fisher"),
        "families.score.busy_s": busy("families.score"),
        "fisher.busy_s": busy("fisher"),
        "fisher.checks": checks,
        # no check run means no Monte-Carlo batch wasted
        "fisher.pass_ratio": counts["fisher.passes"] / checks if checks else 1.0,
        "engine.self_s": self_s("engine"),
        "engine.steps": counts["engine.steps"],
        "flow.weights.busy_s": busy("flow.weights"),
        "flow.groups": counts["flow.groups"],
        "flow.rhs.calls": calls("flow.rhs"),
        "flow.quantile.busy_s": busy("flow.quantile"),
        "normal.busy_s": busy("normal"),
        "normal.calls": calls("normal"),
        "experiment.self_s": self_s("experiment"),
        "experiment.csv.busy_s": busy("experiment.csv"),
        "experiment.csv.bytes": counts["experiment.csv.bytes"],
        "rng.substream.calls": counts["rng.substream.calls"],
    }
