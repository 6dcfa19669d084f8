"""The benchmark's tracer patches igopt's layers by name from outside the
package; this guard fails when a traced name is removed or renamed."""

import importlib.util
from pathlib import Path

import numpy as np

from igopt import engine, experiment, families, fisher, flow, normal, objectives, rng, weights


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_traced_name():
    tracing = _load_tracing()
    owners = [engine, experiment, fisher, flow, normal, objectives, rng, weights]
    owners += [c for c in vars(families).values()
               if isinstance(c, type) and issubclass(c, families.Family)]
    before = {owner: dict(vars(owner)) for owner in owners}
    with tracing.instrument(tracing.Tracer()) as tracer:
        assert weights.compute_quantile_weights is not before[weights]["compute_quantile_weights"]
        weights.compute_quantile_weights(np.array([3.0, 1.0, 1.0, 2.0]), weights.truncation(0.5))
    assert tracer.counts["weights.groups"] == 3
    for owner, attrs in before.items():
        after = vars(owner)
        assert [k for k, v in attrs.items() if after.get(k) is not v] == [], owner
