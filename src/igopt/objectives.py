"""Benchmark objectives on bitstrings and real vectors.

Everything is minimized.  ``two_min`` is the bimodal bitstring objective
min(|x - y|_1, |complement(x) - y|_1) with optima at y and its complement;
``onemax`` is minimized as d - sum(x); ``linear`` is c - alpha . x.

Monotone wrappers apply a registered strictly increasing transform, which
must leave rank-based weights untouched.  Noisy wrappers draw a fresh noise
variable per evaluation from a caller-supplied stream; their canonical form
is the deterministic two-argument function f(x, omega) used by the noisy-
coupling construction.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Objective", "evaluate", "monotone_transform", "parse_objective",
           "parse_spec", "PHI_REGISTRY"]


@dataclass
class Objective:
    kind: str               # onemax | linear | sphere | two_min | transformed | noisy
    space: str              # "bits" | "reals"
    dim: int
    params: dict = field(default_factory=dict)
    base: "Objective" = None

    @property
    def optimum_value(self):
        """Known minimal value, or None."""
        if self.kind in ("onemax", "two_min", "sphere"):
            return 0.0
        if self.kind == "linear":
            if self.space == "bits":
                return self.params["c"] - float(np.sum(self.params["alpha"]))
            return None
        if self.kind == "transformed":
            base_opt = self.base.optimum_value
            return None if base_opt is None else _apply_phi(self.params["phi"], base_opt)
        if self.kind == "noisy":
            return self.base.optimum_value
        return None


PHI_REGISTRY = {
    "cube": lambda v: v**3,
    "scaled_shift": lambda v: 2.0 * v + 7.0,
    "signed_power": lambda v: np.sign(v) * np.abs(v) ** (1.0 / 3.0),  # f |f|^(-2/3)
}


def _apply_phi(name, values):
    return PHI_REGISTRY[name](values)


def evaluate(obj, x, rng=None):
    """Evaluate a batch of points (rows); returns a value per row.

    Noisy objectives need ``rng`` and consume exactly one uniform draw per
    row, in row order.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != obj.dim:
        raise ValueError(f"expected points of dimension {obj.dim}, got {x.shape[1]}")

    if obj.kind == "onemax":
        return obj.dim - x.sum(axis=1)
    if obj.kind == "linear":
        return obj.params["c"] - x @ obj.params["alpha"]
    if obj.kind == "sphere":
        dev = x - obj.params["center"]
        return (dev * dev).sum(axis=1)
    if obj.kind == "two_min":
        y = obj.params["y"]
        d1 = np.abs(x - y).sum(axis=1)
        d2 = np.abs((1.0 - x) - y).sum(axis=1)
        return np.minimum(d1, d2)
    if obj.kind == "transformed":
        return _apply_phi(obj.params["phi"], evaluate(obj.base, x, rng))
    if obj.kind == "noisy":
        if rng is None:
            raise ValueError("noisy objectives need an rng stream")
        omega = rng.random(x.shape[0])
        return noisy_value(obj, x, omega)
    raise ValueError(f"unknown objective kind: {obj.kind!r}")


def noisy_value(obj, x, omega):
    """Deterministic two-argument form f(x, omega) of a noisy objective."""
    base = evaluate(obj.base, x)
    kind = obj.params["noise"]
    scale = obj.params.get("scale", 1.0)
    if kind == "uniform":
        return base + scale * omega
    if kind == "gaussian":
        # Push the uniform seed through the normal quantile transform.
        from .normal import Phi_inv
        return base + scale * Phi_inv(np.clip(omega, 1e-15, 1.0 - 1e-15))
    raise ValueError(f"unknown noise kind: {kind!r}")


def monotone_transform(obj, phi):
    """Wrap with a registered strictly increasing transform."""
    if phi not in PHI_REGISTRY:
        raise ValueError(f"unknown transform {phi!r}; known: {sorted(PHI_REGISTRY)}")
    return Objective("transformed", obj.space, obj.dim, {"phi": phi}, base=obj)


def add_noise(obj, noise="uniform", scale=1.0):
    return Objective("noisy", obj.space, obj.dim, {"noise": noise, "scale": scale}, base=obj)


# Builders -------------------------------------------------------------------

def onemax(d):
    return Objective("onemax", "bits", d)


def linear(alpha, c=0.0, space="reals"):
    alpha = np.asarray(alpha, dtype=float)
    return Objective("linear", space, alpha.size, {"alpha": alpha, "c": float(c)})


def sphere(d, center=None):
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    return Objective("sphere", "reals", d, {"center": center})


def two_min(y):
    y = np.asarray(y, dtype=float)
    return Objective("two_min", "bits", y.size, {"y": y})


def two_min_random(d, rng):
    return two_min((rng.random(d) < 0.5).astype(float))


class _Options(dict):
    """The options of a spec string; asking for a missing one is a config error."""

    def __missing__(self, key):
        raise ValueError(f"{self.spec!r} needs option {key!r}")


def parse_spec(spec):
    """Split a spec string ``kind[:key=value,...]`` (the grammar of every
    family, objective, scheme and table spec) into its kind and options."""
    kind, _, rest = spec.partition(":")
    opts = _Options()
    opts.spec = spec
    if rest:
        for item in rest.split(","):
            k, sep, v = item.partition("=")
            if not sep:
                raise ValueError(f"bad option {item!r} in {spec!r}")
            opts[k.strip()] = v.strip()
    return kind.strip(), opts


def parse_objective(spec, rng=None):
    """Parse a CLI objective string, e.g. ``two_min:d=16,seed=7``.

    Grammar: ``kind[:key=value,...]``.  Keys: d (dimension); onemax: none;
    linear: alpha (single value broadcast or comma-free list via alpha=1)
    and c; sphere: center (scalar broadcast); two_min: seed (y drawn from
    that seed) or per_run=1 (y drawn from the provided run stream); noise
    and noise_scale wrap any kind; phi applies a monotone transform.
    """
    kind, kv = parse_spec(spec)
    d = int(kv.pop("d", 0))
    noise = kv.pop("noise", None)
    noise_scale = float(kv.pop("noise_scale", 1.0))
    phi = kv.pop("phi", None)

    if kind == "onemax":
        obj = onemax(d)
    elif kind == "linear":
        alpha = float(kv.pop("alpha", 1.0)) * np.ones(d)
        obj = linear(alpha, float(kv.pop("c", 0.0)), space=kv.pop("space", "reals"))
    elif kind == "sphere":
        center = float(kv.pop("center", 0.0)) * np.ones(d)
        obj = sphere(d, center)
    elif kind == "two_min":
        if "seed" in kv:
            from .rng import substream
            y_rng = substream(int(kv.pop("seed")), 0)
            obj = two_min_random(d, y_rng)
        elif kv.pop("per_run", None):
            if rng is None:
                raise ValueError("per_run two_min needs a run stream")
            obj = two_min_random(d, rng)
        else:
            raise ValueError("two_min needs seed=... or per_run=1")
    else:
        raise ValueError(f"unknown objective kind {kind!r}")
    if kv:
        raise ValueError(f"unknown objective options: {sorted(kv)}")
    if phi is not None:
        obj = monotone_transform(obj, phi)
    if noise is not None:
        obj = add_noise(obj, noise, noise_scale)
    return obj
