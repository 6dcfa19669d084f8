"""Benchmark objectives on bitstrings and real vectors.

Everything is minimized.  ``two_min`` is the bimodal bitstring objective
min(|x - y|_1, |complement(x) - y|_1) with optima at y and its complement;
``onemax`` is minimized as d - sum(x); ``linear`` is c - alpha . x, and
``binval`` is the linear objective on bits with alpha_i = 2^-i (up to d = 53
every point has its own value).

Monotone wrappers apply a registered strictly increasing transform, which
must leave rank-based weights untouched.  Noisy wrappers draw a fresh noise
variable per evaluation from a caller-supplied stream; their canonical form
is the deterministic two-argument function f(x, omega) used by the noisy-
coupling construction.
"""

import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, field

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


PHI_REGISTRY = {
    "cube": lambda v: v**3,
    "scaled_shift": lambda v: 2.0 * v + 7.0,
    "signed_power": lambda v: np.sign(v) * np.abs(v) ** (1.0 / 3.0),  # f |f|^(-2/3)
}


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
        return PHI_REGISTRY[obj.params["phi"]](evaluate(obj.base, x, rng))
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


# Config grammar ---------------------------------------------------------------
# A config key or spec option: its type (convert, what the text must be), default
# (MISSING if it is required) and range (holds, what the value must be, or None).
Option = namedtuple("Option", "type default valid", defaults=(MISSING, None))


INT = (int, "an integer")
NUMBER = (float, "a number")
TEXT = (str, "text")
FINITE = (math.isfinite, "a finite number")
COUNT = (lambda v: v >= 1, "at least 1")
SCALE = (lambda v: 0.0 < v < math.inf, "finite and > 0")


def one_of(*words):
    """The range of a word option: one of ``words``."""
    return (lambda v: v in words, " or ".join(words))


def finite_numbers(text, sep=None):
    """The numbers in ``text`` split at ``sep``; a ValueError unless all are finite."""
    values = [float(t) for t in text.split(sep)]
    if not all(map(math.isfinite, values)):
        raise ValueError(text)
    return values


def read_value(name, option, text):
    """``text`` converted to option ``name``'s type; a ValueError says what it must be."""
    convert, what = option.type
    try:
        return convert(text)
    except (ValueError, KeyError):
        raise ValueError(f"{name} must be {what}, got {text!r}") from None


def check_value(name, option, value):
    """``value``, or a ValueError when it is outside option ``name``'s range."""
    if option.valid is not None and not option.valid[0](value):
        raise ValueError(f"{name} must be {option.valid[1]}, got {value!r}")
    return value


def parse_spec(spec, kinds, unknown):
    """The kind of a spec string ``kind[:key=value,...]`` and its options by name,
    read as ``kinds[kind]`` declares them; ``unknown`` formats the refusal of a
    kind ``kinds`` lacks from ``spec`` and ``kind``."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in kinds:
        raise ValueError(unknown.format(spec=spec, kind=kind))
    given = {}
    for item in rest.split(",") if rest else ():
        key, sep, text = map(str.strip, item.partition("="))
        if not sep:
            raise ValueError(f"bad option {item!r} in {spec!r}")
        if key in given:
            raise ValueError(f"{spec!r}: duplicate option {key!r}")
        given[key] = text
    declared = kinds[kind]
    extra = sorted(set(given) - set(declared))
    if extra:
        raise ValueError(f"{spec!r}: unknown option{'s' if len(extra) > 1 else ''} "
                         + ", ".join(map(repr, extra)))
    values = {}
    for name, option in declared.items():
        if name in given:
            try:
                values[name] = check_value(name, option, read_value(name, option, given[name]))
            except ValueError as err:
                raise ValueError(f"{spec!r}: option {err}") from None
        elif option.default is MISSING:
            raise ValueError(f"{spec!r} needs option {name!r}")
        else:
            values[name] = option.default
    return kind, values


_NUMBER = Option(NUMBER, 0.0, FINITE)
_WRAPPERS = {"d": Option(INT, 0), "noise": Option(TEXT, None, one_of("uniform", "gaussian")),
             "noise_scale": Option(NUMBER, 1.0, FINITE), "phi": Option(TEXT, None)}
OBJECTIVES = {
    "onemax": _WRAPPERS,
    "linear": {**_WRAPPERS, "alpha": Option(NUMBER, 1.0, FINITE), "c": _NUMBER,
               "space": Option(TEXT, "reals", one_of("bits", "reals"))},
    "binval": _WRAPPERS,
    "sphere": {**_WRAPPERS, "center": _NUMBER},
    # y is drawn from seed, or from the run's stream with per_run=1
    "two_min": {**_WRAPPERS, "seed": Option(INT, None),
                "per_run": Option(INT, None, (lambda v: v == 1, "1"))},
}


def parse_objective(spec, rng=None):
    """The objective of a spec string such as ``two_min:d=16,seed=7``; a
    ``per_run`` two_min draws its optimum from ``rng``."""
    kind, o = parse_spec(spec, OBJECTIVES, "unknown objective kind {kind!r}")
    d = o["d"]
    if kind == "onemax":
        obj = onemax(d)
    elif kind == "linear":
        obj = linear(o["alpha"] * np.ones(d), o["c"], space=o["space"])
    elif kind == "binval":
        obj = linear(2.0 ** -np.arange(d), space="bits")
    elif kind == "sphere":
        obj = sphere(d, o["center"] * np.ones(d))
    elif o["seed"] is not None and o["per_run"] is not None:
        raise ValueError("two_min takes seed=... or per_run=1, not both")
    elif o["seed"] is not None:
        from .rng import substream
        obj = two_min_random(d, substream(o["seed"], 0))
    elif o["per_run"] is not None:
        if rng is None:
            raise ValueError("per_run two_min needs a run stream")
        obj = two_min_random(d, rng)
    else:
        raise ValueError("two_min needs seed=... or per_run=1")
    if o["phi"] is not None:
        obj = monotone_transform(obj, o["phi"])
    if o["noise"] is not None:
        obj = add_noise(obj, o["noise"], o["noise_scale"])
    return obj
