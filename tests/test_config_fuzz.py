"""Fuzz the config grammar from its declarations.

Every key of ``igopt run`` and ``igopt flow`` and every option of every spec
kind is drawn from what its Option declares: numbers from a pool of extreme
values plus the values on both sides of each edge of the declared range
(found by bisection on the range's predicate), words from a range that
lists them.  A key or option declared later is drawn with no edit here.
Whatever the config, ``cli.main`` must exit 0 with nothing on stderr, or 2
or 3 with exactly one stderr line, and never raise, warn or print a
traceback.  README's "Command line" section must name every declared key,
spec kind and option.
"""

import contextlib
import functools
import io
import os
import re
import struct
import warnings
from dataclasses import MISSING, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from igopt import cli, experiment, objectives

POOL = ["0", "-0", "1", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "1e308", "5e-324",
        "nan", "inf", "-inf", "x", ""]
# the largest size a config may run with, and one past its cap, which is
# refused at parse time
BUDGET = {"n": 20, "steps": 3, "repeats": 1, "workers": 1, "m": 20}
PAST_CAP = {"n": 2**24 + 1, "steps": 2**24, "repeats": 2**24 + 1, "m": 2**24 + 1}
# words of keys checked in code rather than by a declared range
WORDS = {"algorithm": [*experiment.STEPS], "phi": [*objectives.PHI_REGISTRY],
         "stop": ["steps", "both_optima", "target:0", "target:1e300"]}
RUN_SPECS = {"family": experiment.FAMILIES, "objective": objectives.OBJECTIVES,
             "scheme": experiment.SCHEMES, "fisher": experiment.FISHERS}
FLOW_SPECS = {**RUN_SPECS, "family": {**experiment.FAMILIES, **cli.SPHERE_FLOW}}
DIMS = ("d", "n_x")  # options whose benign value is the drawn dimension
# True about one time in ten
_rarely = st.sampled_from([False] * 9 + [True])
INTS = [-2, -1, 0, 1, 2, 3, 10, 10**3, 10**6, 10**9]
FLOATS = [-np.inf, -1.7976931348623157e308, -1e300, -1.0, -5e-324, 0.0, 5e-324, 1e-300,
          0.5, 1.0, 2.0, 1e300, 1.7976931348623157e308, np.inf]


def _key(x):
    """A float's rank among the floats, as an int."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _float(k):
    return struct.unpack("<d", struct.pack("<q", k if k >= 0 else -k | -(2**63)))[0]


def edges(option):
    """Text of the values on both sides of each edge of a number option's
    range: the first value inside and the last one outside."""
    convert, _ = option.type
    if option.valid is None or convert not in (int, float):
        return []
    holds = option.valid[0]
    rank, value = (_key, _float) if convert is float else (int, int)
    points = FLOATS if convert is float else INTS
    out = []
    for a, b in zip(points, points[1:]):
        lo, hi = rank(a), rank(b)
        if holds(value(lo)) == holds(value(hi)):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if holds(value(mid)) == holds(value(lo)):
                lo = mid
            else:
                hi = mid
        out += [repr(value(lo)), repr(value(hi))]
    return out


def _valid(name, option, text):
    try:
        objectives.check_value(name, option, objectives.read_value(name, option, text))
    except ValueError:
        return False
    return True


def _mostly(benign, hostile):
    """Strategy for a draw from ``benign``, or about one time in ten from ``hostile``."""
    return _rarely.flatmap(lambda h: hostile if h else benign)


@functools.cache
def values(name, option, dim):
    """Strategy for the text of key or option ``name``: nine times in ten a
    value its declaration takes, else any drawn value.  A size stays within
    its BUDGET or goes past its cap, and ``d`` and ``n_x`` favour ``dim``."""
    convert, what = option.type
    if "pairs" in what:  # table nodes, one pair fewer or more than two
        pair = st.tuples(st.sampled_from(["0", "0.5", "0.2", *POOL]),
                         st.sampled_from(["1", "0", "-1", *POOL]))
        hostile = st.lists(pair, min_size=1, max_size=3).map(
            lambda ps: ";".join(f"{q}:{v}" for q, v in ps))
        benign = st.sampled_from(["0:1;0.5:0", "0:2;0.25:1;0.5:0"])
        return _mostly(benign, hostile)
    texts = [*POOL, *edges(option), *WORDS.get(name, [])]
    for words in (what, option.valid and option.valid[1]):
        texts += words.split(" or ") if words and " or " in words else []
    texts += ["2", "3", "20"] if convert is int else ["0.5", "0.1"]
    if name in BUDGET:
        texts = [t for t in texts if not t.lstrip("-").isdigit() or int(t) <= BUDGET[name]]
    benign = [t for t in texts if _valid(name, option, t) and t not in POOL[-2:]]
    if name in DIMS:
        benign = [dim]
    if name in WORDS:
        benign = WORDS[name]
    if name in PAST_CAP:
        texts.append(str(PAST_CAP[name]))
    return _mostly(st.sampled_from(benign), st.sampled_from(texts))


def numbers(start):
    """theta0 text: the family's start, or drawn numbers, one fewer to one more."""
    drawn = st.lists(st.sampled_from(["0.5", "0.2", "0", "3", *POOL]),
                     min_size=max(0, len(start) - 1), max_size=len(start) + 1)
    return _mostly(st.just([repr(float(x)) for x in start]), drawn).map(" ".join)


@st.composite
def spec(draw, kinds, dim):
    """A spec string of one of ``kinds`` (or of an unknown kind)."""
    kind = draw(st.sampled_from([*kinds, "bogus"]) if draw(_rarely) else st.sampled_from([*kinds]))
    parts = [f"{name}={draw(values(name, option, dim))}"
             for name, option in kinds.get(kind, {}).items()
             if option.default is MISSING or name in DIMS or draw(st.booleans())]
    if draw(_rarely) and draw(_rarely):
        parts.append("bogus=1")
    return kind + (":" + ",".join(parts) if parts else "")


@st.composite
def config(draw, cls, specs, always=("family", "objective")):
    """The lines of a config for the config dataclass ``cls``, by key; the
    keys in ``specs`` take a spec of the kinds it maps them to."""
    dim = draw(st.sampled_from(["1", "2", "3"]))
    lines = {}
    for f in fields(cls):
        if f.name == "theta0":  # its length depends on the family: drawn below
            continue
        if f.name in always or draw(st.sampled_from([False, False, True])):
            lines[f.name] = draw(spec(specs[f.name], dim) if f.name in specs
                                 else values(f.name, f.metadata["option"], dim))
    if any(f.name == "theta0" for f in fields(cls)) and draw(st.booleans()):
        try:
            start = cli._flow_setup(cls(**experiment.read_config(
                "".join(f"{k} = {v}\n" for k, v in lines.items()), cls)))[1]
        except (ValueError, TypeError, ArithmeticError):
            start = [0.5] * 3
        lines["theta0"] = draw(numbers(start))
    if draw(_rarely) and draw(_rarely):
        lines["surprise"] = "1"
    return lines


def _main(command, argument, workdir):
    """Run ``igopt command argument`` with every warning raised as an error;
    check its exit code and its stderr lines."""
    err = io.StringIO()
    with (mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(workdir)}),
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        code = cli.main([command, argument])
    err = err.getvalue()
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(workdir, lines):
    path = workdir / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


@settings(max_examples=200)
@given(lines=config(experiment.ExperimentConfig, RUN_SPECS,
                    always=("family", "objective", "n", "steps", "repeats")))
def test_run_configs_exit_cleanly(workdir, lines):
    _main("run", _write(workdir, lines), workdir)


def _flow_steps(lines):
    try:
        return float(lines["horizon"]) / float(lines["flow_step"])
    except (ValueError, ZeroDivisionError):
        return 0.0


@settings(max_examples=200)
@given(lines=config(cli.FlowConfig, FLOW_SPECS,
                    always=("family", "objective", "horizon", "flow_step")))
def test_flow_configs_exit_cleanly(workdir, lines):
    # at most 3 steps of the flow, unless refused for too many
    assume(not 3 < _flow_steps(lines) <= cli.MAX_FLOW_STEPS)
    _main("flow", _write(workdir, lines), workdir)


@settings(max_examples=40)
@given(text=spec(cli.TABLES, "1"))
def test_table_specs_exit_cleanly(workdir, text):
    _main("table", text, workdir)


def test_edges_come_from_the_declared_ranges():
    assert edges(experiment.FAMILIES["bernoulli"]["d"]) == ["0", "1"]
    assert edges(cli.TABLES["critical_dt"]["points"]) == ["0", "1", "10000", "10001"]
    assert edges(experiment.FAMILIES["bernoulli"]["p0"]) == [
        "0.0", "5e-324", "0.9999999999999999", "1.0"]
    steps = [f for f in fields(cli.FlowConfig) if f.name == "flow_step"][0]
    assert edges(steps.metadata["option"]) == ["0.0", "5e-324", "1.7976931348623157e+308",
                                               "inf"]


def test_readme_names_every_declared_key_kind_and_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\w+", " ".join(re.findall(r"```.*?```|`[^`]*`", section, re.S))))
    declared = {f.name for cls in (experiment.ExperimentConfig, cli.FlowConfig)
                for f in fields(cls)}
    for kinds in (*RUN_SPECS.values(), cli.SPHERE_FLOW, cli.TABLES):
        for kind, options in kinds.items():
            declared |= {kind, *options}
    assert declared <= named, sorted(declared - named)
