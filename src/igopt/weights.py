"""Quantile-based selection weights.

A weighting scheme is a non-increasing function ``w`` on [0, 1].  Given a
batch of N objective values (minimization convention: smaller is better),
sample ``i`` occupies the rank interval [rk-/N, rk+/N), where

    rk-(i) = #{j : f(x_j) < f(x_i)},    rk+(i) = #{j : f(x_j) <= f(x_i)},

and its weight is the average of ``w`` over that interval:

    w_hat_i = integral(w, rk-/N, rk+/N) / (rk+ - rk-).

This handles ties exactly and deterministically; with distinct values and a
piecewise-constant ``w`` whose breakpoints sit on the 1/N grid it reduces to
the familiar w((rk + 1/2) / N) / N.  The total weight mass is always exactly
the integral of ``w`` over [0, 1], regardless of ties.

Weights depend on objective values only through their ranks, so applying any
strictly increasing transform to the objective leaves them unchanged.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "WeightScheme",
    "RankedWeights",
    "truncation",
    "signed_median",
    "table",
    "compute_quantile_weights",
    "pbil_schedule",
    "schedule_variance",
]

# Fewest cells of a run that cell_means fills rather than integrates.
_MIN_FILL = 2048


@dataclass(frozen=True)
class WeightScheme:
    """Non-increasing selection function w on [0, 1].

    kind:   "truncation" (1 below q0, 0 above), "signed_median" (+1 below
            1/2, -1 above), or "table" (right-continuous step function).
    q0:     selection quantile, truncation only.
    nodes:  ((q, value), ...) step breakpoints, table only; first q must be
            0.0, quantiles increasing, values non-increasing.
    shift:  additive constant on w.  Shifting w leaves the flow unchanged
            and only alters the sampling noise of finite-N updates, so it is
            exposed as a free parameter and never optimized here.

    A step is *exact* when the shift is 0 and its value is 0, +1 or -1.  The
    mean of w over a cell of width d > 0 inside one step of value v is
    ``integral(a, b) / d`` = fl(v d) / d, as every other step adds an exact
    zero; on an exact step that quotient is v itself.  ``cell_means`` fills
    such cells with v and integrates only the cells that straddle a
    breakpoint or lie in an inexact step, to the same bits.  When the last
    step is exact, every cell past its start (``stop``) takes its value, so
    a running quantile may end at the first cell strictly above ``stop``.
    """

    kind: str
    q0: float = 0.5
    nodes: tuple = ()
    shift: float = 0.0

    def __post_init__(self):
        if self.kind == "truncation":
            if not (0.0 < self.q0 <= 1.0):
                raise ValueError("truncation quantile must be in (0, 1]")
        elif self.kind == "signed_median":
            pass
        elif self.kind == "table":
            if not self.nodes or self.nodes[0][0] != 0.0:
                raise ValueError("table nodes must start at quantile 0.0")
            qs = [q for q, _ in self.nodes]
            vs = [v for _, v in self.nodes]
            if any(b <= a for a, b in zip(qs, qs[1:])):
                raise ValueError("table quantiles must be increasing")
            if any(b > a for a, b in zip(vs, vs[1:])):
                raise ValueError("table values must be non-increasing")
            if qs[-1] >= 1.0:
                raise ValueError("table quantiles must lie below 1.0")
        else:
            raise ValueError(f"unknown weight scheme kind: {self.kind!r}")

    # -- pointwise evaluation -------------------------------------------
    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        if self.kind == "truncation":
            base = np.where(q <= self.q0, 1.0, 0.0)
        elif self.kind == "signed_median":
            # w(1/2) := 0 keeps the midpoint evaluation antisymmetric.
            base = np.sign(0.5 - q)
        else:
            qs = np.array([n[0] for n in self.nodes])
            vs = np.array([n[1] for n in self.nodes])
            idx = np.searchsorted(qs, q, side="right") - 1
            base = vs[idx]
        out = base + self.shift
        return float(out) if out.ndim == 0 else out

    # -- exact integrals -------------------------------------------------
    @property
    def steps(self):
        """w before shift as ((q, value), ...) table steps; they differ
        from ``__call__`` only at a breakpoint, which no integral sees."""
        if self.kind == "truncation":
            return ((0.0, 1.0), (self.q0, 0.0)) if self.q0 < 1.0 else ((0.0, 1.0),)
        if self.kind == "signed_median":
            return ((0.0, 1.0), (0.5, -1.0))
        return self.nodes

    def _cells(self):
        """(lo, hi, value) of each step, the last one ending at 1."""
        qs = [q for q, _ in self.steps] + [1.0]
        return [(lo, hi, v) for lo, hi, (_, v) in zip(qs[:-1], qs[1:], self.steps)]

    def integral(self, a, b):
        """Exact integral of w over [a, b] for 0 <= a <= b <= 1, elementwise
        on arrays of bounds; scalar bounds give a float."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if not np.all((0.0 <= a) & (a <= b) & (b <= 1.0)):
            raise ValueError("integration bounds must satisfy 0 <= a <= b <= 1")
        # Zero steps and a zero shift would add exact zeros to a sum that
        # starts at +0.0 and so never holds -0.0: skipping them keeps the
        # bits, and truncation takes one pass.
        out = np.zeros(np.broadcast(a, b).shape)
        for lo, hi, v in self._cells():
            if v:
                out += v * np.maximum(0.0, np.minimum(b, hi) - np.maximum(a, lo))
        if self.shift:
            out += self.shift * (b - a)
        return float(out) if out.ndim == 0 else out

    @cached_property
    def _exact_steps(self):
        """(start, value + 0.0 or None) per step: the value every cell inside
        an exact step has as its mean, bit for bit (+0.0 for a -0.0 step, as
        the integral skips it), and None on an inexact step.  A shift of
        -0.0 counts as inexact, as w = -0.0 + -0.0 there."""
        exact = self.shift == 0.0 and math.copysign(1.0, self.shift) > 0.0  # w(q) = v + 0.0
        return tuple((q, v + 0.0 if exact and v in (0.0, 1.0, -1.0) else None)
                     for q, v in self.steps)

    @property
    def stop(self):
        """Start of the last step when that step is exact, else None: every
        cell [a, b] with a > stop has that step's value as its mean, and so
        does w(b) on a cell of zero width there, b = 1 included."""
        start, value = self._exact_steps[-1]
        return None if value is None else start

    def cell_means(self, q, size=None):
        """Mean of w over each cell [q[i-1], q[i]] (q[-1] := 0) of an
        ascending array of running quantiles in [0, 1], and w(q[i]) on a cell
        of zero width: the bits of ``integral(a, b) / (b - a)`` and of
        ``self(b)``.

        Cells strictly inside an exact step are filled with its value; the
        cells at a breakpoint (the straddler, those of zero width there and
        their neighbours) and the cells of inexact steps are integrated, in
        one call per contiguous run.  With ``size`` > len(q), the result has
        ``size`` entries, and the cells past q's end lie beyond q[-1] >
        ``stop``: they take the last step's value.
        """
        q = np.asarray(q, dtype=float)
        n = q.size
        size = n if size is None else size
        if size > n and (self.stop is None or not n or not q[-1] > self.stop):
            raise ValueError("cells past q's end need q[-1] > stop")
        fills = self._fills(q)
        if not fills and size == n:  # one run over every cell
            return self._integrated_means(q, 0, n)
        out = np.empty(size)
        out[n:] = self.steps[-1][1] + 0.0  # the last step is exact when size > n
        done = 0
        for lo, hi, v in fills:
            if lo > done:
                out[done:lo] = self._integrated_means(q, done, lo)
            out[lo:hi] = v
            done = hi
        if n > done:
            out[done:n] = self._integrated_means(q, done, n)
        return out

    def _fills(self, q):
        """(first cell, end, value) of the runs of cells of q that lie
        strictly inside an exact step, ascending; only runs of at least
        ``_MIN_FILL`` cells, as a shorter one saves less than the extra
        ``integral`` call it splits off."""
        steps = self._exact_steps
        n = q.size
        if n < _MIN_FILL or all(v is None for _, v in steps):
            return []
        breaks = np.array([p for p, _ in steps[1:]])
        first = np.searchsorted(q, breaks, side="left")  # first cell with b >= p
        past = np.minimum(np.searchsorted(q, breaks, side="right") + 1, n)  # first a > p
        return [(lo, hi, v) for lo, hi, (_, v) in zip([0, *past.tolist()], [*first.tolist(), n], steps)
                if v is not None and hi - lo >= _MIN_FILL]

    def _integrated_means(self, q, lo, hi):
        """cell_means over the cells lo..hi-1 by ``integral`` and ``__call__``."""
        b = q[lo:hi]
        a = np.empty_like(b)
        a[:1] = q[lo - 1] if lo else 0.0
        a[1:] = b[:-1]
        wide = b > a
        if wide.all():  # every cell has a width
            w = self.integral(a, b)
            w /= np.subtract(b, a, out=a)
        else:
            w = np.empty_like(b)
            w[wide] = self.integral(a[wide], b[wide]) / (b - a)[wide]
            w[~wide] = self(b[~wide])  # w pointwise only where it is used
        return w

    def mean(self):
        """integral of w over [0, 1]."""
        return self.integral(0.0, 1.0)

    def second_moment(self):
        cells = self._cells()
        sq = sum(v * v * (hi - lo) for lo, hi, v in cells)
        cross = sum(v * (hi - lo) for lo, hi, v in cells)
        return sq + 2.0 * self.shift * cross + self.shift**2

    def variance(self):
        """Var of w under the uniform law on [0, 1]; shift-invariant."""
        m = self.mean()
        return max(0.0, self.second_moment() - m * m)

    def shifted(self, c):
        """Same scheme with w replaced by w + c."""
        return WeightScheme(self.kind, self.q0, self.nodes, self.shift + c)


def truncation(q0, shift=0.0):
    return WeightScheme("truncation", q0=q0, shift=shift)


def signed_median(shift=0.0):
    return WeightScheme("signed_median", shift=shift)


def table(nodes, shift=0.0):
    return WeightScheme("table", nodes=tuple((float(q), float(v)) for q, v in nodes), shift=shift)


@dataclass
class RankedWeights:
    """Per-sample weights plus the tie structure they were computed from."""

    weights: np.ndarray
    tie_groups: list = field(default_factory=list)

    @property
    def total(self):
        return float(self.weights.sum())

    def normalized(self):
        """Weights rescaled to sum to one (for ML-style updates)."""
        s = self.weights.sum()
        if s == 0.0:
            raise ValueError("cannot normalize: weights sum to zero")
        return RankedWeights(self.weights / s, self.tie_groups)


def compute_quantile_weights(objective_values, scheme):
    """Rank a batch of objective values and return their selection weights.

    Minimization convention.  Ties receive the exact average of ``w`` over
    the whole rank block they occupy, so tied samples always carry equal
    weight and the total mass equals the integral of ``w`` over [0, 1].
    """
    values = np.asarray(objective_values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("objective values must be a non-empty 1-D array")
    if not np.all(np.isfinite(values)):
        raise ValueError("objective values must all be finite")
    n = values.size
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)          # rk+ per unique value
    lower = upper - counts             # rk- per unique value
    w_uniq = scheme.integral(lower / n, upper / n) / counts
    # Tied samples in value order, ascending index within each block.
    tied = np.flatnonzero(counts[inverse] > 1)
    tied = tied[np.argsort(inverse[tied], kind="stable")]
    ends = np.cumsum(counts[counts > 1]).tolist()
    groups = [tied[lo:hi] for lo, hi in zip([0] + ends, ends)]
    return RankedWeights(w_uniq[inverse], groups)


def pbil_schedule(n, mu, lr):
    """Per-rank weights (1-lr)**(j-1) for the mu best samples, 0 after.

    Used with step size dt = lr this reproduces the classic incremental-
    learning update toward the mu best solutions; mu = 1 is the update
    toward the single best sample.
    """
    if not (1 <= mu <= n):
        raise ValueError("mu must be in [1, n]")
    w = np.zeros(n)
    w[:mu] = (1.0 - lr) ** np.arange(mu)
    return w


def schedule_variance(rank_weights):
    """Var over [0,1] of the step function implied by explicit rank weights.

    Rank weight w_j corresponds to the value N * w_j on the j-th cell of the
    uniform grid, which is the function whose cell averages reproduce the
    schedule.  Used for speed-bound diagnostics on schedule-driven runs.
    """
    w = np.asarray(rank_weights, dtype=float)
    n = w.size
    total = w.sum()
    return max(0.0, n * float(w @ w) - total * total)
