from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import igopt.weights as weights_module
from igopt.objectives import PHI_REGISTRY
from igopt.weights import (
    compute_quantile_weights,
    pbil_schedule,
    schedule_variance,
    signed_median,
    table,
    truncation,
)

RNG = np.random.default_rng(20240817)


def reference_integral(scheme, a, b):
    """Scalar integral of w over [a, b], one Python float operation at a time."""
    if scheme.kind == "truncation":
        base = max(0.0, min(b, scheme.q0) - a)
    elif scheme.kind == "signed_median":
        base = max(0.0, min(b, 0.5) - a) - max(0.0, b - max(a, 0.5))
    else:
        base = 0.0
        qs = [q for q, _ in scheme.nodes] + [1.0]
        for lo, hi, (_, v) in zip(qs[:-1], qs[1:], scheme.nodes):
            base += v * max(0.0, min(b, hi) - max(a, lo))
    return base + scheme.shift * (b - a)


def reference_quantile_weights(values, scheme):
    """The per-group loop the vectorized weights must reproduce bit for bit."""
    values = np.asarray(values, dtype=float)
    n = values.size
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    lower = upper - counts
    w_uniq = np.array(
        [reference_integral(scheme, float(lo / n), float(hi / n)) / (hi - lo)
         for lo, hi in zip(lower, upper)]
    )
    groups = [np.nonzero(inverse == g)[0] for g in range(uniq.size) if counts[g] > 1]
    return w_uniq[inverse], groups


SCHEMES = st.one_of(
    st.floats(0.01, 1.0).map(truncation),
    st.tuples(st.floats(0.01, 1.0), st.floats(-2.0, 2.0)).map(lambda p: truncation(*p)),
    st.floats(-2.0, 2.0).map(signed_median),
    st.tuples(
        st.lists(st.floats(0.01, 0.99), min_size=0, max_size=4, unique=True),
        st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
        st.floats(-1.0, 1.0),
    ).map(lambda p: table(zip([0.0] + sorted(p[0]), sorted(p[1], reverse=True)), shift=p[2])),
)
VALUES = st.one_of(
    st.lists(st.integers(0, 3).map(float), min_size=1, max_size=60),  # heavy ties
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),          # mostly distinct
)


@given(VALUES, SCHEMES)
def test_vectorized_weights_match_per_group_loop_bit_for_bit(values, scheme):
    rw = compute_quantile_weights(values, scheme)
    ref_weights, ref_groups = reference_quantile_weights(values, scheme)
    np.testing.assert_array_equal(rw.weights, ref_weights)
    assert len(rw.tie_groups) == len(ref_groups)
    for got, want in zip(rw.tie_groups, ref_groups):
        np.testing.assert_array_equal(got, want)


@st.composite
def _increasing_maps(draw):
    """A strictly increasing map: a PHI_REGISTRY entry, or c + a0 v +
    sum_j a_j max(0, v - b_j), piecewise linear with slopes a0 > 0 and a_j >= 0."""
    name = draw(st.sampled_from([*PHI_REGISTRY, "piecewise_linear"]))
    if name != "piecewise_linear":
        return PHI_REGISTRY[name]
    c, a0 = draw(st.floats(-1e3, 1e3)), draw(st.floats(0.01, 100.0))
    kinks = draw(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 100.0)), max_size=4))

    def phi(v):
        return c + a0 * v + sum(a * np.maximum(0.0, v - b) for b, a in kinks)
    return phi


@given(VALUES, SCHEMES, _increasing_maps())
def test_weights_and_tie_groups_are_invariant_under_increasing_maps(values, scheme, phi):
    values = np.asarray(values)
    mapped = phi(values)
    # the map must keep the order and the ties in floating point too
    assume(np.all(np.isfinite(mapped)))
    assume(np.array_equal(np.unique(values, return_inverse=True)[1],
                          np.unique(mapped, return_inverse=True)[1]))
    rw = compute_quantile_weights(values, scheme)
    got = compute_quantile_weights(mapped, scheme)
    np.testing.assert_array_equal(got.weights, rw.weights)
    assert len(got.tie_groups) == len(rw.tie_groups)
    for a, b in zip(got.tie_groups, rw.tie_groups):
        np.testing.assert_array_equal(a, b)


@given(VALUES, SCHEMES)
def test_tie_group_members_carry_equal_weights(values, scheme):
    values = np.asarray(values)
    rw = compute_quantile_weights(values, scheme)
    for group in rw.tie_groups:
        assert group.size > 1 and np.all(values[group] == values[group[0]])
        assert np.all(rw.weights[group] == rw.weights[group[0]])
    # one group per value that occurs more than once
    assert len(rw.tie_groups) == np.sum(np.unique(values, return_counts=True)[1] > 1)


def test_integral_is_elementwise_and_scalar_gives_float():
    a = np.array([0.0, 0.1, 0.45, 0.5, 0.9])
    b = np.array([1.0, 0.3, 0.55, 0.5, 1.0])
    for scheme in (truncation(0.3, shift=0.2), signed_median(0.1),
                   table([(0.0, 2.0), (0.4, 1.0), (0.6, -1.0)], shift=-0.5),
                   truncation(0.3), signed_median(), table([(0.0, 0.0)])):
        got = scheme.integral(a, b)
        assert got.shape == a.shape
        np.testing.assert_array_equal(
            got, [reference_integral(scheme, float(x), float(y)) for x, y in zip(a, b)])
        assert type(scheme.integral(0.2, 0.7)) is float
        with pytest.raises(ValueError):
            scheme.integral(a, b[::-1])


def test_distinct_values_hand_example():
    # ranks of (3,1,4,2) are 2,0,3,1; truncation(1/2) keeps the two best
    rw = compute_quantile_weights([3.0, 1.0, 4.0, 2.0], truncation(0.5))
    np.testing.assert_array_equal(rw.weights, [0.0, 0.25, 0.0, 0.25])
    assert rw.tie_groups == []


def test_tie_block_hand_example():
    # two tied samples share the whole [0,1] range: each gets half of int(w)
    rw = compute_quantile_weights([5.0, 5.0], truncation(0.5))
    np.testing.assert_allclose(rw.weights, [0.25, 0.25])
    assert len(rw.tie_groups) == 1 and list(rw.tie_groups[0]) == [0, 1]


def test_single_sample_spans_full_range():
    for scheme in (truncation(0.3), signed_median(), table([(0.0, 2.0), (0.5, 1.0)])):
        rw = compute_quantile_weights([7.0], scheme)
        np.testing.assert_allclose(rw.weights, [scheme.integral(0.0, 1.0)])


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        compute_quantile_weights([1.0, np.nan], truncation(0.5))
    with pytest.raises(ValueError):
        compute_quantile_weights([np.inf, 0.0], truncation(0.5))


def test_total_mass_is_integral_of_w_with_and_without_ties():
    schemes = [truncation(0.3), truncation(0.5), signed_median(),
               table([(0.0, 3.0), (0.25, 1.0), (0.7, 0.0)]), truncation(0.4, shift=-0.2)]
    for scheme in schemes:
        for n in (1, 2, 7, 40):
            vals = RNG.integers(0, 4, size=n).astype(float)  # many ties
            rw = compute_quantile_weights(vals, scheme)
            np.testing.assert_allclose(rw.total, scheme.mean(), atol=1e-14)
            vals = RNG.normal(size=n)  # distinct a.s.
            rw = compute_quantile_weights(vals, scheme)
            np.testing.assert_allclose(rw.total, scheme.mean(), atol=1e-14)


def test_aligned_truncation_matches_midpoint_rule():
    # for schemes constant on the 1/N grid the cell average is w((k+1/2)/N)/N
    n = 8
    scheme = truncation(0.25)  # 0.25 * 8 = 2 cells
    vals = RNG.normal(size=n)
    rw = compute_quantile_weights(vals, scheme)
    ranks = np.argsort(np.argsort(vals))
    expected = np.array([scheme((r + 0.5) / n) / n for r in ranks])
    np.testing.assert_allclose(rw.weights, expected, atol=1e-15)


def test_tied_samples_share_equal_weight():
    vals = np.array([2.0, 1.0, 2.0, 0.0, 2.0])
    rw = compute_quantile_weights(vals, truncation(0.5))
    tied = rw.weights[vals == 2.0]
    assert np.all(tied == tied[0])


def test_f_invariance_exact_under_increasing_transforms():
    for _ in range(25):
        vals = RNG.normal(size=12)
        scheme = truncation(RNG.uniform(0.1, 0.9))
        base = compute_quantile_weights(vals, scheme).weights
        for phi in (lambda v: v**3, lambda v: 2 * v + 7,
                    lambda v: np.sign(v) * np.abs(v) ** (1 / 3)):
            transformed = compute_quantile_weights(phi(vals), scheme).weights
            np.testing.assert_array_equal(transformed, base)


def test_shift_moves_every_weight_by_c_over_n():
    vals = RNG.normal(size=10)
    scheme = truncation(0.5)
    base = compute_quantile_weights(vals, scheme).weights
    shifted = compute_quantile_weights(vals, scheme.shifted(0.7)).weights
    np.testing.assert_allclose(shifted, base + 0.07, atol=1e-15)


def test_scheme_closed_forms_match_numeric_integration():
    grid = np.linspace(0.0, 1.0, 200001)
    for scheme in (truncation(0.37), signed_median(),
                   table([(0.0, 2.5), (0.2, 1.0), (0.55, -1.0)]), truncation(0.5, shift=0.3)):
        w = scheme(grid)
        np.testing.assert_allclose(np.trapezoid(w, grid), scheme.mean(), atol=1e-4)
        np.testing.assert_allclose(np.trapezoid(w * w, grid), scheme.second_moment(), atol=1e-4)
        a, b = 0.13, 0.81
        mask = (grid >= a) & (grid <= b)
        np.testing.assert_allclose(np.trapezoid(w[mask], grid[mask]),
                                   scheme.integral(a, b), atol=1e-4)


def test_truncation_and_signed_median_pointwise():
    t = truncation(0.3)
    assert t(0.1) == 1.0 and t(0.3) == 1.0 and t(0.31) == 0.0
    s = signed_median()
    assert s(0.2) == 1.0 and s(0.8) == -1.0 and s(0.5) == 0.0
    assert s.variance() == 1.0 and truncation(0.5).variance() == 0.25


def test_table_validation():
    with pytest.raises(ValueError):
        table([(0.1, 1.0)])            # must start at 0
    with pytest.raises(ValueError):
        table([(0.0, 1.0), (0.4, 2.0)])  # increasing values
    tab = table([(0.0, 1.0), (0.5, 0.0)])
    assert tab(0.2) == 1.0 and tab(0.7) == 0.0


def test_pbil_schedule_and_variance():
    w = pbil_schedule(10, mu=3, lr=0.1)
    np.testing.assert_allclose(w[:3], [1.0, 0.9, 0.81])
    assert np.all(w[3:] == 0.0)
    single = pbil_schedule(5, mu=1, lr=0.2)
    # implied step function: value N on the first cell -> Var = N - 1
    assert schedule_variance(single) == pytest.approx(4.0)


def test_normalized_helper():
    rw = compute_quantile_weights([1.0, 2.0, 3.0, 4.0], truncation(0.5))
    assert rw.normalized().total == pytest.approx(1.0)


def integrated_cell_means(scheme, q):
    """cell_means by its definition: integral(a, b) / (b - a) on each cell
    [a, b] with a width, w(b) on each cell of zero width."""
    a = np.concatenate(([0.0], q[:-1]))
    wide = q > a
    w = np.empty_like(q)
    w[wide] = scheme.integral(a[wide], q[wide]) / (q - a)[wide]
    w[~wide] = scheme(q[~wide])
    return w


def assert_same_bits(got, expected):
    # signed zeros differ here, unlike in assert_array_equal
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(expected).view(np.int64))


_CELL_SHIFT = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0))
# steps of value 0, -0, +1 or -1 are the exact ones; the others are integrated
_STEP_VALUE = st.one_of(st.sampled_from([1.0, 0.0, -0.0, -1.0]), st.floats(-3.0, 3.0))
CELL_SCHEMES = st.one_of(
    st.builds(truncation, st.one_of(st.sampled_from([0.3, 0.5, 1.0]), st.floats(0.01, 1.0)),
              _CELL_SHIFT),
    st.builds(signed_median, _CELL_SHIFT),
    st.builds(lambda qs, vs, shift: table(zip([0.0] + sorted(qs), sorted(vs, reverse=True)), shift),
              st.lists(st.floats(0.01, 0.99), max_size=4, unique=True),
              st.lists(_STEP_VALUE, min_size=5, max_size=5), _CELL_SHIFT),
)


@st.composite
def _running_quantiles(draw, scheme):
    """Ascending quantiles in [0, 1] with zero-width cells drawn often at 0,
    at 1, at the breakpoints and next to them."""
    special = [0.0, 1.0]
    for p, _ in scheme.steps[1:]:
        special += [p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, 1.0))]
    cuts = draw(st.lists(st.floats(0.0, 1.0), max_size=30)) + draw(
        st.lists(st.sampled_from(special), min_size=1, max_size=12))
    return np.sort(np.array(cuts))


@settings(max_examples=300)
@given(CELL_SCHEMES.flatmap(lambda scheme: st.tuples(st.just(scheme), _running_quantiles(scheme))),
       st.integers(1, 6))
def test_cell_means_are_the_integral_means_and_the_pointwise_w_bit_for_bit(case, min_fill):
    # with fills of runs as short as min_fill, every path of cell_means runs
    scheme, q = case
    expected = integrated_cell_means(scheme, q)
    with mock.patch.object(weights_module, "_MIN_FILL", min_fill):
        assert_same_bits(scheme.cell_means(q), expected)
        if scheme.stop is not None and q[-1] > scheme.stop:
            # the cells past the first one strictly above stop take the last value
            end = np.searchsorted(q, scheme.stop, side="right") + 1
            assert_same_bits(scheme.cell_means(q[:end], q.size), expected)


@pytest.mark.parametrize("scheme", [
    truncation(0.3), truncation(1.0), signed_median(), table([(0.0, 1.0), (0.2, 0.5), (0.6, -1.0)]),
    table([(0.0, 2.0), (0.25, 1.0), (0.6, -0.5)], shift=0.3)])
def test_cell_means_fill_long_runs_to_the_same_bits(scheme):
    # runs of thousands of cells, filled at the default _MIN_FILL, with 30
    # zero-width cells at each breakpoint, at 0 and at 1
    rng = np.random.default_rng(28)
    breaks = [p for p, _ in scheme.steps[1:]]
    q = np.sort(np.concatenate((rng.random(9000), np.repeat([0.0, 1.0, *breaks], 30))))
    expected = integrated_cell_means(scheme, q)
    assert_same_bits(scheme.cell_means(q), expected)
    if scheme.stop is not None:
        end = np.searchsorted(q, scheme.stop, side="right") + 1
        assert_same_bits(scheme.cell_means(q[:end], q.size), expected)


def test_cell_means_refuse_a_tail_they_cannot_fill():
    q = np.array([0.1, 0.3, 0.5, 0.6])
    assert_same_bits(truncation(0.5).cell_means(q, 6), [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    assert truncation(0.5).stop == 0.5 and truncation(1.0).stop == 0.0
    assert truncation(0.5, shift=0.1).stop is None
    assert table([(0.0, 1.0), (0.4, 0.5)]).stop is None
    for scheme, head in ((truncation(0.5, shift=0.1), q),          # inexact last step
                         (table([(0.0, 1.0), (0.4, 0.5)]), q),     # inexact last step
                         (truncation(0.6), q),                     # q[-1] == stop
                         (truncation(0.5), q[:0])):                # no cell at all
        with pytest.raises(ValueError, match="stop"):
            scheme.cell_means(head, 6)


def frozen_unique_quantile_weights(values, scheme):
    """compute_quantile_weights as it was when ``np.unique`` ranked the
    batch, frozen here: (weights, tie groups)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    lower = upper - counts
    w_uniq = scheme.integral(lower / n, upper / n) / counts
    tied = np.flatnonzero(counts[inverse] > 1)
    tied = tied[np.argsort(inverse[tied], kind="stable")]
    ends = np.cumsum(counts[counts > 1]).tolist()
    groups = [tied[lo:hi] for lo, hi in zip([0] + ends, ends)]
    return w_uniq[inverse], groups


# batches with heavy ties (signed zeros among them), distinct batches, and n = 1
RANKED_VALUES = st.one_of(
    st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]), min_size=1, max_size=60),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80, unique=True),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80),
    st.floats(-1e6, 1e6).map(lambda v: [v]),
)
SHIFTED_SCHEMES = st.one_of(SCHEMES, CELL_SCHEMES,
                            st.tuples(CELL_SCHEMES, st.floats(-2.0, 2.0)).map(
                                lambda p: p[0].shifted(p[1])))


@settings(max_examples=400)
@given(RANKED_VALUES, SHIFTED_SCHEMES)
def test_one_sort_gives_the_unique_path_bits(values, scheme):
    rw = compute_quantile_weights(values, scheme)
    weights, groups = frozen_unique_quantile_weights(values, scheme)
    assert_same_bits(rw.weights, weights)
    assert len(rw.tie_groups) == len(groups)
    for got, want in zip(rw.tie_groups, groups):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    # the sorted values are the batch in ascending order (a signed zero's
    # place among the zeros is the sort's own)
    np.testing.assert_array_equal(rw.sorted_values, np.sort(values))
    assert sorted(rw.sorted_values.view(np.int64)) == sorted(np.asarray(values).view(np.int64))


def test_rank_table_memo_holds_one_read_only_entry():
    memo = weights_module._rank_table
    for n in (5, 7, 7):
        compute_quantile_weights(np.arange(n, 0, -1.0), signed_median())
    info = memo.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    # an equal scheme finds the entry; another scheme or size replaces it
    rank_table = memo(signed_median(), 7)
    assert memo.cache_info().hits == info.hits + 1 and not rank_table.flags.writeable
    rw = compute_quantile_weights(np.arange(7, 0, -1.0), signed_median())
    assert rw.weights.flags.writeable and rw.weights is not rank_table
    compute_quantile_weights(np.arange(7.0), truncation(0.5))
    memo(signed_median(), 7)
    assert memo.cache_info().misses == info.misses + 2
