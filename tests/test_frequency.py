"""Frequency grids, density reduction, and experiment-time accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import decreasing_frequencies
from eisopt import (
    DomainError,
    FrequencyGrid,
    log_spaced,
    log_spaced_inclusive,
    reduce_ppd,
    total_time,
)
from eisopt.frequency import MERGE_RTOL, _inclusive_frequencies


# ---------------------------------------------------------------------------
# construction


def test_full_sweep_has_61_points():
    grid = log_spaced(1e4, 0.01, 10)
    assert len(grid) == 61
    assert grid.f_start == 1e4
    assert abs(grid.f_end - 0.01) < 1e-12 * 0.01


def test_tenth_point_is_one_decade_down():
    grid = log_spaced(1e4, 0.01, 10)
    assert abs(grid.frequencies[10] - 1000.0) < 1e-12 * 1000.0


def test_single_decade_five_ppd_closed_form():
    grid = log_spaced(1.0, 0.1, 5)
    expected = 10.0 ** (-np.arange(6) / 5.0)
    assert len(grid) == 6
    assert np.allclose(grid.frequencies, expected, rtol=1e-12)


def test_point_count_formula_over_random_spans():
    rng = np.random.default_rng(5)
    for _ in range(25):
        ppd = int(rng.integers(1, 15))
        span = rng.uniform(0.3, 6.5)
        f_start = 10.0 ** rng.uniform(0, 4)
        f_end = f_start / 10.0**span
        grid = log_spaced(f_start, f_end, ppd)
        assert len(grid) == math.floor(1.5 + ppd * span)
        logs = np.log10(grid.frequencies)
        assert np.allclose(np.diff(logs), -1.0 / ppd, atol=1e-10)


def test_inclusive_sweep_shares_endpoints_per_decade():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    assert len(grid) == 55
    logs = np.log10(grid.frequencies)
    assert np.allclose(np.diff(logs), -(1.0 / 9.0), atol=1e-12)
    assert grid.f_start == 1e4
    assert abs(grid.f_end - 0.01) < 1e-14


def test_grid_frequencies_are_a_read_only_float64_copy():
    source = np.array([100, 10, 1])  # integers, converted to float64
    grid = FrequencyGrid(source)
    assert grid.frequencies.dtype == np.float64 and grid.frequencies.shape == (3,)
    with pytest.raises(ValueError):
        grid.frequencies[1] = 5.0
    source[1] = 50
    assert grid.frequencies.tolist() == [100.0, 10.0, 1.0]
    # the endpoints are Python floats, like every scalar a grid reports
    assert type(grid.f_start) is float and type(grid.f_end) is float


@pytest.mark.parametrize("freqs", [
    [[100.0, 10.0], [1.0, 0.1]],
    [[100.0, 10.0, 1.0]],
    [1.0],
    1.0,
], ids=["2x2", "1x3", "one-point", "scalar"])
def test_grid_needs_a_1d_array_of_two_points(freqs):
    with pytest.raises(DomainError, match="1-D frequencies, at least 2"):
        FrequencyGrid(freqs)


def test_grid_rejects_bad_ranges():
    with pytest.raises(DomainError):
        log_spaced(1.0, 1.0, 5)
    with pytest.raises(DomainError):
        log_spaced(0.1, 1.0, 5)
    with pytest.raises(DomainError):
        log_spaced(1.0, 0.1, 0)
    with pytest.raises(DomainError):
        FrequencyGrid((1.0, 2.0, 0.5))  # not decreasing
    with pytest.raises(DomainError):
        FrequencyGrid((1.0,))  # fewer than two points
    for last in (0.0, -2.0):
        with pytest.raises(DomainError, match="positive"):
            FrequencyGrid((1.0, last))


# ---------------------------------------------------------------------------
# density reduction


def test_reduce_matches_red_points_threshold_tenth_hz():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    reduced = reduce_ppd(grid, 0.1, 5)
    low = reduced.frequencies[reduced.frequencies <= 0.1 * (1 + 1e-9)]
    assert np.allclose(low, [0.1, 0.05623, 0.03162, 0.01778, 0.01], rtol=2e-4)
    assert np.allclose(low, 10.0 ** (-1 - np.arange(5) / 4.0), rtol=1e-12)


def test_reduce_matches_red_points_threshold_one_hz():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    reduced = reduce_ppd(grid, 1.0, 5)
    low = reduced.frequencies[reduced.frequencies <= 1.0 * (1 + 1e-9)]
    assert np.allclose(low, 10.0 ** (-np.arange(9) / 4.0), rtol=1e-12)
    assert abs(low[1] - 0.56234) < 1e-4
    assert abs(low[3] - 0.17783) < 1e-4


def test_reduce_identity_when_density_unchanged():
    for grid in (log_spaced(1e4, 0.01, 10), log_spaced_inclusive(1e4, 0.01, 10)):
        assert np.array_equal(reduce_ppd(grid, 0.1, 10).frequencies, grid.frequencies)


def test_reduce_never_increases_point_count():
    # Thresholds are drawn from the grid's own points, mirroring how the
    # reduction is used (decade boundaries of the sweep).
    rng = np.random.default_rng(9)
    for _ in range(30):
        ppd = int(rng.integers(2, 12))
        grid = log_spaced_inclusive(10.0 ** rng.uniform(2, 4), 10.0 ** rng.uniform(-2, 0), ppd)
        threshold = float(rng.choice(grid.frequencies[1:-1]))
        low = int(rng.integers(1, ppd + 1))
        reduced = reduce_ppd(grid, threshold, low)
        assert len(reduced) <= len(grid)
        upper = grid.frequencies[grid.frequencies > threshold * (1 + 1e-9)]
        assert np.allclose(reduced.frequencies[: upper.size], upper, rtol=1e-12)


def test_reduce_merges_boundary_duplicates():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    reduced = reduce_ppd(grid, 0.1, 5)
    freqs = reduced.frequencies
    assert np.all(np.diff(np.log10(freqs)) < -1e-9)
    assert np.sum(np.isclose(freqs, 0.1, rtol=1e-9)) == 1


def test_reduce_validates_inputs():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    with pytest.raises(DomainError):
        reduce_ppd(grid, 1e5, 5)  # threshold above f_start
    with pytest.raises(DomainError):
        reduce_ppd(grid, 1e-3, 5)  # threshold below f_end
    with pytest.raises(DomainError):
        reduce_ppd(grid, 0.1, 0)
    with pytest.raises(DomainError):
        reduce_ppd(grid, 0.1, 11)  # denser than the default


def _reduce_ppd_reference(grid, f_threshold, ppd_low):
    """The thinning as a list-based loop over every point: the upper
    segment, the regenerated low segment, then a near-duplicate merge."""
    if ppd_low == grid.ppd_default:
        return grid
    upper = [f for f in grid.frequencies if f > f_threshold * (1.0 + MERGE_RTOL)]
    span = math.log10(f_threshold) - math.log10(grid.f_end)
    if span <= MERGE_RTOL:
        low = [float(f_threshold)]
    else:
        low = list(_inclusive_frequencies(f_threshold, grid.f_end, ppd_low))
    merged = []
    for v in upper + low:
        if merged and abs(merged[-1] - v) <= MERGE_RTOL * abs(merged[-1]):
            continue
        merged.append(float(v))
    return FrequencyGrid(tuple(merged), ppd_default=grid.ppd_default)


def _outcome(reduce, grid, f_threshold, ppd_low):
    """Frequency bits and density of the thinned grid, or the error type."""
    try:
        out = reduce(grid, f_threshold, ppd_low)
    except DomainError as exc:
        return type(exc)
    assert out.frequencies.dtype == np.float64 and not out.frequencies.flags.writeable
    return [f.hex() for f in out.frequencies.tolist()], out.ppd_default


# the near-duplicate junction: the low segment starts within MERGE_RTOL of
# a sweep point, and the merge drops the segment's first point
_JUNCTION = 7742.63682681127
_JUNCTION_THRESHOLD = float(np.nextafter(_JUNCTION / (1.0 + MERGE_RTOL), 0.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    freqs=decreasing_frequencies(),
    position=st.floats(0.0, 1.0),
    ppd=st.integers(1, 12),
    low=st.integers(1, 12),
)
def test_reduce_is_bit_equal_to_the_list_reference(freqs, position, ppd, low):
    grid = FrequencyGrid(freqs, ppd_default=ppd)
    # a threshold anywhere in the band, or exactly on one of its points
    threshold = float(10.0 ** (math.log10(grid.f_end) + position * (
        math.log10(grid.f_start) - math.log10(grid.f_end))))
    threshold = min(max(threshold, grid.f_end), grid.f_start)
    on_point = grid.frequencies[int(position * (len(grid) - 1))]
    # just below a point, so that the low segment may start within
    # MERGE_RTOL of it
    junction = max(float(np.nextafter(on_point / (1.0 + MERGE_RTOL), 0.0)), grid.f_end)
    for t in (threshold, on_point, junction):
        assert _outcome(reduce_ppd, grid, t, min(low, ppd)) == _outcome(
            _reduce_ppd_reference, grid, t, min(low, ppd))


@pytest.mark.parametrize(
    "grid, threshold",
    [
        (log_spaced_inclusive(1e4, 0.01, 10), _JUNCTION_THRESHOLD),
        (log_spaced(1e4, 0.01, 10), 0.1),
        (FrequencyGrid((10000, 1000, 100, 10, 1), ppd_default=3), 10),
        (FrequencyGrid(np.array([1e4, 1e3, 1e2, 10.0, 1.0, 0.1]), ppd_default=5), 3.0),
        (FrequencyGrid(np.array([1e4, 1e3, 1e2, 10.0, 1.0, 0.1]), ppd_default=5), 0.1),
    ],
)
def test_reduce_is_bit_equal_to_the_list_reference_on_fixed_grids(grid, threshold):
    for low in range(1, grid.ppd_default + 1):
        assert _outcome(reduce_ppd, grid, threshold, low) == _outcome(
            _reduce_ppd_reference, grid, threshold, low)


def test_reduce_merges_the_near_duplicate_junction():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    assert _JUNCTION in grid.frequencies
    for low in range(1, 10):
        reduced = reduce_ppd(grid, _JUNCTION_THRESHOLD, low)
        assert _JUNCTION in reduced.frequencies
        assert _JUNCTION_THRESHOLD not in reduced.frequencies


def test_non_finite_frequencies_are_rejected():
    for call in (
        lambda: log_spaced(float("inf"), 0.01, 10),
        lambda: log_spaced_inclusive(float("inf"), 0.01, 10),
        lambda: log_spaced(np.inf, 1.0, 3),
        lambda: FrequencyGrid((float("inf"), 10.0, 1.0)),
        lambda: FrequencyGrid(np.array([np.inf, 10.0, 1.0]), ppd_default=10),
        lambda: FrequencyGrid((10.0, float("nan"), 1.0)),
    ):
        with pytest.raises(DomainError):
            call()


def test_counts_are_integers_never_truncated():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    # each of these once read the count through int(): 7.9 as 7, True as 1
    for call in (
        lambda: log_spaced(1e4, 0.01, 7.9),
        lambda: log_spaced_inclusive(1e4, 0.01, True),
        lambda: total_time(grid, 5.7),
        lambda: total_time(grid, False),
        lambda: reduce_ppd(grid, 0.1, 7.5),
        lambda: reduce_ppd(grid, 0.1, "7"),
        lambda: FrequencyGrid(grid.frequencies, ppd_default=7.5),
    ):
        with pytest.raises(DomainError, match="must be an integer"):
            call()
    # NumPy integers are counts, and grids record them as ints
    reduced = reduce_ppd(log_spaced(1e4, 0.01, np.int64(10)), 0.1, np.int32(7))
    assert type(reduced.ppd_default) is int and reduced.ppd_default == 10
    assert total_time(grid, np.int64(5)) == total_time(grid, 5)


# ---------------------------------------------------------------------------
# time accounting


def test_total_time_two_point_example():
    grid = FrequencyGrid((1.0, 0.1))
    assert total_time(grid, 5) == pytest.approx(55.0, rel=1e-14)


def test_total_time_decreases_when_any_frequency_rises():
    grid = log_spaced(100.0, 0.1, 3)
    base = total_time(grid, 5)
    for i in range(1, len(grid) - 1):
        freqs = list(grid.frequencies)
        freqs[i] *= 1.01
        assert total_time(FrequencyGrid(tuple(freqs)), 5) < base


def test_total_time_additive_over_partition():
    grid = log_spaced(1e3, 0.1, 4)
    freqs = grid.frequencies
    left = FrequencyGrid(tuple(freqs[:7]))
    right = FrequencyGrid(tuple(freqs[7:]))
    assert total_time(grid, 5) == pytest.approx(
        total_time(left, 5) + total_time(right, 5), rel=1e-14
    )


def test_lowest_decade_dominates_experiment_time():
    for grid in (log_spaced(1e4, 0.01, 10), log_spaced_inclusive(1e4, 0.01, 10)):
        freqs = grid.frequencies
        t_all = total_time(grid, 5)
        in_lowest = freqs < 0.1 * (1 - 1e-9)
        t_low = 5.0 * np.sum(1.0 / freqs[in_lowest])
        assert t_low / t_all > 0.85


def test_inclusive_sweep_duration_matches_prose_value():
    # The 55-point shared-endpoint sweep takes 36.9 minutes at five
    # periods per point; the formula-count sweep takes 40.5 minutes.
    assert total_time(log_spaced_inclusive(1e4, 0.01, 10), 5) / 60 == pytest.approx(
        36.9, abs=0.05
    )
    assert total_time(log_spaced(1e4, 0.01, 10), 5) / 60 == pytest.approx(40.5, abs=0.05)
