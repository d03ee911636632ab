"""Frequency grids, density reduction, and experiment-time accounting."""

import math

import numpy as np
import pytest

from eisopt import (
    DomainError,
    FrequencyGrid,
    log_spaced,
    log_spaced_inclusive,
    reduce_ppd,
    total_time,
)


# ---------------------------------------------------------------------------
# construction


def test_full_sweep_has_61_points():
    grid = log_spaced(1e4, 0.01, 10)
    assert grid.n == 61
    assert grid.f_start == 1e4
    assert abs(grid.f_end - 0.01) < 1e-12 * 0.01


def test_tenth_point_is_one_decade_down():
    grid = log_spaced(1e4, 0.01, 10)
    assert abs(grid.frequencies[10] - 1000.0) < 1e-12 * 1000.0


def test_single_decade_five_ppd_closed_form():
    grid = log_spaced(1.0, 0.1, 5)
    expected = 10.0 ** (-np.arange(6) / 5.0)
    assert grid.n == 6
    assert np.allclose(grid.as_array(), expected, rtol=1e-12)


def test_point_count_formula_over_random_spans():
    rng = np.random.default_rng(5)
    for _ in range(25):
        ppd = int(rng.integers(1, 15))
        span = rng.uniform(0.3, 6.5)
        f_start = 10.0 ** rng.uniform(0, 4)
        f_end = f_start / 10.0**span
        grid = log_spaced(f_start, f_end, ppd)
        assert grid.n == math.floor(1.5 + ppd * span)
        logs = np.log10(grid.as_array())
        assert np.allclose(np.diff(logs), -1.0 / ppd, atol=1e-10)


def test_inclusive_sweep_shares_endpoints_per_decade():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    assert grid.n == 55
    logs = np.log10(grid.as_array())
    assert np.allclose(np.diff(logs), -(1.0 / 9.0), atol=1e-12)
    assert grid.f_start == 1e4
    assert abs(grid.f_end - 0.01) < 1e-14


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


# ---------------------------------------------------------------------------
# density reduction


def test_reduce_matches_red_points_threshold_tenth_hz():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    reduced = reduce_ppd(grid, 0.1, 5)
    low = reduced.as_array()[reduced.as_array() <= 0.1 * (1 + 1e-9)]
    assert np.allclose(low, [0.1, 0.05623, 0.03162, 0.01778, 0.01], rtol=2e-4)
    assert np.allclose(low, 10.0 ** (-1 - np.arange(5) / 4.0), rtol=1e-12)


def test_reduce_matches_red_points_threshold_one_hz():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    reduced = reduce_ppd(grid, 1.0, 5)
    low = reduced.as_array()[reduced.as_array() <= 1.0 * (1 + 1e-9)]
    assert np.allclose(low, 10.0 ** (-np.arange(9) / 4.0), rtol=1e-12)
    assert abs(low[1] - 0.56234) < 1e-4
    assert abs(low[3] - 0.17783) < 1e-4


def test_reduce_identity_when_density_unchanged():
    for grid in (log_spaced(1e4, 0.01, 10), log_spaced_inclusive(1e4, 0.01, 10)):
        assert reduce_ppd(grid, 0.1, 10).frequencies == grid.frequencies


def test_reduce_never_increases_point_count():
    # Thresholds are drawn from the grid's own points, mirroring how the
    # reduction is used (decade boundaries of the sweep).
    rng = np.random.default_rng(9)
    for _ in range(30):
        ppd = int(rng.integers(2, 12))
        grid = log_spaced_inclusive(10.0 ** rng.uniform(2, 4), 10.0 ** rng.uniform(-2, 0), ppd)
        threshold = float(rng.choice(grid.as_array()[1:-1]))
        low = int(rng.integers(1, ppd + 1))
        reduced = reduce_ppd(grid, threshold, low)
        assert reduced.n <= grid.n
        upper = grid.as_array()[grid.as_array() > threshold * (1 + 1e-9)]
        assert np.allclose(reduced.as_array()[: upper.size], upper, rtol=1e-12)


def test_reduce_merges_boundary_duplicates():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    reduced = reduce_ppd(grid, 0.1, 5)
    freqs = reduced.as_array()
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
    for i in range(1, grid.n - 1):
        freqs = list(grid.frequencies)
        freqs[i] *= 1.01
        assert total_time(FrequencyGrid(tuple(freqs)), 5) < base


def test_total_time_additive_over_partition():
    grid = log_spaced(1e3, 0.1, 4)
    freqs = grid.as_array()
    left = FrequencyGrid(tuple(freqs[:7]))
    right = FrequencyGrid(tuple(freqs[7:]))
    assert total_time(grid, 5) == pytest.approx(
        total_time(left, 5) + total_time(right, 5), rel=1e-14
    )


def test_lowest_decade_dominates_experiment_time():
    for grid in (log_spaced(1e4, 0.01, 10), log_spaced_inclusive(1e4, 0.01, 10)):
        freqs = grid.as_array()
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
