"""Frequency-adjustment loop: scanning, hill-climbing, and the outer cycle."""

import hashlib
import json
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import thetas
from eisopt import (
    DesignConfig,
    DesignError,
    DomainError,
    ErrorStructure,
    FitError,
    FrequencyGrid,
    STATE_A,
    STATE_B,
    SingularInformationError,
    ellipsoid_log_volume,
    fisher,
    fisher_contributions,
    log_spaced,
    log_spaced_inclusive,
    reduce_ppd,
    run_design,
    synthesize,
    total_time,
)
import eisopt.design
import eisopt.information
from eisopt.design import (
    CLIMB_STEP_DECADES,
    CLIMB_STOP_DECADES,
    SCAN_STEP_DECADES,
    _EigenWorkspace,
    _LOOK_AHEAD,
    _frozen_set,
    _landing,
    _scan_ranking,
    adjust_frequency,
)

ERR = ErrorStructure()
COARSE = FrequencyGrid(tuple(np.logspace(3.0, -1.0, 9)))  # half-decade spacing


class _StubWorkspace:
    """Duck-typed stand-in whose eigenvalue response is a known function of
    the moved frequency alone; its bounds are the exact values, which meet
    the bound contract."""

    def __init__(self, grid, index, fn):
        self.freqs = grid.frequencies
        self._fn = fn
        self.lambda_min = fn(math.log10(self.freqs[index]))
        self.batches = 0

    def probe(self, indices, freqs_hz):
        self.batches += 1
        lams = np.array([self._fn(math.log10(f)) for f in freqs_hz])
        return lams.copy(), lambda rows: lams[rows]


def _solved(ws, indices, freqs_hz):
    """Every move of a probe batch, solved."""
    return ws.probe(indices, freqs_hz)[1](np.arange(len(freqs_hz)))


# ---------------------------------------------------------------------------
# candidate ranking


def _oracle_ranking(theta, grid, err):
    """Exhaustive scores recomputed with full information matrices, for
    every point of a grid without frequency floor or time budget.

    A probe is clamped into the band; one the climb may not take (within
    the minimum separation of another point, or clamped back onto its
    own) scores -inf."""
    scale = np.abs(theta.to_array())
    outer = np.outer(scale, scale)

    def lam(freqs):
        m = fisher(theta, freqs, err).matrix
        return float(np.linalg.eigvalsh(m * outer)[0])

    freqs = grid.frequencies
    log_f = np.log10(freqs)
    lam0 = lam(freqs)
    scores = {}
    for i in range(len(freqs)):
        best = -np.inf
        for sign in (1.0, -1.0):
            target = log_f[i] + sign * SCAN_STEP_DECADES
            landed = min(max(target, log_f[-1]), log_f[0])
            gaps = np.abs(log_f - landed)
            if landed == target:
                gaps[i] = np.inf  # only a clamped probe can land on its own point
            if np.any(gaps < eisopt.design.MIN_SEPARATION_DECADES):
                continue
            moved = freqs.copy()
            moved[i] = 10.0**landed
            best = max(best, (lam(moved) - lam0) / SCAN_STEP_DECADES)
        scores[i] = best
    order = sorted(scores, key=lambda i: (-scores[i], i))
    return order, scores


def test_scan_matches_exhaustive_recomputation():
    grid = FrequencyGrid(tuple(np.logspace(4.0, -2.0, 13)))
    cfg = DesignConfig(freeze_endpoints=False)
    expected, scores = _oracle_ranking(STATE_A, grid, ERR)
    ws = _EigenWorkspace(STATE_A, grid, ERR)
    assert list(_scan_ranking(ws, grid, cfg)) == expected
    assert next(_scan_ranking(ws, grid, cfg)) == expected[0]
    # sanity: the winner strictly beats the runner-up
    assert scores[expected[0]] > scores[expected[1]]


def test_probe_solves_match_full_recomputation():
    grid = FrequencyGrid(tuple(np.logspace(4.0, -2.0, 13)))
    ws = _EigenWorkspace(STATE_A, grid, ERR)
    scale = np.abs(STATE_A.to_array())
    outer = np.outer(scale, scale)
    freqs = grid.frequencies
    # mixed indices, repeats, and moves both inside and outside the band
    indices = [5, 1, 5, 11, 0, 7]
    targets = [3.0, 2e3, 0.02, 0.004, 3e4, freqs[7]]
    got = _solved(ws, indices, targets)
    assert got.shape == (len(indices),)
    for i, f, lam in zip(indices, targets, got):
        moved = freqs.copy()
        moved[i] = f
        m = fisher(STATE_A, moved, ERR).matrix
        expected = np.linalg.eigvalsh(m * outer)[0]
        assert lam == pytest.approx(expected, rel=1e-9)
    # moving a point onto itself leaves the eigenvalue where it was
    assert got[-1] == pytest.approx(ws.lambda_min, rel=1e-12)


def test_scan_excludes_frozen_indices():
    cfg = DesignConfig()  # endpoints frozen by default
    ws = _EigenWorkspace(STATE_A, COARSE, ERR)
    ranking = _scan_ranking(ws, COARSE, cfg)
    assert set(ranking) == set(range(1, len(COARSE) - 1))


def test_fully_frozen_grid_raises():
    two = FrequencyGrid((10.0, 1.0))
    cfg = DesignConfig()
    with pytest.raises(DesignError):
        next(_scan_ranking(_EigenWorkspace(STATE_A, two, ERR), two, cfg))


def test_adjusting_a_frozen_index_raises():
    cfg = DesignConfig()
    with pytest.raises(DesignError):
        adjust_frequency(_EigenWorkspace(STATE_A, COARSE, ERR), COARSE, 0, cfg)


# ---------------------------------------------------------------------------
# hill climb on controlled eigenvalue responses


def test_climb_finds_quadratic_peak_within_step_resolution():
    target = 1.213
    cfg = DesignConfig()
    stub = _StubWorkspace(COARSE, 4, lambda lf: -((lf - target) ** 2))
    f_new, status, lam = adjust_frequency(stub, COARSE, 4, cfg)
    assert status == "adjusted"
    # one-directional climb: accuracy bounded by half the initial step
    assert abs(math.log10(f_new) - target) <= CLIMB_STEP_DECADES / 2 + 1e-12
    after = _solved(stub, 4, [f_new])[0]
    assert after > stub.lambda_min
    assert lam == after


def test_climb_clamps_at_frequency_floor():
    # floor sits between the moved point and its lower neighbor, so the
    # descent hits the floor before any collision can stop it
    floor = 10.0**0.75
    cfg = DesignConfig(min_frequency_hz=floor)
    stub = _StubWorkspace(COARSE, 4, lambda lf: -lf)  # lower is always better
    f_new, status, _ = adjust_frequency(stub, COARSE, 4, cfg)
    assert status == "floor-limited"
    assert f_new == pytest.approx(floor, rel=1e-12)


def test_climb_reports_stall_on_flat_response():
    stub = _StubWorkspace(COARSE, 4, lambda lf: 0.0)
    f_new, status, lam = adjust_frequency(stub, COARSE, 4, DesignConfig())
    assert status == "stalled"
    assert f_new == pytest.approx(COARSE.frequencies[4], rel=1e-15)
    assert lam == stub.lambda_min


def test_climb_respects_minimum_separation(monkeypatch):
    # peak sits exactly on a neighboring grid point half a decade away
    target = math.log10(COARSE.frequencies[5])
    monkeypatch.setattr(eisopt.design, "MIN_SEPARATION_DECADES", 0.2)
    stub = _StubWorkspace(COARSE, 4, lambda lf: -((lf - target) ** 2))
    f_new, status, _ = adjust_frequency(stub, COARSE, 4, DesignConfig())
    assert status == "adjusted"
    others = np.delete(np.log10(COARSE.frequencies), 4)
    gaps = np.abs(others - math.log10(f_new))
    assert np.min(gaps) >= eisopt.design.MIN_SEPARATION_DECADES - 1e-12


def test_climb_respects_time_budget():
    grid = COARSE
    t_now = total_time(grid, 5)
    # lower frequencies cost dwell time; an exact budget forbids any move down
    cfg = DesignConfig(time_budget_s=t_now)
    stub = _StubWorkspace(grid, 4, lambda lf: -lf)
    f_new, status, _ = adjust_frequency(stub, grid, 4, cfg)
    assert status == "stalled"
    assert f_new == pytest.approx(grid.frequencies[4], rel=1e-15)


def test_a_clamp_back_onto_the_point_is_no_move():
    # Rounding can make the move of a point onto itself look like a gain;
    # a probe the clamp puts back onto its own point is out, so the climb
    # stalls instead of re-measuring the point where it already is.
    last = len(COARSE) - 1
    cases = [
        (DesignConfig(freeze_endpoints=False), 0, lambda lf: lf),  # up, past f_start
        (DesignConfig(freeze_endpoints=False), last, lambda lf: -lf),  # down, past f_end
        (DesignConfig(min_frequency_hz=COARSE.frequencies[4]), 4, lambda lf: -lf),  # the floor
    ]
    for cfg, index, fn in cases:
        stub = _StubWorkspace(COARSE, index, fn)
        stub.lambda_min -= 1e-12  # a rounding-level gain for the move in place
        f_new, status, _ = adjust_frequency(stub, COARSE, index, cfg)
        assert (f_new, status) == (COARSE.frequencies[index], "stalled")


def test_a_probe_clamped_at_the_floor_is_not_below_it():
    # 10.0**math.log10(0.03) is one rounding step below 0.03
    for floor in (0.03, 0.3, 0.7, 1.1, 3.0, 7.0, 30.0, 300.0):
        cfg = DesignConfig(min_frequency_hz=floor)
        logs, probes, _ = _landing(COARSE, cfg, [4, 4], np.array([-3.0, math.log10(floor)]))
        assert all(f >= floor for f in probes)
        assert probes[0] == pytest.approx(floor, rel=1e-15)
        assert 10.0**logs[0] == probes[0]


def test_scan_ranks_a_candidate_without_an_admissible_probe_last():
    # an exact budget forbids every move down, and the top point's move up
    # clamps back onto itself
    cfg = DesignConfig(freeze_endpoints=False, time_budget_s=total_time(COARSE, 5))
    ws = _EigenWorkspace(STATE_A, COARSE, ERR)
    assert list(_scan_ranking(ws, COARSE, cfg))[-1] == 0
    assert adjust_frequency(ws, COARSE, 0, cfg)[1] == "stalled"


def _sequential_climb(grid, index, cfg, ws):
    """Reference climb asking one what-if at a time, in the order a plain
    sequential search asks them; the step constants are read at call time,
    so a patched ``eisopt.design`` constant applies here too."""
    d = eisopt.design
    freqs = grid.frequencies
    floor = cfg.min_frequency_hz if cfg.min_frequency_hz is not None else grid.f_end
    log_lo, log_hi = math.log10(floor), math.log10(grid.f_start)
    others = np.delete(np.log10(freqs), index)
    own = np.log10(freqs)[index]
    clamped = False

    def try_move(log_f):
        nonlocal clamped
        log_c = min(max(log_f, log_lo), log_hi)
        clamped = clamped or log_c != log_f
        if np.any(np.abs(others - log_c) < d.MIN_SEPARATION_DECADES):
            return None, None
        # a clamp back onto the point's own frequency goes nowhere
        if log_c != log_f and abs(own - log_c) < d.MIN_SEPARATION_DECADES:
            return None, None
        if cfg.time_budget_s is not None:
            t_new = total_time(grid, cfg.n_p) - cfg.n_p / freqs[index] + cfg.n_p / 10.0**log_c
            if t_new > cfg.time_budget_s:
                return None, None
        return log_c, float(_solved(ws, index, [10.0**log_c])[0])

    current_log, current_lam = math.log10(freqs[index]), ws.lambda_min
    step, direction = d.CLIMB_STEP_DECADES, None
    while direction is None and step >= d.CLIMB_STOP_DECADES:
        gains = {}
        for sign in (1.0, -1.0):
            log_t, lam = try_move(current_log + sign * step)
            if lam is not None and lam > current_lam:
                gains[sign] = (log_t, lam)
        if gains:
            direction = max(gains, key=lambda s: gains[s][1])
            current_log, current_lam = gains[direction]
        else:
            step *= d.CLIMB_SHRINK
    if direction is None:
        return float(freqs[index]), "stalled", ws.lambda_min
    while step >= d.CLIMB_STOP_DECADES:
        log_t, lam = try_move(current_log + direction * step)
        if lam is not None and lam > current_lam:
            current_log, current_lam = log_t, lam
        else:
            step *= d.CLIMB_SHRINK
    return float(10.0**current_log), "floor-limited" if clamped else "adjusted", current_lam


@pytest.mark.parametrize(
    "fn", [lambda lf: -lf, lambda lf: lf, lambda lf: -((lf - 1.213) ** 2)]
)
def test_ladder_climb_matches_sequential_climb_at_the_band_edges(fn):
    # with free endpoints, a probe past the band clamps back onto the point
    cfg = DesignConfig(freeze_endpoints=False)
    for index in range(len(COARSE)):
        stub = _StubWorkspace(COARSE, index, fn)
        got = adjust_frequency(stub, COARSE, index, cfg)
        assert got == _sequential_climb(COARSE, index, cfg, stub)


def test_batched_climb_matches_sequential_climb(monkeypatch):
    grid = reduce_ppd(log_spaced_inclusive(1e4, 0.01, 10), 1.0, 7)
    default = eisopt.design.MIN_SEPARATION_DECADES
    cases = [
        (DesignConfig(), default),
        (DesignConfig(), 0.3),  # every probe collides
        (DesignConfig(time_budget_s=total_time(grid, 5) * 1.01), default),
        (DesignConfig(min_frequency_hz=grid.f_end * 1.5), default),
        (DesignConfig(freeze_endpoints=False), default),  # edge points probe past the band
    ]
    ws = _EigenWorkspace(STATE_A, grid, ERR)
    statuses = set()
    for cfg, separation in cases:
        monkeypatch.setattr(eisopt.design, "MIN_SEPARATION_DECADES", separation)
        for index in sorted(set(range(len(grid))) - _frozen_set(grid, cfg)):
            got = adjust_frequency(ws, grid, index, cfg)
            assert got == _sequential_climb(grid, index, cfg, ws)
            statuses.add(got[1])
            if got[1] != "stalled":
                # the returned eigenvalue is the moved grid's, solved exactly
                assert got[2] == _solved(ws, index, [got[0]])[0]
    assert statuses == {"adjusted", "floor-limited", "stalled"}


# ---------------------------------------------------------------------------
# properties over the parameter domain

_BASE = log_spaced_inclusive(1e4, 0.01, 10)
_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


_grids = st.builds(
    lambda threshold, ppd: reduce_ppd(_BASE, threshold, ppd),
    st.sampled_from((0.1, 1.0, 10.0)),
    st.integers(3, 9),
)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@_PROPERTY
@given(theta=thetas(), grid=_grids, data=st.data())
def test_probe_bounds_hold_and_solved_rows_are_bit_equal(theta, grid, data):
    ws = _EigenWorkspace(theta, grid, ERR)
    # moves in and far out of the band; at 1e-300 or 1e300 Hz a probe's
    # terms overflow and its matrix is not finite
    moves = data.draw(st.lists(
        st.tuples(st.integers(0, len(grid) - 1),
                  st.floats(-3.0, 5.0) | st.sampled_from((-300.0, 300.0))),
        min_size=1, max_size=12,
    ))
    indices = np.array([i for i, _ in moves])
    freqs = [10.0**log_f for _, log_f in moves]
    if data.draw(st.booleans()):  # one index for every move, as the climb asks
        indices[:] = indices[0]
        bounds, solve = ws.probe(int(indices[0]), freqs)
    else:
        bounds, solve = ws.probe(indices, freqs)
    # the reference: each moved matrix built from the full per-point pieces
    # and solved on its own
    contrib = fisher_contributions(theta, np.array(freqs), ERR)
    with np.errstate(over="ignore", invalid="ignore"):
        moved = (ws.total - ws.parts[indices] + contrib) * ws._outer
    finite = np.isfinite(moved).all(axis=(1, 2))
    exact = np.array([np.linalg.eigvalsh(m)[0] if ok else np.nan
                      for m, ok in zip(moved, finite)])
    # every bound is at least the eigenvalue; a NaN bound proves nothing
    assert not np.any(bounds[finite] < exact[finite])
    # any rows, in any order, solve bit for bit as on their own
    rows = np.array(data.draw(st.lists(st.integers(0, len(freqs) - 1),
                                       min_size=1, unique=True)))
    assert np.array_equal(_bits(solve(rows)), _bits(exact[rows]))


@_PROPERTY
@given(theta=thetas(), grid=_grids)
def test_lazy_ranking_equals_exhaustive_ranking(theta, grid):
    cfg = DesignConfig(freeze_endpoints=False)
    ws = _EigenWorkspace(theta, grid, ERR)
    lazy = list(_scan_ranking(ws, grid, cfg))
    # the same scores solved for every candidate at once: probes clamped
    # into the band, and -inf for one the climb may not take
    step = SCAN_STEP_DECADES
    log_f = np.log10(grid.frequencies)
    targets = np.array([math.log10(f) + sign * step for f in ws.freqs for sign in (1.0, -1.0)])
    landed = np.clip(targets, math.log10(grid.f_end), math.log10(grid.f_start))
    gaps = np.abs(log_f[:, None] - landed)
    own = (np.repeat(np.arange(len(grid)), 2), np.arange(len(landed)))
    gaps[own] = np.where(landed == targets, np.inf, gaps[own])
    out = np.any(gaps < eisopt.design.MIN_SEPARATION_DECADES, axis=0)
    lams = _solved(ws, own[0], [10.0**x for x in landed.tolist()])
    lams[out] = -np.inf
    scores = np.max((lams.reshape(-1, 2) - ws.lambda_min) / step, axis=1)
    assert lazy == np.lexsort((np.arange(len(grid)), -scores)).tolist()
    # Against full recomputation the order holds up to rounding-level ties:
    # sparse grids can leave lambda_min itself at rounding level, where the
    # two summation orders rank differently.
    _, oracle = _oracle_ranking(theta, grid, ERR)
    # The scaled matrix's eigenvalues, taken directly: uncertainty_report
    # would raise on the singular draws pinned at phi_LF = 0.
    scale = np.abs(theta.to_array())
    lam_max = np.linalg.eigvalsh(fisher(theta, grid, ERR).matrix * np.outer(scale, scale))[-1]
    tie = 1e-12 * lam_max / step
    for a, b in zip(lazy, lazy[1:]):
        assert oracle[a] >= oracle[b] - tie


@_PROPERTY
@given(theta=thetas(), grid=_grids, data=st.data())
def test_climb_matches_sequential_climb_over_the_domain(theta, grid, data):
    budget = data.draw(st.sampled_from((None, 1.01)))
    separation = data.draw(st.sampled_from((1e-6, 0.05)))
    frozen = data.draw(st.booleans())
    cfg = DesignConfig(
        time_budget_s=None if budget is None else budget * total_time(grid, 5),
        # a floor between grid points clamps a walk's probe mid-ray
        min_frequency_hz=data.draw(st.sampled_from((None, 0.03))
                                   | st.floats(-2.0, 1.0).map(lambda x: 10.0**x)),
        freeze_endpoints=frozen,
    )
    free = st.integers(1, len(grid) - 2) if frozen else st.integers(0, len(grid) - 1)
    ws = _EigenWorkspace(theta, grid, ERR)
    with mock.patch.object(eisopt.design, "MIN_SEPARATION_DECADES", separation):
        for index in data.draw(st.lists(free, min_size=1, max_size=4)):
            got = adjust_frequency(ws, grid, index, cfg)
            assert got == _sequential_climb(grid, index, cfg, ws)
            if got[1] != "stalled":
                # No self-moves: a clamp back onto the point is out, and an
                # unclamped move is at least one climb step, of 1.95e-4
                # decade or more, which a patched separation may exceed.
                moved = abs(math.log10(got[0]) - math.log10(grid.frequencies[index]))
                assert moved >= min(separation, CLIMB_STOP_DECADES)
            # A response peaked decades away walks far longer than one
            # batch looks ahead, through new batches and clamps.
            origin = math.log10(grid.frequencies[index])
            sign = data.draw(st.sampled_from((1.0, -1.0)))
            peak = origin + sign * data.draw(st.floats(0.5, 3.0))
            walk_cfg = cfg
            if sign < 0 and data.draw(st.booleans()):
                # a floor a few steps down the walk, where a ray probe clamps
                floor = 10.0 ** (origin - data.draw(st.floats(0.12, 0.4)))
                walk_cfg = replace(cfg, min_frequency_hz=floor)
            stub = _StubWorkspace(grid, index, lambda lf: -abs(lf - peak))
            got = adjust_frequency(stub, grid, index, walk_cfg)
            assert got == _sequential_climb(grid, index, walk_cfg, stub)
            if abs(math.log10(got[0]) - origin) > (_LOOK_AHEAD + 2) * CLIMB_STEP_DECADES:
                assert stub.batches >= 3  # the opening batch and two walk batches at least


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_values():
    # a config file's JSON values arrive unconverted: strings, bools, floats
    for kwargs in (
        {"max_iterations": -1},
        {"max_iterations": "5"},
        {"max_iterations": 2.0},
        {"max_iterations": True},
        {"n_p": 0},
        {"n_p": "5"},
        {"n_p": False},
        {"min_frequency_hz": 0},
        {"min_frequency_hz": -1.0},
        {"min_frequency_hz": math.nan},
        {"min_frequency_hz": "0.02"},
        {"time_budget_s": 0.0},
        {"time_budget_s": math.inf},
        {"time_budget_s": True},
        {"freeze_endpoints": "false"},
        {"freeze_endpoints": 0},
    ):
        (name,) = kwargs
        with pytest.raises(DomainError, match=name):
            DesignConfig(**kwargs)


def test_config_accepts_json_integers_as_frequencies_and_times():
    cfg = DesignConfig(min_frequency_hz=1, time_budget_s=3000)
    assert (cfg.min_frequency_hz, cfg.time_budget_s) == (1, 3000)


# ---------------------------------------------------------------------------
# full loop


BASELINE = log_spaced_inclusive(1e4, 0.01, 10)
GRID = reduce_ppd(BASELINE, 1.0, 7)
SPECTRUM = synthesize(STATE_A, GRID, ERR, seed=42)
CFG = DesignConfig(max_iterations=3)
TRACE = run_design(SPECTRUM, STATE_A, CFG, err=ERR, reference_grid=BASELINE, seed=42)


def test_loop_trace_structure():
    steps = TRACE.steps
    assert steps[0].iteration == 0
    assert steps[0].status == "initial"
    assert steps[0].index is None
    assert steps[0].lambda_min_before == steps[0].lambda_min_after
    assert [s.iteration for s in steps] == list(range(len(steps)))
    assert len(steps) == CFG.max_iterations + 1
    assert TRACE.terminated == "max_iterations"
    assert TRACE.final is steps[-1]


def test_loop_improves_eigenvalue_at_fixed_estimate():
    for step in TRACE.steps[1:]:
        assert step.status in ("adjusted", "floor-limited")
        assert step.lambda_min_after > step.lambda_min_before


def test_loop_preserves_grid_cardinality_and_band():
    n0 = len(TRACE.steps[0].grid)
    for step in TRACE.steps:
        grid = step.grid
        assert len(grid) == n0
        assert grid.f_start == GRID.f_start
        assert grid.f_end == GRID.f_end
        freqs = grid.frequencies
        assert np.all(freqs <= GRID.f_start * (1 + 1e-12))
        assert np.all(freqs >= GRID.f_end * (1 - 1e-12))


def test_loop_records_consistent_volumes_and_times():
    for step in TRACE.steps:
        assert step.normalized_volume == pytest.approx(
            math.exp(step.log_volume - step.log_volume_ref), rel=1e-12
        )
        assert step.t_tot_s == pytest.approx(
            total_time(step.grid, CFG.n_p), rel=1e-12
        )


def test_loop_zero_iterations_reports_reduced_grid_state():
    fractional = log_spaced(1e4, 0.01, 10)
    thinned = synthesize(STATE_A, reduce_ppd(fractional, 1.0, 7), ERR, seed=42)
    for spectrum, baseline in ((SPECTRUM, BASELINE), (thinned, fractional)):
        trace = run_design(spectrum, STATE_A, DesignConfig(max_iterations=0),
                           err=ERR, reference_grid=baseline, seed=0)
        assert len(trace.steps) == 1
        assert trace.terminated == "max_iterations"
        step = trace.steps[0]
        fim = fisher(step.theta, spectrum.grid, ERR)
        ref = fisher(step.theta, baseline, ERR)
        expected = math.exp(ellipsoid_log_volume(fim) - ellipsoid_log_volume(ref))
        assert step.normalized_volume == pytest.approx(expected, rel=1e-10)
        # thinning below 1 Hz costs volume, but less than a factor of three
        assert 1.0 < step.normalized_volume < 3.0


def test_loop_needs_its_error_model_and_reference_grid():
    for missing in ("err", "reference_grid", "seed"):
        kwargs = {"err": ERR, "reference_grid": BASELINE, "seed": 0}
        del kwargs[missing]
        with pytest.raises(TypeError, match=missing):
            run_design(SPECTRUM, STATE_A, CFG, **kwargs)


def test_loop_is_deterministic_for_a_seed():
    again = run_design(SPECTRUM, STATE_A, CFG, err=ERR, reference_grid=BASELINE, seed=42)
    assert len(again.steps) == len(TRACE.steps)
    for a, b in zip(again.steps, TRACE.steps):
        assert a.to_json_dict() == b.to_json_dict()


def test_loop_respects_time_budget():
    budget = total_time(GRID, 5) * 1.10
    cfg = DesignConfig(max_iterations=2, time_budget_s=budget)
    trace = run_design(SPECTRUM, STATE_A, cfg, err=ERR, reference_grid=BASELINE, seed=42)
    for step in trace.steps:
        assert step.t_tot_s <= budget + 1e-9


def test_singular_refit_ends_the_trace(monkeypatch):
    real_fit = eisopt.design.fit_wcnls
    calls = []

    def collapsing_fit(spectrum, theta0):
        result = real_fit(spectrum, theta0)
        calls.append(result)
        if len(calls) == 1:
            return result
        # the second arc shorts out: R_2 -> 0 while Q_2 -> inf
        return replace(
            result, theta=replace(result.theta, r_2=1.45e-15, q_2=1.74e16, phi_2=1.0)
        )

    monkeypatch.setattr(eisopt.design, "fit_wcnls", collapsing_fit)
    trace = run_design(SPECTRUM, STATE_A, CFG, err=ERR, reference_grid=BASELINE, seed=42)
    assert len(calls) == 2
    assert trace.terminated.startswith("singular_information: ")
    assert len(trace.steps) == 1
    assert trace.final.status == "initial"


def test_loop_ends_when_every_candidate_stalls(monkeypatch):
    asked = []

    def stalling_climb(ws, grid, index, cfg):
        asked.append(index)
        return float(ws.freqs[index]), "stalled", ws.lambda_min

    monkeypatch.setattr(eisopt.design, "adjust_frequency", stalling_climb)
    trace = run_design(SPECTRUM, STATE_A, CFG, err=ERR, reference_grid=BASELINE, seed=42)
    # the loop fell through the whole ranking, each free point once
    assert sorted(asked) == list(range(1, len(GRID) - 1))
    assert trace.terminated == "stalled"
    assert len(trace.steps) == 1
    assert trace.final.status == "initial"


def test_failed_refit_ends_the_trace(monkeypatch):
    real_fit = eisopt.design.fit_wcnls
    calls = []

    def failing_refit(spectrum, theta_start):
        calls.append(spectrum)
        if len(calls) > 1:
            raise FitError("damping exhausted")
        return real_fit(spectrum, theta_start)

    monkeypatch.setattr(eisopt.design, "fit_wcnls", failing_refit)
    trace = run_design(SPECTRUM, STATE_A, CFG, err=ERR, reference_grid=BASELINE, seed=42)
    assert len(calls) == 2
    # the refit saw the moved point, and the trace ends before its row
    assert not np.array_equal(calls[1].grid.frequencies, SPECTRUM.grid.frequencies)
    assert trace.terminated == "fit_error: damping exhausted"
    assert len(trace.steps) == 1
    assert trace.final.status == "initial"


def test_singular_initial_fit_raises_with_context(monkeypatch):
    real_fit = eisopt.design.fit_wcnls
    collapsed = []

    def collapsing_fit(spectrum, theta0):
        result = real_fit(spectrum, theta0)
        # the initial fit converges onto a shorted second arc
        theta = replace(result.theta, r_2=3.4e-15, q_2=2.2e16, phi_2=1.0)
        collapsed.append(theta)
        return replace(result, theta=theta)

    monkeypatch.setattr(eisopt.design, "fit_wcnls", collapsing_fit)
    with pytest.raises(SingularInformationError, match=r"^initial fit: ") as info:
        run_design(SPECTRUM, STATE_A, CFG, err=ERR, reference_grid=BASELINE, seed=42)
    assert len(collapsed) == 1
    with pytest.raises(SingularInformationError) as direct:
        ellipsoid_log_volume(fisher(collapsed[0], GRID, ERR))
    assert str(info.value) == f"initial fit: {direct.value}"
    assert info.value.lambda_min == direct.value.lambda_min
    assert info.value.condition_number == direct.value.condition_number


def _fit_returning(r_1, after_calls):
    """A fit_wcnls stand-in that, from call ``after_calls`` on, returns the
    real fit with R_1 replaced, so the information matrix overflows."""
    real_fit = eisopt.design.fit_wcnls
    calls = []

    def fit(spectrum, theta0):
        result = real_fit(spectrum, theta0)
        calls.append(result)
        if len(calls) <= after_calls:
            return result
        return replace(result, theta=replace(result.theta, r_1=r_1))

    return fit


def test_non_finite_refit_ends_the_trace(monkeypatch):
    monkeypatch.setattr(eisopt.design, "fit_wcnls", _fit_returning(1e200, after_calls=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_design(SPECTRUM, STATE_A, CFG, err=ERR, reference_grid=BASELINE, seed=42)
    assert trace.terminated == "singular_information: information matrix is not finite"
    assert len(trace.steps) == 1
    assert trace.final.status == "initial"


def test_non_finite_initial_fit_raises_with_context(monkeypatch):
    monkeypatch.setattr(eisopt.design, "fit_wcnls", _fit_returning(1e200, after_calls=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularInformationError,
                           match=r"^initial fit: information matrix is not finite$"):
            run_design(SPECTRUM, STATE_A, CFG, err=ERR, reference_grid=BASELINE, seed=42)


def test_trace_serialization_round_trip(tmp_path):
    jsonl = tmp_path / "trace.jsonl"
    TRACE.save_jsonl(jsonl)
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(rows) == len(TRACE.steps)
    assert rows[0]["status"] == "initial"
    assert rows[-1]["normalized_volume"] == TRACE.final.normalized_volume
    assert set(rows[0]) >= {
        "iteration",
        "status",
        "index",
        "f_before_hz",
        "f_after_hz",
        "lambda_min_before",
        "lambda_min_after",
        "log_volume",
        "normalized_volume",
        "t_tot_s",
        "theta",
        "grid",
    }

    csv_path = tmp_path / "trace.csv"
    TRACE.save_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == (
        "iteration,status,index,f_before_hz,f_after_hz,lambda_min_before,"
        "lambda_min_after,log_volume,normalized_volume,t_tot_s"
    )
    assert len(lines) == len(TRACE.steps) + 1
    last = lines[-1].split(",")
    assert float(last[8]) == TRACE.final.normalized_volume


# sha256 prefixes of the JSONL and CSV trace files, recorded on this
# platform like the fit and sweep-cell pins: a different BLAS/LAPACK or CPU
# may need them re-recorded.  A change that keeps the numbers keeps these.
# At 20 iterations STATE_B-unfrozen and every STATE_A constraint leave the
# default run's bits; the other two constraints steer STATE_B elsewhere.
_BIT_STABLE_TRACES = {
    "STATE_A": ("edc96d5981146e42", "6e0031bb9d1bc410"),
    "STATE_B": ("5c663499ae8ccdb3", "1611e5aa2bef2ed2"),
    "STATE_A-unfrozen": ("edc96d5981146e42", "6e0031bb9d1bc410"),
    "STATE_B-unfrozen": ("5c663499ae8ccdb3", "1611e5aa2bef2ed2"),
    "STATE_A-floor": ("edc96d5981146e42", "6e0031bb9d1bc410"),
    "STATE_B-floor": ("0fb67e96dfd23f35", "1cfaaa6cc482bd23"),
    "STATE_A-budget": ("edc96d5981146e42", "6e0031bb9d1bc410"),
    "STATE_B-budget": ("b39649cd380fa716", "546fefe2ed2c7ad9"),
}


@pytest.mark.parametrize("case", sorted(_BIT_STABLE_TRACES))
def test_design_traces_are_bit_stable(case, tmp_path):
    state, _, constraint = case.partition("-")
    theta = {"STATE_A": STATE_A, "STATE_B": STATE_B}[state]
    grid = reduce_ppd(BASELINE, 0.1, 7)
    cfg = DesignConfig(max_iterations=20, **{
        "": {},
        "unfrozen": {"freeze_endpoints": False},
        "floor": {"min_frequency_hz": 0.03},
        "budget": {"time_budget_s": 1.02 * total_time(grid, 5)},
    }[constraint])
    spectrum = synthesize(theta, grid, ERR, seed=3)
    trace = run_design(spectrum, theta, cfg, err=ERR, reference_grid=BASELINE, seed=4)
    trace.save_jsonl(tmp_path / "trace.jsonl")
    trace.save_csv(tmp_path / "trace.csv")
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
                for name in ("trace.jsonl", "trace.csv"))
    assert got == _BIT_STABLE_TRACES[case]


def test_the_loop_solves_only_the_what_ifs_its_decisions_compare(monkeypatch):
    # The STATE_A case of the pins above, counted: eigvalsh matrices and
    # model evaluations through eisopt.information (each iteration's
    # workspace, reference volume and scan, plus the climb's probe
    # batches).  A fixed seed repeats them exactly.  Before the climb
    # asked look-ahead batches and solved ladders level by level, the same
    # run took 1,066 matrices and 158 evaluations.
    counts = {"matrices": 0, "evaluations": 0}
    eigvalsh = np.linalg.eigvalsh
    evaluate = eisopt.information._impedance_and_gradient

    def counted_eigvalsh(a):
        counts["matrices"] += math.prod(np.shape(a)[:-2])
        return eigvalsh(a)

    def counted_evaluate(theta, omega):
        counts["evaluations"] += 1
        return evaluate(theta, omega)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(eisopt.information, "_impedance_and_gradient", counted_evaluate)
    grid = reduce_ppd(BASELINE, 0.1, 7)
    spectrum = synthesize(STATE_A, grid, ERR, seed=3)
    run_design(spectrum, STATE_A, DesignConfig(max_iterations=20), err=ERR,
               reference_grid=BASELINE, seed=4)
    assert counts == {"matrices": 550, "evaluations": 106}
