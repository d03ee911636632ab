"""Iterative frequency adjustment maximizing the smallest information eigenvalue.

One outer iteration performs the four-step cycle: fit the parameters to the
current spectrum, find the measurement frequency whose perturbation moves
the smallest eigenvalue of the information matrix the most, hill-climb that
frequency in log space until the eigenvalue stops improving, then
re-measure at the new frequency (replacing the old sample, so the point
count and total sweep structure are preserved) and continue.  The smallest
eigenvalue corresponds to the longest axis of the parameter uncertainty
ellipsoid; pushing it up shrinks the ellipsoid where it is widest.

All eigenvalue comparisons within one iteration happen at the iteration's
fixed parameter estimate; moves are only accepted when they improve it, so
per-adjustment improvement is guaranteed by construction.  The ellipsoid
volume is reported normalized against a reference grid (by default the
dense baseline sweep) evaluated at the same parameter estimate.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import ParameterVector
from .exceptions import DesignError, DomainError, FitError, SingularInformationError
from .estimation import FitOptions, fit_wcnls, initialize
from .frequency import FrequencyGrid, log_spaced_inclusive, total_time
from .information import (
    FisherMatrix,
    eigen_scale,
    ellipsoid_log_volume,
    fisher,
    fisher_contributions,
)
from .measurement import ErrorStructure, Spectrum, measure_at


@dataclass(frozen=True)
class DesignConfig:
    max_iterations: int = 60
    # Probe size for ranking candidate frequencies, in decades.
    scan_step_decades: float = 0.01
    # Hill-climb: initial step, shrink factor on failure, stopping step.
    climb_step_decades: float = 0.05
    climb_shrink: float = 0.5
    climb_stop_decades: float = 1e-4
    # Moved points may not approach an existing one closer than this.
    min_separation_decades: float = 1e-6
    # Hard floor for any frequency; None means the grid's lowest frequency.
    min_frequency_hz: float | None = None
    # Optional cap on the sweep duration of every iteration's grid.
    time_budget_s: float | None = None
    n_p: int = 5
    freeze_endpoints: bool = True
    frozen_indices: tuple = field(default_factory=tuple)
    eigen_scaling: str = "log"
    include_variance_term: bool = True

    def __post_init__(self):
        if self.max_iterations < 0:
            raise DomainError("max_iterations must be >= 0")
        for name in ("scan_step_decades", "climb_step_decades", "climb_shrink",
                     "climb_stop_decades", "min_separation_decades"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")
        if self.climb_shrink >= 1.0:
            raise DomainError("climb_shrink must be < 1")
        if self.n_p < 1:
            raise DomainError("n_p must be >= 1")


@dataclass(frozen=True, eq=False)
class AdjustmentStep:
    """One row of the loop trace; iteration 0 is the pre-loop evaluation."""

    iteration: int
    status: str
    index: int | None
    f_before_hz: float | None
    f_after_hz: float | None
    lambda_min_before: float
    lambda_min_after: float
    log_volume: float
    log_volume_ref: float
    normalized_volume: float
    t_tot_s: float
    theta: ParameterVector
    grid: FrequencyGrid

    def to_json_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "status": self.status,
            "index": self.index,
            "f_before_hz": self.f_before_hz,
            "f_after_hz": self.f_after_hz,
            "lambda_min_before": self.lambda_min_before,
            "lambda_min_after": self.lambda_min_after,
            "log_volume": self.log_volume,
            "log_volume_ref": self.log_volume_ref,
            "normalized_volume": self.normalized_volume,
            "t_tot_s": self.t_tot_s,
            "theta": self.theta.to_dict(),
            "grid": self.grid.to_json_dict(),
        }


@dataclass(frozen=True, eq=False)
class AdjustmentTrace:
    steps: tuple
    terminated: str
    config: DesignConfig

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def final(self) -> AdjustmentStep:
        return self.steps[-1]

    def normalized_volumes(self) -> np.ndarray:
        return np.array([s.normalized_volume for s in self.steps])

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for step in self.steps:
                fh.write(json.dumps(step.to_json_dict()))
                fh.write("\n")

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "status", "index", "f_before_hz", "f_after_hz",
                 "lambda_min_before", "lambda_min_after", "log_volume",
                 "normalized_volume", "t_tot_s"]
            )
            for s in self.steps:
                writer.writerow(
                    [s.iteration, s.status, s.index, s.f_before_hz, s.f_after_hz,
                     repr(s.lambda_min_before), repr(s.lambda_min_after),
                     repr(s.log_volume), repr(s.normalized_volume),
                     repr(s.t_tot_s)]
                )


class _EigenWorkspace:
    """Cached per-point information pieces for batched what-if evaluation.

    Moving point i to frequency f changes the information matrix by
    -P_i + P(f).  :meth:`lambdas_with_moves` answers a whole batch of such
    questions with one model evaluation over all probe frequencies and one
    stacked 11x11 eigendecomposition.
    """

    def __init__(self, theta: ParameterVector, grid: FrequencyGrid,
                 err: ErrorStructure, cfg: DesignConfig):
        self.theta = theta
        self.err = err
        self.cfg = cfg
        self.freqs = grid.as_array()
        self.parts = fisher_contributions(
            theta, grid, err, cfg.include_variance_term
        )
        self.total = np.sum(self.parts, axis=0)
        scale = eigen_scale(theta, cfg.eigen_scaling)
        self._outer = np.outer(scale, scale)
        self.lambda_min = float(np.linalg.eigvalsh(self.total * self._outer)[0])

    def lambdas_with_moves(self, indices, freqs_hz) -> np.ndarray:
        """Smallest scaled eigenvalue after moving point ``indices[k]`` to
        ``freqs_hz[k]``, for every k; each move is applied on its own."""
        contrib = fisher_contributions(
            self.theta, np.asarray(freqs_hz, dtype=float), self.err,
            self.cfg.include_variance_term,
        )
        moved = self.total - self.parts[np.asarray(indices)] + contrib
        return np.linalg.eigvalsh(moved * self._outer)[:, 0]


def _frozen_set(grid: FrequencyGrid, cfg: DesignConfig) -> set:
    frozen = set(int(i) for i in cfg.frozen_indices)
    if cfg.freeze_endpoints:
        frozen.update((0, len(grid) - 1))
    return frozen


def _scan_ranking(ws: _EigenWorkspace, grid: FrequencyGrid, cfg: DesignConfig):
    """Free candidate indices ordered by decreasing improvement potential.

    Each free candidate is probed a small step up and down in log
    frequency; its score is the better signed eigenvalue change per
    decade over the two directions.  Scoring the achievable gain rather
    than the absolute change keeps the loop from re-polishing points
    already sitting on sharp local maxima, whose eigenvalue responds
    strongly to perturbation but cannot be improved.  Equal scores order
    by index, so the ranking does not depend on evaluation order.
    """
    frozen = _frozen_set(grid, cfg)
    if len(frozen) >= len(grid):
        raise DesignError("every grid frequency is frozen; nothing to scan")
    free = [i for i in range(len(grid)) if i not in frozen]
    step = cfg.scan_step_decades
    probes = [
        10.0 ** (math.log10(ws.freqs[i]) + sign * step)
        for i in free
        for sign in (1.0, -1.0)
    ]
    lams = ws.lambdas_with_moves(np.repeat(free, 2), probes).reshape(-1, 2)
    scores = np.max((lams - ws.lambda_min) / step, axis=1)
    return [free[k] for k in np.lexsort((free, -scores))]


def sensitivity_scan(
    theta_hat: ParameterVector,
    grid: FrequencyGrid,
    err: ErrorStructure,
    cfg: DesignConfig,
    workspace: _EigenWorkspace | None = None,
) -> int:
    """Index of the frequency whose perturbation most improves the smallest
    eigenvalue; ties break toward the lowest index."""
    ws = workspace or _EigenWorkspace(theta_hat, grid, err, cfg)
    return int(_scan_ranking(ws, grid, cfg)[0])


def adjust_frequency(
    theta_hat: ParameterVector,
    grid: FrequencyGrid,
    index: int,
    err: ErrorStructure,
    cfg: DesignConfig,
    workspace: _EigenWorkspace | None = None,
):
    """Hill-climb one frequency in log space to raise the smallest eigenvalue.

    Returns (new_frequency_hz, status) with status one of "adjusted",
    "floor-limited" (the improving direction ran into the frequency floor
    or band edge) or "stalled" (no improving move even at the smallest
    step; the frequency is returned unchanged).
    """
    ws = workspace or _EigenWorkspace(theta_hat, grid, err, cfg)
    if index in _frozen_set(grid, cfg):
        raise DesignError(f"frequency index {index} is frozen")
    freqs = ws.freqs
    floor = cfg.min_frequency_hz if cfg.min_frequency_hz is not None else grid.f_end
    log_lo = math.log10(floor)
    log_hi = math.log10(grid.f_start)
    others = np.delete(np.log10(freqs), index)
    t_now = total_time(grid, cfg.n_p) if cfg.time_budget_s is not None else None

    def admissible(log_f: float):
        """(log frequency clamped to the band, or None when the point would
        collide with another or exceed the time budget; whether clamped)."""
        log_c = min(max(log_f, log_lo), log_hi)
        clamped = log_c != log_f
        if np.any(np.abs(others - log_c) < cfg.min_separation_decades):
            return None, clamped
        if t_now is not None:
            t_new = t_now - cfg.n_p / freqs[index] + cfg.n_p / 10.0**log_c
            if t_new > cfg.time_budget_s:
                return None, clamped
        return log_c, clamped

    def lambdas(logs):
        if not logs:
            return []
        return ws.lambdas_with_moves([index] * len(logs), [10.0**x for x in logs]).tolist()

    current_log = math.log10(freqs[index])
    current_lam = ws.lambda_min

    # Until the first improving move the climb probes from a fixed point
    # against a fixed eigenvalue, so the whole opening ladder of shrinking
    # steps is evaluated in one batch; the first level with a gain wins.
    ladder = []
    step = cfg.climb_step_decades
    while step >= cfg.climb_stop_decades:
        ladder.append(step)
        step *= cfg.climb_shrink
    rungs = [[admissible(current_log + sign * s) for sign in (1.0, -1.0)] for s in ladder]
    lams = iter(lambdas([log_c for rung in rungs for log_c, _ in rung if log_c is not None]))
    clamped = False
    for step, rung in zip(ladder, rungs):
        gains = {}
        for sign, (log_c, was_clamped) in zip((1.0, -1.0), rung):
            clamped = clamped or was_clamped
            lam = next(lams) if log_c is not None else None
            if lam is not None and lam > current_lam:
                gains[sign] = (log_c, lam)
        if gains:
            direction = max(gains, key=lambda s: gains[s][1])
            current_log, current_lam = gains[direction]
            break
    else:
        return float(freqs[index]), "stalled"

    # Walk in the chosen direction; shrink the step when it stops helping.
    while step >= cfg.climb_stop_decades:
        log_t, was_clamped = admissible(current_log + direction * step)
        clamped = clamped or was_clamped
        lam = lambdas([log_t])[0] if log_t is not None else None
        if lam is not None and lam > current_lam:
            current_log, current_lam = log_t, lam
        else:
            step *= cfg.climb_shrink
    status = "floor-limited" if clamped else "adjusted"
    return float(10.0**current_log), status


def _reference_grid(grid: FrequencyGrid) -> FrequencyGrid:
    """Dense baseline used for volume normalization: the inclusive sweep at
    the grid's default density over the same band.  Falls back to the grid
    itself when no density provenance is recorded."""
    if grid.ppd_default is None:
        return grid
    return log_spaced_inclusive(grid.f_start, grid.f_end, grid.ppd_default)


def _volume_pair(theta, grid, ref_grid, err, include_variance_term):
    logv = ellipsoid_log_volume(fisher(theta, grid, err, include_variance_term))
    logv_ref = ellipsoid_log_volume(fisher(theta, ref_grid, err, include_variance_term))
    return logv, logv_ref


def run_design(
    spectrum: Spectrum,
    theta_true_for_simulation: ParameterVector,
    cfg: DesignConfig,
    err: ErrorStructure | None = None,
    seed: int = 0,
    reference_grid: FrequencyGrid | None = None,
    theta0: ParameterVector | None = None,
    fit_opts: FitOptions | None = None,
) -> AdjustmentTrace:
    """Run the full adjustment loop on a measured (or synthetic) spectrum.

    ``theta_true_for_simulation`` drives the simulated re-measurements;
    the loop's own knowledge of the cell comes only from fits.  ``seed``
    seeds the re-measurement noise.  The trace records iteration 0 (the
    evaluation of the unmodified grid) and one row per adjustment.
    """
    err = err or ErrorStructure()
    rng = np.random.default_rng(seed)
    ref = reference_grid if reference_grid is not None else _reference_grid(spectrum.grid)

    theta_hat = theta0
    if theta_hat is None:
        theta_hat = initialize(spectrum)
    result = fit_wcnls(spectrum, theta_hat, fit_opts)
    theta_hat = result.theta

    ws = _EigenWorkspace(theta_hat, spectrum.grid, err, cfg)
    logv, logv_ref = _volume_pair(
        theta_hat, spectrum.grid, ref, err, cfg.include_variance_term
    )
    steps = [
        AdjustmentStep(
            iteration=0,
            status="initial",
            index=None,
            f_before_hz=None,
            f_after_hz=None,
            lambda_min_before=ws.lambda_min,
            lambda_min_after=ws.lambda_min,
            log_volume=logv,
            log_volume_ref=logv_ref,
            normalized_volume=math.exp(logv - logv_ref),
            t_tot_s=total_time(spectrum.grid, cfg.n_p),
            theta=theta_hat,
            grid=spectrum.grid,
        )
    ]
    terminated = "max_iterations"

    for iteration in range(1, cfg.max_iterations + 1):
        # Most influential point first; when its own moves cannot improve
        # the eigenvalue, fall through the ranking to the next candidate.
        f_new, status, index = None, "stalled", None
        for candidate in _scan_ranking(ws, spectrum.grid, cfg):
            f_new, status = adjust_frequency(
                theta_hat, spectrum.grid, candidate, err, cfg, ws
            )
            if status != "stalled":
                index = candidate
                break
        if status == "stalled":
            terminated = "stalled"
            break
        f_old = spectrum.grid.frequencies[index]
        lam_before = ws.lambda_min
        lam_after = float(ws.lambdas_with_moves([index], [f_new])[0])

        mag, phase, smag, sphase = measure_at(
            theta_true_for_simulation, f_new, err, rng
        )
        spectrum = spectrum.with_replaced_point(index, f_new, mag, phase, smag, sphase)
        try:
            result = fit_wcnls(spectrum, theta_hat, fit_opts)
        except FitError as exc:
            terminated = f"fit_error: {exc}"
            break
        theta_hat = result.theta

        # A refit can collapse an arc (R -> 0, Q -> inf) and leave the
        # information matrix singular; the trace ends there like a failed fit.
        try:
            logv, logv_ref = _volume_pair(
                theta_hat, spectrum.grid, ref, err, cfg.include_variance_term
            )
        except SingularInformationError as exc:
            terminated = f"singular_information: {exc}"
            break
        ws = _EigenWorkspace(theta_hat, spectrum.grid, err, cfg)
        steps.append(
            AdjustmentStep(
                iteration=iteration,
                status=status,
                index=index,
                f_before_hz=float(f_old),
                f_after_hz=float(f_new),
                lambda_min_before=lam_before,
                lambda_min_after=lam_after,
                log_volume=logv,
                log_volume_ref=logv_ref,
                normalized_volume=math.exp(logv - logv_ref),
                t_tot_s=total_time(spectrum.grid, cfg.n_p),
                theta=theta_hat,
                grid=spectrum.grid,
            )
        )

    return AdjustmentTrace(steps=tuple(steps), terminated=terminated, config=cfg)
