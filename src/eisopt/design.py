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
volume is reported normalized against the caller's reference grid (the
dense baseline sweep the reduced grid came from) evaluated at the same
parameter estimate.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .circuit import ParameterVector
from .exceptions import DesignError, DomainError, FitError, SingularInformationError
from .estimation import fit_wcnls, initialize
from .frequency import FrequencyGrid, _count, total_time
from .information import (
    FisherMatrix,
    _scaled,
    ellipsoid_log_volume,
    fisher,
    fisher_contributions,
)
from .measurement import ErrorStructure, Spectrum, measure_at, write_table


# Step sizes of the loop, in decades of frequency.  They belong to the
# search, not to the experiment, so they are constants rather than settings.
# Probe size for ranking candidate frequencies.
SCAN_STEP_DECADES = 0.01
# Hill-climb: initial step, shrink factor on failure, stopping step.
CLIMB_STEP_DECADES = 0.05
CLIMB_SHRINK = 0.5
CLIMB_STOP_DECADES = 1e-4
# Moved points may not approach an existing one closer than this.
MIN_SEPARATION_DECADES = 1e-6


@dataclass(frozen=True)
class DesignConfig:
    """The experiment's constraints on the adjustment loop."""

    max_iterations: int = 60
    # Lowest frequency a move may land on; None means the grid's lowest
    # frequency.  Start-grid points below it stay until they are moved.
    min_frequency_hz: float | None = None
    # Optional cap on the sweep duration of every iteration's grid.
    time_budget_s: float | None = None
    n_p: int = 5
    freeze_endpoints: bool = True

    def __post_init__(self):
        # Values may come straight from a JSON config file, so the types are
        # checked too: "5" or "false" must not pass as a count or a flag.
        for name, low in (("max_iterations", 0), ("n_p", 1)):
            _count(name, getattr(self, name), low)
        for name in ("min_frequency_hz", "time_budget_s"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and value > 0
            ):
                raise DomainError(f"{name} must be a finite number > 0, got {value!r}")
        if not isinstance(self.freeze_endpoints, bool):
            raise DomainError(
                f"freeze_endpoints must be true or false, got {self.freeze_endpoints!r}"
            )


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
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["theta"] = self.theta.to_dict()
        data["grid"] = self.grid.to_json_dict()
        return data


@dataclass(frozen=True, eq=False)
class AdjustmentTrace:
    steps: tuple
    terminated: str

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def final(self) -> AdjustmentStep:
        return self.steps[-1]

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for step in self.steps:
                fh.write(json.dumps(step.to_json_dict()))
                fh.write("\n")

    def save_csv(self, path) -> None:
        columns = ("iteration", "status", "index", "f_before_hz", "f_after_hz",
                   "lambda_min_before", "lambda_min_after", "log_volume",
                   "normalized_volume", "t_tot_s")
        # csv writes a float as its repr and None as an empty cell
        rows = ([getattr(s, c) for c in columns] for s in self.steps)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_table(fh, {}, columns, rows)


# Rounding allowance on every Rayleigh bound, relative to the largest scaled
# eigenvalue: eigvalsh is backward stable (error a few eps * lambda_max) and
# the 121-term quadratic form rounds by at most ~121 * eps * lambda_max
# ~ 3e-14 * lambda_max, so 1e-10 exceeds both by over three orders.
_BOUND_SLACK = 1e-10

# Candidates the lazy scan solves per eigendecomposition call.  The loop
# climbs only the first candidate of a ranking in practice: for STATE_A and
# STATE_B at ppd 5-10 below 0.1 Hz (synth seed 3, run seed 4, 60 iterations)
# no scan of the 2,880 iterations under the default, unfrozen, 0.03 Hz floor
# and 1.02x time-budget constraints was asked for a second candidate, and
# one chunk of four certified the first in 503-580 of each constraint's 720.
_SCAN_CHUNK = 4


class _EigenWorkspace:
    """Cached per-point information pieces for batched what-if evaluation.

    Moving point i to frequency f changes the information matrix by
    -P_i + P(f).  :meth:`lambdas_with_moves` answers a whole batch of such
    questions with one model evaluation over all probe frequencies and one
    stacked 11x11 eigendecomposition.

    The workspace also keeps u = D v_0, where D = diag(|theta|) is the unit
    scaling and v_0 the unit eigenvector of the smallest eigenvalue of the
    scaled total.  By Courant-Fischer, u^T M u >= lambda_min(D M D) for
    every moved matrix M, so ``u^T M u + slack`` certifies an upper bound on
    a move's eigenvalue for the price of one quadratic form.  Bounds only decide
    which moves need solving; every eigenvalue that a decision compares or
    the trace records is solved by the same ``eigvalsh`` as without them.

    ``fim`` is the grid's information matrix, built exactly as
    :func:`fisher` builds it, so the loop's volume needs no second model
    evaluation.  D M D comes from the reports' own scaling, which refuses a
    matrix that is not finite but keeps a singular one.
    """

    def __init__(self, theta: ParameterVector, grid: FrequencyGrid, err: ErrorStructure):
        self.theta = theta
        self.err = err
        self.freqs = grid.frequencies
        self.parts = fisher_contributions(theta, grid, err)
        self.total = np.sum(self.parts, axis=0)
        self.fim = FisherMatrix(self.total, theta)
        scale, scaled, eigvals = _scaled(self.total, theta)
        self._outer = np.outer(scale, scale)
        self.lambda_min = float(eigvals[0])
        self._u = scale * np.linalg.eigh(scaled)[1][:, 0]
        self._slack = _BOUND_SLACK * eigvals[-1]

    def _moved(self, indices, freqs_hz) -> np.ndarray:
        """Stack of unscaled information matrices, one per move."""
        freqs = np.asarray(freqs_hz, dtype=float)
        contrib = fisher_contributions(self.theta, freqs, self.err)
        return self.total - self.parts[np.asarray(indices)] + contrib

    def _solve(self, moved: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(moved * self._outer)[:, 0]

    def _bounds(self, moved: np.ndarray) -> np.ndarray:
        return moved @ self._u @ self._u + self._slack

    def lambdas_with_moves(self, indices, freqs_hz, floor) -> np.ndarray:
        """Smallest scaled eigenvalue after moving point ``indices[k]`` to
        ``freqs_hz[k]``, for every k; each move is applied on its own.

        Only the moves whose Rayleigh bound exceeds ``floor`` are solved;
        every other entry is its bound, which lies between the move's
        eigenvalue and ``floor``.  So every entry above ``floor`` is exact,
        and a comparison ``entry > floor`` decides as the exact eigenvalue
        would.  A NaN bound proves nothing and is solved.
        """
        moved = self._moved(indices, freqs_hz)
        lams = self._bounds(moved)
        solve = ~(lams <= floor)
        if solve.any():
            lams[solve] = self._solve(moved[solve])
        return lams


def _frozen_set(grid: FrequencyGrid, cfg: DesignConfig) -> set:
    return {0, len(grid) - 1} if cfg.freeze_endpoints else set()


def _landing(grid: FrequencyGrid, cfg: DesignConfig, indices, targets: np.ndarray):
    """Where moving point ``indices[k]`` to ``targets[k]`` (log10 Hz) lands,
    and whether the loop may take that move; ``indices`` may be one index.

    The one move rule of the scan and the climb.  A target is clamped into
    the band from the floor (``min_frequency_hz``, else the grid's lowest
    frequency) to the grid's highest frequency, on the first log10 value
    whose power of ten is not below the floor.  The landed probe is out when
    it lies within ``MIN_SEPARATION_DECADES`` of another point, when the
    clamp has put it within that distance of its own point (a clamped move
    that goes nowhere), or when it would take the sweep over the time budget.  Returns (landed log10 Hz, landed Hz as a list, admissible).
    """
    f_min = cfg.min_frequency_hz if cfg.min_frequency_hz is not None else grid.f_end
    log_min = math.log10(f_min)
    while 10.0**log_min < f_min:  # 10**log10(0.03) is a rounding step below 0.03
        log_min = math.nextafter(log_min, math.inf)
    logs = np.minimum(np.maximum(targets, log_min), math.log10(grid.f_start))
    probes = [10.0**x for x in logs.tolist()]
    freqs = grid.frequencies
    near = np.abs(np.log10(freqs)[:, None] - logs) < MIN_SEPARATION_DECADES
    # an unclamped probe is never tested against its own point
    near[indices, np.arange(len(logs))] &= logs != targets
    ok = ~np.any(near, axis=0)
    if cfg.time_budget_s is not None:
        t_base = total_time(grid, cfg.n_p) - cfg.n_p / freqs[indices]
        ok &= ~(t_base + cfg.n_p / np.array(probes) > cfg.time_budget_s)
    return logs, probes, ok


def _scan_ranking(ws: _EigenWorkspace, grid: FrequencyGrid, cfg: DesignConfig):
    """Free candidate indices, lazily, by decreasing improvement potential.

    Each free candidate is probed a small step up and down in log
    frequency; its score is the better signed eigenvalue change per
    decade over the two directions.  Scoring the achievable gain rather
    than the absolute change keeps the loop from re-polishing points
    already sitting on sharp local maxima, whose eigenvalue responds
    strongly to perturbation but cannot be improved.  The probes land by
    the climb's own rule (:func:`_landing`), and a probe the climb may not
    take scores -inf, so a candidate with both probes out ranks last.
    Equal scores order by index, so the ranking does not depend on
    evaluation order.

    The ranking is certified rather than solved up front: one model
    evaluation gives every probe's Rayleigh bound and hence an upper bound
    on every score.  Exact scores are solved a few candidates at a time,
    best bound first, and a candidate is yielded once no unsolved bound
    reaches its score.  A caller that stops after the first candidates
    pays only for the eigendecompositions those needed; the full expansion
    equals the exhaustive ranking.
    """
    frozen = _frozen_set(grid, cfg)
    if len(frozen) >= len(grid):
        raise DesignError("every grid frequency is frozen; nothing to scan")
    free = [i for i in range(len(grid)) if i not in frozen]
    step = SCAN_STEP_DECADES
    indices = np.repeat(free, 2)
    targets = np.array([
        math.log10(ws.freqs[i]) + sign * step for i in free for sign in (1.0, -1.0)
    ])
    _, probes, ok = _landing(grid, cfg, indices, targets)
    moved = ws._moved(indices, probes)
    bounds = np.where(ok, ws._bounds(moved), -np.inf).reshape(-1, 2)
    bounds = np.max((bounds - ws.lambda_min) / step, axis=1)
    bounds[np.isnan(bounds)] = np.inf  # proves nothing: solve it first
    unsolved = np.lexsort((free, -bounds)).tolist()
    pos = 0
    # Solved candidates keyed as the exhaustive ranking orders them: by
    # decreasing score, then index, with NaN scores last.
    solved = []
    while pos < len(unsolved) or solved:
        if solved and (pos == len(unsolved) or (
                not solved[0][0] and -solved[0][1] > bounds[unsolved[pos]])):
            yield heapq.heappop(solved)[2]
            continue
        chunk = unsolved[pos:pos + _SCAN_CHUNK]
        pos += len(chunk)
        rows = (2 * np.array(chunk)[:, None] + (0, 1)).ravel()
        lams = np.where(ok[rows], ws._solve(moved[rows]), -np.inf).reshape(-1, 2)
        for k, score in zip(chunk, np.max((lams - ws.lambda_min) / step, axis=1)):
            nan = bool(np.isnan(score))
            heapq.heappush(solved, (nan, 0.0 if nan else -score, free[k]))


def adjust_frequency(ws: _EigenWorkspace, grid: FrequencyGrid, index: int,
                     cfg: DesignConfig):
    """Hill-climb one frequency in log space to raise the smallest eigenvalue
    of the workspace's matrix.

    Returns (new_frequency_hz, status, lambda_min) with status one of
    "adjusted", "floor-limited" (a probe of the climb was clamped at the
    frequency floor or band edge) or "stalled" (no improving move even at
    the smallest step; the frequency and the eigenvalue are returned
    unchanged).  ``lambda_min`` is the solved eigenvalue after the move.
    Every probe lands, or is out, by :func:`_landing`, the rule the scan
    ranks candidates by.

    From a fixed point the climb tries shrinking steps until one gains, so
    each such run of probes is one batched ladder against a fixed
    eigenvalue, taking the first level with a gain: the opening ladder
    tries both directions and keeps the better one, and the walk then
    repeats one-directional ladders from each accepted point.  These are
    the probes a one-at-a-time search asks, with one what-if call per
    accepted move.  Probes whose Rayleigh bound cannot beat the current
    eigenvalue are not solved (see :meth:`_EigenWorkspace.lambdas_with_moves`),
    so every accepted eigenvalue is exact.
    """
    if index in _frozen_set(grid, cfg):
        raise DesignError(f"frequency index {index} is frozen")
    freqs = ws.freqs
    clamped = False

    def ladder(origin, lam, step, signs):
        """(log f, eigenvalue, step, sign) of the best admissible move at
        the first shrink level from ``step`` down that beats ``lam``, or
        None."""
        nonlocal clamped
        steps = []
        while step >= CLIMB_STOP_DECADES:
            steps.append(step)
            step *= CLIMB_SHRINK
        targets = np.array([origin + sign * s for s in steps for sign in signs])
        logs, probes, ok = _landing(grid, cfg, index, targets)
        lams = np.full(len(logs), -np.inf)
        if ok.any():
            lams[ok] = ws.lambdas_with_moves(
                [index] * int(ok.sum()), [f for f, k in zip(probes, ok) if k],
                floor=lam,
            )
        gains = np.where(lams > lam, lams, -np.inf).reshape(len(steps), len(signs))
        hits = np.flatnonzero(np.max(gains, axis=1) > -np.inf)
        level = int(hits[0]) if hits.size else len(steps) - 1
        asked = (level + 1) * len(signs)
        clamped = clamped or bool(np.any(logs[:asked] != targets[:asked]))
        if not hits.size:
            return None
        best = level * len(signs) + int(np.argmax(gains[level]))
        return float(logs[best]), float(lams[best]), steps[level], signs[best % len(signs)]

    found = ladder(math.log10(freqs[index]), ws.lambda_min, CLIMB_STEP_DECADES, (1.0, -1.0))
    if found is None:
        return float(freqs[index]), "stalled", ws.lambda_min
    while found is not None:
        current_log, current_lam, step, direction = found
        found = ladder(current_log, current_lam, step, (direction,))
    status = "floor-limited" if clamped else "adjusted"
    return float(10.0**current_log), status, current_lam


def run_design(
    spectrum: Spectrum,
    theta_true_for_simulation: ParameterVector,
    cfg: DesignConfig,
    *,
    err: ErrorStructure,
    reference_grid: FrequencyGrid,
    seed: int,
) -> AdjustmentTrace:
    """Run the full adjustment loop on a measured (or synthetic) spectrum.

    ``theta_true_for_simulation`` drives the simulated re-measurements;
    the loop's own knowledge of the cell comes only from fits.  ``err`` is
    the instrument error model of the spectrum, the re-measurements and the
    information matrices.  ``reference_grid`` is the sweep the normalized
    volume is measured against: pass the dense baseline the spectrum's grid
    was reduced from, since the volume means "better or worse than that
    sweep" and cannot be recovered from the reduced grid alone.  ``seed``
    seeds the re-measurement noise; it has no default, so the loop never
    silently replays the noise of a spectrum synthesized at seed 0.  The
    trace records iteration 0 (the evaluation of the unmodified grid) and
    one row per adjustment.

    The initial fit and every refit take one step: fit, then the estimate's
    workspace and trace row.  A refit that fails, or whose information matrix
    is singular or not finite, ends the trace early (see ``terminated``).
    When the initial fit does so there is no row to end the trace at, so
    :class:`SingularInformationError` is raised with its message prefixed
    ``"initial fit: "``.
    """
    rng = np.random.default_rng(seed)

    def fit_row(theta0, iteration, status, move=None):
        """Workspace and trace row of a fit from ``theta0``.  ``move`` is
        (index, f_before, f_after, lambda_before, lambda_after), else none."""
        ws = _EigenWorkspace(fit_wcnls(spectrum, theta0).theta, spectrum.grid, err)
        logv = ellipsoid_log_volume(ws.fim)
        logv_ref = ellipsoid_log_volume(fisher(ws.theta, reference_grid, err))
        return ws, AdjustmentStep(
            iteration, status, *(move or (None, None, None, ws.lambda_min, ws.lambda_min)),
            logv, logv_ref, math.exp(logv - logv_ref),
            total_time(spectrum.grid, cfg.n_p), ws.theta, spectrum.grid,
        )

    try:
        ws, step = fit_row(initialize(spectrum), 0, "initial")
    except SingularInformationError as exc:
        # No trace row exists yet, so there is no trace to end: say which
        # fit collapsed and keep the diagnostics.
        raise SingularInformationError(
            f"initial fit: {exc}",
            lambda_min=exc.lambda_min,
            condition_number=exc.condition_number,
        ) from exc
    steps = [step]
    terminated = "max_iterations"

    for iteration in range(1, cfg.max_iterations + 1):
        # Most influential point first; when its own moves cannot improve
        # the eigenvalue, fall through the ranking to the next candidate.
        index = None
        for candidate in _scan_ranking(ws, spectrum.grid, cfg):
            f_new, status, lam_after = adjust_frequency(ws, spectrum.grid, candidate, cfg)
            if status != "stalled":
                index = candidate
                break
        if index is None:
            terminated = "stalled"
            break
        f_old = float(spectrum.grid.frequencies[index])

        mag, phase, smag, sphase = measure_at(
            theta_true_for_simulation, f_new, err, rng
        )
        spectrum = spectrum.with_replaced_point(index, f_new, mag, phase, smag, sphase)
        # A refit can fail, or collapse an arc (R -> 0, Q -> inf) and leave
        # the information matrix singular or not finite; the trace ends there.
        try:
            ws, step = fit_row(ws.theta, iteration, status,
                               (index, f_old, f_new, ws.lambda_min, lam_after))
        except FitError as exc:
            terminated = f"fit_error: {exc}"
            break
        except SingularInformationError as exc:
            terminated = f"singular_information: {exc}"
            break
        steps.append(step)

    return AdjustmentTrace(steps=tuple(steps), terminated=terminated)
