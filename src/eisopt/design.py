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
    _outer_products,
    _scaled,
    _sensitivities,
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
    """One row of the loop trace; iteration 0 is the pre-loop evaluation.
    ``fit_iterations`` and ``fit_message`` say how the row's fit ended."""

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
    fit_iterations: int
    fit_message: str

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
                   "normalized_volume", "t_tot_s", "fit_iterations", "fit_message")
        # csv writes a float as its repr and None as an empty cell
        rows = ([getattr(s, c) for c in columns] for s in self.steps)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_table(fh, {}, columns, rows)


# Rounding allowance on every Rayleigh bound, relative to the largest scaled
# eigenvalue: eigvalsh is backward stable (error a few eps * lambda_max) and
# the bound's quadratic forms round by at most ~121 * eps * lambda_max
# ~ 3e-14 * lambda_max, so 1e-10 exceeds both by over three orders.
_BOUND_SLACK = 1e-10

# Candidates the lazy scan solves per eigendecomposition call.  The loop
# climbs only the first candidate of a ranking in practice: for STATE_A and
# STATE_B at ppd 5-10 below 0.1 Hz (synth seed 3, run seed 4, 60 iterations)
# no scan of the 2,880 iterations under the default, unfrozen, 0.03 Hz floor
# and 1.02x time-budget constraints was asked for a second candidate, and
# one chunk of four certified the first in 503-580 of each constraint's 720.
_SCAN_CHUNK = 4

# Walk ladders one climb batch holds along the accepted direction.  On the
# 240 climbs of STATE_A and STATE_B at ppd 7 and 9 below 0.1 Hz (synth seed
# 3, run seed 4, 60 iterations), depths 1-6 took 122, 107, 105, 104, 106 and
# 110 ms on one core: a deeper batch saves calls but evaluates and solves
# more probes that the walk never asks.
_LOOK_AHEAD = 3


class _EigenWorkspace:
    """Cached per-point information pieces for batched what-if evaluation.

    Moving point i to frequency f changes the information matrix T by
    -P_i + P(f).  :meth:`probe` takes a whole batch of such moves through
    one model evaluation and bounds every move's eigenvalue from its
    per-point terms; only the moves a decision compares are then built as
    11x11 matrices and solved, in one stacked eigendecomposition per call.

    The bound: the workspace keeps u = D v_0, where D = diag(|theta|) is
    the unit scaling and v_0 the unit eigenvector of the smallest
    eigenvalue of the scaled total.  By Courant-Fischer,
    u^T M u >= lambda_min(D M D) for every moved matrix M, and

        u^T M u = u^T T u - u^T P_i u + w_mag (dmag . u)^2 + w_phase (dphase . u)^2,

    whose first two terms the workspace keeps per grid point, so a bound
    costs two dot products per probe.  Bounds only decide which moves need
    solving; every eigenvalue that a decision compares or the trace
    records is solved by the same ``eigvalsh`` as without them.

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
        self._u = u = scale * np.linalg.eigh(scaled)[1][:, 0]
        # u^T T u - u^T P_i u plus the rounding slack, per grid point i
        self._rest = self.total @ u @ u - self.parts @ u @ u + _BOUND_SLACK * eigvals[-1]

    def probe(self, indices, freqs_hz):
        """Bounds on, and exact values of, the smallest scaled eigenvalue
        after moving point ``indices[k]`` to ``freqs_hz[k]``, each move on
        its own; ``indices`` may be one index for every move.

        Returns ``(bounds, solve)``.  ``bounds[k]`` is at least move k's
        eigenvalue; a NaN bound proves nothing.  ``solve(rows)`` builds the
        moved matrices of those rows and returns their eigenvalues, each
        bit for bit what ``eigvalsh`` gives for the matrix built from the
        full :func:`fisher_contributions`; a move whose matrix is not finite
        gets NaN, which beats no floor.
        """
        indices = np.asarray(indices)
        with np.errstate(over="ignore", invalid="ignore"):
            w_mag, dmag, w_phase, dphase = _sensitivities(
                self.theta, np.asarray(freqs_hz, dtype=float), self.err)
            bounds = (self._rest[indices] + w_mag * (dmag @ self._u) ** 2
                      + w_phase * (dphase @ self._u) ** 2)

        def solve(rows):
            with np.errstate(over="ignore", invalid="ignore"):
                contrib = _outer_products(w_mag[rows], dmag[rows], w_phase, dphase[rows])
                held = self.parts[indices[rows] if indices.ndim else indices]
                scaled = (self.total - held + contrib) * self._outer
            try:
                return np.linalg.eigvalsh(scaled)[:, 0]
            except np.linalg.LinAlgError:
                # one matrix that is not finite fails the whole stacked call
                finite = np.isfinite(scaled).all(axis=(1, 2))
                if finite.all():
                    raise
                lams = np.full(len(finite), np.nan)
                if finite.any():
                    lams[finite] = np.linalg.eigvalsh(scaled[finite])[:, 0]
                return lams

        return bounds, solve


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

    The ranking is certified rather than solved up front: one probe batch
    gives every probe's Rayleigh bound and hence an upper bound on every
    score.  Exact scores are solved a few candidates at a time, best bound
    first, and a candidate is yielded once no unsolved bound reaches its
    score.  A caller that stops after the first candidates pays only for
    the eigendecompositions those needed; the full expansion equals the
    exhaustive ranking.
    """
    frozen = _frozen_set(grid, cfg)
    if len(frozen) >= len(grid):
        raise DesignError("every grid frequency is frozen; nothing to scan")
    free = [i for i in range(len(grid)) if i not in frozen]
    step = SCAN_STEP_DECADES
    indices = np.repeat(free, 2)
    targets = np.array([
        math.log10(f) + sign * step for f in ws.freqs[free].tolist() for sign in (1.0, -1.0)
    ])
    _, probes, ok = _landing(grid, cfg, indices, targets)
    probe_bounds, solve = ws.probe(indices, probes)
    bounds = np.where(ok, probe_bounds, -np.inf).reshape(-1, 2)
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
        lams = np.full(len(rows), -np.inf)
        keep = ok[rows]
        if keep.any():
            lams[keep] = solve(rows[keep])
        for k, score in zip(chunk, np.max((lams.reshape(-1, 2) - ws.lambda_min) / step, axis=1)):
            nan = bool(np.isnan(score))
            heapq.heappush(solved, (nan, 0.0 if nan else -score, free[k]))


def _shrink_levels(step: float) -> list:
    """A ladder's steps: ``step``, shrunk by ``CLIMB_SHRINK`` down to
    ``CLIMB_STOP_DECADES``."""
    steps = []
    while step >= CLIMB_STOP_DECADES:
        steps.append(step)
        step *= CLIMB_SHRINK
    return steps


def _ray(origin: float, step: float, sign: float) -> list:
    """The ``_LOOK_AHEAD`` walk ladders (origin, signs) from ``origin``
    along ``sign``, each starting where the one before lands when its
    first level gains without a clamp."""
    ladders = []
    for _ in range(_LOOK_AHEAD):
        ladders.append((origin, (sign,)))
        origin = origin + sign * step
    return ladders


class _Ladders:
    """Climb ladders of one point with one first step, asked in one probe
    batch.

    A ladder (origin, step, signs) probes ``origin + sign * s`` at every
    shrink level s from ``step`` down (:func:`_shrink_levels`), for each
    sign, against a fixed eigenvalue.  Every probe of every ladder lands by
    :func:`_landing` and gets its bound in one model evaluation.  Matrices
    are built and solved lazily: the first level of every ladder at once,
    against ``floor``, the lowest eigenvalue any of them is asked against;
    the other levels of a ladder only when its first level gains nothing.
    A probe whose bound cannot beat the eigenvalue it is asked against is
    not solved, so every gain found is exact.
    """

    def __init__(self, ws, grid, cfg, index, floor, step, ladders):
        self._steps = steps = _shrink_levels(step)
        self._spans, targets, first = {}, [], []
        for origin, signs in ladders:
            self._spans[origin, step, signs] = len(targets)
            first += range(len(targets), len(targets) + len(signs))
            targets += [origin + sign * s for s in steps for sign in signs]
        targets = np.array(targets)
        self._logs, probes, self._ok = _landing(grid, cfg, index, targets)
        self._clamped = self._logs != targets
        self._bounds, self._solve = ws.probe(index, probes)
        self._lams = np.full(len(targets), -np.inf)
        self._settle(np.array(first), floor)

    def __contains__(self, ladder) -> bool:
        return ladder in self._spans

    def _settle(self, rows, floor):
        """Solve the admissible ``rows`` whose bound may beat ``floor``;
        the others keep -inf, which beats no eigenvalue from ``floor`` up."""
        rows = rows[self._ok[rows] & ~(self._bounds[rows] <= floor)]
        if rows.size:
            self._lams[rows] = self._solve(rows)

    def climb(self, ladder, lam):
        """The best admissible move of ``ladder`` at its first shrink level
        that beats ``lam``, as (log f, eigenvalue, step, sign), or None;
        and whether a probe it asked, at that level or above, was clamped.
        Of equal gains the first sign's wins."""
        start, signs = self._spans[ladder], ladder[2]
        width = len(signs)
        stop = start + len(self._steps) * width
        if not (self._lams[start:start + width] > lam).any():
            self._settle(np.arange(start + width, stop), lam)
        lams = [x if x > lam else -math.inf for x in self._lams[start:stop].tolist()]
        for level, step in enumerate(self._steps):
            gains = lams[level * width:(level + 1) * width]
            best = max(range(width), key=gains.__getitem__)
            if gains[best] > -math.inf:
                row = start + level * width
                clamped = bool(self._clamped[start:row + width].any())
                return (float(self._logs[row + best]), gains[best], step, signs[best]), clamped
        return None, bool(self._clamped[start:stop].any())


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
    each such run of probes is one ladder against a fixed eigenvalue,
    taking the first level with a gain: the opening ladder tries both
    directions and keeps the better one, and the walk then repeats
    one-directional ladders from each accepted point.  These are the
    probes and decisions of a one-at-a-time search, asked in look-ahead
    batches (:class:`_Ladders`).  The opening batch holds the opening
    ladder and, for each direction, the ``_LOOK_AHEAD`` ladders the walk
    asks if every move is its ladder's first level; a walk batch holds the
    next ``_LOOK_AHEAD`` ladders along the accepted direction.  A ladder
    is taken from a batch only when the walk asks exactly it, so a move at
    a lower level, a first-level move that landed clamped, or a used-up
    batch starts a new batch.
    """
    if index in _frozen_set(grid, cfg):
        raise DesignError(f"frequency index {index} is frozen")
    origin, lam, step = math.log10(ws.freqs[index]), ws.lambda_min, CLIMB_STEP_DECADES
    signs = (1.0, -1.0)
    batch = _Ladders(ws, grid, cfg, index, lam, step, [(origin, signs)] + [
        ladder for sign in signs for ladder in _ray(origin + sign * step, step, sign)
    ])
    found, clamped = batch.climb((origin, step, signs), lam)
    if found is None:
        return float(ws.freqs[index]), "stalled", ws.lambda_min
    while found is not None:
        origin, lam, step, sign = found
        ladder = (origin, step, (sign,))
        if ladder not in batch:
            batch = _Ladders(ws, grid, cfg, index, lam, step, _ray(origin, step, sign))
        found, asked_clamped = batch.climb(ladder, lam)
        clamped = clamped or asked_clamped
    status = "floor-limited" if clamped else "adjusted"
    return float(10.0**origin), status, lam


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
        fit = fit_wcnls(spectrum, theta0)
        ws = _EigenWorkspace(fit.theta, spectrum.grid, err)
        logv = ellipsoid_log_volume(ws.fim)
        logv_ref = ellipsoid_log_volume(fisher(ws.theta, reference_grid, err))
        return ws, AdjustmentStep(
            iteration, status, *(move or (None, None, None, ws.lambda_min, ws.lambda_min)),
            logv, logv_ref, math.exp(logv - logv_ref),
            total_time(spectrum.grid, cfg.n_p), ws.theta, spectrum.grid,
            fit.iterations, fit.message,
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
