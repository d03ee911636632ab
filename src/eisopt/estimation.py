"""Parameter initialization from spectrum geometry and weighted least-squares fitting.

The objective is the weighted complex nonlinear least squares sum

    sum_i  (mag_i - mag_i(theta))^2 / sigma_mag_i^2
         + (phase_i - phase_i(theta))^2 / sigma_phase_i^2

minimized by a Levenberg-style damped Gauss-Newton iteration.  Internally
the solver works in mixed coordinates: log for the resistances and CPE
coefficients (they span ten orders of magnitude and must stay positive),
linear for the four exponents, which are kept inside their admissible
intervals by projection after every step.

Initialization reads the circuit blocks off the spectrum's shape: the
series resistance from the high-frequency real-axis crossing, the
high-frequency CPE from the slope of the inductive tail, the diffusion
branch from a straight-line fit to the low-frequency points, and the two
mid-frequency arcs from the bumps left after subtracting everything else,
with the resistance split between the arcs chosen by objective value among
a handful of candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    LOG_SCALE_INDICES,
    N_PARAMETERS,
    ParameterVector,
    _impedance,
    _impedance_and_gradient,
    _polar_sensitivities,
)
from .exceptions import DomainError, FitError, InitializationError
from .measurement import Spectrum

# Admissible intervals for the exponents, shrunk by a margin so projected
# iterates satisfy the strict inequalities of ParameterVector.
_EXP_MARGIN = 1e-9
EXPONENT_BOUNDS = {
    2: (-1.0, -_EXP_MARGIN),
    5: (_EXP_MARGIN, 1.0),
    8: (_EXP_MARGIN, 1.0),
    10: (0.0, 1.0 - _EXP_MARGIN),
}

# Cap on log-coordinates; e^50 ~ 5e21 is far outside any physical value.
_LOG_BOUND = 50.0

_LOG_IDX = np.array(LOG_SCALE_INDICES)

# Bounds on every internal coordinate, as applied by _project.
_LOWER, _UPPER = np.array(
    [EXPONENT_BOUNDS.get(k, (-_LOG_BOUND, _LOG_BOUND)) for k in range(N_PARAMETERS)]
).T


# Damped Gauss-Newton settings, read at call time.
MAX_ITERATIONS = 200
STEP_TOL = 1e-10
OBJECTIVE_TOL = 1e-12
GRADIENT_TOL = 1e-6
# Initial damping, its factor up after a rejected step and down after an
# accepted one, and the damping at which the iteration gives up.
DAMPING_INIT = 1e-3
DAMPING_FACTOR = 10.0
DAMPING_MAX = 1e14
# Per-iteration cap on the internal-coordinate step (log units for the
# scale parameters); keeps a bad quadratic model from launching the
# iterate many orders of magnitude away.
MAX_STEP = 3.0


@dataclass(frozen=True, eq=False)
class FitResult:
    theta: ParameterVector
    objective: float
    iterations: int
    converged: bool
    weighted_residuals: np.ndarray
    gradient_norm: float
    message: str = ""

    def __post_init__(self):
        arr = np.array(self.weighted_residuals, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "weighted_residuals", arr)
        if not math.isfinite(self.objective):
            raise DomainError("fit objective must be finite")

    def to_json_dict(self) -> dict:
        return {
            "parameters": self.theta.to_dict(),
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "gradient_norm": self.gradient_norm,
            "message": self.message,
            "n_residuals": int(self.weighted_residuals.size),
        }


def _to_internal(theta_arr: np.ndarray) -> np.ndarray:
    x = theta_arr.astype(float).copy()
    x[_LOG_IDX] = np.log(theta_arr[_LOG_IDX])
    return x


def _from_internal(x: np.ndarray) -> np.ndarray:
    theta = x.copy()
    theta[_LOG_IDX] = np.exp(x[_LOG_IDX])
    return theta


def _project(x: np.ndarray) -> np.ndarray:
    # Comparisons rather than np.clip, so a NaN passes through and a signed
    # zero on an exponent's bound keeps its sign.
    x = np.where(x < _LOWER, _LOWER, x)
    return np.where(x > _UPPER, _UPPER, x)


def _weighted_residuals(spectrum: Spectrum, z: np.ndarray) -> np.ndarray:
    """Residuals r = (data - model)/sigma for a model impedance z of shape
    (n,), or one row of residuals per row of a (k, n) stack."""
    return np.concatenate(
        [
            (spectrum.mag_ohm - np.abs(z)) / spectrum.sigma_mag_ohm,
            (spectrum.phase_rad - np.angle(z)) / spectrum.sigma_phase_rad,
        ],
        axis=-1,
    )


def fit_wcnls(spectrum: Spectrum, theta_start: ParameterVector) -> FitResult:
    """Minimize the weighted magnitude/phase objective from ``theta_start``.

    Accepted steps never increase the objective.  Non-convergence within
    the iteration budget returns the best iterate flagged unconverged;
    :class:`FitError` is raised only when damping is exhausted, i.e. no
    admissible step of any length decreases the objective and the usual
    convergence measures have not triggered.
    """
    omega = 2.0 * np.pi * spectrum.grid.frequencies
    n = len(spectrum.grid)
    sigma_mag = spectrum.sigma_mag_ohm[:, None]
    sigma_phase = spectrum.sigma_phase_rad[:, None]
    # The weighted Jacobian in internal coordinates at the current iterate;
    # rewritten in place only when a step is accepted.
    jac = np.empty((2 * n, N_PARAMETERS))

    def set_jacobian(theta_arr, z, dz):
        _, dmag, dphase = _polar_sensitivities(z, dz)
        np.divide(dmag, sigma_mag, out=jac[:n])
        np.divide(dphase, sigma_phase, out=jac[n:])
        jac[:, _LOG_IDX] *= theta_arr[_LOG_IDX]

    x = _project(_to_internal(theta_start.to_array()))
    theta_arr = _from_internal(x)
    z, dz = _impedance_and_gradient(theta_arr, omega)
    r = _weighted_residuals(spectrum, z)
    set_jacobian(theta_arr, z, dz)
    obj = float(r @ r)
    grad = 2.0 * (jac.T @ r)
    gnorm = float(np.abs(grad).max())
    lam = DAMPING_INIT
    iterations = 0
    converged = gnorm < GRADIENT_TOL
    message = "gradient below tolerance" if converged else "max iterations reached"

    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        a = jac.T @ jac
        g = jac.T @ r
        diag = np.maximum(np.diag(a), 1e-300)
        accepted = False
        while lam <= DAMPING_MAX:
            m = a.copy()
            m.flat[:: N_PARAMETERS + 1] += lam * diag
            try:
                delta = np.linalg.solve(m, g)
            except np.linalg.LinAlgError:
                lam *= DAMPING_FACTOR
                continue
            biggest = float(np.abs(delta).max())
            if biggest > MAX_STEP:
                delta = delta * (MAX_STEP / biggest)
            x_new = _project(x + delta)
            step = float((np.abs(x_new - x) / (1.0 + np.abs(x))).max())
            theta_new = _from_internal(x_new)
            z, dz = _impedance_and_gradient(theta_new, omega)
            r_new = _weighted_residuals(spectrum, z)
            obj_new = float(r_new @ r_new)
            if np.isfinite(obj_new) and obj_new < obj:
                decrease = (obj - obj_new) / max(obj, 1e-300)
                x, r, obj = x_new, r_new, obj_new
                set_jacobian(theta_new, z, dz)
                grad = 2.0 * (jac.T @ r)
                gnorm = float(np.abs(grad).max())
                lam = max(lam / DAMPING_FACTOR, 1e-12)
                accepted = True
                if step < STEP_TOL:
                    converged, message = True, "step below tolerance"
                elif decrease < OBJECTIVE_TOL:
                    converged, message = True, "objective decrease below tolerance"
                elif gnorm < GRADIENT_TOL:
                    converged, message = True, "gradient below tolerance"
                break
            lam *= DAMPING_FACTOR
            if step < STEP_TOL:
                # The damped step has shrunk to nothing; we are at a
                # stationary point the objective cannot improve from.
                converged, message = True, "step below tolerance"
                accepted = True
                break
        if not accepted:
            raise FitError(
                f"damping exhausted at iteration {iterations} "
                f"(objective {obj:.6e}, gradient {gnorm:.3e})"
            )

    return FitResult(
        theta=ParameterVector.from_array(_from_internal(x)),
        objective=obj,
        iterations=iterations,
        converged=converged,
        weighted_residuals=r,
        gradient_norm=gnorm,
        message=message,
    )


# ---------------------------------------------------------------------------
# Geometric initialization


def _cpe_complex(q: float, phi: float, omega: np.ndarray) -> np.ndarray:
    return np.exp(-phi * (np.log(omega) + 1j * (np.pi / 2.0))) / q


def _candidate(r_s, q_hf, phi_hf, r1, q1, p1, r2, q2, p2, q_lf, phi_lf) -> np.ndarray:
    """The canonical row with the scale estimates clipped into [1e-18, 1e18].

    The exponents need no clamp: :func:`initialize` clips each one into its
    interval before it gets here, so only a NaN estimate can make the row
    inadmissible; it raises the DomainError its ParameterVector raises."""
    arr = np.array([r_s, q_hf, phi_hf, r1, q1, p1, r2, q2, p2, q_lf, phi_lf])
    arr[_LOG_IDX] = np.clip(arr[_LOG_IDX], 1e-18, 1e18)
    if not np.isfinite(arr).all():
        ParameterVector.from_array(arr)
    return arr


def _arc_params(omega_c: float, height: float, r: float):
    """Arc exponent and CPE coefficient from apex frequency and height.

    At the apex the arc's imaginary part peaks at (R/2)tan(pi phi/4) and
    R Q omega_c^phi = 1.  The exponent is clamped into [0.3, 1] by
    comparisons, so a NaN passes through.
    """
    phi = min(max((4.0 / np.pi) * math.atan(max(2.0 * height / r, 1e-6)), 0.3), 1.0)
    q = omega_c ** (-phi) / r
    return phi, q


def initialize(spectrum: Spectrum) -> ParameterVector:
    """Estimate all eleven parameters from the shape of one spectrum.

    Requires at least three decades of frequency coverage so the
    high-frequency tail, the arcs and the diffusion branch are separable.
    """
    f = spectrum.grid.frequencies
    n = len(spectrum.grid)
    if n < 10 or math.log10(f[0] / f[-1]) < 3.0:
        raise InitializationError(
            "spectrum too narrow to segment: need >= 10 points spanning "
            ">= 3 decades"
        )
    omega = 2.0 * np.pi * f
    z = spectrum.impedance()
    re, im = z.real, z.imag

    # Series resistance: the real part where the imaginary part crosses
    # zero on the high-frequency side (inductive tail meets first arc).
    hf = np.flatnonzero(f >= f[0] / 100.0)
    i0 = int(hf[np.argmin(np.abs(im[hf]))])
    r_s = re[i0]
    if not r_s > 0:
        r_s = max(np.min(np.abs(z)) * 0.5, 1e-12)

    # High-frequency branch from the two highest frequencies: the tail's
    # log-log slope gives the exponent, its height the coefficient.
    if im[0] > 0 and im[1] > 0 and im[0] > im[1]:
        slope = math.log(im[0] / im[1]) / math.log(omega[0] / omega[1])
    else:
        slope = 0.98
    phi_hf = float(np.clip(-slope, -1.0, -0.5))
    im_top = max(im[0], 1e-15)
    q_hf = omega[0] ** (-phi_hf) * math.sin(-phi_hf * np.pi / 2.0) / im_top

    # Diffusion branch: straight line through the lowest five points in the
    # complex plane; its slope angle encodes the exponent and its real-axis
    # intercept the fully relaxed resistance.
    x_lf, y_lf = re[-5:], -im[-5:]
    b, a = np.polyfit(x_lf, y_lf, 1)
    if b > 0.05:
        phi_lf = float(np.clip(math.atan(b) / (np.pi / 2.0), 0.05, 0.95))
        r_dc = -a / b
    else:
        phi_lf = 0.5
        r_dc = float(np.max(re))
    r_dc = float(np.clip(r_dc, r_s * 1.001, np.max(re) * 1.5))
    z_lf_tail = z[-1] - r_dc
    q_lf = omega[-1] ** (-phi_lf) / max(abs(z_lf_tail), 1e-15)

    # Mid-frequency arcs: subtract the three estimated blocks and look for
    # bumps in the remaining -Im between the crossing and the line region.
    r_sum = max(r_dc - r_s, 1e-9)
    z_mf = (
        z
        - r_s
        - _cpe_complex(q_hf, phi_hf, omega)
        - _cpe_complex(q_lf, phi_lf, omega)
    )
    y = -z_mf.imag
    lo_band, hi_band = i0 + 1, n - 5
    if hi_band - lo_band < 3:
        raise InitializationError("no mid-frequency band between crossing and tail")
    yb = y[lo_band:hi_band]
    if yb.size >= 5:
        smooth = np.convolve(yb, np.ones(3) / 3.0, mode="same")
    else:
        smooth = yb
    peaks = [
        j
        for j in range(1, smooth.size - 1)
        if smooth[j] >= smooth[j - 1] and smooth[j] >= smooth[j + 1] and smooth[j] > 0
    ]
    peaks.sort(key=lambda j: smooth[j], reverse=True)
    picked = []
    for j in peaks:
        if all(abs(j - k) > 2 for k in picked):
            picked.append(j)
        if len(picked) == 2:
            break

    splits = (0.15, 0.3, 0.5, 0.7, 0.85)
    candidates = []
    if len(picked) == 2:
        j1, j2 = sorted(picked)  # j1 = higher frequency
        wc1, h1 = omega[lo_band + j1], max(y[lo_band + j1], 1e-15)
        wc2, h2 = omega[lo_band + j2], max(y[lo_band + j2], 1e-15)
        for s in splits + (h1 / (h1 + h2),):
            r1, r2 = s * r_sum, (1.0 - s) * r_sum
            p1, q1 = _arc_params(wc1, h1, r1)
            p2, q2 = _arc_params(wc2, h2, r2)
            candidates.append(
                _candidate(r_s, q_hf, phi_hf, r1, q1, p1, r2, q2, p2, q_lf, phi_lf)
            )
    # Single-bump hypotheses are evaluated even when two bumps were found:
    # with noisy data a detected second bump may be spurious, and the extra
    # candidates cost one more row of the scoring evaluation each.
    # anchored on the strongest bump, or mid-band when none was found
    wc, h = ((omega[lo_band + picked[0]], max(y[lo_band + picked[0]], 1e-15)) if picked
             else (omega[(lo_band + hi_band) // 2], r_sum / 4.0))
    for ratio in (10.0**0.75, 10.0**1.25):
        for s in (0.3, 0.5, 0.7):
            r1, r2 = s * r_sum, (1.0 - s) * r_sum
            # detected bump as the faster arc, hypothesized slower one
            p1, q1 = _arc_params(wc, h, r1)
            p2, q2 = _arc_params(wc / ratio, h, r2)
            candidates.append(
                _candidate(r_s, q_hf, phi_hf, r1, q1, p1, r2, q2, p2, q_lf, phi_lf)
            )
            # or the slower arc, hypothesized faster one
            p1b, q1b = _arc_params(wc * ratio, h, r1)
            p2b, q2b = _arc_params(wc, h, r2)
            candidates.append(
                _candidate(r_s, q_hf, phi_hf, r1, q1b, p1b, r2, q2b, p2b, q_lf, phi_lf)
            )

    # One stacked model evaluation scores every candidate row; min() over
    # the per-row objectives keeps the first of equal scores.
    rows = np.array(candidates)
    r = _weighted_residuals(spectrum, _impedance(rows, omega))
    scores = [float(row @ row) for row in r]
    return ParameterVector.from_array(rows[min(range(len(rows)), key=scores.__getitem__)])
