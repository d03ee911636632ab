"""Information matrix, per-parameter variance bounds and ellipsoid volume.

For Gaussian magnitude/phase noise the information matrix of the eleven
circuit parameters is

    F = J_rho^T W_rho J_rho + J_phi^T W_phi J_phi + S

with diagonal weights W = 1/sigma^2 and S the contribution from the
magnitude variance depending on the parameters through the model magnitude
(sigma_rho is proportional to rho(theta)).  S is tiny at percent-level
noise and is always included.

Raw-unit entries of F span roughly twenty orders of magnitude because the
parameters range from milliohms to 1e7.  Every factorization here therefore
runs on a similarity-scaled matrix D F D with D = diag(|theta|), whose
condition numbers a plain LAPACK inverse handles; results are mapped back to
linear parameter units exactly.  :func:`uncertainty_report` takes the CRLB,
log-volume and scaled (log-parameter) eigenvalues from one factorization.
The CRLB is the diagonal of the inverse of the gated D F D, from NumPy's
own LAPACK (``np.linalg.inv``), so eisopt runs on NumPy alone; a failed
inversion, or a variance that is not positive and finite, raises
:class:`SingularInformationError`.  A matrix that is not finite, such as
the overflowed information of an extreme but admissible theta, is reported
as singular, by the reports and by the design loop's what-if workspace
alike, before LAPACK sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    N_PARAMETERS,
    PARAMETER_NAMES,
    ParameterVector,
    _frequencies,
    _impedance_and_gradient,
    _polar_sensitivities,
)
from .exceptions import DomainError, SingularInformationError
from .measurement import ErrorStructure

# Positive-definiteness gate used before inverting: smallest eigenvalue of
# the unit-scaled matrix must exceed this fraction of the largest.
PD_RTOL = 1e-12

@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """11 x 11 information matrix at the parameters it was evaluated at."""

    matrix: np.ndarray
    theta: ParameterVector

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (N_PARAMETERS, N_PARAMETERS):
            raise DomainError(f"information matrix must be 11x11, got {m.shape}")
        asym = np.abs(m - m.T).max()
        scale = np.abs(m).max()
        if scale > 0 and asym > 1e-12 * scale:
            raise DomainError("information matrix is not symmetric")
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _point_weights(err: ErrorStructure, mag: np.ndarray):
    """Per-point outer-product weights for the magnitude and phase rows."""
    # d(sigma_mag^2)/dtheta = 2 c^2 rho drho with c = sigma_rel_mag, so the
    # variance-sensitivity term S collapses to 2 drho drho^T / rho^2.
    w_mag = 1.0 / (err.sigma_rel_mag * mag) ** 2 + 2.0 / mag**2
    w_phase = 1.0 / err.sigma_phase_rad**2
    return w_mag, w_phase


def _sensitivities(theta: ParameterVector, freqs_hz: np.ndarray, err: ErrorStructure):
    """Per-point terms of the information: (w_mag, dmag, w_phase, dphase),
    the magnitude weights and sensitivities of shape (n,) and (n, 11), the
    phase weight and sensitivities.  Point k contributes
    w_mag[k] dmag[k] dmag[k]^T + w_phase dphase[k] dphase[k]^T.

    An extreme theta overflows to inf or NaN here and in
    :func:`_outer_products`; the factorization reports that as a typed
    error, so callers run both under ``np.errstate(over="ignore",
    invalid="ignore")`` rather than let NumPy's warnings repeat it."""
    z, dz = _impedance_and_gradient(theta.to_array(), 2.0 * np.pi * freqs_hz)
    mag, dmag, dphase = _polar_sensitivities(z, dz)
    w_mag, w_phase = _point_weights(err, mag)
    return w_mag, dmag, w_phase, dphase


def _outer_products(w_mag, dmag, w_phase, dphase) -> np.ndarray:
    """The (n, 11, 11) contributions of :func:`_sensitivities`' terms, or of
    any rows of them: each point's matrix depends on its own row alone."""
    # (w d_j) d_k per point: the products of einsum("i,ij,ik->ijk", ...),
    # in the same order, without its per-call set-up
    out = (w_mag[:, None] * dmag)[:, :, None] * dmag[:, None, :]
    out += (w_phase * dphase)[:, :, None] * dphase[:, None, :]
    return out


def fisher_contributions(theta: ParameterVector, grid, err: ErrorStructure) -> np.ndarray:
    """Per-frequency additive pieces of the information matrix.

    Returns shape (n, 11, 11); their sum equals :func:`fisher`'s matrix.
    The adjustment loop's workspace keeps these, and builds a moved point's
    piece from the same terms (:func:`_sensitivities`) to swap one summand
    instead of rebuilding the whole matrix.
    """
    freqs_hz = _frequencies(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        return _outer_products(*_sensitivities(theta, freqs_hz, err))


def fisher(theta: ParameterVector, grid, err: ErrorStructure) -> FisherMatrix:
    """Information matrix at ``theta`` for the given frequency set."""
    parts = fisher_contributions(theta, grid, err)
    # np.sum reduces pairwise, keeping the result independent of point
    # ordering to well below the tolerances used downstream; FisherMatrix
    # symmetrizes the sum.
    return FisherMatrix(np.sum(parts, axis=0), theta)


def _scaled(matrix: np.ndarray, theta: ParameterVector):
    """D = diag(|theta|) as a vector, D M D and its ascending eigenvalues.
    A D M D that is not finite raises; a singular one does not.  Every
    report and the design loop's what-if kernel scale here."""
    scale = np.abs(theta.to_array())
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        scaled = matrix * np.outer(scale, scale)
        finite = np.isfinite(scaled).all()
    if not finite:
        raise SingularInformationError("information matrix is not finite")
    return scale, scaled, np.linalg.eigvalsh(scaled)


def _factor(fim: FisherMatrix):
    """:func:`_scaled` of the matrix, once D F D passes the
    positive-definiteness gate."""
    scale, scaled, eigvals = _scaled(fim.matrix, fim.theta)
    lam_min, lam_max = eigvals[0], eigvals[-1]
    if not (lam_max > 0.0 and lam_min > PD_RTOL * lam_max):
        cond = lam_max / lam_min if lam_min > 0 else np.inf
        raise SingularInformationError(
            "information matrix is numerically singular "
            f"(scaled lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e})",
            lambda_min=lam_min,
            condition_number=cond,
        )
    return scale, scaled, eigvals


def _crlb(scale: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """The CRLB of a gated D F D: the diagonal of its inverse, mapped back
    to linear units.  A variance that is not positive and finite raises."""
    try:
        inverse = np.linalg.inv(scaled)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(f"information matrix inversion failed: {exc}") from exc
    with np.errstate(over="ignore"):  # an overflowed variance raises below
        variances = scale**2 * np.diag(inverse)
    if not ((variances > 0.0) & np.isfinite(variances)).all():
        raise SingularInformationError("information matrix inverse has a variance "
                                       "that is not positive and finite")
    return variances


def _log_volume(scale: np.ndarray, eigvals: np.ndarray) -> float:
    return -0.5 * float(np.log(eigvals).sum() - 2.0 * np.log(scale).sum())


def crlb(fim: FisherMatrix) -> np.ndarray:
    """Per-parameter minimum variances: the diagonal of the matrix inverse.

    The positive-definiteness gate and the inverse run on the
    unit-scaled matrix; raw-unit eigenvalues would conflate the parameter
    scale disparity with genuine rank deficiency.
    """
    scale, scaled, _ = _factor(fim)
    return _crlb(scale, scaled)


def ellipsoid_log_volume(fim: FisherMatrix) -> float:
    """Log of the uncertainty-ellipsoid volume, up to a common constant.

    The volume is proportional to sqrt(prod eig(F^-1)), i.e. the log-volume
    is -0.5 * log det F, evaluated in linear parameter units.  Computed via
    the unit-scaled eigenvalues to avoid overflow/underflow; the scaling
    correction is exact.
    """
    scale, _, eigvals = _factor(fim)
    return _log_volume(scale, eigvals)


@dataclass(frozen=True, eq=False)
class UncertaintyReport:
    """Bundle of the derived uncertainty figures for one (theta, grid)."""

    theta: ParameterVector
    crlb: np.ndarray
    eigvals: np.ndarray
    log_volume: float

    def __post_init__(self):
        for name in ("crlb", "eigvals"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def lambda_min(self) -> float:
        return float(self.eigvals[0])

    def to_json_dict(self) -> dict:
        return {
            "parameters": self.theta.to_dict(),
            "crlb": dict(zip(PARAMETER_NAMES, self.crlb.tolist())),
            "eigenvalues": self.eigvals.tolist(),
            # the only scaling; the key keeps report files unchanged
            "eigen_scaling": "log",
            "lambda_min": self.lambda_min,
            "log_volume": self.log_volume,
        }


def uncertainty_report(fim: FisherMatrix) -> UncertaintyReport:
    """CRLB, scaled eigenvalues and log-volume from one factorization."""
    scale, scaled, eigvals = _factor(fim)
    return UncertaintyReport(
        theta=fim.theta,
        crlb=_crlb(scale, scaled),
        eigvals=eigvals,
        log_volume=_log_volume(scale, eigvals),
    )
