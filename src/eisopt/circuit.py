"""Generalized Randles equivalent-circuit model and its parameter sensitivities.

The cell impedance is a series chain of five blocks,

    Z(theta, w) = R_s + Z_CPE(Q_HF, phi_HF) + Zarc(R_1, Q_1, phi_1)
                      + Zarc(R_2, Q_2, phi_2) + Z_CPE(Q_LF, phi_LF)

where a constant phase element has impedance 1/(Q*(j*w)**phi) on the
principal branch and a Zarc is a resistor in parallel with a CPE.  The
high-frequency CPE carries a negative exponent (near-inductive tail), the
two mid-frequency Zarcs produce depressed semicircles, and the
low-frequency CPE models the diffusion tail (exponent near 0.5 gives the
classic 45-degree Warburg slope).

All derivatives are analytic: the complex gradient dZ/dtheta_k is
propagated through |Z| and arg Z by the chain rule, so the sensitivity
matrix is exact to machine precision.  This matters because the Fisher
information and the frequency-adjustment scan evaluate the Jacobian in
inner loops.

The admissible domain has one home, the ``_DOMAIN`` table: the parameter
names, ``ParameterVector``'s checks and messages, the log-scale indices and
the fit's projection bounds are all read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import DomainError
from .frequency import FrequencyGrid

# The admissible domain, one row per parameter in canonical order (every
# array-valued theta in the package follows it): the display name, then
# None for a scale (positive, finite and fitted in log space) or an
# exponent's interval (low, high, low_closed, high_closed).
_DOMAIN = (
    ("R_s", None),
    ("Q_HF", None),
    ("phi_HF", (-1.0, 0.0, True, False)),
    ("R_1", None),
    ("Q_1", None),
    ("phi_1", (0.0, 1.0, False, True)),
    ("R_2", None),
    ("Q_2", None),
    ("phi_2", (0.0, 1.0, False, True)),
    ("Q_LF", None),
    ("phi_LF", (0.0, 1.0, True, False)),
)
PARAMETER_NAMES = tuple(name for name, _ in _DOMAIN)
N_PARAMETERS = len(_DOMAIN)
LOG_SCALE_INDICES = tuple(k for k, (_, interval) in enumerate(_DOMAIN) if interval is None)


def _admits(interval, x: float) -> bool:
    if interval is None:
        return 0.0 < x < math.inf
    lo, hi, lo_closed, hi_closed = interval
    return (lo <= x if lo_closed else lo < x) and (x <= hi if hi_closed else x < hi)


def _requirement(interval) -> str:
    if interval is None:
        return "be positive and finite"
    lo, hi, lo_closed, hi_closed = interval
    return f"lie in {'[' if lo_closed else '('}{lo:g}, {hi:g}{']' if hi_closed else ')'}"


@dataclass(frozen=True)
class ParameterVector:
    """The eleven circuit parameters in canonical order.

    Units: resistances in ohm, CPE coefficients in ohm^-1 * s^phi (so that
    1/(Q*w**phi) is an impedance), exponents dimensionless.  The
    DomainError names the first value, in canonical order, that its
    ``_DOMAIN`` row does not admit.
    """

    r_s: float
    q_hf: float
    phi_hf: float
    r_1: float
    q_1: float
    phi_1: float
    r_2: float
    q_2: float
    phi_2: float
    q_lf: float
    phi_lf: float

    def __post_init__(self):
        values = [float(getattr(self, field)) for field in _FIELD_NAMES]
        for field, value, (name, interval) in zip(_FIELD_NAMES, values, _DOMAIN):
            if not _admits(interval, value):
                raise DomainError(f"{name} must {_requirement(interval)}, got {value}")
            object.__setattr__(self, field, value)

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, field) for field in _FIELD_NAMES])

    @classmethod
    def from_array(cls, values) -> "ParameterVector":
        values = np.asarray(values, dtype=float)
        if values.shape != (N_PARAMETERS,):
            raise DomainError(
                f"parameter array must have shape ({N_PARAMETERS},), got {values.shape}"
            )
        return cls(*values)

    def to_dict(self) -> dict:
        return dict(zip(PARAMETER_NAMES, self.to_array()))

    @classmethod
    def from_dict(cls, mapping) -> "ParameterVector":
        try:
            return cls.from_array([mapping[name] for name in PARAMETER_NAMES])
        except KeyError as exc:
            raise DomainError(f"missing parameter {exc.args[0]!r}") from exc


_FIELD_NAMES = tuple(field.name for field in fields(ParameterVector))


def _impedance(theta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Evaluate Z alone at each omega.

    theta is the canonical 11-array, giving z of shape (n,), or a (k, 11)
    stack of them, giving z of shape (k, n).  The operations and their
    order are those of the Z half of :func:`_impedance_and_gradient`, so
    the two agree bit for bit.
    """
    theta = np.asarray(theta, dtype=float)
    rows = theta if theta.ndim == 1 else theta.T[:, :, None]
    rs, qhf, phf, r1, q1, p1, r2, q2, p2, qlf, plf = rows
    lnjw = np.log(omega) + 1j * (np.pi / 2.0)

    z = np.full(np.broadcast_shapes(np.shape(rs), lnjw.shape), rs, dtype=complex)
    for q, phi in ((qhf, phf), (qlf, plf)):
        z += np.exp(-phi * lnjw) / q
    for r, q, phi in ((r1, q1, p1), (r2, q2, p2)):
        z += r * (1.0 / (1.0 + r * q * np.exp(phi * lnjw)))
    return z


def _impedance_and_gradient(theta: np.ndarray, omega: np.ndarray):
    """Evaluate Z and the complex gradient dZ/dtheta_k at each omega.

    Returns (z, dz) with z of shape (n,) and dz of shape (n, 11), both
    complex.  theta is the canonical 11-array; omega in rad/s, positive.

    Each pair of like blocks runs as one stacked (2, n) array, its
    parameters taken by basic slices of theta, and dz is filled as its
    transpose, a row per parameter written by slices, then returned
    C-contiguous.  The per-element operations and their order are those of
    one block at a time, for about two thirds of the NumPy calls.
    """
    n = omega.size
    lnjw = np.log(omega) + 1j * (np.pi / 2.0)

    z = np.full(n, theta[0], dtype=complex)
    dzt = np.empty((N_PARAMETERS, n), dtype=complex)
    dzt[0] = 1.0

    # CPE blocks (HF, LF): Z = 1/(Q*s), s = (j*w)**phi.
    q, phi = theta[1:10:8, None], theta[2:11:8, None]
    zb = np.exp(-phi * lnjw) / q
    z += zb[0]
    z += zb[1]
    dzt[1:10:8] = -zb / q
    dzt[2:11:8] = -zb * lnjw

    # Zarc blocks (1, 2): Z = R/(1 + R*Q*s).
    r, q, phi = theta[3:9:3, None], theta[4:10:3, None], theta[5:11:3, None]
    s = np.exp(phi * lnjw)
    inv_den = 1.0 / (1.0 + r * q * s)
    zb = r * inv_den
    z += zb[0]
    z += zb[1]
    common = inv_den * inv_den
    dzt[3:9:3] = common
    dzt[4:10:3] = -(r * r) * s * common
    dzt[5:11:3] = -(r * r) * q * s * lnjw * common

    return z, dzt.T.copy()


def _polar_sensitivities(z: np.ndarray, dz: np.ndarray):
    """Chain rule from complex dZ to d|Z| and d(arg Z).

    d|Z|/dt   = Re(conj(Z) * dZ/dt) / |Z|
    d(argZ)/dt = Im(conj(Z) * dZ/dt) / |Z|**2
    """
    rho = np.abs(z)
    zbar_dz = np.conjugate(z)[:, None] * dz
    drho = zbar_dz.real / rho[:, None]
    dphase = zbar_dz.imag / (rho * rho)[:, None]
    return rho, drho, dphase


def _frequencies(grid) -> np.ndarray:
    """The Hz values of a FrequencyGrid, an array or a scalar as a 1-D
    float array.  A grid's own read-only array is returned as it is: its
    constructor already checked it.  Anything else is checked nonempty,
    positive and finite: a zero or negative frequency would give NaN rows,
    and a 2-D array broadcast errors or a 2-D result, not a DomainError."""
    if isinstance(grid, FrequencyGrid):
        return grid.frequencies
    freqs = np.atleast_1d(np.asarray(grid, dtype=float))
    if freqs.ndim != 1:
        raise DomainError(f"frequencies must be a 1-D array, got shape {freqs.shape}")
    if freqs.size == 0:
        raise DomainError("frequency set must be nonempty")
    if not (freqs > 0.0).all():
        raise DomainError("frequencies must be positive")
    if not np.isfinite(freqs).all():
        raise DomainError("frequencies must be finite")
    return freqs


def model_polar(theta: ParameterVector, frequencies_hz) -> tuple:
    """Magnitude (ohm) and phase (rad) of the model at the given Hz values."""
    f = _frequencies(frequencies_hz)
    z = _impedance(theta.to_array(), 2.0 * np.pi * f)
    return np.abs(z), np.angle(z)


def jacobian(theta: ParameterVector, grid) -> np.ndarray:
    """Sensitivity matrix of the stacked magnitude/phase model vector.

    Parameters
    ----------
    theta : ParameterVector
    grid : FrequencyGrid or array of Hz values

    Returns
    -------
    ndarray of shape (2n, 11)
        First n rows are d|Z_i|/dtheta_k, last n rows d(arg Z_i)/dtheta_k,
        in canonical parameter order.
    """
    f = _frequencies(grid)
    z, dz = _impedance_and_gradient(theta.to_array(), 2.0 * np.pi * f)
    _, drho, dphase = _polar_sensitivities(z, dz)
    return np.vstack([drho, dphase])
