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
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .exceptions import DomainError

# Canonical parameter order; every array-valued theta in the package
# follows it.
PARAMETER_NAMES = (
    "R_s",
    "Q_HF",
    "phi_HF",
    "R_1",
    "Q_1",
    "phi_1",
    "R_2",
    "Q_2",
    "phi_2",
    "Q_LF",
    "phi_LF",
)

N_PARAMETERS = len(PARAMETER_NAMES)

# Indices of parameters that are positive and optimized in log space
# (resistances and CPE coefficients); the four exponents stay linear.
LOG_SCALE_INDICES = (0, 1, 3, 4, 6, 7, 9)
EXPONENT_INDICES = (2, 5, 8, 10)


@dataclass(frozen=True)
class ParameterVector:
    """The eleven circuit parameters in canonical order.

    Units: resistances in ohm, CPE coefficients in ohm^-1 * s^phi (so that
    1/(Q*w**phi) is an impedance), exponents dimensionless.
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
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        positive = {
            "R_s": self.r_s,
            "Q_HF": self.q_hf,
            "R_1": self.r_1,
            "Q_1": self.q_1,
            "R_2": self.r_2,
            "Q_2": self.q_2,
            "Q_LF": self.q_lf,
        }
        for name, value in positive.items():
            if not np.isfinite(value) or value <= 0.0:
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not (-1.0 <= self.phi_hf < 0.0):
            raise DomainError(f"phi_HF must lie in [-1, 0), got {self.phi_hf}")
        for name, value in (("phi_1", self.phi_1), ("phi_2", self.phi_2)):
            if not (0.0 < value <= 1.0):
                raise DomainError(f"{name} must lie in (0, 1], got {value}")
        if not (0.0 <= self.phi_lf < 1.0):
            raise DomainError(f"phi_LF must lie in [0, 1), got {self.phi_lf}")

    def to_array(self) -> np.ndarray:
        return np.array(
            [
                self.r_s,
                self.q_hf,
                self.phi_hf,
                self.r_1,
                self.q_1,
                self.phi_1,
                self.r_2,
                self.q_2,
                self.phi_2,
                self.q_lf,
                self.phi_lf,
            ]
        )

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


def _check_omega(omega) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0.0):
        raise DomainError("angular frequency must be positive")
    return w


def _jw_pow(omega: np.ndarray, phi: float) -> np.ndarray:
    # Principal branch: (j*w)**phi = w**phi * exp(j*pi*phi/2) for w > 0.
    return np.exp(phi * (np.log(omega) + 1j * (np.pi / 2.0)))


def cpe_impedance(q: float, phi: float, omega):
    """Impedance of a constant phase element, 1/(Q*(j*w)**phi).

    Parameters
    ----------
    q : float
        CPE coefficient, > 0.
    phi : float
        CPE exponent.  phi = 1 is an ideal capacitor, phi = 0.5 the Warburg
        element, negative values give inductive behaviour.
    omega : float or array
        Angular frequency in rad/s, > 0.

    Returns
    -------
    complex or ndarray of complex
    """
    if not q > 0.0:
        raise DomainError(f"CPE coefficient must be positive, got {q}")
    w = _check_omega(omega)
    z = 1.0 / (q * _jw_pow(w, phi))
    return complex(z) if np.isscalar(omega) else z


def zarc_impedance(r: float, q: float, phi: float, omega):
    """Impedance of a resistor in parallel with a CPE: R / (1 + R*Q*(j*w)**phi)."""
    if not (r > 0.0 and q > 0.0):
        raise DomainError("Zarc R and Q must be positive")
    w = _check_omega(omega)
    z = r / (1.0 + r * q * _jw_pow(w, phi))
    return complex(z) if np.isscalar(omega) else z


def ecm_impedance(theta: ParameterVector, omega):
    """Total impedance of the series chain at angular frequency omega (rad/s)."""
    w = _check_omega(omega)
    z, _ = _impedance_and_gradient(theta.to_array(), np.atleast_1d(w))
    return complex(z[0]) if np.isscalar(omega) else z


def _impedance_and_gradient(theta: np.ndarray, omega: np.ndarray):
    """Evaluate Z and the complex gradient dZ/dtheta_k at each omega.

    Returns (z, dz) with z of shape (n,) and dz of shape (n, 11), both
    complex.  theta is the canonical 11-array; omega in rad/s, positive.
    """
    rs, qhf, phf, r1, q1, p1, r2, q2, p2, qlf, plf = theta
    n = omega.size
    lnjw = np.log(omega) + 1j * (np.pi / 2.0)

    z = np.full(n, rs, dtype=complex)
    dz = np.zeros((n, N_PARAMETERS), dtype=complex)
    dz[:, 0] = 1.0

    # CPE blocks (HF, LF): Z = 1/(Q*s), s = (j*w)**phi.
    for q, phi, iq, iphi in ((qhf, phf, 1, 2), (qlf, plf, 9, 10)):
        zb = np.exp(-phi * lnjw) / q
        z += zb
        dz[:, iq] = -zb / q
        dz[:, iphi] = -zb * lnjw

    # Zarc blocks: Z = R/(1 + R*Q*s).
    for r, q, phi, ir, iq, iphi in ((r1, q1, p1, 3, 4, 5), (r2, q2, p2, 6, 7, 8)):
        s = np.exp(phi * lnjw)
        inv_den = 1.0 / (1.0 + r * q * s)
        z += r * inv_den
        common = inv_den * inv_den
        dz[:, ir] = common
        dz[:, iq] = -(r * r) * s * common
        dz[:, iphi] = -(r * r) * q * s * lnjw * common

    return z, dz


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


def model_polar(theta: ParameterVector, frequencies_hz) -> tuple:
    """Magnitude (ohm) and phase (rad) of the model at the given Hz values."""
    f = np.asarray(frequencies_hz, dtype=float)
    z, _ = _impedance_and_gradient(theta.to_array(), 2.0 * np.pi * f)
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
    f = np.asarray(getattr(grid, "frequencies", grid), dtype=float)
    if f.size == 0:
        raise DomainError("frequency grid must be nonempty")
    z, dz = _impedance_and_gradient(theta.to_array(), 2.0 * np.pi * f)
    _, drho, dphase = _polar_sensitivities(z, dz)
    return np.vstack([drho, dphase])
