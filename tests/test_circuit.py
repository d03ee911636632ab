"""Model evaluation and analytic sensitivities."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eisopt import (
    DomainError,
    ErrorStructure,
    PARAMETER_NAMES,
    ParameterVector,
    STATE_A,
    fisher_contributions,
    jacobian,
    log_spaced_inclusive,
    model_polar,
)
from eisopt.circuit import _frequencies, _impedance, _impedance_and_gradient
from eisopt.estimation import _cpe_complex

from conftest import decreasing_frequencies, random_theta, thetas


# ---------------------------------------------------------------------------
# high-precision oracle


def _mp_cpe(q, phi, w):
    return 1 / (mpmath.mpf(q) * (mpmath.mpc(0, 1) * mpmath.mpf(w)) ** mpmath.mpf(phi))


def _mp_zarc(r, q, phi, w):
    z = _mp_cpe(q, phi, w)
    return (mpmath.mpf(r) * z) / (mpmath.mpf(r) + z)


def _mp_ecm(theta: ParameterVector, w):
    t = theta.to_array()
    return (
        mpmath.mpf(t[0])
        + _mp_cpe(t[1], t[2], w)
        + _mp_zarc(t[3], t[4], t[5], w)
        + _mp_zarc(t[6], t[7], t[8], w)
        + _mp_cpe(t[9], t[10], w)
    )


def _mp_polar_from_list(t, w):
    """Magnitude and phase from an mpf parameter list, using the rational
    Zarc form R/(1 + R Q (jw)^phi) as an independent formulation."""
    jw = mpmath.mpc(0, 1) * w
    z = (
        t[0]
        + 1 / (t[1] * jw ** t[2])
        + t[3] / (1 + t[3] * t[4] * jw ** t[5])
        + t[6] / (1 + t[6] * t[7] * jw ** t[8])
        + 1 / (t[9] * jw ** t[10])
    )
    return mpmath.sqrt(z.real**2 + z.imag**2), mpmath.atan2(z.imag, z.real)


# ---------------------------------------------------------------------------
# the oracle's elements in closed form


def _cpe(q, phi, w):
    with mpmath.workdps(40):
        return complex(_mp_cpe(q, phi, w))


def _zarc(r, q, phi, w):
    with mpmath.workdps(40):
        return complex(_mp_zarc(r, q, phi, w))


def _ecm(theta, omega):
    with mpmath.workdps(40):
        return np.array([complex(_mp_ecm(theta, w)) for w in omega])


def test_cpe_unit_capacitor_case():
    z = _cpe(1.0, 1.0, 1.0)
    assert abs(z - (-1j)) < 1e-15


def test_cpe_unity_slope_case():
    z = _cpe(1.0, 0.5, 1.0)
    expected = (1.0 - 1.0j) / math.sqrt(2.0)
    assert abs(z - expected) < 1e-14


def test_cpe_against_high_precision_oracle():
    # The low-frequency CPE of the state (a) fixture at the sweep's lowest
    # frequency, as initialize subtracts it, against 40-digit arithmetic.
    q, phi = 8.585e2, 5.553e-1
    w = 2.0 * math.pi * 0.01
    z = complex(_cpe_complex(q, phi, np.array([w]))[0])
    assert abs(z - _cpe(q, phi, w)) < 1e-14 * abs(z)


def test_cpe_capacitor_reduction():
    for q, w in ((2.0, 3.0), (0.5, 10.0)):
        z = _cpe(q, 1.0, w)
        assert abs(z - (-1j / (q * w))) < 1e-15 / (q * w)


def test_cpe_half_exponent_has_exact_45_degree_phase():
    for w in (0.01, 1.0, 1e4):
        z = _cpe(3.7, 0.5, w)
        assert abs(math.degrees(math.atan2(z.imag, z.real)) + 45.0) < 1e-12


def test_zarc_unit_case():
    z = _zarc(1.0, 1.0, 1.0, 1.0)
    assert abs(z - (0.5 - 0.5j)) < 1e-15


def test_zarc_frequency_limits():
    r, q, phi = 2.5, 4.0, 0.8
    w_c = (1.0 / (r * q)) ** (1.0 / phi)  # characteristic angular frequency
    assert abs(_zarc(r, q, phi, w_c * 1e8)) < 1e-6 * r
    assert abs(_zarc(r, q, phi, w_c * 1e-8) - r) < 1e-6 * r


# ---------------------------------------------------------------------------
# the impedance kernel


def _kernel(theta: ParameterVector, w: float) -> complex:
    return complex(_impedance(theta.to_array(), np.array([w]))[0])


def test_ecm_series_additivity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        theta = random_theta(rng)
        t = theta.to_array()
        for w in 2.0 * math.pi * 10.0 ** rng.uniform(-2, 4, size=6):
            total = _kernel(theta, w)
            blocks = (
                t[0]
                + _cpe(t[1], t[2], w)
                + _zarc(t[3], t[4], t[5], w)
                + _zarc(t[6], t[7], t[8], w)
                + _cpe(t[9], t[10], w)
            )
            assert abs(total - blocks) < 1e-12 * abs(total)


def test_ecm_low_frequency_real_part_exceeds_resistor_sum():
    t = STATE_A.to_array()
    z = _kernel(STATE_A, 2.0 * math.pi * 1e-9)
    assert z.real >= t[0] + t[3] + t[6]


def test_ecm_against_high_precision_oracle():
    w = 2.0 * math.pi * 1.0
    z = _kernel(STATE_A, w)
    assert abs(z - _ecm(STATE_A, [w])[0]) < 1e-13 * abs(z)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=thetas(), frequencies=decreasing_frequencies())
def test_impedance_kernel_matches_the_oracle_over_the_domain(theta, frequencies):
    # thetas() pins an exponent to the edge of its interval in some examples
    omega = 2.0 * np.pi * frequencies
    z = _impedance(theta.to_array(), omega)
    assert np.all(np.abs(z - _ecm(theta, omega)) <= 1e-13 * np.abs(z))


def test_parameter_vector_invariants():
    base = STATE_A.to_array()
    for idx, bad in [(0, -1.0), (1, 0.0), (4, -1.0), (2, 0.5), (2, -1.5), (5, 0.0),
                     (5, 1.5), (8, -0.2), (10, -0.1), (10, 1.0)]:
        broken = base.copy()
        broken[idx] = bad
        with pytest.raises(DomainError):
            ParameterVector.from_array(broken)


# (parameter, value, its DomainError message, or None where it is admitted):
# each end of every interval, the float just beyond it, NaN and +-inf.
_DOMAIN_CASES = [
    ("R_s", 0.0, "R_s must be positive and finite, got 0.0"),
    ("R_s", -5e-324, "R_s must be positive and finite, got -5e-324"),
    ("R_s", 5e-324, None),
    ("R_s", 1.7976931348623157e+308, None),
    ("R_s", math.nan, "R_s must be positive and finite, got nan"),
    ("R_s", math.inf, "R_s must be positive and finite, got inf"),
    ("R_s", -math.inf, "R_s must be positive and finite, got -inf"),
    ("Q_HF", 0.0, "Q_HF must be positive and finite, got 0.0"),
    ("Q_HF", -5e-324, "Q_HF must be positive and finite, got -5e-324"),
    ("Q_HF", 5e-324, None),
    ("Q_HF", 1.7976931348623157e+308, None),
    ("Q_HF", math.nan, "Q_HF must be positive and finite, got nan"),
    ("Q_HF", math.inf, "Q_HF must be positive and finite, got inf"),
    ("Q_HF", -math.inf, "Q_HF must be positive and finite, got -inf"),
    ("phi_HF", -1.0, None),
    ("phi_HF", 0.0, "phi_HF must lie in [-1, 0), got 0.0"),
    ("phi_HF", -1.0000000000000002, "phi_HF must lie in [-1, 0), got -1.0000000000000002"),
    ("phi_HF", 5e-324, "phi_HF must lie in [-1, 0), got 5e-324"),
    ("phi_HF", math.nan, "phi_HF must lie in [-1, 0), got nan"),
    ("phi_HF", math.inf, "phi_HF must lie in [-1, 0), got inf"),
    ("phi_HF", -math.inf, "phi_HF must lie in [-1, 0), got -inf"),
    ("R_1", 0.0, "R_1 must be positive and finite, got 0.0"),
    ("R_1", -5e-324, "R_1 must be positive and finite, got -5e-324"),
    ("R_1", 5e-324, None),
    ("R_1", 1.7976931348623157e+308, None),
    ("R_1", math.nan, "R_1 must be positive and finite, got nan"),
    ("R_1", math.inf, "R_1 must be positive and finite, got inf"),
    ("R_1", -math.inf, "R_1 must be positive and finite, got -inf"),
    ("Q_1", 0.0, "Q_1 must be positive and finite, got 0.0"),
    ("Q_1", -5e-324, "Q_1 must be positive and finite, got -5e-324"),
    ("Q_1", 5e-324, None),
    ("Q_1", 1.7976931348623157e+308, None),
    ("Q_1", math.nan, "Q_1 must be positive and finite, got nan"),
    ("Q_1", math.inf, "Q_1 must be positive and finite, got inf"),
    ("Q_1", -math.inf, "Q_1 must be positive and finite, got -inf"),
    ("phi_1", 0.0, "phi_1 must lie in (0, 1], got 0.0"),
    ("phi_1", 1.0, None),
    ("phi_1", -5e-324, "phi_1 must lie in (0, 1], got -5e-324"),
    ("phi_1", 1.0000000000000002, "phi_1 must lie in (0, 1], got 1.0000000000000002"),
    ("phi_1", math.nan, "phi_1 must lie in (0, 1], got nan"),
    ("phi_1", math.inf, "phi_1 must lie in (0, 1], got inf"),
    ("phi_1", -math.inf, "phi_1 must lie in (0, 1], got -inf"),
    ("R_2", 0.0, "R_2 must be positive and finite, got 0.0"),
    ("R_2", -5e-324, "R_2 must be positive and finite, got -5e-324"),
    ("R_2", 5e-324, None),
    ("R_2", 1.7976931348623157e+308, None),
    ("R_2", math.nan, "R_2 must be positive and finite, got nan"),
    ("R_2", math.inf, "R_2 must be positive and finite, got inf"),
    ("R_2", -math.inf, "R_2 must be positive and finite, got -inf"),
    ("Q_2", 0.0, "Q_2 must be positive and finite, got 0.0"),
    ("Q_2", -5e-324, "Q_2 must be positive and finite, got -5e-324"),
    ("Q_2", 5e-324, None),
    ("Q_2", 1.7976931348623157e+308, None),
    ("Q_2", math.nan, "Q_2 must be positive and finite, got nan"),
    ("Q_2", math.inf, "Q_2 must be positive and finite, got inf"),
    ("Q_2", -math.inf, "Q_2 must be positive and finite, got -inf"),
    ("phi_2", 0.0, "phi_2 must lie in (0, 1], got 0.0"),
    ("phi_2", 1.0, None),
    ("phi_2", -5e-324, "phi_2 must lie in (0, 1], got -5e-324"),
    ("phi_2", 1.0000000000000002, "phi_2 must lie in (0, 1], got 1.0000000000000002"),
    ("phi_2", math.nan, "phi_2 must lie in (0, 1], got nan"),
    ("phi_2", math.inf, "phi_2 must lie in (0, 1], got inf"),
    ("phi_2", -math.inf, "phi_2 must lie in (0, 1], got -inf"),
    ("Q_LF", 0.0, "Q_LF must be positive and finite, got 0.0"),
    ("Q_LF", -5e-324, "Q_LF must be positive and finite, got -5e-324"),
    ("Q_LF", 5e-324, None),
    ("Q_LF", 1.7976931348623157e+308, None),
    ("Q_LF", math.nan, "Q_LF must be positive and finite, got nan"),
    ("Q_LF", math.inf, "Q_LF must be positive and finite, got inf"),
    ("Q_LF", -math.inf, "Q_LF must be positive and finite, got -inf"),
    ("phi_LF", 0.0, None),
    ("phi_LF", 1.0, "phi_LF must lie in [0, 1), got 1.0"),
    ("phi_LF", -5e-324, "phi_LF must lie in [0, 1), got -5e-324"),
    ("phi_LF", 1.0000000000000002, "phi_LF must lie in [0, 1), got 1.0000000000000002"),
    ("phi_LF", math.nan, "phi_LF must lie in [0, 1), got nan"),
    ("phi_LF", math.inf, "phi_LF must lie in [0, 1), got inf"),
    ("phi_LF", -math.inf, "phi_LF must lie in [0, 1), got -inf"),
]


@pytest.mark.parametrize("name, value, message", _DOMAIN_CASES)
def test_each_inadmissible_value_names_its_parameter_and_interval(name, value, message):
    values = STATE_A.to_array()
    values[PARAMETER_NAMES.index(name)] = value
    if message is None:
        assert ParameterVector.from_array(values).to_dict()[name] == value
    else:
        with pytest.raises(DomainError) as exc:
            ParameterVector.from_array(values)
        assert str(exc.value) == message


def test_the_first_inadmissible_value_in_canonical_order_is_named():
    values = STATE_A.to_array()
    values[2], values[3] = 0.5, -1.0  # phi_HF, then R_1
    with pytest.raises(DomainError, match=r"^phi_HF must lie in \[-1, 0\), got 0.5$"):
        ParameterVector.from_array(values)


def test_parameter_vector_round_trips():
    assert ParameterVector.from_array(STATE_A.to_array()) == STATE_A
    assert ParameterVector.from_dict(STATE_A.to_dict()) == STATE_A
    assert list(STATE_A.to_dict()) == list(PARAMETER_NAMES)


# ---------------------------------------------------------------------------
# sensitivities


def test_series_resistance_gradient_is_unity():
    omega = 2.0 * math.pi * np.logspace(-2, 4, 13)
    _, dz = _impedance_and_gradient(STATE_A.to_array(), omega)
    assert np.allclose(dz[:, 0], 1.0 + 0.0j, atol=1e-15)


def _fd_jacobian(theta: ParameterVector, grid, rel_step=1e-6):
    base = theta.to_array()
    cols = []
    for k in range(base.size):
        h = rel_step * abs(base[k])
        hi, lo = base.copy(), base.copy()
        hi[k] += h
        lo[k] -= h
        mag_hi, ph_hi = model_polar(ParameterVector.from_array(hi), grid)
        mag_lo, ph_lo = model_polar(ParameterVector.from_array(lo), grid)
        cols.append(np.concatenate([(mag_hi - mag_lo), (ph_hi - ph_lo)]) / (2 * h))
    return np.column_stack(cols)


def test_jacobian_matches_finite_differences_columnwise():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        theta = random_theta(rng)
        grid = 10.0 ** rng.uniform(-2, 4, size=20)
        grid = np.sort(grid)[::-1]
        jac = jacobian(theta, grid)
        fd = _fd_jacobian(theta, grid)
        for k in range(11):
            err = np.linalg.norm(jac[:, k] - fd[:, k]) / np.linalg.norm(jac[:, k])
            worst = max(worst, err)
    assert worst < 1e-5, f"worst column-relative deviation {worst:.3g}"


def test_jacobian_against_high_precision_oracle():
    # Independent check that rules out shared roundoff with the finite
    # differences: every entry against 40-digit arithmetic.
    theta = STATE_A
    freqs = np.array([3162.0, 21.5, 0.0235])
    jac = jacobian(theta, freqs)
    base = theta.to_array()
    with mpmath.workdps(40):
        for i, f in enumerate(freqs):
            w = 2 * mpmath.pi * mpmath.mpf(float(f))
            for k in range(11):
                h = mpmath.mpf("1e-18") * abs(mpmath.mpf(float(base[k])))
                hi = [mpmath.mpf(float(v)) for v in base]
                lo = [mpmath.mpf(float(v)) for v in base]
                hi[k] += h
                lo[k] -= h
                mag_hi, ph_hi = _mp_polar_from_list(hi, w)
                mag_lo, ph_lo = _mp_polar_from_list(lo, w)
                d_mag = float((mag_hi - mag_lo) / (2 * h))
                d_ph = float((ph_hi - ph_lo) / (2 * h))
                scale = max(abs(jac[i, k]), abs(jac[len(freqs) + i, k]), 1e-300)
                assert abs(jac[i, k] - d_mag) < 1e-9 * scale
                assert abs(jac[len(freqs) + i, k] - d_ph) < 1e-9 * scale


def test_low_frequency_exponent_sensitivity_sign():
    # Raising the low-frequency CPE exponent rotates the branch toward the
    # capacitive axis, so the phase derivative at low frequency is negative.
    freqs = np.array([0.01])
    jac = jacobian(STATE_A, freqs)
    d_phase_d_phi_lf = jac[1, 10]
    assert d_phase_d_phi_lf < 0.0

    h = 1e-7
    hi = STATE_A.to_array()
    lo = hi.copy()
    hi[10] += h
    lo[10] -= h
    _, ph_hi = model_polar(ParameterVector.from_array(hi), freqs)
    _, ph_lo = model_polar(ParameterVector.from_array(lo), freqs)
    fd = (ph_hi[0] - ph_lo[0]) / (2 * h)
    assert abs(d_phase_d_phi_lf - fd) < 1e-6 * abs(fd)


def test_model_polar_phase_range_and_consistency():
    rng = np.random.default_rng(3)
    theta = random_theta(rng)
    freqs = np.sort(10.0 ** rng.uniform(-2, 4, 25))[::-1]
    mag, phase = model_polar(theta, freqs)
    z = _ecm(theta, 2 * math.pi * freqs)
    assert np.allclose(mag, np.abs(z), rtol=1e-14)
    assert np.allclose(phase, np.angle(z), rtol=1e-14)
    assert np.all(mag >= 0.0)
    assert np.all((phase > -math.pi) & (phase <= math.pi))


def test_jacobian_accepts_grid_objects():
    from eisopt import log_spaced

    grid = log_spaced(100.0, 1.0, 3)
    jac = jacobian(STATE_A, grid)
    assert jac.shape == (2 * len(grid), 11)
    assert np.array_equal(jac, jacobian(STATE_A, grid.frequencies))


# The model, its Jacobian and the information pieces check their
# frequencies alike, before numpy can warn or return NaN rows.
@pytest.mark.parametrize("function", [
    model_polar,
    jacobian,
    lambda theta, freqs: fisher_contributions(theta, freqs, ErrorStructure()),
], ids=["model_polar", "jacobian", "fisher_contributions"])
@pytest.mark.parametrize("freqs, message", [
    ([0.0], "positive"),
    ([-1.0], "positive"),
    ([float("nan")], "positive"),
    ([float("inf")], "finite"),
    ([], "nonempty"),
    ([1.0, -1.0], "positive"),
    ([[1.0, 2.0], [3.0, 4.0]], "1-D"),
])
def test_bad_frequencies_raise_the_same_domain_error(function, freqs, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            function(STATE_A, np.array(freqs))


def test_a_grid_passes_its_own_array_unchecked():
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    assert _frequencies(grid) is grid.frequencies
    checked = _frequencies(list(grid.frequencies))
    assert checked is not grid.frequencies and np.array_equal(checked, grid.frequencies)


def _bits(z):
    """The bit patterns of a complex array, so signed zeros compare unequal."""
    return np.ascontiguousarray(z).view(np.int64)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stack=st.lists(thetas(), min_size=1, max_size=4), frequencies=decreasing_frequencies())
def test_impedance_kernel_is_bit_equal_to_the_gradient_kernel(stack, frequencies):
    omega = 2.0 * np.pi * frequencies
    rows = np.array([theta.to_array() for theta in stack])
    singles = [_impedance(row, omega) for row in rows]
    for row, z in zip(rows, singles):
        assert z.shape == omega.shape
        assert np.array_equal(_bits(z), _bits(_impedance_and_gradient(row, omega)[0]))
    stacked = _impedance(rows, omega)
    assert stacked.shape == (len(stack), omega.size)
    assert np.array_equal(_bits(stacked), _bits(np.array(singles)))
