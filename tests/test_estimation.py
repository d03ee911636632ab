"""Geometric initialization and weighted complex least-squares fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import decreasing_frequencies, thetas
from eisopt import (
    DomainError,
    ErrorStructure,
    FrequencyGrid,
    InitializationError,
    STATE_A,
    STATE_B,
    ParameterVector,
    fit_wcnls,
    initialize,
    log_spaced,
    model_polar,
    synthesize,
)
import eisopt.estimation
from eisopt.circuit import _impedance_and_gradient
from eisopt.measurement import Spectrum


GRID = log_spaced(1e4, 0.01, 10)
ERR = ErrorStructure()


def _noiseless(theta):
    return synthesize(theta, GRID, ERR, seed=0, noiseless=True)


def _objective(spectrum, theta):
    """The weighted least-squares objective at ``theta``."""
    mag, phase = model_polar(theta, spectrum.grid.frequencies)
    r = np.concatenate([
        (spectrum.mag_ohm - mag) / spectrum.sigma_mag_ohm,
        (spectrum.phase_rad - phase) / spectrum.sigma_phase_rad,
    ])
    return float(r @ r)


def _perturbed(theta, signs):
    values = theta.to_array().copy()
    for k, sign in enumerate(signs):
        values[k] *= 1.0 + 0.2 * sign
    # keep exponents inside their open intervals
    values[2] = np.clip(values[2], -0.999, -0.2)
    values[5] = np.clip(values[5], 0.05, 0.999)
    values[8] = np.clip(values[8], 0.05, 0.999)
    values[10] = np.clip(values[10], 0.01, 0.95)
    return ParameterVector.from_array(values)


# ---------------------------------------------------------------------------
# fitting


def test_exact_start_is_a_fixed_point():
    spectrum = _noiseless(STATE_A)
    initial = _objective(spectrum, STATE_A)
    result = fit_wcnls(spectrum, STATE_A)
    assert result.converged
    assert result.iterations <= 2
    assert result.objective <= max(1e-16 * max(initial, 1.0), 1e-16)


def test_recovers_from_twenty_percent_perturbation():
    rng = np.random.default_rng(13)
    for theta in (STATE_A, STATE_B):
        spectrum = _noiseless(theta)
        truth = theta.to_array()
        for _ in range(3):
            signs = rng.choice([-1.0, 1.0], size=11)
            result = fit_wcnls(spectrum, _perturbed(theta, signs))
            rel = np.abs(result.theta.to_array() - truth) / np.abs(truth)
            assert result.converged
            assert np.max(rel) < 1e-6, f"worst relative error {np.max(rel):.2e}"


def test_objective_never_increases_with_more_iterations(monkeypatch):
    spectrum = synthesize(STATE_A, GRID, ERR, seed=5)
    start = _perturbed(STATE_A, np.ones(11))
    previous = _objective(spectrum, start)
    for budget in (1, 2, 4, 8, 16, 200):
        monkeypatch.setattr(eisopt.estimation, "MAX_ITERATIONS", budget)
        result = fit_wcnls(spectrum, start)
        assert result.objective <= previous + 1e-12
        previous = result.objective


def test_iteration_budget_flags_nonconvergence(monkeypatch):
    spectrum = synthesize(STATE_A, GRID, ERR, seed=5)
    start = _perturbed(STATE_A, np.ones(11))
    monkeypatch.setattr(eisopt.estimation, "MAX_ITERATIONS", 1)
    result = fit_wcnls(spectrum, start)
    assert not result.converged
    assert result.objective <= _objective(spectrum, start)


def test_estimate_invariant_to_common_sigma_rescaling():
    spectrum = synthesize(STATE_A, GRID, ERR, seed=31)
    scaled = Spectrum(
        spectrum.grid,
        spectrum.mag_ohm,
        spectrum.phase_rad,
        spectrum.sigma_mag_ohm * 3.0,
        spectrum.sigma_phase_rad * 3.0,
        dict(spectrum.provenance),
    )
    start = _perturbed(STATE_A, -np.ones(11))
    a = fit_wcnls(spectrum, start)
    b = fit_wcnls(scaled, start)
    rel = np.abs(a.theta.to_array() - b.theta.to_array()) / np.abs(a.theta.to_array())
    assert np.max(rel) < 1e-6
    assert b.objective == pytest.approx(a.objective / 9.0, rel=1e-6)


def test_fit_objective_matches_manual_sum(monkeypatch):
    # with no iterations, the fit reports the objective at its start
    spectrum = synthesize(STATE_A, GRID, ERR, seed=2)
    mag, phase = model_polar(STATE_A, spectrum.grid.frequencies)
    manual = float(
        np.sum(((spectrum.mag_ohm - mag) / spectrum.sigma_mag_ohm) ** 2)
        + np.sum(((spectrum.phase_rad - phase) / spectrum.sigma_phase_rad) ** 2)
    )
    monkeypatch.setattr(eisopt.estimation, "MAX_ITERATIONS", 0)
    result = fit_wcnls(spectrum, STATE_A)
    assert result.iterations == 0
    assert result.objective == pytest.approx(manual, rel=1e-12)


def test_weighted_residuals_exposed():
    spectrum = synthesize(STATE_A, GRID, ERR, seed=2)
    result = fit_wcnls(spectrum, STATE_A)
    assert result.weighted_residuals.shape == (2 * len(spectrum.grid),)
    assert float(np.sum(result.weighted_residuals**2)) == pytest.approx(
        result.objective, rel=1e-12
    )


def test_fit_result_serializes():
    import json

    spectrum = synthesize(STATE_A, GRID, ERR, seed=2)
    result = fit_wcnls(spectrum, STATE_A)
    data = json.loads(json.dumps(result.to_json_dict()))
    assert data["converged"] is True
    assert set(data["parameters"]) == set(STATE_A.to_dict())


# ---------------------------------------------------------------------------
# initialization


def test_initialization_closes_the_loop_noiselessly():
    for theta in (STATE_A, STATE_B):
        spectrum = _noiseless(theta)
        start = initialize(spectrum)
        result = fit_wcnls(spectrum, start)
        rel = np.abs(result.theta.to_array() - theta.to_array()) / np.abs(
            theta.to_array()
        )
        assert np.max(rel) < 1e-3, f"worst relative error {np.max(rel):.2e}"


def test_series_resistance_seed_uses_minimal_imaginary_point():
    spectrum = _noiseless(STATE_A)
    start = initialize(spectrum)
    z = spectrum.impedance()
    hf = spectrum.grid.frequencies >= spectrum.grid.frequencies[0] / 100.0
    expected = z.real[hf][np.argmin(np.abs(z.imag[hf]))]
    assert start.to_array()[0] == pytest.approx(expected, rel=1e-12)


def test_low_frequency_exponent_seed_from_nyquist_slope():
    spectrum = _noiseless(STATE_A)
    start = initialize(spectrum)
    z = spectrum.impedance()[-5:]
    slope = np.polyfit(z.real, -z.imag, 1)[0]
    expected = np.arctan(slope) / (np.pi / 2.0)
    assert start.to_array()[10] == pytest.approx(expected, rel=1e-9)


def test_initialize_rejects_narrow_spectra():
    narrow = log_spaced(10.0, 1.0, 12)  # a single decade
    spectrum = synthesize(STATE_A, narrow, ERR, seed=1, noiseless=True)
    with pytest.raises(InitializationError):
        initialize(spectrum)

    few = FrequencyGrid(tuple(np.logspace(4, -2, 8)))
    spectrum = synthesize(STATE_A, few, ERR, seed=1, noiseless=True)
    with pytest.raises(InitializationError):
        initialize(spectrum)


def test_a_nan_candidate_raises_the_domain_error_of_its_vector():
    from eisopt.estimation import _arc_params, _candidate

    phi, q = _arc_params(10.0, float("nan"), 1e-3)
    assert math.isnan(phi) and math.isnan(q)
    assert _arc_params(10.0, 1e9, 1e-3)[0] == 1.0
    assert _arc_params(10.0, 0.0, 1e-3)[0] == 0.3
    args = list(STATE_A.to_array())
    row = _candidate(*args)
    assert row.dtype == float and np.array_equal(ParameterVector.from_array(row).to_array(), row)
    args[4], args[5] = q, phi
    with pytest.raises(DomainError, match="^Q_1 must be positive and finite, got nan$"):
        _candidate(*args)


def test_noisy_fits_stay_near_truth():
    truth = STATE_A.to_array()
    for seed in range(5):
        spectrum = synthesize(STATE_A, GRID, ERR, seed=100 + seed)
        result = fit_wcnls(spectrum, initialize(spectrum))
        assert result.converged
        rel = np.abs(result.theta.to_array() - truth) / np.abs(truth)
        assert np.max(rel) < 0.5


@settings(max_examples=40, deadline=None, derandomize=True)
@given(truth=thetas(), theta=thetas(), frequencies=decreasing_frequencies(),
       seed=st.integers(0, 2**32 - 1))
def test_objective_is_the_sum_of_squared_weighted_residuals(truth, theta, frequencies, seed):
    spectrum = synthesize(truth, FrequencyGrid(tuple(frequencies)), ERR, seed=seed)
    z, _ = _impedance_and_gradient(theta.to_array(), 2.0 * np.pi * spectrum.grid.frequencies)
    r = np.concatenate([
        (spectrum.mag_ohm - np.abs(z)) / spectrum.sigma_mag_ohm,
        (spectrum.phase_rad - np.angle(z)) / spectrum.sigma_phase_rad,
    ])
    objective = _objective(spectrum, theta)
    assert objective == float(r @ r)
    assert objective == pytest.approx(math.fsum(r * r), rel=1e-12)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_model_is_evaluated_once_per_trial_and_differentiated_once_per_accepted_step(
    monkeypatch,
):
    spectrum = synthesize(STATE_B, GRID, ERR, seed=5)
    model = _counting(monkeypatch, eisopt.estimation, "_impedance_and_gradient")
    start = initialize(spectrum)
    assert model == []  # candidates are scored without the gradient

    polar = _counting(monkeypatch, eisopt.estimation, "_polar_sensitivities")
    # _project runs once on the start and once on every trial step.
    projections = _counting(monkeypatch, eisopt.estimation, "_project")
    result = fit_wcnls(spectrum, start)
    trials = len(projections) - 1
    assert trials > result.iterations  # some trial steps were rejected
    assert len(model) == trials + 1
    assert len(polar) == result.iterations + 1 < len(model)


# Results of fit_wcnls(s, initialize(s)) on GRID with synthesis seed 5, as
# float.hex: theta, objective, iterations and message.  Any change to the
# arithmetic of the estimation path shows here as a changed bit.
_BIT_STABLE_FITS = {
    ("STATE_A", False): (
        ("0x1.fe1888fa6cc55p-10", "0x1.614c36fc9f439p+23", "-0x1.f909f4791ca78p-1",
         "0x1.42105d225b256p-9", "0x1.36512eedba113p+2", "0x1.525ed2dcccba1p-1",
         "0x1.a32c7de8e3bedp-9", "0x1.a05b0ddec06f4p+2", "0x1.e1253d6b43214p-1",
         "0x1.a7aabbd636340p+9", "0x1.1b2283719de46p-1"),
        "0x1.763c9f1f22df2p+6", 9, "objective decrease below tolerance",
    ),
    ("STATE_A", True): (
        ("0x1.fbc5de9bffc55p-10", "0x1.59757ffffb645p+23", "-0x1.f810624dd2595p-1",
         "0x1.3bc0a06ea7172p-9", "0x1.2dc28f5c36035p+2", "0x1.52d77318f8da5p-1",
         "0x1.acffa7eb66298p-9", "0x1.9ad0e56043908p+2", "0x1.de90ff97260dep-1",
         "0x1.ad40000000235p+9", "0x1.1c504816f00d4p-1"),
        "0x1.937cbf7a9c6bfp-68", 6, "gradient below tolerance",
    ),
    ("STATE_B", False): (
        ("0x1.0a22908bceb56p-9", "0x1.3dbb6943593b7p+23", "-0x1.f8eebdc90e9ffp-1",
         "0x1.30bd5649ef1c7p-7", "0x1.02ba6cd61934dp+3", "0x1.2720c9f08be4fp-1",
         "0x1.ad740ba28d367p-6", "0x1.9cf290efd798dp+2", "0x1.eb15574ba1bbcp-1",
         "0x1.062019be35242p+9", "0x1.f6bd658ec8eeep-2"),
        "0x1.69fadf28fda3ep+6", 31, "objective decrease below tolerance",
    ),
    ("STATE_B", True): (
        ("0x1.085f4a12753f1p-9", "0x1.37478000097c7p+23", "-0x1.f810624dd4583p-1",
         "0x1.3871609560002p-7", "0x1.09d2f1a9f0e8ap+3", "0x1.23bcd35a89148p-1",
         "0x1.b1af3a14d48bcp-6", "0x1.9fced91683c25p+2", "0x1.e8c154c983e06p-1",
         "0x1.38800000025ccp+9", "0x1.123a29c77aec3p-1"),
        "0x1.283aca0251c91p-64", 31, "gradient below tolerance",
    ),
}


@pytest.mark.parametrize("state, noiseless", sorted(_BIT_STABLE_FITS))
def test_fit_results_are_bit_stable(state, noiseless):
    theta = {"STATE_A": STATE_A, "STATE_B": STATE_B}[state]
    spectrum = synthesize(theta, GRID, ERR, seed=5, noiseless=noiseless)
    result = fit_wcnls(spectrum, initialize(spectrum))
    got = (
        tuple(float(v).hex() for v in result.theta.to_array()),
        result.objective.hex(),
        result.iterations,
        result.message,
    )
    assert got == _BIT_STABLE_FITS[state, noiseless]
