"""Geometric initialization and weighted complex least-squares fitting."""

import numpy as np
import pytest

from eisopt import (
    ErrorStructure,
    FrequencyGrid,
    InitializationError,
    STATE_A,
    STATE_B,
    ParameterVector,
    fit_wcnls,
    initialize,
    log_spaced,
    objective_value,
    synthesize,
)
import eisopt.estimation
from eisopt.measurement import Spectrum


GRID = log_spaced(1e4, 0.01, 10)
ERR = ErrorStructure()


def _noiseless(theta):
    return synthesize(theta, GRID, ERR, seed=0, noiseless=True)


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
    initial = objective_value(spectrum, STATE_A)
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
    previous = objective_value(spectrum, start)
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
    assert result.objective <= objective_value(spectrum, start)


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


def test_objective_value_matches_manual_sum():
    spectrum = synthesize(STATE_A, GRID, ERR, seed=2)
    from eisopt import model_polar

    mag, phase = model_polar(STATE_A, spectrum.frequencies)
    manual = float(
        np.sum(((spectrum.mag_ohm - mag) / spectrum.sigma_mag_ohm) ** 2)
        + np.sum(((spectrum.phase_rad - phase) / spectrum.sigma_phase_rad) ** 2)
    )
    assert objective_value(spectrum, STATE_A) == pytest.approx(manual, rel=1e-12)


def test_weighted_residuals_exposed():
    spectrum = synthesize(STATE_A, GRID, ERR, seed=2)
    result = fit_wcnls(spectrum, STATE_A)
    assert result.weighted_residuals.shape == (2 * spectrum.n,)
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
    hf = spectrum.frequencies >= spectrum.frequencies[0] / 100.0
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


def test_noisy_fits_stay_near_truth():
    truth = STATE_A.to_array()
    for seed in range(5):
        spectrum = synthesize(STATE_A, GRID, ERR, seed=100 + seed)
        result = fit_wcnls(spectrum, initialize(spectrum))
        assert result.converged
        rel = np.abs(result.theta.to_array() - truth) / np.abs(truth)
        assert np.max(rel) < 0.5
