"""Acceptance gate: nine end-to-end behavioral criteria, one test each.

The slow criteria (6-8) run the real design loop and a 500-draw Monte
Carlo.  The whole module takes 12-15 s on a 2-core x86-64 machine, most
of it in criterion 6's thirty design runs.
"""

import functools
import math

import numpy as np
import pytest
import scipy.stats

from eisopt import (
    DesignConfig,
    ErrorStructure,
    ParameterVector,
    STATE_A,
    STATE_B,
    crlb,
    fisher,
    fit_wcnls,
    initialize,
    jacobian,
    log_spaced,
    log_spaced_inclusive,
    model_polar,
    reduce_ppd,
    run_design,
    synthesize,
    total_time,
)
from conftest import random_theta

ERR = ErrorStructure()
FORMULA_GRID = log_spaced(1e4, 0.01, 10)
INCLUSIVE_GRID = log_spaced_inclusive(1e4, 0.01, 10)
N_P = 5


def _ratios(theta, threshold_hz, ppd_low):
    base = crlb(fisher(theta, INCLUSIVE_GRID, ERR))
    reduced = reduce_ppd(INCLUSIVE_GRID, threshold_hz, ppd_low)
    return crlb(fisher(theta, reduced, ERR)) / base


@functools.lru_cache(maxsize=None)
def _design_traces(ppd):
    """Ten seeded design-loop runs on the grid thinned to ``ppd`` below 0.1 Hz."""
    reduced = reduce_ppd(INCLUSIVE_GRID, 0.1, ppd)
    traces = []
    for seed in range(10):
        spectrum = synthesize(STATE_A, reduced, ERR, seed=1000 + seed)
        traces.append(
            run_design(
                spectrum,
                STATE_A,
                DesignConfig(),
                err=ERR,
                seed=2000 + seed,
                reference_grid=INCLUSIVE_GRID,
            )
        )
    return tuple(traces)


def test_criterion_1_grid_size_and_sweep_time_distribution():
    assert len(FORMULA_GRID) == 61

    freqs = FORMULA_GRID.frequencies
    t_total = total_time(FORMULA_GRID, N_P)
    t_lowest = float(np.sum(N_P / freqs[freqs < 0.1]))
    t_next = float(np.sum(N_P / freqs[(freqs >= 0.1) & (freqs < 1.0)]))
    assert t_lowest / t_total == pytest.approx(0.90, abs=0.01)
    assert t_next / t_total == pytest.approx(0.09, abs=0.01)

    # the fractional-point-count spacing gives ~40.5 min; the convention
    # that counts both decade endpoints gives the often-quoted ~36.9 min
    assert t_total / 60.0 == pytest.approx(40.5, abs=0.1)
    assert total_time(INCLUSIVE_GRID, N_P) / 60.0 == pytest.approx(36.9, abs=0.1)


def test_criterion_2_low_density_cost_state_a_below_tenth_hz():
    r = _ratios(STATE_A, threshold_hz=0.1, ppd_low=5)
    assert r[9] - 1.0 == pytest.approx(0.492, abs=0.05)   # Q_LF
    assert r[10] - 1.0 == pytest.approx(0.55, abs=0.05)   # phi_LF
    for k in (0, 1, 2):  # R_s, Q_HF, phi_HF stay almost untouched
        assert r[k] - 1.0 < 0.02


def test_criterion_3_low_density_cost_state_a_below_one_hz():
    r = _ratios(STATE_A, threshold_hz=1.0, ppd_low=5)
    assert r[9] - 1.0 == pytest.approx(0.681, abs=0.05)   # Q_LF
    assert r[10] - 1.0 == pytest.approx(0.673, abs=0.05)  # phi_LF
    for k in (0, 1, 2):
        assert r[k] - 1.0 < 0.02


def test_criterion_4_low_density_cost_state_b():
    r_i = _ratios(STATE_B, threshold_hz=0.1, ppd_low=5)
    assert r_i[6] - 1.0 == pytest.approx(0.088, abs=0.05)  # R_2
    assert r_i[8] - 1.0 == pytest.approx(0.075, abs=0.05)  # phi_2
    r_ii = _ratios(STATE_B, threshold_hz=1.0, ppd_low=5)
    assert r_ii[6] - 1.0 == pytest.approx(0.329, abs=0.05)
    assert r_ii[8] - 1.0 == pytest.approx(0.407, abs=0.05)


def test_criterion_5_variance_bound_monotonicity():
    rng = np.random.default_rng(77)
    families = (log_spaced, log_spaced_inclusive)
    for _ in range(100):
        family = families[rng.integers(2)]
        ppd = int(rng.integers(6, 13))
        grid = family(
            10.0 ** rng.uniform(3.0, 4.0), 10.0 ** rng.uniform(-2.0, -1.3), ppd
        )
        base = crlb(fisher(STATE_A, grid, ERR))

        # thinning the low end never sharpens any parameter's bound
        threshold = float(rng.choice(grid.frequencies[1:-1]))
        reduced = reduce_ppd(grid, threshold, int(rng.integers(1, ppd)))
        after = crlb(fisher(STATE_A, reduced, ERR))
        assert np.all(after >= base * (1.0 - 1e-10))

        # measuring one extra frequency never loosens any bound
        extra = 10.0 ** rng.uniform(math.log10(grid.f_end), math.log10(grid.f_start))
        augmented = np.append(grid.frequencies, extra)
        added = crlb(fisher(STATE_A, augmented, ERR))
        assert np.all(added <= base * (1.0 + 1e-10))


def test_criterion_6_volume_crossing_for_reduced_densities():
    for ppd in (7, 8, 9):
        crossed = 0
        for trace in _design_traces(ppd):
            if min(step.normalized_volume for step in trace.steps) < 1.0:
                crossed += 1
            for step in trace.steps[1:]:
                assert step.lambda_min_after >= step.lambda_min_before, (
                    f"ppd {ppd}: eigenvalue regressed at iteration {step.iteration}"
                )
        assert crossed >= 8, f"ppd {ppd}: only {crossed}/10 seeds crossed below 1"


def test_criterion_7_joint_volume_and_time_improvement():
    t_base = total_time(INCLUSIVE_GRID, N_P)
    joint = 0
    for trace in _design_traces(7):
        final = trace.final
        if final.normalized_volume < 1.0 and final.t_tot_s < t_base:
            joint += 1
    assert joint >= 6, f"only {joint}/10 seeds improved volume and time together"


def test_criterion_8_estimator_recovery_and_efficiency():
    # noiseless closed loop: synthesize -> initialize -> fit, both fixtures
    for theta in (STATE_A, STATE_B):
        spectrum = synthesize(theta, FORMULA_GRID, ERR, seed=0, noiseless=True)
        result = fit_wcnls(spectrum, initialize(spectrum))
        rel = np.abs(result.theta.to_array() - theta.to_array()) / np.abs(
            theta.to_array()
        )
        assert np.max(rel) < 1e-3, f"worst noiseless recovery error {np.max(rel):.2e}"

    # Monte Carlo efficiency: sample variance may not beat the bound
    draws = 500
    estimates = np.empty((draws, 11))
    for seed in range(draws):
        spectrum = synthesize(STATE_A, FORMULA_GRID, ERR, seed=seed)
        estimates[seed] = fit_wcnls(spectrum, STATE_A).theta.to_array()
    variance = estimates.var(axis=0, ddof=1)
    bound = crlb(fisher(STATE_A, FORMULA_GRID, ERR))
    floor = scipy.stats.chi2.ppf(0.01, draws - 1) / (draws - 1)
    ratio = variance / bound
    assert np.all(ratio >= floor), (
        f"variance/bound ratios {np.round(ratio, 3)} violate one-sided 99% floor "
        f"{floor:.4f}"
    )


def test_criterion_9_derivative_and_information_oracles():
    # analytic sensitivities against central differences, column-normwise
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(10):
        theta = random_theta(rng)
        freqs = np.sort(10.0 ** rng.uniform(-2.0, 4.0, size=20))[::-1]
        analytic = jacobian(theta, freqs)
        base = theta.to_array()
        for k in range(11):
            h = 1e-6 * abs(base[k])
            hi, lo = base.copy(), base.copy()
            hi[k] += h
            lo[k] -= h
            mag_hi, ph_hi = model_polar(ParameterVector.from_array(hi), freqs)
            mag_lo, ph_lo = model_polar(ParameterVector.from_array(lo), freqs)
            fd = np.concatenate([mag_hi - mag_lo, ph_hi - ph_lo]) / (2.0 * h)
            err = np.linalg.norm(analytic[:, k] - fd) / np.linalg.norm(
                analytic[:, k]
            )
            worst = max(worst, err)
    assert worst < 1e-5, f"worst sensitivity deviation {worst:.3g}"

    # information matrix against the finite-difference curvature of the
    # expected negative log-likelihood, in relative-parameter coordinates
    freqs = FORMULA_GRID.frequencies
    theta0 = STATE_A.to_array()
    c = ERR.sigma_rel_mag
    phase_var = ERR.sigma_phase_rad**2
    mag0, phase0 = model_polar(STATE_A, freqs)
    mag_var0 = (c * mag0) ** 2

    def expected_nll(u):
        theta = ParameterVector.from_array(u * theta0)
        mag, phase = model_polar(theta, freqs)
        mag_var = (c * mag) ** 2
        mag_part = 0.5 * np.sum(
            np.log(mag_var) + (mag_var0 + (mag0 - mag) ** 2) / mag_var
        )
        phase_part = 0.5 * np.sum((phase_var + (phase0 - phase) ** 2) / phase_var)
        return mag_part + phase_part

    h = 3e-4
    hessian = np.zeros((11, 11))
    center = expected_nll(np.ones(11))
    for k in range(11):
        e_k = np.zeros(11)
        e_k[k] = h
        hessian[k, k] = (
            expected_nll(1.0 + e_k) - 2.0 * center + expected_nll(1.0 - e_k)
        ) / h**2
    for k in range(11):
        for l in range(k + 1, 11):
            e_k = np.zeros(11)
            e_k[k] = h
            e_l = np.zeros(11)
            e_l[l] = h
            value = (
                expected_nll(1.0 + e_k + e_l)
                - expected_nll(1.0 + e_k - e_l)
                - expected_nll(1.0 - e_k + e_l)
                + expected_nll(1.0 - e_k - e_l)
            ) / (4.0 * h**2)
            hessian[k, l] = hessian[l, k] = value

    information = fisher(STATE_A, FORMULA_GRID, ERR).matrix * np.outer(
        theta0, theta0
    )
    rel = np.abs(hessian - information) / np.abs(information)
    assert rel.max() < 1e-4, f"worst information-matrix deviation {rel.max():.3g}"
