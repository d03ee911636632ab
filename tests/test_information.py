"""Information matrix, variance bounds, eigenvalues and ellipsoid volume."""

import json

import numpy as np
import pytest

from eisopt import (
    DomainError,
    ErrorStructure,
    FisherMatrix,
    FrequencyGrid,
    ParameterVector,
    STATE_A,
    SingularInformationError,
    crlb,
    eigenvalues,
    ellipsoid_log_volume,
    fisher,
    fisher_contributions,
    jacobian,
    log_spaced_inclusive,
    model_polar,
    reduce_ppd,
    uncertainty_report,
)
from eisopt.circuit import ecm_impedance

ERR = ErrorStructure()
GRID = log_spaced_inclusive(1e4, 0.01, 10)


# Unit-magnitude parameter vector: keeps the similarity scaling inside crlb
# and the volume benign when testing hand-built matrices.
UNIT_THETA = ParameterVector.from_array(
    [1.0, 1.0, -0.5, 1.0, 1.0, 0.5, 1.0, 1.0, 0.5, 1.0, 0.5]
)


def _manual_fisher(theta, freqs, err):
    """Information assembled point by point from the stacked polar Jacobian
    (itself verified against arbitrary-precision derivatives elsewhere)."""
    n = freqs.size
    z = ecm_impedance(theta, 2.0 * np.pi * freqs)
    full = jacobian(theta, freqs)
    g_mag, g_phase = full[:n], full[n:]
    mag = np.abs(z)
    w_mag = 1.0 / (err.sigma_rel_mag * mag) ** 2
    w_phase = 1.0 / err.sigma_phase_rad**2
    out = np.zeros((11, 11))
    for i in range(n):
        out += w_mag[i] * np.outer(g_mag[i], g_mag[i])
        out += w_phase * np.outer(g_phase[i], g_phase[i])
    return out


def test_matrix_matches_manual_gaussian_assembly():
    freqs = np.array([3162.0, 17.0, 0.031])
    fim = fisher(STATE_A, freqs, ERR, include_variance_term=False)
    manual = _manual_fisher(STATE_A, freqs, ERR)
    assert np.allclose(fim.matrix, manual, rtol=1e-12, atol=0.0)


def test_single_point_outer_product_structure():
    freqs = np.array([5.0])
    fim = fisher(STATE_A, freqs, ERR, include_variance_term=False)
    # one magnitude row and one phase row: rank two
    assert np.linalg.matrix_rank(fim.matrix, tol=1e-6 * np.max(np.abs(fim.matrix))) == 2


def test_additivity_over_disjoint_frequency_sets():
    freqs = GRID.as_array()
    a, b = freqs[::2], freqs[1::2]
    total = fisher(STATE_A, freqs, ERR).matrix
    split = fisher(STATE_A, a, ERR).matrix + fisher(STATE_A, b, ERR).matrix
    assert np.allclose(total, split, rtol=1e-12, atol=0.0)


def test_contributions_sum_to_matrix():
    parts = fisher_contributions(STATE_A, GRID, ERR)
    fim = fisher(STATE_A, GRID, ERR)
    assert parts.shape == (GRID.n, 11, 11)
    assert np.allclose(parts.sum(axis=0), fim.matrix, rtol=1e-12, atol=0.0)


def test_variance_term_is_a_small_positive_addition():
    off = fisher(STATE_A, GRID, ERR, include_variance_term=False).matrix
    on = fisher(STATE_A, GRID, ERR, include_variance_term=True).matrix
    delta = on - off
    assert np.all(np.linalg.eigvalsh(delta) >= -1e-9 * np.max(np.abs(delta)))
    assert np.max(np.abs(delta)) < 1e-3 * np.max(np.abs(off))
    assert np.max(np.abs(delta)) > 0.0


# ---------------------------------------------------------------------------
# variance bounds


def test_crlb_of_diagonal_matrix():
    a = np.array([4.0, 9.0, 1.0, 16.0, 25.0, 2.0, 5.0, 10.0, 0.5, 8.0, 3.0])
    fim = FisherMatrix(np.diag(a), UNIT_THETA, GRID, ERR)
    assert np.allclose(crlb(fim), 1.0 / a, rtol=1e-12)


def test_crlb_of_embedded_coupled_block():
    m = np.eye(11)
    m[3, 3] = m[6, 6] = 2.0
    m[3, 6] = m[6, 3] = 1.0
    values = crlb(FisherMatrix(m, UNIT_THETA, GRID, ERR))
    expected = np.ones(11)
    expected[3] = expected[6] = 2.0 / 3.0
    assert np.allclose(values, expected, rtol=1e-12)


def test_crlb_scales_as_sigma_squared_without_variance_term():
    base = crlb(fisher(STATE_A, GRID, ERR, include_variance_term=False))
    tight = ErrorStructure(rel_mag_max=0.003, abs_phase_max_deg=0.3)
    c = 0.3
    scaled = crlb(fisher(STATE_A, GRID, tight, include_variance_term=False))
    assert np.allclose(scaled, c**2 * base, rtol=1e-9)


def test_variance_term_breaks_exact_sigma_scaling_only_slightly():
    base = crlb(fisher(STATE_A, GRID, ERR))
    tight = ErrorStructure(rel_mag_max=0.003, abs_phase_max_deg=0.3)
    scaled = crlb(fisher(STATE_A, GRID, tight))
    ratio = scaled / (0.3**2 * base)
    assert np.max(np.abs(ratio - 1.0)) < 1e-3
    assert np.max(np.abs(ratio - 1.0)) > 0.0


def test_crlb_positive_and_matrix_symmetric_for_random_parameters(rng):
    from conftest import random_theta

    for _ in range(5):
        theta = random_theta(rng)
        fim = fisher(theta, GRID, ERR)
        assert np.array_equal(fim.matrix, fim.matrix.T)
        values = crlb(fim)
        assert np.all(values > 0.0)
        assert np.all(eigenvalues(fim) > 0.0)


def test_adding_a_frequency_never_hurts():
    short = GRID.as_array()[1:]
    base = crlb(fisher(STATE_A, short, ERR))
    base_vol = ellipsoid_log_volume(fisher(STATE_A, short, ERR))
    full = crlb(fisher(STATE_A, GRID, ERR))
    full_vol = ellipsoid_log_volume(fisher(STATE_A, GRID, ERR))
    assert np.all(full <= base * (1.0 + 1e-12))
    assert full_vol <= base_vol


def test_rank_deficient_grid_raises_with_diagnostics():
    fim = fisher(STATE_A, np.array([100.0, 1.0]), ERR)
    with pytest.raises(SingularInformationError) as excinfo:
        crlb(fim)
    assert excinfo.value.lambda_min < 1e-12 * excinfo.value.condition_number
    with pytest.raises(SingularInformationError):
        ellipsoid_log_volume(fim)


# ---------------------------------------------------------------------------
# eigenvalues and volume


def test_log_scaled_eigenvalues_measure_relative_curvature():
    fim = fisher(STATE_A, GRID, ERR)
    scale = np.abs(STATE_A.to_array())
    expected = np.linalg.eigvalsh(fim.matrix * np.outer(scale, scale))
    assert np.allclose(eigenvalues(fim), expected, rtol=1e-12)
    assert eigenvalues(fim)[0] == pytest.approx(expected[0], rel=1e-12)


def test_identity_matrix_volume_is_zero():
    fim = FisherMatrix(np.eye(11), UNIT_THETA, GRID, ERR)
    assert ellipsoid_log_volume(fim) == pytest.approx(0.0, abs=1e-10)


def test_uniform_information_gain_shrinks_volume_deterministically():
    base = FisherMatrix(np.eye(11) * 2.0, UNIT_THETA, GRID, ERR)
    assert ellipsoid_log_volume(base) == pytest.approx(
        -5.5 * np.log(2.0), rel=1e-12
    )
    fim = fisher(STATE_A, GRID, ERR)
    doubled = FisherMatrix(4.0 * fim.matrix, STATE_A, GRID, ERR)
    assert ellipsoid_log_volume(doubled) == pytest.approx(
        ellipsoid_log_volume(fim) - 5.5 * np.log(4.0), rel=1e-9
    )


def test_log_volume_matches_high_precision_determinant():
    import mpmath as mp

    fim = fisher(STATE_A, GRID, ERR)
    with mp.workdps(60):
        det = mp.det(mp.matrix(fim.matrix.tolist()))
        expected = -0.5 * float(mp.log(det))
    value = ellipsoid_log_volume(fim)
    assert value == pytest.approx(expected, rel=1e-9)


def test_sparser_low_frequency_grid_inflates_volume():
    ref = ellipsoid_log_volume(fisher(STATE_A, GRID, ERR))
    reduced = reduce_ppd(GRID, f_threshold=1.0, ppd_low=5)
    value = ellipsoid_log_volume(fisher(STATE_A, reduced, ERR))
    assert np.exp(value - ref) > 1.0


# ---------------------------------------------------------------------------
# report bundle


def test_report_bundles_consistent_numbers():
    fim = fisher(STATE_A, GRID, ERR)
    report = uncertainty_report(fim)
    assert np.allclose(report.crlb, crlb(fim), rtol=1e-12)
    assert report.lambda_min == pytest.approx(eigenvalues(fim)[0], rel=1e-12)
    assert report.log_volume == pytest.approx(ellipsoid_log_volume(fim), rel=1e-12)
    data = json.loads(json.dumps(report.to_json_dict()))
    assert set(data) == {
        "parameters",
        "crlb",
        "eigenvalues",
        "eigen_scaling",
        "lambda_min",
        "log_volume",
    }
    assert data["eigen_scaling"] == "log"
    assert len(data["eigenvalues"]) == 11


def test_invalid_inputs_rejected():
    with pytest.raises(DomainError):
        fisher(STATE_A, np.array([]), ERR)
    with pytest.raises(DomainError):
        fisher(STATE_A, np.array([1.0, -2.0]), ERR)
    with pytest.raises(DomainError):
        FisherMatrix(np.ones((3, 3)), STATE_A, GRID, ERR)
    bad = np.eye(11)
    bad[0, 1] = 0.5
    with pytest.raises(DomainError):
        FisherMatrix(bad, STATE_A, GRID, ERR)
