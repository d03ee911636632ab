"""Information matrix, variance bounds, eigenvalues and ellipsoid volume."""

import hashlib
import json
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import decreasing_frequencies, thetas
from eisopt import (
    DomainError,
    ErrorStructure,
    FisherMatrix,
    FrequencyGrid,
    ParameterVector,
    STATE_A,
    STATE_B,
    SingularInformationError,
    crlb,
    ellipsoid_log_volume,
    fisher,
    fisher_contributions,
    jacobian,
    log_spaced_inclusive,
    model_polar,
    reduce_ppd,
    uncertainty_report,
)
from eisopt.circuit import _impedance_and_gradient, _polar_sensitivities
from eisopt.design import _EigenWorkspace
from eisopt.information import _crlb, _factor

ERR = ErrorStructure()
GRID = log_spaced_inclusive(1e4, 0.01, 10)


# Unit-magnitude parameter vector: keeps the similarity scaling inside crlb
# and the volume benign when testing hand-built matrices.
UNIT_THETA = ParameterVector.from_array(
    [1.0, 1.0, -0.5, 1.0, 1.0, 0.5, 1.0, 1.0, 0.5, 1.0, 0.5]
)


def _manual_fisher(theta, freqs, err, variance_term):
    """Information assembled point by point from the stacked polar Jacobian
    (itself verified against arbitrary-precision derivatives elsewhere).

    ``variance_term`` adds the magnitude-variance sensitivity: with
    sigma_mag = c * rho it contributes 2 drho drho^T / rho^2 per point."""
    n = freqs.size
    mag, _ = model_polar(theta, freqs)
    full = jacobian(theta, freqs)
    g_mag, g_phase = full[:n], full[n:]
    w_mag = 1.0 / (err.sigma_rel_mag * mag) ** 2
    if variance_term:
        w_mag = w_mag + 2.0 / mag**2
    w_phase = 1.0 / err.sigma_phase_rad**2
    out = np.zeros((11, 11))
    for i in range(n):
        out += w_mag[i] * np.outer(g_mag[i], g_mag[i])
        out += w_phase * np.outer(g_phase[i], g_phase[i])
    return out


def test_matrix_matches_manual_gaussian_assembly():
    freqs = np.array([3162.0, 17.0, 0.031])
    fim = fisher(STATE_A, freqs, ERR)
    manual = _manual_fisher(STATE_A, freqs, ERR, variance_term=True)
    assert np.allclose(fim.matrix, manual, rtol=1e-12, atol=0.0)


def test_single_point_outer_product_structure():
    freqs = np.array([5.0])
    fim = fisher(STATE_A, freqs, ERR)
    # one magnitude row and one phase row: rank two
    assert np.linalg.matrix_rank(fim.matrix, tol=1e-6 * np.max(np.abs(fim.matrix))) == 2


def test_additivity_over_disjoint_frequency_sets():
    freqs = GRID.frequencies
    a, b = freqs[::2], freqs[1::2]
    total = fisher(STATE_A, freqs, ERR).matrix
    split = fisher(STATE_A, a, ERR).matrix + fisher(STATE_A, b, ERR).matrix
    assert np.allclose(total, split, rtol=1e-12, atol=0.0)


def test_contributions_sum_to_matrix():
    parts = fisher_contributions(STATE_A, GRID, ERR)
    fim = fisher(STATE_A, GRID, ERR)
    assert parts.shape == (len(GRID), 11, 11)
    assert np.allclose(parts.sum(axis=0), fim.matrix, rtol=1e-12, atol=0.0)


def test_variance_term_is_a_small_positive_addition():
    off = _manual_fisher(STATE_A, GRID.frequencies, ERR, variance_term=False)
    on = fisher(STATE_A, GRID, ERR).matrix
    delta = on - off
    assert np.all(np.linalg.eigvalsh(delta) >= -1e-9 * np.max(np.abs(delta)))
    assert np.max(np.abs(delta)) < 1e-3 * np.max(np.abs(off))
    assert np.max(np.abs(delta)) > 0.0


# ---------------------------------------------------------------------------
# variance bounds


def test_crlb_of_diagonal_matrix():
    a = np.array([4.0, 9.0, 1.0, 16.0, 25.0, 2.0, 5.0, 10.0, 0.5, 8.0, 3.0])
    fim = FisherMatrix(np.diag(a), UNIT_THETA)
    assert np.allclose(crlb(fim), 1.0 / a, rtol=1e-12)


def test_crlb_of_embedded_coupled_block():
    m = np.eye(11)
    m[3, 3] = m[6, 6] = 2.0
    m[3, 6] = m[6, 3] = 1.0
    values = crlb(FisherMatrix(m, UNIT_THETA))
    expected = np.ones(11)
    expected[3] = expected[6] = 2.0 / 3.0
    assert np.allclose(values, expected, rtol=1e-12)


def test_crlb_scales_as_sigma_squared_without_variance_term():
    def bound(err):
        matrix = _manual_fisher(STATE_A, GRID.frequencies, err, variance_term=False)
        return crlb(FisherMatrix(matrix, STATE_A))

    base = bound(ERR)
    tight = ErrorStructure(rel_mag_max=0.003, abs_phase_max_deg=0.3)
    c = 0.3
    scaled = bound(tight)
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
        assert np.all(uncertainty_report(fim).eigvals > 0.0)


def test_adding_a_frequency_never_hurts():
    short = GRID.frequencies[1:]
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
    eigvals = uncertainty_report(fim).eigvals
    assert np.allclose(eigvals, expected, rtol=1e-12)
    assert eigvals[0] == pytest.approx(expected[0], rel=1e-12)


def test_identity_matrix_volume_is_zero():
    fim = FisherMatrix(np.eye(11), UNIT_THETA)
    assert ellipsoid_log_volume(fim) == pytest.approx(0.0, abs=1e-10)


def test_uniform_information_gain_shrinks_volume_deterministically():
    base = FisherMatrix(np.eye(11) * 2.0, UNIT_THETA)
    assert ellipsoid_log_volume(base) == pytest.approx(
        -5.5 * np.log(2.0), rel=1e-12
    )
    fim = fisher(STATE_A, GRID, ERR)
    doubled = FisherMatrix(4.0 * fim.matrix, STATE_A)
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
    assert report.lambda_min == pytest.approx(report.eigvals[0], rel=1e-12)
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


def test_one_eigendecomposition_per_report():
    fim = fisher(STATE_A, GRID, ERR)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        uncertainty_report(fim)
        assert spy.call_count == 1
        crlb(fim)
        ellipsoid_log_volume(fim)
        assert spy.call_count == 3


# ---------------------------------------------------------------------------
# properties over the parameter domain


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=thetas(), keep=st.sets(st.integers(0, len(GRID) - 1), min_size=2))
def test_thinning_the_sweep_never_sharpens_a_crlb(theta, keep):
    thinned = fisher(theta, GRID.frequencies[sorted(keep)], ERR)
    if theta.phi_lf == 0.0:
        # a CPE with exponent 0 is a resistor in series with R_s, so R_s
        # and Q_LF alias at every frequency set
        for fim in (thinned, fisher(theta, GRID, ERR)):
            with pytest.raises(SingularInformationError):
                uncertainty_report(fim)
        return
    full = uncertainty_report(fisher(theta, GRID, ERR))
    try:
        report = uncertainty_report(thinned)
    except SingularInformationError:
        return
    assert np.all(report.crlb / full.crlb >= 1.0 - 1e-9)
    # the report's numbers are the standalone functions', bit for bit
    assert np.array_equal(report.crlb, crlb(thinned))
    assert report.log_volume == ellipsoid_log_volume(thinned)


_REDUCED = reduce_ppd(GRID, 0.1, 7)


def _crlb_or_none(fim):
    try:
        return crlb(fim)
    except SingularInformationError:
        return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=thetas(), log_f=st.floats(-3.0, 5.0))
def test_adding_a_frequency_never_raises_a_crlb(theta, log_f):
    # one more point adds a positive semi-definite term to the information
    f_new = 10.0**log_f
    assume(f_new not in _REDUCED.frequencies)
    augmented = FrequencyGrid(np.sort(np.append(_REDUCED.frequencies, f_new))[::-1])
    before = _crlb_or_none(fisher(theta, _REDUCED, ERR))
    after = _crlb_or_none(fisher(theta, augmented, ERR))
    assert (before is None) == (after is None)
    if before is not None:
        assert np.all(after <= before * (1.0 + 1e-9))


def test_invalid_inputs_rejected():
    with pytest.raises(DomainError):
        fisher(STATE_A, np.array([]), ERR)
    with pytest.raises(DomainError):
        fisher(STATE_A, np.array([1.0, -2.0]), ERR)
    with pytest.raises(DomainError):
        FisherMatrix(np.ones((3, 3)), STATE_A)
    bad = np.eye(11)
    bad[0, 1] = 0.5
    with pytest.raises(DomainError):
        FisherMatrix(bad, STATE_A)


def test_fisher_rejects_non_finite_frequencies():
    for freqs in ([np.inf, 1.0], [10.0, np.nan], [np.inf]):
        with pytest.raises(DomainError):
            fisher_contributions(STATE_A, np.array(freqs), ERR)


def test_non_finite_information_is_a_singular_error():
    # an admissible theta whose information matrix overflows: the
    # factorization reports it as singular, not as a LAPACK failure
    fim = fisher(replace(STATE_A, r_1=1e200), GRID, ERR)
    assert not np.isfinite(fim.matrix).all()
    for derive in (crlb, ellipsoid_log_volume, uncertainty_report):
        with pytest.raises(SingularInformationError):
            derive(fim)


@pytest.mark.parametrize("extreme", [
    {"r_1": 1e200}, {"q_hf": 1e300}, {"q_lf": 1e300}, {"r_s": 1e300},
], ids=lambda kw: "-".join(kw))
def test_extreme_parameters_raise_a_typed_error_without_warnings(extreme):
    # overflow inside the model or the scaling is reported once, by the
    # typed error, not first by NumPy's RuntimeWarnings
    theta = replace(STATE_A, **extreme)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for derive in (crlb, ellipsoid_log_volume, uncertainty_report):
            with pytest.raises(SingularInformationError):
                derive(fisher(theta, GRID, ERR))
        # the design loop's what-if workspace scales by the same function
        with pytest.raises(SingularInformationError, match="^information matrix is not finite$"):
            _EigenWorkspace(theta, GRID, ERR)


# ---------------------------------------------------------------------------
# the sweep path, bit for bit


def _digest(values):
    text = " ".join(float(v).hex() for v in np.ravel(values))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_SWEEP_CELLS = {None: GRID}
_SWEEP_CELLS.update({(t, p): reduce_ppd(GRID, t, p) for t in (0.1, 0.3) for p in (3, 7)})

# sha256 prefixes of the float.hex strings of each cell's frequencies
_SWEEP_FREQUENCIES = {
    None: "acd52f841c727118",
    (0.1, 3): "83bc4a45c15acc7a",
    (0.1, 7): "606db2aa970903b9",
    (0.3, 3): "bcc6ceec1a87b049",
    (0.3, 7): "b2ff6f056226ad3e",
}

# (crlb digest, eigenvalue digest, log-volume hex) per state and cell
_SWEEP_BITS = {
    ("STATE_A", None): ("24d265442f905d4d", "af50fd17ea4835fe", "-0x1.97fab439914c8p+5"),
    ("STATE_A", (0.1, 3)): ("95f4f2499a0137b6", "fdf33bc8f433d46d", "-0x1.9046f32dbca24p+5"),
    ("STATE_A", (0.1, 7)): ("38c5ccdf6c936276", "d5370dcff8b95332", "-0x1.956d576e2048ep+5"),
    ("STATE_A", (0.3, 3)): ("8a6f9887257ed9ad", "6bae8d7190c2f281", "-0x1.8eb7e8e20c79ap+5"),
    ("STATE_A", (0.3, 7)): ("72a32a147b35aeec", "f9fa732205aca30c", "-0x1.952650dbcbb53p+5"),
    ("STATE_B", None): ("c57481cab48390df", "bb09f8c76f555ad9", "-0x1.87bacc1090ddap+5"),
    ("STATE_B", (0.1, 3)): ("329ffb4d8bfd608d", "2046efd92252c8b0", "-0x1.7f0c16bd7d674p+5"),
    ("STATE_B", (0.1, 7)): ("9b98d8b0ec9a11e0", "5faf105f1578ea0d", "-0x1.84c6e7b0b94f2p+5"),
    ("STATE_B", (0.3, 3)): ("d54a923c78f0b39c", "5dc83d1e5455462b", "-0x1.7c3131d5c195ap+5"),
    ("STATE_B", (0.3, 7)): ("1485df7b9fde2ca4", "1a12dfe4ce849c3f", "-0x1.842e2c9045cc2p+5"),
}


@pytest.mark.parametrize("state, cell", _SWEEP_BITS, ids=str)
def test_sweep_cells_are_bit_stable(state, cell):
    # recorded on this platform, like the fit pins in test_estimation: a
    # different BLAS/LAPACK or CPU may need them re-recorded
    grid = _SWEEP_CELLS[cell]
    assert _digest(grid.frequencies) == _SWEEP_FREQUENCIES[cell]
    fim = fisher({"STATE_A": STATE_A, "STATE_B": STATE_B}[state], grid, ERR)
    report = uncertainty_report(fim)
    got = (_digest(crlb(fim)), _digest(report.eigvals), report.log_volume.hex())
    assert got == _SWEEP_BITS[state, cell]
    assert _digest(report.crlb) == got[0]


def _einsum_contributions(theta, freqs):
    """The per-point terms as one three-operand einsum per noise channel."""
    z, dz = _impedance_and_gradient(theta.to_array(), 2.0 * np.pi * freqs)
    mag, dmag, dphase = _polar_sensitivities(z, dz)
    w_mag = 1.0 / (ERR.sigma_rel_mag * mag) ** 2 + 2.0 / mag**2
    w_phase = np.full_like(mag, 1.0 / ERR.sigma_phase_rad**2)
    out = np.einsum("i,ij,ik->ijk", w_mag, dmag, dmag)
    out += np.einsum("i,ij,ik->ijk", w_phase, dphase, dphase)
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(theta=thetas(), freqs=decreasing_frequencies(), one=st.booleans())
def test_contributions_are_bit_equal_to_the_einsum_formula(theta, freqs, one):
    if one:
        freqs = freqs[:1]
    got = fisher_contributions(theta, freqs, ERR)
    assert got.tobytes() == _einsum_contributions(theta, freqs).tobytes()


def _gated_on_the_sweep(theta, freqs):
    """(scale, D F D, eigenvalues) on the sweep plus the drawn points, or
    None where the gate refuses it.  The drawn points alone rarely bound
    eleven parameters; on top of the sweep they give a gated matrix for
    every theta off phi_LF = 0."""
    try:
        return _factor(fisher(theta, np.concatenate([GRID.frequencies, freqs]), ERR))
    except SingularInformationError:
        return None


def _inverse_error(crlb_of, scale, scaled, eigvals):
    """The worst relative error of ``crlb_of(scale, scaled)`` against the
    40-digit inverse of the same float64 matrix, in units of cond * eps."""
    import mpmath as mp

    got = crlb_of(scale, scaled)
    with mp.workdps(40):
        inverse = mp.inverse(mp.matrix(scaled.tolist()))
        exact = np.array([float(mp.mpf(float(s)) ** 2 * inverse[i, i])
                          for i, s in enumerate(scale)])
    cond = eigvals[-1] / eigvals[0]
    return float(np.max(np.abs(got - exact) / exact)) / (cond * np.finfo(float).eps)


# A backward-stable inverse errs by O(n) * cond * eps at worst; over these
# draws np.linalg.inv measured at most 0.014 (cond 1.1e5-1.8e9).
_INVERSE_ERROR_BOUND = 0.1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(theta=thetas(), freqs=decreasing_frequencies())
def test_crlb_matches_a_40_digit_inverse(theta, freqs):
    gated = _gated_on_the_sweep(theta, freqs)
    if gated is not None:
        assert _inverse_error(_crlb, *gated) <= _INVERSE_ERROR_BOUND


@pytest.mark.parametrize("wrong", [
    lambda scale, scaled: scale**2 * np.diag(np.linalg.inv(scaled.astype(np.float32))),
    lambda scale, scaled: scale**2 / np.diag(scaled),
], ids=["single-precision-inverse", "reciprocal-diagonal"])
def test_the_inverse_check_fails_a_wrong_crlb(wrong):
    gated = _gated_on_the_sweep(STATE_B, np.array([3.0, 0.3]))
    assert _inverse_error(_crlb, *gated) <= _INVERSE_ERROR_BOUND
    assert _inverse_error(wrong, *gated) > _INVERSE_ERROR_BOUND


@pytest.mark.parametrize("scale, scaled", [
    (np.ones(11), np.zeros((11, 11))),
    (np.ones(11), -np.eye(11)),
    (np.full(11, 1e200), np.eye(11)),
], ids=["singular", "negative-variance", "overflowed-variance"])
def test_crlb_of_a_matrix_the_gate_would_refuse_is_a_typed_error(scale, scaled):
    # the gate keeps such matrices from _crlb; it raises on them regardless
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularInformationError):
            _crlb(scale, scaled)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(theta=thetas(), freqs=decreasing_frequencies(), on_sweep=st.booleans())
def test_crlb_is_positive_and_finite_or_a_typed_error(theta, freqs, on_sweep):
    if on_sweep:
        freqs = np.concatenate([GRID.frequencies, freqs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = crlb(fisher(theta, freqs, ERR))
        except SingularInformationError:
            return
    assert values.shape == (11,)
    assert np.all((values > 0.0) & np.isfinite(values))
