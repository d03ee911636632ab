"""Noise model, spectrum synthesis, and spectrum file I/O."""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eisopt import (
    DomainError,
    ErrorStructure,
    FrequencyGrid,
    STATE_A,
    SpectrumFormatError,
    load_spectrum,
    log_spaced,
    log_spaced_inclusive,
    model_polar,
    reduce_ppd,
    save_spectrum,
    sigma_at,
    synthesize,
)
from eisopt.measurement import measure_at

from conftest import decreasing_frequencies, thetas


GRID = log_spaced(1e4, 0.01, 10)


# ---------------------------------------------------------------------------
# error structure


def test_sigma_at_defaults():
    smag, sphase = sigma_at(ErrorStructure(), np.array([1.0]))
    assert smag[0] == pytest.approx(0.01 / 3.0, rel=1e-14)
    assert sphase[0] == pytest.approx(math.radians(1.0) / 3.0, rel=1e-14)


def test_sigma_at_unit_convention():
    err = ErrorStructure(rel_mag_max=0.01, abs_phase_max_deg=1.0, sigma_convention=1.0)
    smag, _ = sigma_at(err, np.array([2.0]))
    assert smag[0] == pytest.approx(0.02, rel=1e-14)


def test_sigma_scales_linearly_with_magnitude():
    err = ErrorStructure()
    one, _ = sigma_at(err, np.array([1.3]))
    two, _ = sigma_at(err, np.array([2.6]))
    assert two[0] == pytest.approx(2.0 * one[0], rel=1e-14)


def test_error_structure_validates():
    for kwargs in (
        {"rel_mag_max": 0.0},
        {"rel_mag_max": -0.01},
        {"abs_phase_max_deg": 0.0},
        {"sigma_convention": 0.0},
    ):
        with pytest.raises(DomainError):
            ErrorStructure(**kwargs)


# ---------------------------------------------------------------------------
# synthesis


def test_noiseless_flag_reproduces_model_exactly():
    spectrum = synthesize(STATE_A, GRID, ErrorStructure(), seed=3, noiseless=True)
    mag, phase = model_polar(STATE_A, GRID.frequencies)
    assert np.array_equal(spectrum.mag_ohm, mag)
    assert np.array_equal(spectrum.phase_rad, phase)


def test_vanishing_noise_approaches_model():
    err = ErrorStructure(rel_mag_max=1e-14, abs_phase_max_deg=1e-12)
    spectrum = synthesize(STATE_A, GRID, err, seed=3)
    mag, phase = model_polar(STATE_A, GRID.frequencies)
    assert np.allclose(spectrum.mag_ohm, mag, rtol=1e-12)
    assert np.allclose(spectrum.phase_rad, phase, atol=1e-12)


def test_same_seed_is_bit_identical():
    a = synthesize(STATE_A, GRID, ErrorStructure(), seed=42)
    b = synthesize(STATE_A, GRID, ErrorStructure(), seed=42)
    assert np.array_equal(a.mag_ohm, b.mag_ohm)
    assert np.array_equal(a.phase_rad, b.phase_rad)
    c = synthesize(STATE_A, GRID, ErrorStructure(), seed=43)
    assert not np.array_equal(a.mag_ohm, c.mag_ohm)


def test_sample_variance_matches_error_structure():
    big = log_spaced(1e4, 0.01, 16667)  # about 1e5 points
    assert len(big) >= 100000
    err = ErrorStructure()
    spectrum = synthesize(STATE_A, big, err, seed=8)
    mag0, phase0 = model_polar(STATE_A, big.frequencies)
    rel = spectrum.mag_ohm / mag0 - 1.0
    assert np.var(rel) == pytest.approx((0.01 / 3.0) ** 2, rel=0.03)
    assert np.var(spectrum.phase_rad - phase0) == pytest.approx(
        (math.radians(1.0) / 3.0) ** 2, rel=0.03
    )


def test_noise_is_white_across_frequencies():
    big = log_spaced(1e4, 0.01, 1667)  # about 1e4 points
    err = ErrorStructure()
    spectrum = synthesize(STATE_A, big, err, seed=15)
    mag0, _ = model_polar(STATE_A, big.frequencies)
    resid = spectrum.mag_ohm / mag0 - 1.0
    resid = (resid - resid.mean()) / resid.std()
    n = resid.size
    for lag in (1, 2, 3):
        r = np.dot(resid[:-lag], resid[lag:]) / n
        assert abs(r) < 4.0 / math.sqrt(n)


def test_stored_sigma_comes_from_noiseless_magnitude():
    err = ErrorStructure()
    spectrum = synthesize(STATE_A, GRID, err, seed=21)
    mag0, _ = model_polar(STATE_A, GRID.frequencies)
    assert np.allclose(spectrum.sigma_mag_ohm, err.sigma_rel_mag * mag0, rtol=1e-14)
    assert not np.allclose(spectrum.sigma_mag_ohm, err.sigma_rel_mag * spectrum.mag_ohm, rtol=1e-6)


def test_overwhelming_noise_raises():
    err = ErrorStructure(rel_mag_max=5.0, abs_phase_max_deg=1.0, sigma_convention=1.0)
    with pytest.raises(DomainError):
        synthesize(STATE_A, GRID, err, seed=0)


def test_measure_at_matches_model_and_sigma():
    err = ErrorStructure()
    rng = np.random.default_rng(77)
    mag, phase, smag, sphase = measure_at(STATE_A, 1.0, err, rng)
    mag0, phase0 = model_polar(STATE_A, np.array([1.0]))
    assert abs(mag - mag0[0]) < 5 * err.sigma_rel_mag * mag0[0]
    assert abs(phase - phase0[0]) < 5 * err.sigma_phase_rad
    assert smag == pytest.approx(err.sigma_rel_mag * mag0[0], rel=1e-14)
    assert sphase == pytest.approx(err.sigma_phase_rad, rel=1e-14)


def test_replaced_point_restores_order():
    spectrum = synthesize(STATE_A, log_spaced(100.0, 1.0, 2), ErrorStructure(), seed=1)
    moved = spectrum.with_replaced_point(2, 500.0, 1.0, -0.5, 0.01, 0.005)
    assert len(moved.grid) == len(spectrum.grid)
    assert moved.grid.frequencies[0] == 500.0
    assert moved.mag_ohm[0] == 1.0
    assert np.all(np.diff(moved.grid.frequencies) < 0)


# ---------------------------------------------------------------------------
# file I/O


def test_csv_round_trip_full_precision(tmp_path):
    # Magnitudes round-trip bit for bit; phases cross the radians/degrees
    # boundary twice, which costs at most a unit in the last place.
    spectrum = synthesize(STATE_A, GRID, ErrorStructure(), seed=6)
    path = tmp_path / "spectrum.csv"
    save_spectrum(spectrum, path)
    loaded = load_spectrum(path)
    assert np.array_equal(loaded.mag_ohm, spectrum.mag_ohm)
    assert np.array_equal(loaded.sigma_mag_ohm, spectrum.sigma_mag_ohm)
    assert np.allclose(loaded.phase_rad, spectrum.phase_rad, rtol=5e-16, atol=5e-16)
    assert np.allclose(
        loaded.sigma_phase_rad, spectrum.sigma_phase_rad, rtol=5e-16, atol=5e-16
    )
    assert np.array_equal(loaded.grid.frequencies, spectrum.grid.frequencies)


def test_json_round_trip(tmp_path):
    # a reduced grid, so its density provenance has something to carry
    grid = reduce_ppd(log_spaced_inclusive(1e4, 0.01, 10), 0.1, 7)
    spectrum = synthesize(STATE_A, grid, ErrorStructure(), seed=6)
    path = tmp_path / "spectrum.json"
    save_spectrum(spectrum, path)
    loaded = load_spectrum(path)
    assert np.array_equal(loaded.mag_ohm, spectrum.mag_ohm)
    assert np.allclose(loaded.phase_rad, spectrum.phase_rad, rtol=5e-16, atol=5e-16)
    assert loaded.provenance["seed"] in (6, "6")
    assert np.array_equal(loaded.grid.frequencies, grid.frequencies)
    assert loaded.grid.ppd_default == grid.ppd_default


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=thetas(), freqs=decreasing_frequencies(),
       ppd_default=st.one_of(st.none(), st.integers(1, 50)),
       noiseless=st.booleans(), suffix=st.sampled_from([".csv", ".json"]))
def test_spectrum_file_round_trip_over_the_domain(theta, freqs, ppd_default, noiseless,
                                                  suffix):
    grid = FrequencyGrid(tuple(freqs), ppd_default)
    spectrum = synthesize(theta, grid, ErrorStructure(), seed=6, noiseless=noiseless)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"spectrum{suffix}"
        save_spectrum(spectrum, path)
        loaded = load_spectrum(path)
    assert np.array_equal(loaded.grid.frequencies, grid.frequencies)
    assert loaded.grid.ppd_default == ppd_default
    assert "ppd_default" not in loaded.provenance
    assert np.array_equal(loaded.mag_ohm, spectrum.mag_ohm)
    assert np.array_equal(loaded.sigma_mag_ohm, spectrum.sigma_mag_ohm)
    assert np.allclose(loaded.phase_rad, spectrum.phase_rad, rtol=5e-16, atol=5e-16)
    assert np.allclose(
        loaded.sigma_phase_rad, spectrum.sigma_phase_rad, rtol=5e-16, atol=5e-16
    )


def test_spectrum_json_with_a_reduction_history_still_loads(tmp_path):
    # Grids record only their frequencies and density; older files also
    # carry a "reductions" list, which loading ignores.
    grid = reduce_ppd(log_spaced_inclusive(1e4, 0.01, 10), 0.1, 7)
    path = tmp_path / "spectrum.json"
    save_spectrum(synthesize(STATE_A, grid, ErrorStructure(), seed=6), path)
    data = json.loads(path.read_text())
    assert set(data["grid"]) == {"frequencies_hz", "ppd_default"}
    data["grid"]["reductions"] = [{"threshold_hz": 0.1, "ppd": 7}]
    path.write_text(json.dumps(data))
    loaded = load_spectrum(path).grid
    assert np.array_equal(loaded.frequencies, grid.frequencies)
    assert loaded.ppd_default == grid.ppd_default


def test_csv_provenance_lines_round_trip(tmp_path):
    spectrum = synthesize(STATE_A, GRID, ErrorStructure(), seed=6)
    path = tmp_path / "spectrum.csv"
    save_spectrum(spectrum, path)
    text = path.read_text()
    assert text.startswith("# source=synthetic\n# seed=6\n")
    assert load_spectrum(path).provenance["seed"] == "6"


def test_csv_density_is_the_last_header_line(tmp_path):
    path = tmp_path / "spectrum.csv"
    save_spectrum(synthesize(STATE_A, GRID, ErrorStructure(), seed=6), path)
    header = [line for line in path.read_text().splitlines() if line.startswith("#")]
    assert header[-1] == "# ppd_default=10"
    save_spectrum(synthesize(STATE_A, FrequencyGrid(GRID.frequencies), ErrorStructure(),
                             seed=6), path)
    assert "ppd_default" not in path.read_text()
    assert load_spectrum(path).grid.ppd_default is None


@pytest.mark.parametrize("value", ["0", "-3", "7.5", "seven", "", "true"])
def test_csv_density_that_is_not_a_count_is_rejected(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# seed=6\n"
        f"# ppd_default={value}\n"
        "f_hz,mag_ohm,phase_deg,sigma_mag_ohm,sigma_phase_deg\n"
        "10.0,0.01,-30.0,1e-5,0.33\n"
        "1.0,0.02,-40.0,1e-5,0.33\n"
    )
    with pytest.raises(SpectrumFormatError, match="ppd_default") as excinfo:
        load_spectrum(path)
    assert excinfo.value.line_number == 2


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SpectrumFormatError, match="empty"):
        load_spectrum(path)


def test_header_only_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f_hz,mag_ohm,phase_deg,sigma_mag_ohm,sigma_phase_deg\n")
    with pytest.raises(SpectrumFormatError, match="no data rows"):
        load_spectrum(path)


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "f_hz,mag_ohm,phase_deg,sigma_mag_ohm,sigma_phase_deg\n"
        "10.0,0.01,-30.0,1e-5,0.33\n"
        "1.0,oops,-40.0,1e-5,0.33\n"
    )
    with pytest.raises(SpectrumFormatError) as excinfo:
        load_spectrum(path)
    assert excinfo.value.line_number == 3


def test_non_monotone_frequencies_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "f_hz,mag_ohm,phase_deg,sigma_mag_ohm,sigma_phase_deg\n"
        "1.0,0.01,-30.0,1e-5,0.33\n"
        "10.0,0.02,-40.0,1e-5,0.33\n"
    )
    with pytest.raises(SpectrumFormatError):
        load_spectrum(path)


def test_wrong_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq,magnitude\n1.0,0.01\n")
    with pytest.raises(SpectrumFormatError):
        load_spectrum(path)


# sha256 prefixes of save_spectrum's CSV and JSON bytes for STATE_A at seed
# 6 on GRID, recorded on this platform like the fit and trace pins: a
# different CPU or NumPy build may need them re-recorded.  A change to the
# writers that keeps every written byte keeps these.
_BIT_STABLE_SPECTRUM_FILES = {".csv": "120474c7a167e46d", ".json": "2a79e8a5a669e947"}


@pytest.mark.parametrize("suffix", sorted(_BIT_STABLE_SPECTRUM_FILES))
def test_spectrum_files_are_bit_stable(tmp_path, suffix):
    path = tmp_path / f"spectrum{suffix}"
    save_spectrum(synthesize(STATE_A, GRID, ErrorStructure(), seed=6), path)
    got = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert got == _BIT_STABLE_SPECTRUM_FILES[suffix]


def test_phase_stored_in_degrees_at_the_file_boundary(tmp_path):
    spectrum = synthesize(STATE_A, GRID, ErrorStructure(), seed=6)
    path = tmp_path / "spectrum.csv"
    save_spectrum(spectrum, path)
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    first = rows[1].split(",")
    assert float(first[2]) == pytest.approx(math.degrees(spectrum.phase_rad[0]), rel=1e-12)
