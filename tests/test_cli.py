"""Command-line interface: outputs, provenance, overrides, exit codes."""

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

import eisopt.cli
import eisopt.design
from eisopt import (
    DesignConfig,
    ErrorStructure,
    FrequencyGrid,
    STATE_A,
    SpectrumFormatError,
    fisher,
    fit_wcnls,
    initialize,
    load_spectrum,
    log_spaced_inclusive,
    model_polar,
    reduce_ppd,
    save_spectrum,
    synthesize,
    crlb,
    ellipsoid_log_volume,
)
from eisopt.cli import ENV_OUTPUT_DIR, main
from eisopt.measurement import CSV_COLUMNS


def _data_lines(path):
    return [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]


def test_synth_writes_sixty_one_rows(tmp_path):
    assert main(["synth", "--output-dir", str(tmp_path)]) == 0
    csv_path = tmp_path / "spectrum.csv"
    assert csv_path.exists()
    assert len(_data_lines(csv_path)) == 1 + 61  # header + data
    spectrum = load_spectrum(csv_path)
    assert len(spectrum.grid) == 61
    prov = json.loads((tmp_path / "spectrum.csv.provenance.json").read_text())
    assert prov["provenance"]["seed"] == 0
    assert len(prov["provenance"]["config_hash"]) == 12


def test_synth_csv_keeps_its_density_and_can_be_reduced(tmp_path):
    assert main(["synth", "--output-dir", str(tmp_path)]) == 0
    grid = load_spectrum(tmp_path / "spectrum.csv").grid
    assert grid.ppd_default == 10
    reduced = reduce_ppd(grid, 0.1, 7)
    assert reduced.ppd_default == 10
    assert len(reduced) < len(grid)


def test_synth_reruns_byte_identically(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["synth", "--output-dir", str(d), "--seed", "3"]) == 0
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


def test_synth_noiseless_matches_model(tmp_path):
    assert main(["synth", "--output-dir", str(tmp_path), "--noiseless"]) == 0
    spectrum = load_spectrum(tmp_path / "spectrum.csv")
    mag, phase = model_polar(STATE_A, spectrum.grid.frequencies)
    assert np.array_equal(spectrum.mag_ohm, mag)
    # phase survives the on-disk degree representation only to the last ulp
    assert np.allclose(spectrum.phase_rad, phase, rtol=5e-16, atol=5e-16)


def test_fit_recovers_parameters(tmp_path):
    assert main(["synth", "--output-dir", str(tmp_path), "--seed", "11"]) == 0
    rc = main(
        ["fit", str(tmp_path / "spectrum.csv"), "--output-dir", str(tmp_path)]
    )
    assert rc == 0
    data = json.loads((tmp_path / "fit.json").read_text())
    assert data["converged"] is True
    truth = STATE_A.to_dict()
    for name, value in data["parameters"].items():
        assert abs(value - truth[name]) / abs(truth[name]) < 0.5


def test_unconverged_fit_writes_its_result_and_exits_numerical_failure(
    tmp_path, monkeypatch, capsys
):
    real_fit = eisopt.cli.fit_wcnls

    def unconverged_fit(spectrum, theta0, *args):
        result = real_fit(spectrum, theta0, *args)
        return replace(result, converged=False, message="iteration limit reached")

    assert main(["synth", "--output-dir", str(tmp_path)]) == 0
    monkeypatch.setattr(eisopt.cli, "fit_wcnls", unconverged_fit)
    capsys.readouterr()
    rc = main(["fit", str(tmp_path / "spectrum.csv"), "--output-dir", str(tmp_path)])
    assert rc == 1
    data = json.loads((tmp_path / "fit.json").read_text())
    assert data["converged"] is False
    assert data["message"] == "iteration limit reached"
    err = capsys.readouterr().err
    assert err == "warning: fit did not converge: iteration limit reached\n"


def test_sweep_self_normalization_is_exactly_one(tmp_path):
    rc = main(
        [
            "crlb-sweep",
            "--output-dir",
            str(tmp_path),
            "--thresholds",
            "0.1",
            "--ppd-list",
            "10",
        ]
    )
    assert rc == 0
    rows = _data_lines(tmp_path / "crlb_sweep.csv")[1:]
    assert len(rows) == 11
    for row in rows:
        name, value, ppd, threshold = row.split(",")
        assert float(value) == 1.0
        assert ppd == "10"


def test_sweep_reduced_density_inflates_low_frequency_bounds(tmp_path):
    rc = main(
        [
            "crlb-sweep",
            "--output-dir",
            str(tmp_path),
            "--thresholds",
            "0.1",
            "--ppd-list",
            "5",
        ]
    )
    assert rc == 0
    values = {}
    for row in _data_lines(tmp_path / "crlb_sweep.csv")[1:]:
        name, value, _, _ = row.split(",")
        values[name] = float(value)
    assert all(v >= 1.0 - 1e-12 for v in values.values())
    assert values["Q_LF"] > 1.3
    assert values["phi_LF"] > 1.3
    assert values["R_s"] < 1.05  # high-frequency parameters barely affected


def test_design_zero_iterations_matches_library_delta(tmp_path):
    rc = main(
        [
            "design",
            "--output-dir",
            str(tmp_path),
            "--threshold",
            "0.1",
            "--ppd-list",
            "7",
            "--max-iterations",
            "0",
        ]
    )
    assert rc == 0
    summary = _data_lines(tmp_path / "design_summary.csv")
    assert summary[0] == (
        "ppd,threshold_hz,delta_volume_pct,delta_time_pct,iterations,terminated"
    )
    ppd, threshold, delta_v, delta_t, iterations, terminated = summary[1].split(",")
    assert ppd == "7" and iterations == "0" and terminated == "max_iterations"

    err = ErrorStructure()
    baseline = log_spaced_inclusive(1e4, 0.01, 10)
    reduced = reduce_ppd(baseline, 0.1, 7)
    spectrum = synthesize(STATE_A, reduced, err, seed=0)
    theta_hat = fit_wcnls(spectrum, initialize(spectrum)).theta
    nv = np.exp(
        ellipsoid_log_volume(fisher(theta_hat, reduced, err))
        - ellipsoid_log_volume(fisher(theta_hat, baseline, err))
    )
    assert float(delta_v) == pytest.approx((nv - 1.0) * 100.0, rel=1e-9)
    assert (tmp_path / "design_trace_ppd7.jsonl").exists()
    assert (tmp_path / "design_trace_ppd7.csv").exists()


def _design_delta_time(out_dir, *args):
    assert main(["design", "--output-dir", str(out_dir), "--max-iterations", "0",
                 *args]) == 0
    return float(_data_lines(out_dir / "design_summary.csv")[1].split(",")[3])


def test_design_reads_periods_per_point_from_the_config_file_as_from_the_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_p": 3}))
    from_file = _design_delta_time(tmp_path / "file", "--config", str(cfg))
    from_flag = _design_delta_time(tmp_path / "flag", "--n-p", "3")
    default = _design_delta_time(tmp_path / "default")
    # the baseline and the loop's trace count the same periods per point,
    # so the time saving of the thinned grid does not depend on n_p
    assert from_file == from_flag == pytest.approx(default, rel=1e-12)
    assert from_file < 0.0


def test_every_design_option_has_a_flag(tmp_path, monkeypatch):
    seen = []
    real_run_design = eisopt.cli.run_design

    def recording_run_design(spectrum, theta, cfg, **kwargs):
        seen.append(cfg)
        return real_run_design(spectrum, theta, cfg, **kwargs)

    monkeypatch.setattr(eisopt.cli, "run_design", recording_run_design)
    rc = main(["design", "--output-dir", str(tmp_path), "--max-iterations", "3",
               "--time-budget", "3000", "--min-frequency", "0.02",
               "--unfreeze-endpoints", "--n-p", "3"])
    assert rc == 0 and len(seen) == 1
    default = DesignConfig()
    for f in dataclasses.fields(DesignConfig):
        assert getattr(seen[0], f.name) != getattr(default, f.name), f.name


def test_design_remeasurement_noise_is_independent_of_the_sweep(tmp_path, monkeypatch):
    spectra, samples = [], []
    real_synthesize, real_measure_at = eisopt.cli.synthesize, eisopt.design.measure_at

    def recording_synthesize(theta, grid, err, seed, **kwargs):
        spectra.append((theta, real_synthesize(theta, grid, err, seed, **kwargs)))
        return spectra[-1][1]

    def recording_measure_at(theta, f_hz, err, rng):
        samples.append((theta, f_hz, real_measure_at(theta, f_hz, err, rng)))
        return samples[-1][2]

    monkeypatch.setattr(eisopt.cli, "synthesize", recording_synthesize)
    monkeypatch.setattr(eisopt.design, "measure_at", recording_measure_at)
    rc = main(["design", "--output-dir", str(tmp_path), "--threshold", "0.1",
               "--ppd-list", "7", "--max-iterations", "1"])
    assert rc == 0 and len(spectra) == 1 and len(samples) == 1

    theta, spectrum = spectra[0]
    sweep_noise = spectrum.mag_ohm[0] / model_polar(theta, spectrum.grid.frequencies)[0][0] - 1.0
    theta, f_hz, (mag, *_) = samples[0]
    remeasure_noise = mag / model_polar(theta, np.array([f_hz]))[0][0] - 1.0
    # a shared stream would make the first re-measurement replay point 0's draw
    assert remeasure_noise != pytest.approx(sweep_noise, rel=1e-6)


def test_report_default_grid_normalizes_to_one(tmp_path):
    assert main(["report", "--output-dir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "report.json").read_text())
    for value in data["normalized_crlb"].values():
        assert value == pytest.approx(1.0, abs=1e-12)
    assert len(data["eigenvalues"]) == 11
    csv_rows = _data_lines(tmp_path / "report.csv")
    assert csv_rows[0] == "parameter,normalized_crlb,ppd,threshold_hz"
    assert len(csv_rows) == 12


def test_report_reduced_grid_pins_low_frequency_cost(tmp_path):
    rc = main(
        [
            "report",
            "--output-dir",
            str(tmp_path),
            "--reduce-ppd",
            "5",
            "--threshold",
            "0.1",
        ]
    )
    assert rc == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert 1.3 < data["normalized_crlb"]["Q_LF"] < 1.7
    library = crlb(
        fisher(STATE_A, reduce_ppd(log_spaced_inclusive(1e4, 0.01, 10), 0.1, 5),
               ErrorStructure())
    ) / crlb(fisher(STATE_A, log_spaced_inclusive(1e4, 0.01, 10), ErrorStructure()))
    assert data["normalized_crlb"]["Q_LF"] == pytest.approx(library[9], rel=1e-12)


def test_report_reduce_without_threshold_is_usage_error(tmp_path):
    rc = main(["report", "--output-dir", str(tmp_path), "--reduce-ppd", "5"])
    assert rc == 2


def test_report_threshold_without_reduce_is_usage_error(tmp_path, capsys):
    rc = main(["report", "--output-dir", str(tmp_path), "--threshold", "0.3"])
    assert rc == 2
    assert "--threshold requires --reduce-ppd" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_missing_spectrum_file_is_usage_error(tmp_path):
    assert main(["fit", str(tmp_path / "nope.csv")]) == 2


def test_malformed_spectrum_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("f_hz,mag_ohm\n1.0,2.0\n")
    assert main(["fit", str(bad)]) == 2


def _corrupt_points(data):
    data["points"][3]["mag_ohm"] = "n/a"


def _corrupt_ppd_default(data):
    data["grid"]["ppd_default"] = "ten"


def _fractional_ppd_default(data):
    data["grid"]["ppd_default"] = 10.6


def _numeric_provenance(data):
    data["provenance"] = 5


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_points, _corrupt_ppd_default, _fractional_ppd_default, _numeric_provenance],
)
def test_malformed_number_in_spectrum_json_is_format_error(tmp_path, corrupt):
    grid = reduce_ppd(log_spaced_inclusive(1e4, 0.01, 10), 0.1, 7)
    path = tmp_path / "spectrum.json"
    save_spectrum(synthesize(STATE_A, grid, ErrorStructure(), seed=4), path)
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    with pytest.raises(SpectrumFormatError):
        load_spectrum(path)
    assert main(["fit", str(path), "--output-dir", str(tmp_path)]) == 2


def _garbage_point_frequencies(data):
    for point in data["points"]:
        point["f_hz"] = "garbage"


def _reversed_grid(data):
    data["grid"]["frequencies_hz"].reverse()


def _three_points_for_five_frequencies(data):
    del data["points"][3:]


@pytest.mark.parametrize(
    "corrupt",
    [_garbage_point_frequencies, _reversed_grid, _three_points_for_five_frequencies],
)
def test_spectrum_json_that_disagrees_with_its_grid_is_format_error(tmp_path, corrupt):
    grid = FrequencyGrid(tuple(np.logspace(2.0, -2.0, 5)))
    path = tmp_path / "spectrum.json"
    save_spectrum(synthesize(STATE_A, grid, ErrorStructure(), seed=4), path)
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    with pytest.raises(SpectrumFormatError, match="^bad spectrum JSON: "):
        load_spectrum(path)
    assert main(["fit", str(path), "--output-dir", str(tmp_path)]) == 2


# A non-finite value in any data column must exit 2 naming the spectrum
# array, whichever file form carries it: not a failed fit (inf magnitude),
# not a complaint about a parameter (nan phase), and not a silently
# zero-weighted point (inf sigma).
_ARRAY_OF_COLUMN = {"mag_ohm": "mag_ohm", "phase_deg": "phase_rad",
                    "sigma_mag_ohm": "sigma_mag_ohm", "sigma_phase_deg": "sigma_phase_rad"}


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("column", sorted(_ARRAY_OF_COLUMN))
@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_non_finite_spectrum_value_is_usage_error(tmp_path, capsys, suffix, column, value):
    path = tmp_path / f"spectrum{suffix}"
    save_spectrum(synthesize(STATE_A, log_spaced_inclusive(1e4, 0.01, 10), ErrorStructure(),
                             seed=4), path)
    if suffix == ".json":
        data = json.loads(path.read_text())
        data["points"][3][column] = float(value)
        path.write_text(json.dumps(data))
    else:
        lines = path.read_text().splitlines()
        row = lines.index(_data_lines(path)[4])  # after the header row
        cells = lines[row].split(",")
        cells[CSV_COLUMNS.index(column)] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    message = f"{_ARRAY_OF_COLUMN[column]} must be finite"
    with pytest.raises(SpectrumFormatError, match=message):
        load_spectrum(path)
    assert main(["fit", str(path), "--output-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


# Values the spectrum itself refuses are one error in both file forms:
# SpectrumFormatError naming the form, and exit 2 from fit.  The JSON grid
# is kept equal to the points' f_hz, so the check that refuses is the
# spectrum's, not the form's own.
def _negative_magnitude(rows):
    rows[3][1] = -rows[3][1]


def _zero_sigma(rows):
    rows[3][3] = 0.0


def _one_row(rows):
    del rows[1:]


def _zero_frequency(rows):
    rows[-1][0] = 0.0


def _nan_phase(rows):
    rows[3][2] = float("nan")


@pytest.mark.parametrize(
    "corrupt", [_negative_magnitude, _zero_sigma, _one_row, _zero_frequency, _nan_phase]
)
@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_values_the_spectrum_refuses_are_format_errors_in_both_forms(tmp_path, suffix,
                                                                    corrupt):
    path = tmp_path / f"spectrum{suffix}"
    save_spectrum(synthesize(STATE_A, log_spaced_inclusive(1e4, 0.01, 10), ErrorStructure(),
                             seed=4), path)
    if suffix == ".json":
        data = json.loads(path.read_text())
        rows = [[point[c] for c in CSV_COLUMNS] for point in data["points"]]
        corrupt(rows)
        data["points"] = [dict(zip(CSV_COLUMNS, row)) for row in rows]
        data["grid"]["frequencies_hz"] = [row[0] for row in rows]
        path.write_text(json.dumps(data))
    else:
        header = [line for line in path.read_text().splitlines() if line.startswith("#")]
        columns, *table = _data_lines(path)
        rows = [[float(cell) for cell in line.split(",")] for line in table]
        corrupt(rows)
        lines = header + [columns] + [",".join(map(repr, row)) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpectrumFormatError, match=f"^bad spectrum {suffix[1:].upper()}: "):
        load_spectrum(path)
    assert main(["fit", str(path), "--output-dir", str(tmp_path)]) == 2


def test_unknown_fixture_is_usage_error(tmp_path):
    rc = main(["synth", "--output-dir", str(tmp_path), "--fixture", "state_z"])
    assert rc == 2


def test_unknown_config_field_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sead": 5}))
    rc = main(["synth", "--output-dir", str(tmp_path), "--config", str(cfg)])
    assert rc == 2


# Design-section keys that no longer configure anything, with values that
# were once valid.  n_p is the experiment's top-level field, so the design
# section cannot set it apart from the baseline's.
_REMOVED_DESIGN_FIELDS = {
    "eigen_scaling": "log",
    "scan_step_decades": 0.01,
    "climb_step_decades": 0.05,
    "climb_shrink": 0.5,
    "climb_stop_decades": 1e-4,
    "min_separation_decades": 1e-6,
    "frozen_indices": [2, 5],
    "include_variance_term": True,
    "n_p": 5,
}


@pytest.mark.parametrize("key", _REMOVED_DESIGN_FIELDS)
def test_removed_design_field_is_usage_error(tmp_path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": {key: _REMOVED_DESIGN_FIELDS[key]}}))
    rc = main(["design", "--output-dir", str(tmp_path), "--config", str(cfg),
               "--max-iterations", "0"])
    assert rc == 2


# Design values of the wrong type or out of range, from a config file or a
# flag; each must be a usage error that names the field, not a traceback or
# a silently misread value ("false" is a true string).
_BAD_DESIGN_VALUES = {
    "max_iterations-string": ({"max_iterations": "5"}, []),
    "freeze_endpoints-string": ({"freeze_endpoints": "false"}, ["--max-iterations", "0"]),
    "min_frequency_hz-zero": ({}, ["--min-frequency", "0", "--max-iterations", "0"]),
    "min_frequency_hz-negative": ({}, ["--min-frequency", "-1", "--max-iterations", "0"]),
}


@pytest.mark.parametrize("case", _BAD_DESIGN_VALUES)
def test_bad_design_value_is_usage_error(tmp_path, capsys, case):
    design, flags = _BAD_DESIGN_VALUES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": design}))
    rc = main(["design", "--output-dir", str(tmp_path), "--config", str(cfg), *flags])
    assert rc == 2
    assert case.split("-")[0] in capsys.readouterr().err


# Top-level and grid/error numbers of the wrong JSON type: a count read
# through int() or a number through float() would run silently (or, for a
# bool error bound, fail as a numerical error), so each must exit 2 naming
# the field.  A JSON integer where a float is expected stays valid.
_CONFIG_VALUES = {
    "n_p-true": ({"n_p": True}, "n_p"),
    "n_p-fraction": ({"n_p": 5.7}, "n_p"),
    "grid-ppd-fraction": ({"grid": {"ppd": 7.9}}, "grid.ppd"),
    "seed-fraction": ({"seed": 1.9}, "seed"),
    "f_start-string": ({"grid": {"f_start_hz": "1e4"}}, "grid.f_start_hz"),
    "rel_mag_max-true": ({"error": {"rel_mag_max": True}}, "error.rel_mag_max"),
    "f_start-integer": ({"grid": {"f_start_hz": 10000}}, None),
}


@pytest.mark.parametrize("case", _CONFIG_VALUES)
def test_config_value_of_wrong_json_type_is_usage_error(tmp_path, capsys, case):
    config, field = _CONFIG_VALUES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["design", "--output-dir", str(tmp_path), "--config", str(cfg),
               "--max-iterations", "0"])
    if field is None:
        assert rc == 0
    else:
        assert rc == 2
        assert f"config value {field} must be" in capsys.readouterr().err


# A fixture mapping follows the config's own rules: known keys and JSON
# numbers only, so a string, a bool or a misspelt parameter is named.
_BAD_FIXTURE_VALUES = {
    "string": ("R_s", "0.001937", "config value fixture.R_s must be a number"),
    "bool": ("phi_1", True, "config value fixture.phi_1 must be a number"),
    "unknown": ("R_x", 1.0, "unknown config field fixture.R_x"),
}


@pytest.mark.parametrize("case", _BAD_FIXTURE_VALUES)
def test_fixture_mapping_of_wrong_key_or_type_is_usage_error(tmp_path, capsys, case):
    key, value, message = _BAD_FIXTURE_VALUES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": {**STATE_A.to_dict(), key: value}}))
    rc = main(["synth", "--output-dir", str(tmp_path), "--config", str(cfg)])
    assert rc == 2
    assert message in capsys.readouterr().err


# Sections that are not objects of known keys must exit 2 and name the
# section or key, for every command: a misspelt key must not leave its
# default in force, and grid has no "reductions" or "family", since only a
# command's own flags thin the dense sweep.
_BAD_SECTIONS = {
    "grid-not-object": ({"grid": 5}, "config value grid must be an object"),
    "design-not-object": ({"design": [1]}, "config value design must be an object"),
    "grid-misspelt-key": ({"grid": {"f_strat_hz": 100}}, "config field grid.f_strat_hz"),
    "error-unknown-key": ({"error": {"rel_mag": 0.1}}, "config field error.rel_mag"),
    "grid-family": ({"grid": {"family": "formula"}}, "config field grid.family"),
    "grid-reductions": ({"grid": {"reductions": [7]}}, "config field grid.reductions"),
    "grid-reductions-ppd-fraction": (
        {"grid": {"reductions": [{"threshold_hz": 0.1, "ppd": 7.5}]}},
        "config field grid.reductions",
    ),
}


@pytest.mark.parametrize("command", ["synth", "design"])
@pytest.mark.parametrize("case", _BAD_SECTIONS)
def test_config_section_of_unknown_shape_is_usage_error(tmp_path, capsys, case, command):
    config, message = _BAD_SECTIONS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main([command, "--output-dir", str(tmp_path), "--config", str(cfg)])
    assert rc == 2
    assert message in capsys.readouterr().err


def _quick_run(command, tmp_path):
    """A short run of each command; fit reads the spectrum that synth
    writes to ``tmp_path`` by default."""
    extra = {"fit": [str(tmp_path / "spectrum.csv")], "design": ["--max-iterations", "0"]}
    return [command, *extra.get(command, [])]


_COMMANDS = ["synth", "fit", "crlb-sweep", "design", "report"]


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_negative_seed_is_usage_error(tmp_path, capsys, monkeypatch, command, source):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--output-dir", str(tmp_path)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    seed = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
    rc = main(_quick_run(command, tmp_path) + seed + ["--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "config value seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", _COMMANDS)
def test_output_dir_that_is_not_a_path_is_usage_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--output-dir", str(tmp_path)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": 5}))
    assert main(_quick_run(command, tmp_path) + ["--config", str(cfg)]) == 2
    assert "config value output_dir must be a string, got 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["design", "--threshold", "abc"], ["report", "--reduce-ppd", "5", "--threshold", "abc"]]
)
def test_non_numeric_threshold_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--output-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "--threshold: invalid float value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["crlb-sweep", "--ppd-list", ","],
    ["crlb-sweep", "--thresholds", ","],
    ["crlb-sweep", "--thresholds", " "],
    ["design", "--ppd-list", ","],
], ids=lambda argv: " ".join(argv[:2]) + repr(argv[2]))
def test_empty_list_is_usage_error(tmp_path, capsys, argv):
    # the run would write a table without rows
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert f"{argv[1]} expects at least one value" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["crlb-sweep", "--ppd-list", "5,7,5", "5"],
    ["crlb-sweep", "--thresholds", "0.1,0.1", "0.1"],
    ["crlb-sweep", "--thresholds", "0.1,1e-1", "0.1"],
    ["design", "--ppd-list", "7,07", "7"],
], ids=lambda argv: " ".join(argv[:3]))
def test_repeated_list_value_is_usage_error(tmp_path, capsys, argv):
    # the run would write a value's rows twice, or overwrite its trace files
    *argv, repeated = argv
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert f"{argv[1]} repeats {repeated}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["synth", "crlb-sweep", "design", "report"])
def test_non_finite_frequency_bound_is_usage_error(tmp_path, capsys, command):
    # JSON reads 1e400 as infinity; the sweep has no finite length then
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid": {"f_start_hz": 1e400}}')
    assert main(_quick_run(command, tmp_path) + ["--output-dir", str(tmp_path),
                                                 "--config", str(cfg)]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(_quick_run(command, tmp_path) + ["--output-dir", str(tmp_path),
                                                 "--f-start", "inf"]) == 2


def test_singular_information_is_numerical_error(tmp_path):
    # two-point band: eleven parameters cannot be bounded by four data rows
    rc = main(
        [
            "report",
            "--output-dir",
            str(tmp_path),
            "--f-start",
            "10000",
            "--f-end",
            "8000",
        ]
    )
    assert rc == 1


def test_environment_variable_sets_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "from_env"))
    assert main(["synth"]) == 0
    assert (tmp_path / "from_env" / "spectrum.csv").exists()


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))

    rc = main(["synth", "--output-dir", str(tmp_path / "c"), "--config", str(cfg)])
    assert rc == 0
    prov = json.loads(
        (tmp_path / "c" / "spectrum.csv.provenance.json").read_text()
    )
    assert prov["provenance"]["seed"] == 5

    rc = main(
        [
            "synth",
            "--output-dir",
            str(tmp_path / "f"),
            "--config",
            str(cfg),
            "--seed",
            "7",
        ]
    )
    assert rc == 0
    prov = json.loads(
        (tmp_path / "f" / "spectrum.csv.provenance.json").read_text()
    )
    assert prov["provenance"]["seed"] == 7


def test_every_common_flag_sets_its_config_key(tmp_path):
    rc = main(["synth", "--output-dir", str(tmp_path), "--fixture", "state_b",
               "--seed", "4", "--f-start", "1000", "--f-end", "0.1",
               "--grid-ppd", "8", "--n-p", "3"])
    assert rc == 0
    cfg = json.loads((tmp_path / "spectrum.csv.provenance.json").read_text())["config"]
    assert cfg["fixture"] == "state_b"
    assert cfg["seed"] == 4
    assert cfg["grid"]["f_start_hz"] == 1000.0
    assert cfg["grid"]["f_end_hz"] == 0.1
    assert cfg["grid"]["ppd"] == 8
    assert cfg["n_p"] == 3
    assert cfg["output_dir"] == str(tmp_path)
    # 1000 Hz to 0.1 Hz at 8 points per decade, both ends included
    assert len(load_spectrum(tmp_path / "spectrum.csv").grid) == 33


def test_flags_of_one_run_do_not_carry_into_the_next(tmp_path):
    assert main(["synth", "--output-dir", str(tmp_path / "narrow"), "--f-end", "1"]) == 0
    assert len(_data_lines(tmp_path / "narrow" / "spectrum.csv")) == 1 + 41
    assert main(["synth", "--output-dir", str(tmp_path / "default")]) == 0
    assert len(_data_lines(tmp_path / "default" / "spectrum.csv")) == 1 + 61


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "eisopt" in capsys.readouterr().out


# fit never reads the fixture, but hashes it into provenance: a bad one is
# refused like every other command refuses it, not written into the hash.
@pytest.mark.parametrize("config, flags", [
    ({"fixture": 5}, []),
    ({"fixture": {"R_x": 1.0}}, []),
    ({}, ["--fixture", "bogus"]),
], ids=["number", "unknown-key", "unknown-name"])
def test_fit_refuses_a_bad_fixture(tmp_path, capsys, config, flags):
    assert main(["synth", "--output-dir", str(tmp_path)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["fit", str(tmp_path / "spectrum.csv"), "--output-dir", str(tmp_path),
               "--config", str(cfg)] + flags)
    assert rc == 2
    assert "fixture" in capsys.readouterr().err
