"""Noise model, synthetic spectra, spectrum I/O and the shared file writers.

The instrument error is specified as a maximum relative magnitude error and
a maximum absolute phase error.  Those maxima are mapped to Gaussian
standard deviations by a configurable divisor (default 3, the usual
three-sigma reading of a "maximum" error).  Noise is white: independent
across frequencies and between the magnitude and phase channels.

Spectra store phase in radians; degrees appear only in files and on the
command line.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import ParameterVector, model_polar
from .exceptions import DomainError, SpectrumFormatError
from .frequency import FrequencyGrid

CSV_COLUMNS = ("f_hz", "mag_ohm", "phase_deg", "sigma_mag_ohm", "sigma_phase_deg")


@dataclass(frozen=True)
class ErrorStructure:
    """Instrument error bounds and their Gaussian interpretation.

    sigma_convention divides the maxima to obtain standard deviations; the
    default of 3 treats the bound as a three-sigma excursion.
    """

    rel_mag_max: float = 0.01
    abs_phase_max_deg: float = 1.0
    sigma_convention: float = 3.0

    def __post_init__(self):
        for name in ("rel_mag_max", "abs_phase_max_deg", "sigma_convention"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be positive and finite, got {value}")

    @property
    def sigma_rel_mag(self) -> float:
        return self.rel_mag_max / self.sigma_convention

    @property
    def sigma_phase_rad(self) -> float:
        return math.radians(self.abs_phase_max_deg) / self.sigma_convention


def sigma_at(err: ErrorStructure, mag_ohm):
    """Standard deviations (sigma_mag in ohm, sigma_phase in rad) at an array
    of noiseless magnitudes.  Magnitude noise is proportional, phase noise flat."""
    mag = np.asarray(mag_ohm, dtype=float)
    if not np.all(mag > 0.0):
        raise DomainError("magnitude must be positive")
    sigma_mag = err.sigma_rel_mag * mag
    sigma_phase = np.full_like(mag, err.sigma_phase_rad)
    return sigma_mag, sigma_phase


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Per-frequency magnitude/phase samples with their standard deviations.

    Arrays are aligned with ``grid.frequencies`` (decreasing Hz), finite
    and read-only.  ``provenance`` records how the data came to be (synthesis
    seed or source file).
    """

    grid: FrequencyGrid
    mag_ohm: np.ndarray
    phase_rad: np.ndarray
    sigma_mag_ohm: np.ndarray
    sigma_phase_rad: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.grid)
        for name in ("mag_ohm", "phase_rad", "sigma_mag_ohm", "sigma_phase_rad"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DomainError(
                    f"{name} must have one value per grid frequency "
                    f"({n}), got shape {arr.shape}"
                )
            if not np.isfinite(arr).all():
                raise DomainError(f"{name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.all(self.mag_ohm > 0.0):
            raise DomainError("measured magnitudes must be positive")
        if not (np.all(self.sigma_mag_ohm > 0.0) and np.all(self.sigma_phase_rad > 0.0)):
            raise DomainError("per-point standard deviations must be positive")

    def impedance(self) -> np.ndarray:
        return self.mag_ohm * np.exp(1j * self.phase_rad)

    def with_replaced_point(
        self,
        index: int,
        f_hz: float,
        mag_ohm: float,
        phase_rad: float,
        sigma_mag_ohm: float,
        sigma_phase_rad: float,
    ) -> "Spectrum":
        """Swap one sample for a measurement at a new frequency; the point
        count is preserved and the decreasing-frequency order restored."""
        if not 0 <= index < len(self.grid):
            raise DomainError(f"point index {index} out of range")
        freqs = self.grid.frequencies.copy()
        mag = self.mag_ohm.copy()
        phase = self.phase_rad.copy()
        smag = self.sigma_mag_ohm.copy()
        sphase = self.sigma_phase_rad.copy()
        freqs[index] = f_hz
        mag[index] = mag_ohm
        phase[index] = phase_rad
        smag[index] = sigma_mag_ohm
        sphase[index] = sigma_phase_rad
        order = np.argsort(-freqs, kind="stable")
        grid = FrequencyGrid(freqs[order], self.grid.ppd_default)
        return Spectrum(
            grid, mag[order], phase[order], smag[order], sphase[order],
            dict(self.provenance),
        )


def _draw(theta_true: ParameterVector, freqs_hz: np.ndarray, err: ErrorStructure, rng):
    """Magnitudes, phases and their standard deviations (from the noiseless
    magnitudes) at ``freqs_hz``.  With ``rng`` the samples carry white noise,
    multiplicative Gaussian on the magnitude and additive Gaussian on the
    phase, magnitude channel first; with ``rng=None`` they are noiseless."""
    mag, phase = model_polar(theta_true, freqs_hz)
    sigma_mag, sigma_phase = sigma_at(err, mag)
    if rng is not None:
        mag = mag * (1.0 + err.sigma_rel_mag * rng.standard_normal(mag.size))
        phase = phase + err.sigma_phase_rad * rng.standard_normal(phase.size)
        if np.any(mag <= 0.0):
            raise DomainError(
                "noise level drove a magnitude sample non-positive; "
                "the multiplicative noise model needs rel_mag_max well below 1"
            )
    return mag, phase, sigma_mag, sigma_phase


def synthesize(
    theta_true: ParameterVector,
    grid: FrequencyGrid,
    err: ErrorStructure,
    seed: int,
    noiseless: bool = False,
) -> Spectrum:
    """Simulate one sweep: evaluate the model and corrupt it with white noise
    drawn from a generator seeded with ``seed`` (see :func:`_draw`).
    ``noiseless`` skips the corruption but keeps the same standard
    deviations, so the spectrum remains usable as a weighted-fit input."""
    rng = None if noiseless else np.random.default_rng(seed)
    mag, phase, sigma_mag, sigma_phase = _draw(theta_true, grid.frequencies, err, rng)
    provenance = {
        "source": "synthetic",
        "seed": int(seed),
        "noiseless": bool(noiseless),
        "theta_true": theta_true.to_dict(),
        "error": {
            "rel_mag_max": err.rel_mag_max,
            "abs_phase_max_deg": err.abs_phase_max_deg,
            "sigma_convention": err.sigma_convention,
        },
    }
    return Spectrum(grid, mag, phase, sigma_mag, sigma_phase, provenance)


def measure_at(
    theta_true: ParameterVector,
    f_hz: float,
    err: ErrorStructure,
    rng: np.random.Generator,
):
    """Draw one noisy sample at a single frequency, as :func:`synthesize` does.

    Returns (mag, phase_rad, sigma_mag, sigma_phase_rad).  Used by the
    adjustment loop to re-measure a moved point with the loop's generator.
    """
    sample = _draw(theta_true, np.array([float(f_hz)]), err, rng)
    return tuple(float(value[0]) for value in sample)


def save_spectrum(spectrum: Spectrum, path) -> None:
    """Write a spectrum to ``path`` as one table: a row per point with the
    ``CSV_COLUMNS`` in file units (Hz, ohm, degrees).

    Paths ending in .json get the JSON form, a provenance block, the grid
    and the rows as ``points``; everything else gets CSV with '#'-prefixed
    provenance header lines, the last of them ``# ppd_default=N`` when the
    grid has a density.
    """
    path = str(path)
    rows = [
        [f, float(mag), math.degrees(phase), float(smag), math.degrees(sphase)]
        for f, mag, phase, smag, sphase in zip(
            spectrum.grid.frequencies.tolist(), spectrum.mag_ohm, spectrum.phase_rad,
            spectrum.sigma_mag_ohm, spectrum.sigma_phase_rad,
        )
    ]
    if path.endswith(".json"):
        write_json(path, {
            "provenance": spectrum.provenance,
            "grid": spectrum.grid.to_json_dict(),
            "points": [dict(zip(CSV_COLUMNS, row)) for row in rows],
        })
        return
    header = {
        key: spectrum.provenance[key]
        for key in ("source", "seed", "noiseless", "config_hash", "version")
        if key in spectrum.provenance
    }
    if spectrum.grid.ppd_default is not None:
        header["ppd_default"] = spectrum.grid.ppd_default
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, header, CSV_COLUMNS, rows)


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with a final newline; NumPy
    scalars are written as floats.  Every JSON file eisopt writes goes
    through here."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")


def write_table(fh, header: dict, columns, rows) -> None:
    """Write ``# key=value`` lines for ``header``, then a CSV table of
    ``columns`` and ``rows``: the layout :func:`load_spectrum` reads.
    Every CSV file eisopt writes goes through here."""
    for key, value in header.items():
        fh.write(f"# {key}={value}\n")
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows(rows)


def load_spectrum(path) -> Spectrum:
    """Read a spectrum written by :func:`save_spectrum`: both forms parse
    to the one table, and one path builds the spectrum from it.

    Anything malformed raises :class:`SpectrumFormatError`, with a line
    number for CSV rows and headers where there is one; values the
    spectrum refuses (a frequency, magnitude or sigma that is not
    positive, a non-finite value, fewer than 2 points) read
    ``bad spectrum CSV: ...`` or ``bad spectrum JSON: ...``.
    """
    path = str(path)
    form = "JSON" if path.endswith(".json") else "CSV"
    with open(path, encoding="utf-8", newline="") as fh:
        parse = _parse_json if form == "JSON" else _parse_csv
        provenance, ppd_default, table = parse(fh, origin=path)
    data = np.array(table, dtype=float).reshape(-1, len(CSV_COLUMNS))
    try:
        grid = FrequencyGrid(data[:, 0], ppd_default)
        return Spectrum(grid, data[:, 1], np.radians(data[:, 2]), data[:, 3],
                        np.radians(data[:, 4]), provenance)
    except DomainError as exc:
        raise SpectrumFormatError(f"bad spectrum {form}: {exc}") from exc


def _parse_csv(fh, origin: str):
    """``(provenance, ppd_default, rows)`` of a CSV spectrum file."""
    provenance = {"source": origin}
    ppd_default = None
    rows = []
    header = None
    for lineno, line in enumerate(fh, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if "=" in body:
                key, _, value = (part.strip() for part in body.partition("="))
                if key != "ppd_default":
                    provenance[key] = value
                elif value.isdecimal() and int(value) >= 1:
                    ppd_default = int(value)
                else:
                    raise SpectrumFormatError(
                        f"ppd_default must be an integer >= 1, got {value!r}",
                        line_number=lineno,
                    )
            continue
        cells = next(csv.reader([text]))
        if header is None:
            header = [c.strip() for c in cells]
            if tuple(header) != CSV_COLUMNS:
                raise SpectrumFormatError(
                    f"expected columns {','.join(CSV_COLUMNS)}, got {','.join(header)}",
                    line_number=lineno,
                )
            continue
        if len(cells) != len(CSV_COLUMNS):
            raise SpectrumFormatError(
                f"expected {len(CSV_COLUMNS)} fields, got {len(cells)}",
                line_number=lineno,
            )
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise SpectrumFormatError(str(exc), line_number=lineno) from exc
        if rows and row[0] >= rows[-1][0]:
            raise SpectrumFormatError(
                f"frequencies must be strictly decreasing ({row[0]} after {rows[-1][0]})",
                line_number=lineno,
            )
        rows.append(row)
    if header is None:
        raise SpectrumFormatError("empty spectrum file")
    if not rows:
        raise SpectrumFormatError("no data rows")
    return provenance, ppd_default, rows


def _parse_json(fh, origin: str):
    """``(provenance, ppd_default, rows)`` of a JSON spectrum file."""
    try:
        data = json.load(fh)
        grid = data["grid"]
        grid_hz = [float(f) for f in grid["frequencies_hz"]]
        rows = [[float(p[c]) for c in CSV_COLUMNS] for p in data["points"]]
        provenance = dict(data.get("provenance", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpectrumFormatError(f"bad spectrum JSON: {exc}") from exc
    if [row[0] for row in rows] != grid_hz:
        raise SpectrumFormatError(
            "bad spectrum JSON: the points' f_hz differ from the grid's frequencies_hz"
        )
    provenance.setdefault("source", origin)
    return provenance, grid.get("ppd_default"), rows
