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

    Arrays are aligned with ``grid.frequencies`` (decreasing Hz) and are
    read-only.  ``provenance`` records how the data came to be (synthesis
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
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.all(self.mag_ohm > 0.0):
            raise DomainError("measured magnitudes must be positive")
        if not (np.all(self.sigma_mag_ohm > 0.0) and np.all(self.sigma_phase_rad > 0.0)):
            raise DomainError("per-point standard deviations must be positive")

    @property
    def frequencies(self) -> np.ndarray:
        return self.grid.as_array()

    @property
    def n(self) -> int:
        return len(self.grid)

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
        if not 0 <= index < self.n:
            raise DomainError(f"point index {index} out of range")
        freqs = np.array(self.grid.frequencies)
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
        grid = FrequencyGrid(tuple(freqs[order]), self.grid.ppd_default)
        return Spectrum(
            grid, mag[order], phase[order], smag[order], sphase[order],
            dict(self.provenance),
        )


def synthesize(
    theta_true: ParameterVector,
    grid: FrequencyGrid,
    err: ErrorStructure,
    seed: int,
    noiseless: bool = False,
) -> Spectrum:
    """Simulate one sweep: evaluate the model and corrupt it with white noise.

    Magnitude noise is multiplicative Gaussian, phase noise additive
    Gaussian; both channels are drawn independently per point from a
    generator seeded with ``seed`` (magnitude channel first).  The stored
    standard deviations come from the noiseless magnitudes.  ``noiseless``
    skips the corruption but keeps the same standard deviations, so the
    spectrum remains usable as a weighted-fit input.
    """
    mag0, phase0 = model_polar(theta_true, grid.as_array())
    sigma_mag, sigma_phase = sigma_at(err, mag0)
    if noiseless:
        mag, phase = mag0, phase0
    else:
        rng = np.random.default_rng(seed)
        mag = mag0 * (1.0 + err.sigma_rel_mag * rng.standard_normal(mag0.size))
        phase = phase0 + err.sigma_phase_rad * rng.standard_normal(phase0.size)
        if np.any(mag <= 0.0):
            raise DomainError(
                "noise level drove a magnitude sample non-positive; "
                "the multiplicative noise model needs rel_mag_max well below 1"
            )
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
    """Draw one noisy sample at a single frequency.

    Returns (mag, phase_rad, sigma_mag, sigma_phase_rad).  Used by the
    adjustment loop to re-measure a moved point with the loop's generator.
    """
    mag0, phase0 = model_polar(theta_true, np.array([float(f_hz)]))
    sigma_mag, sigma_phase = sigma_at(err, mag0)
    mag = mag0[0] * (1.0 + err.sigma_rel_mag * rng.standard_normal())
    phase = phase0[0] + err.sigma_phase_rad * rng.standard_normal()
    if mag <= 0.0:
        raise DomainError("noise level drove a magnitude sample non-positive")
    return float(mag), float(phase), float(sigma_mag[0]), float(sigma_phase[0])


def save_spectrum(spectrum: Spectrum, path) -> None:
    """Write a spectrum to ``path``.

    Paths ending in .json get the JSON form with a provenance block;
    everything else gets CSV with '#'-prefixed provenance header lines.
    """
    path = str(path)
    if path.endswith(".json"):
        write_json(path, _to_json_dict(spectrum))
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_csv(spectrum, fh)


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
    """Read a spectrum written by :func:`save_spectrum`.

    Raises :class:`SpectrumFormatError` (with a line number where possible)
    for malformed rows, missing columns, or non-decreasing frequencies.
    """
    path = str(path)
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpectrumFormatError(f"invalid spectrum JSON: {exc}") from exc
        return _from_json_dict(data, origin=path)
    with open(path, encoding="utf-8", newline="") as fh:
        return _read_csv(fh, origin=path)


def _write_csv(spectrum: Spectrum, fh) -> None:
    header = {
        key: spectrum.provenance[key]
        for key in ("source", "seed", "noiseless", "config_hash", "version")
        if key in spectrum.provenance
    }
    rows = (
        [repr(f), repr(float(mag)), repr(math.degrees(phase)), repr(float(smag)),
         repr(math.degrees(sphase))]
        for f, mag, phase, smag, sphase in zip(
            spectrum.grid.frequencies, spectrum.mag_ohm, spectrum.phase_rad,
            spectrum.sigma_mag_ohm, spectrum.sigma_phase_rad,
        )
    )
    write_table(fh, header, CSV_COLUMNS, rows)


def _read_csv(fh, origin: str) -> Spectrum:
    provenance = {"source": origin}
    rows = []
    header = None
    for lineno, line in enumerate(fh, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                provenance[key.strip()] = value.strip()
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
            rows.append((lineno, [float(c) for c in cells]))
        except ValueError as exc:
            raise SpectrumFormatError(str(exc), line_number=lineno) from exc
    if header is None:
        raise SpectrumFormatError("empty spectrum file")
    if not rows:
        raise SpectrumFormatError("no data rows")
    prev_f = None
    for lineno, (f, *_rest) in rows:
        if prev_f is not None and f >= prev_f:
            raise SpectrumFormatError(
                f"frequencies must be strictly decreasing ({f} after {prev_f})",
                line_number=lineno,
            )
        prev_f = f
    data = np.array([values for _, values in rows])
    grid = FrequencyGrid(tuple(data[:, 0]))
    return Spectrum(
        grid,
        data[:, 1],
        np.radians(data[:, 2]),
        data[:, 3],
        np.radians(data[:, 4]),
        provenance,
    )


def _to_json_dict(spectrum: Spectrum) -> dict:
    return {
        "provenance": spectrum.provenance,
        "grid": spectrum.grid.to_json_dict(),
        "points": [
            {
                "f_hz": f,
                "mag_ohm": float(m),
                "phase_deg": math.degrees(p),
                "sigma_mag_ohm": float(sm),
                "sigma_phase_deg": math.degrees(sp),
            }
            for f, m, p, sm, sp in zip(
                spectrum.grid.frequencies,
                spectrum.mag_ohm,
                spectrum.phase_rad,
                spectrum.sigma_mag_ohm,
                spectrum.sigma_phase_rad,
            )
        ],
    }


def _from_json_dict(data: dict, origin: str) -> Spectrum:
    try:
        grid_data, points = data["grid"], data["points"]
        f_hz = tuple(float(p["f_hz"]) for p in points)
        mag = [float(p["mag_ohm"]) for p in points]
        phase = [math.radians(p["phase_deg"]) for p in points]
        smag = [float(p["sigma_mag_ohm"]) for p in points]
        sphase = [math.radians(p["sigma_phase_deg"]) for p in points]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpectrumFormatError(f"bad spectrum JSON: {exc}") from exc
    provenance = dict(data.get("provenance", {}))
    provenance.setdefault("source", origin)
    try:
        grid = FrequencyGrid.from_json_dict(grid_data)
        spectrum = Spectrum(grid, mag, phase, smag, sphase, provenance)
    except DomainError as exc:
        raise SpectrumFormatError(f"bad spectrum JSON: {exc}") from exc
    if f_hz != grid.frequencies:
        raise SpectrumFormatError(
            "bad spectrum JSON: the points' f_hz differ from the grid's frequencies_hz"
        )
    return spectrum
