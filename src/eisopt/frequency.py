"""Logarithmic frequency grids, per-decade density reduction and time accounting.

An EIS sweep visits frequencies in decreasing order from ``f_start`` down to
``f_end``, log-spaced at a fixed density (points per decade, PPD).  Because
each point costs ``n_p`` excitation periods, low frequencies dominate the
total measurement time; the lowest decade of a uniform grid eats roughly 90%
of it.  The reduction operation thins the grid below a threshold frequency to
buy time back, which is the starting point of the adjustment loop in
:mod:`eisopt.design`.  A grid is only its frequencies and the density it was
generated at; the caller names what thinned it (a file name, a table column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SpectrumFormatError

# Two frequencies closer than this (relative, in linear Hz) are treated as
# the same grid point when merging piecewise-generated segments.
MERGE_RTOL = 1e-9


def _count(name: str, value, low: int = 1) -> int:
    """``value`` as an int, if it is a count: a Python or NumPy integer, not
    a bool, at least ``low``.  A fraction or a bool is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FrequencyGrid:
    """Ordered measurement frequencies, strictly decreasing, in Hz.

    ``ppd_default`` is the density the grid was generated with (None for
    grids loaded from bare frequency lists); :func:`reduce_ppd` keeps it.
    """

    frequencies: tuple
    ppd_default: int | None = None

    def __post_init__(self):
        freqs = tuple(map(float, self.frequencies))
        object.__setattr__(self, "frequencies", freqs)
        if len(freqs) < 2:
            raise DomainError("a frequency grid needs at least 2 points")
        arr = np.array(freqs)
        if not (arr > 0.0).all():
            raise DomainError("frequencies must be positive")
        if not (arr[1:] < arr[:-1]).all():
            raise DomainError("frequencies must be strictly decreasing")
        # positive and decreasing, so only the first can be infinite
        if not math.isfinite(freqs[0]):
            raise DomainError("frequencies must be finite")
        if self.ppd_default is not None:
            object.__setattr__(self, "ppd_default", _count("ppd_default", self.ppd_default))

    @property
    def n(self) -> int:
        return len(self.frequencies)

    def __len__(self) -> int:
        return len(self.frequencies)

    @property
    def f_start(self) -> float:
        return self.frequencies[0]

    @property
    def f_end(self) -> float:
        return self.frequencies[-1]

    def as_array(self) -> np.ndarray:
        return np.array(self.frequencies)

    def to_json_dict(self) -> dict:
        return {
            "frequencies_hz": list(self.frequencies),
            "ppd_default": self.ppd_default,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FrequencyGrid":
        try:
            freqs = tuple(float(f) for f in data["frequencies_hz"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SpectrumFormatError(f"bad grid JSON: {exc}") from exc
        return cls(freqs, data.get("ppd_default"))


def _sweep_density(f_start: float, f_end: float, ppd) -> int:
    """Check a sweep's band and return its density as an int."""
    if not (f_start > f_end > 0.0 and math.isfinite(f_start)):
        raise DomainError(
            f"need finite f_start > f_end > 0, got f_start={f_start}, f_end={f_end}"
        )
    return _count("ppd", ppd)


def log_spaced(f_start: float, f_end: float, ppd: int) -> FrequencyGrid:
    """Generate the standard log-spaced sweep grid.

    The k-th frequency is 10**(log10(f_start) - k/ppd) and the point count
    is floor(1.5 + ppd * (log10(f_start) - log10(f_end))), so integer-decade
    spans include both endpoints exactly.
    """
    ppd = _sweep_density(f_start, f_end, ppd)
    span = math.log10(f_start) - math.log10(f_end)
    n = math.floor(1.5 + ppd * span)
    k = np.arange(n)
    freqs = 10.0 ** (math.log10(f_start) - k / ppd)
    return FrequencyGrid(tuple(freqs), ppd_default=ppd)


def log_spaced_inclusive(f_start: float, f_end: float, ppd: int) -> FrequencyGrid:
    """Log-spaced grid counting both decade edges toward the density.

    Here "ppd" points span one decade inclusively, i.e. the spacing is
    1/(ppd - 1) decades (1/max(ppd - 1, 1) for ppd = 1).  Over the standard
    6-decade sweep this yields 55 points at ppd 10 instead of 61: the
    fencepost sibling of :func:`log_spaced`.  Reduced-density segments
    produced by :func:`reduce_ppd` follow the same convention, so grids
    from this constructor are the consistent baseline for density-reduction
    comparisons (per-parameter variance ratios, volume references).
    """
    ppd = _sweep_density(f_start, f_end, ppd)
    freqs = _inclusive_frequencies(f_start, f_end, ppd)
    return FrequencyGrid(tuple(freqs), ppd_default=ppd)


def _inclusive_frequencies(f_start: float, f_end: float, ppd: int) -> np.ndarray:
    """The frequencies of :func:`log_spaced_inclusive`, unvalidated, as an array."""
    span = math.log10(f_start) - math.log10(f_end)
    spacing = 1.0 / max(ppd - 1, 1)
    intervals = max(1, round(span / spacing))
    return np.logspace(math.log10(f_start), math.log10(f_end), intervals + 1)


def reduce_ppd(grid: FrequencyGrid, f_threshold: float, ppd_low: int) -> FrequencyGrid:
    """Thin the grid at and below ``f_threshold`` to ``ppd_low`` points per decade.

    Points above the threshold are kept verbatim.  The low segment is
    regenerated log-spaced from the threshold down to the grid's last
    frequency; its density convention counts both decade endpoints, i.e.
    ``ppd_low`` points span one decade inclusively (spacing 1/(ppd_low - 1)
    decades), which is how reduced sweeps are conventionally specified.
    ``ppd_low`` equal to the grid's default density is the identity.
    """
    if grid.ppd_default is None:
        raise DomainError("grid has no recorded default density; cannot reduce")
    ppd_low = _count("ppd_low", ppd_low)
    if ppd_low > grid.ppd_default:
        raise DomainError(
            f"ppd_low must be in [1, {grid.ppd_default}], got {ppd_low}"
        )
    if not grid.f_end <= f_threshold <= grid.f_start:
        raise DomainError(
            f"threshold {f_threshold} Hz outside grid range "
            f"[{grid.f_end}, {grid.f_start}] Hz"
        )
    if ppd_low == grid.ppd_default:
        return grid

    freqs = grid.as_array()
    upper = freqs[freqs > f_threshold * (1.0 + MERGE_RTOL)].tolist()
    span = math.log10(f_threshold) - math.log10(grid.f_end)
    if span <= MERGE_RTOL:
        low = [float(f_threshold)]
    else:
        low = _inclusive_frequencies(f_threshold, grid.f_end, ppd_low).tolist()

    merged = _merge_decreasing(upper + low)
    return FrequencyGrid(tuple(merged), ppd_default=grid.ppd_default)


def _merge_decreasing(values: list) -> list:
    """Drop near-duplicate neighbours (relative tolerance MERGE_RTOL)."""
    arr = np.array(values)
    near = np.abs(arr[:-1] - arr[1:]) <= MERGE_RTOL * np.abs(arr[:-1])
    if not near.any():
        # nothing is dropped, so each point's last kept point is its
        # predecessor, which is the pair tested here
        return values
    merged = []
    for v in values:
        if merged and abs(merged[-1] - v) <= MERGE_RTOL * abs(merged[-1]):
            continue
        merged.append(float(v))
    return merged


def total_time(grid: FrequencyGrid, n_p: int = 5) -> float:
    """Total sweep duration in seconds: n_p periods at every frequency."""
    n_p = _count("n_p", n_p)
    return float(n_p * np.sum(1.0 / grid.as_array()))

