"""Command-line driver binding the toolkit into reproducible experiments.

Subcommands
-----------
synth       simulate a noisy impedance spectrum and write it to disk
fit         estimate the eleven circuit parameters from a spectrum file
crlb-sweep  tabulate normalized CRLBs over (threshold, points-per-decade) cells
design      run the frequency-adjustment loop and summarize volume/time deltas
report      write the uncertainty report (CRLB, eigenvalues, volume) for a grid

Every command resolves an experiment configuration from defaults, an
optional JSON config file (``--config``) and command-line flag overrides,
in that order.  The config's ``grid`` is the dense reference sweep
(``f_start_hz``, ``f_end_hz``, ``ppd``): ``synth`` spaces it with
``log_spaced``, the other commands with ``log_spaced_inclusive``.  Only a
command's own flags thin it (``--thresholds``, ``--threshold``,
``--ppd-list``, ``--reduce-ppd``), so every ratio and volume is against
the unthinned sweep.  The resolved configuration is hashed so each output
file carries a provenance header (config hash, seed, tool version) that
fully identifies how it was produced; a fixed config and seed reproduce
every data row byte for byte.

Exit codes: 0 success, 1 numerical failure (fit divergence, singular
information matrix, or a fit that did not converge, whose result file is
still written), 2 invalid input (malformed files, or a bad config: a
section that is not an object, an unknown key in any section, or a value
of the wrong type).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import PARAMETER_NAMES, ParameterVector
from .design import DesignConfig, run_design
from .estimation import fit_wcnls, initialize
from .exceptions import (
    DesignError,
    DomainError,
    FitError,
    InitializationError,
    SingularInformationError,
    SpectrumFormatError,
)
from .fixtures import get_fixture
from .frequency import FrequencyGrid, log_spaced, log_spaced_inclusive, reduce_ppd, total_time
from .information import crlb, fisher, uncertainty_report
from .measurement import (
    ErrorStructure,
    load_spectrum,
    save_spectrum,
    synthesize,
    write_json,
    write_table,
)

ENV_OUTPUT_DIR = "EISOPT_OUTPUT_DIR"

_DEFAULT_CONFIG = {
    "fixture": "state_a",
    # the dense reference sweep, which only a command's own flags thin
    "grid": {"f_start_hz": 1.0e4, "f_end_hz": 0.01, "ppd": 10},
    "error": dataclasses.asdict(ErrorStructure()),
    "n_p": 5,
    "seed": 0,
    "design": {},
    "output_dir": None,
}

# The keys each section may set.  The design section sets every
# DesignConfig field but n_p, which is the experiment's top-level setting:
# the loop's sweep times and the baseline's must count the same periods.
_SECTION_KEYS = {
    "grid": set(_DEFAULT_CONFIG["grid"]),
    "error": set(_DEFAULT_CONFIG["error"]),
    "design": {f.name for f in dataclasses.fields(DesignConfig)} - {"n_p"},
}

# The JSON types a value may take, by the type of its default.
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number")}

# The columns of the normalized-CRLB tables of crlb-sweep and report.
_CRLB_COLUMNS = ("parameter", "normalized_crlb", "ppd", "threshold_hz")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config file {path}: top level must be an object")
    return data


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- command-line flags, each value checked
    as it is set.

    Each flag's ``dest`` is the config key it sets ("seed", "grid.ppd",
    "design.max_iterations"); a flag left out is None and sets nothing.
    ``grid``, ``error`` and ``design`` must be objects of known keys, and
    a value whose default is a count or a number must be a JSON integer or
    number, never true or false, so 5.7, true or "1e4" is named instead of
    read as 5, 1 or 1e4.  DesignConfig checks the values of its section.
    The fixture is checked here too, so a command that never reads it, such
    as ``fit``, refuses a bad one instead of hashing it into provenance.
    """
    updates = []
    for key, value in _load_config_file(args.config).items():
        if key not in _SECTION_KEYS:
            updates.append(("", key, value))
        elif isinstance(value, dict):
            updates += [(key, name, v) for name, v in value.items()]
        else:
            raise DomainError(f"config value {key} must be an object, got {value!r}")
    for key, value in vars(args).items():
        section, _, name = key.rpartition(".")
        if value is not None and (section or name) in _DEFAULT_CONFIG:
            updates.append((section, name, value))

    cfg = copy.deepcopy(_DEFAULT_CONFIG)
    for section, name, value in updates:
        field = f"{section}.{name}" if section else name
        defaults = _DEFAULT_CONFIG[section] if section else _DEFAULT_CONFIG
        known = _SECTION_KEYS.get(section, defaults)
        if name not in known:
            raise DomainError(
                f"unknown config field {field}; known fields are {sorted(known)}"
            )
        default_type = type(defaults.get(name))
        if default_type in _KINDS:
            kinds, kind = _KINDS[default_type]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise DomainError(f"config value {field} must be {kind}, got {value!r}")
        if field == "seed" and value < 0:
            raise DomainError(f"config value seed must be >= 0, got {value!r}")
        if field == "output_dir" and not isinstance(value, (str, type(None))):
            raise DomainError(f"config value output_dir must be a string, got {value!r}")
        if field == "fixture":
            _fixture_theta(value)
        (cfg[section] if section else cfg)[name] = value
    return cfg


def _config_hash(cfg: dict) -> str:
    # The hash identifies the experiment, not where its files land, so the
    # output directory is excluded; reruns into different directories still
    # produce byte-identical data files.
    canon = {k: v for k, v in cfg.items() if k != "output_dir"}
    text = json.dumps(canon, sort_keys=True, default=float)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _fixture_theta(fixture) -> ParameterVector:
    """The parameters a config's ``fixture`` names or maps."""
    if isinstance(fixture, str):
        return get_fixture(fixture)
    if isinstance(fixture, dict):
        kinds, kind = _KINDS[float]
        for name, value in fixture.items():
            if name not in PARAMETER_NAMES:
                raise DomainError(
                    f"unknown config field fixture.{name}; known fields are {list(PARAMETER_NAMES)}"
                )
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise DomainError(f"config value fixture.{name} must be {kind}, got {value!r}")
        return ParameterVector.from_dict(fixture)
    raise DomainError("fixture must be a fixture name or a parameter mapping")


def _error_from_config(cfg: dict) -> ErrorStructure:
    # float(): a JSON integer such as 3 enters the spectrum's provenance as 3.0
    return ErrorStructure(**{name: float(v) for name, v in cfg["error"].items()})


def _grid_from_config(cfg: dict, spacing) -> FrequencyGrid:
    """The dense reference sweep, spaced by ``log_spaced`` or
    ``log_spaced_inclusive``."""
    g = cfg["grid"]
    return spacing(g["f_start_hz"], g["f_end_hz"], g["ppd"])


def _output_dir(cfg: dict) -> Path:
    target = cfg.get("output_dir") or os.environ.get(ENV_OUTPUT_DIR) or "."
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _provenance(cfg: dict) -> dict:
    return {
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "version": __version__,
    }


def _parse_list(text: str, flag: str, kind) -> list:
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(
            f"{flag} expects a comma-separated list of {kind.__name__} values: {exc}"
        ) from exc
    # an empty list would write a table without rows, and a repeated value
    # would repeat its rows or overwrite its trace files
    if not values:
        raise DomainError(f"{flag} expects at least one value, got {text!r}")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise DomainError(f"{flag} repeats {', '.join(map(repr, repeated))}")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    theta = _fixture_theta(cfg["fixture"])
    err = _error_from_config(cfg)
    grid = _grid_from_config(cfg, log_spaced)
    prov = _provenance(cfg)
    out = _output_dir(cfg)

    spectrum = synthesize(theta, grid, err, seed=cfg["seed"], noiseless=args.noiseless)
    spectrum.provenance.update(prov)
    csv_path = out / args.out
    save_spectrum(spectrum, csv_path)
    prov_path = csv_path.with_suffix(csv_path.suffix + ".provenance.json")
    write_json(prov_path, {"provenance": prov, "config": cfg})
    print(f"wrote {csv_path} ({len(spectrum.grid)} rows) and {prov_path}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    prov = _provenance(cfg)
    out = _output_dir(cfg)

    spectrum = load_spectrum(args.spectrum)
    result = fit_wcnls(spectrum, initialize(spectrum))
    payload = {"provenance": prov, "input": str(args.spectrum)}
    payload.update(result.to_json_dict())
    fit_path = out / args.out
    write_json(fit_path, payload)
    print(
        f"wrote {fit_path}: objective={result.objective:.6g} "
        f"iterations={result.iterations} converged={result.converged}"
    )
    if not result.converged:
        print(f"warning: fit did not converge: {result.message}", file=sys.stderr)
        return 1
    return 0


def cmd_crlb_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    theta = _fixture_theta(cfg["fixture"])
    err = _error_from_config(cfg)
    baseline = _grid_from_config(cfg, log_spaced_inclusive)
    prov = _provenance(cfg)
    out = _output_dir(cfg)

    thresholds = _parse_list(args.thresholds, "--thresholds", float)
    ppds = _parse_list(args.ppd_list, "--ppd-list", int)
    base_crlb = crlb(fisher(theta, baseline, err))

    def rows():
        for threshold in thresholds:
            for ppd in ppds:
                reduced = reduce_ppd(baseline, threshold, ppd)
                ratios = crlb(fisher(theta, reduced, err)) / base_crlb
                for name, value in zip(PARAMETER_NAMES, ratios):
                    yield [name, repr(float(value)), ppd, repr(threshold)]

    sweep_path = out / args.out
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, prov, _CRLB_COLUMNS, rows())
    n_rows = len(thresholds) * len(ppds) * len(PARAMETER_NAMES)
    print(f"wrote {sweep_path} ({n_rows} rows)")
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    theta = _fixture_theta(cfg["fixture"])
    err = _error_from_config(cfg)
    baseline = _grid_from_config(cfg, log_spaced_inclusive)
    design_cfg = DesignConfig(**cfg["design"], n_p=cfg["n_p"])
    prov = _provenance(cfg)
    out = _output_dir(cfg)

    ppds = _parse_list(args.ppd_list, "--ppd-list", int)
    t_base = total_time(baseline, cfg["n_p"])
    # The initial sweep uses the seed as `synth` does; the loop's
    # re-measurements draw from a stream spawned from it, since reusing
    # the seed would replay the sweep's noise at the moved points.
    seed = cfg["seed"]
    remeasure_seed = int(np.random.SeedSequence(seed).spawn(1)[0].generate_state(1)[0])

    def rows():
        for ppd in ppds:
            reduced = reduce_ppd(baseline, args.threshold, ppd)
            spectrum = synthesize(theta, reduced, err, seed=seed)
            trace = run_design(
                spectrum, theta, design_cfg, err=err, seed=remeasure_seed,
                reference_grid=baseline,
            )
            final = trace.final
            delta_v = (final.normalized_volume - 1.0) * 100.0
            delta_t = (final.t_tot_s - t_base) / t_base * 100.0
            stem = f"design_trace_ppd{ppd}"
            trace.save_jsonl(out / f"{stem}.jsonl")
            trace.save_csv(out / f"{stem}.csv")
            print(
                f"ppd {ppd}: dV={delta_v:+.2f}% dt={delta_t:+.2f}% "
                f"({final.iteration} iterations, {trace.terminated})"
            )
            yield [ppd, repr(args.threshold), repr(delta_v), repr(delta_t),
                   final.iteration, trace.terminated]

    summary_path = out / args.out
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        columns = ("ppd", "threshold_hz", "delta_volume_pct", "delta_time_pct",
                   "iterations", "terminated")
        write_table(fh, prov, columns, rows())
    print(f"wrote {summary_path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    theta = _fixture_theta(cfg["fixture"])
    err = _error_from_config(cfg)
    baseline = _grid_from_config(cfg, log_spaced_inclusive)
    prov = _provenance(cfg)
    out = _output_dir(cfg)

    grid = baseline
    threshold = ppd = None
    if args.threshold is not None and args.reduce_ppd is None:
        raise DomainError("--threshold requires --reduce-ppd")
    if args.reduce_ppd is not None:
        if args.threshold is None:
            raise DomainError("--reduce-ppd requires --threshold")
        threshold, ppd = args.threshold, args.reduce_ppd
        grid = reduce_ppd(baseline, threshold, ppd)

    base_crlb = crlb(fisher(theta, baseline, err))
    report = uncertainty_report(fisher(theta, grid, err))
    normalized = report.crlb / base_crlb

    json_path = out / args.out
    payload = {"provenance": prov}
    payload.update(report.to_json_dict())
    payload["normalized_crlb"] = dict(zip(PARAMETER_NAMES, normalized.tolist()))
    write_json(json_path, payload)

    csv_path = json_path.with_suffix(".csv")
    rows = (
        [name, repr(float(value)), ppd if ppd is not None else cfg["grid"]["ppd"],
         repr(threshold) if threshold is not None else ""]
        for name, value in zip(PARAMETER_NAMES, normalized)
    )
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, prov, _CRLB_COLUMNS, rows)
    print(f"wrote {json_path} and {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config file")
    common.add_argument("--output-dir", help=f"output directory (default: ${ENV_OUTPUT_DIR} or .)")
    common.add_argument("--fixture", help="fixture name (state_a, state_b)")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--f-start", type=float, dest="grid.f_start_hz", metavar="F_START",
                        help="highest frequency in Hz")
    common.add_argument("--f-end", type=float, dest="grid.f_end_hz", metavar="F_END",
                        help="lowest frequency in Hz")
    common.add_argument("--grid-ppd", type=int, dest="grid.ppd", metavar="GRID_PPD",
                        help="baseline grid points per decade")
    common.add_argument("--n-p", type=int, help="excitation periods per frequency")

    parser = argparse.ArgumentParser(
        prog="eisopt",
        description="Simulate, fit, and optimize impedance spectroscopy experiments.",
    )
    parser.add_argument("--version", action="version", version=f"eisopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="synthesize a noisy spectrum")
    p.add_argument("--noiseless", action="store_true", help="skip the noise draws")
    p.add_argument("--out", default="spectrum.csv", help="output file name")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", parents=[common], help="fit parameters to a spectrum file")
    p.add_argument("spectrum", help="spectrum CSV or JSON file")
    p.add_argument("--out", default="fit.json", help="output file name")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "crlb-sweep", parents=[common],
        help="normalized CRLB over (threshold, points-per-decade) cells",
    )
    p.add_argument("--thresholds", default="0.1", help="comma-separated thresholds in Hz")
    p.add_argument("--ppd-list", default="5,6,7,8,9,10", help="comma-separated reduced densities")
    p.add_argument("--out", default="crlb_sweep.csv", help="output file name")
    p.set_defaults(func=cmd_crlb_sweep)

    p = sub.add_parser("design", parents=[common], help="run the frequency-adjustment loop")
    p.add_argument("--threshold", type=float, default=0.1, help="reduction threshold in Hz")
    p.add_argument("--ppd-list", default="7", help="comma-separated reduced densities")
    p.add_argument("--max-iterations", type=int, dest="design.max_iterations",
                   metavar="MAX_ITERATIONS", help="adjustment iteration budget")
    p.add_argument("--time-budget", type=float, dest="design.time_budget_s",
                   metavar="TIME_BUDGET", help="total experimental time budget in s")
    p.add_argument("--min-frequency", type=float, dest="design.min_frequency_hz",
                   metavar="MIN_FREQUENCY", help="frequency floor in Hz")
    p.add_argument("--unfreeze-endpoints", action="store_const", const=False,
                   dest="design.freeze_endpoints",
                   help="allow the loop to move f_start and f_end")
    p.add_argument("--out", default="design_summary.csv", help="summary file name")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("report", parents=[common], help="uncertainty report for a grid")
    p.add_argument("--reduce-ppd", type=int, help="reduced density below --threshold")
    p.add_argument("--threshold", type=float, help="reduction threshold in Hz")
    p.add_argument("--out", default="report.json", help="output file name")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FitError, SingularInformationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (DomainError, SpectrumFormatError, InitializationError, DesignError,
            FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
