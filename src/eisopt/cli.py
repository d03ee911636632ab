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
in that order.  The resolved configuration is hashed so each output file
carries a provenance header (config hash, seed, tool version) that fully
identifies how it was produced; a fixed config and seed reproduce every
data row byte for byte.

Exit codes: 0 success, 1 numerical failure (fit divergence, singular
information matrix, or a fit that did not converge, whose result file is
still written), 2 invalid input (bad config, malformed files).
"""

from __future__ import annotations

import argparse
import copy
import csv
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
from .measurement import ErrorStructure, load_spectrum, save_spectrum, synthesize

ENV_OUTPUT_DIR = "EISOPT_OUTPUT_DIR"

_DEFAULT_CONFIG = {
    "fixture": "state_a",
    "grid": {
        "f_start_hz": 1.0e4,
        "f_end_hz": 0.01,
        "ppd": 10,
        "family": None,
        "reductions": [],
    },
    "error": {
        "rel_mag_max": 0.01,
        "abs_phase_max_deg": 1.0,
        "sigma_convention": 3.0,
    },
    "n_p": 5,
    "seed": 0,
    "design": {},
    "output_dir": None,
}

# The design section sets every DesignConfig field but n_p, which is the
# experiment's top-level setting: the loop's sweep times and the baseline's
# must count the same periods per point.
_DESIGN_KEYS = {f.name for f in dataclasses.fields(DesignConfig)} - {"n_p"}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


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
    unknown = set(data) - set(_DEFAULT_CONFIG)
    if unknown:
        raise DomainError(
            f"config file {path}: unknown fields {sorted(unknown)}; "
            f"known fields are {sorted(_DEFAULT_CONFIG)}"
        )
    return data


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- command-line flags, deterministically."""
    cfg = _deep_merge(
        copy.deepcopy(_DEFAULT_CONFIG), _load_config_file(getattr(args, "config", None))
    )
    if getattr(args, "fixture", None) is not None:
        cfg["fixture"] = args.fixture
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "f_start", None) is not None:
        cfg["grid"]["f_start_hz"] = args.f_start
    if getattr(args, "f_end", None) is not None:
        cfg["grid"]["f_end_hz"] = args.f_end
    if getattr(args, "grid_ppd", None) is not None:
        cfg["grid"]["ppd"] = args.grid_ppd
    if getattr(args, "n_p", None) is not None:
        cfg["n_p"] = args.n_p
    if getattr(args, "output_dir", None) is not None:
        cfg["output_dir"] = args.output_dir
    for key, value in (getattr(args, "design_overrides", None) or {}).items():
        cfg["design"][key] = value
    return cfg


def _config_hash(cfg: dict) -> str:
    # The hash identifies the experiment, not where its files land, so the
    # output directory is excluded; reruns into different directories still
    # produce byte-identical data files.
    canon = {k: v for k, v in cfg.items() if k != "output_dir"}
    text = json.dumps(canon, sort_keys=True, default=float)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _theta_from_config(cfg: dict) -> ParameterVector:
    fixture = cfg["fixture"]
    if isinstance(fixture, str):
        return get_fixture(fixture)
    if isinstance(fixture, dict):
        return ParameterVector.from_dict(fixture)
    raise DomainError("fixture must be a fixture name or a parameter mapping")


def _error_from_config(cfg: dict) -> ErrorStructure:
    err = cfg["error"]
    try:
        return ErrorStructure(
            rel_mag_max=float(err["rel_mag_max"]),
            abs_phase_max_deg=float(err["abs_phase_max_deg"]),
            sigma_convention=float(err["sigma_convention"]),
        )
    except KeyError as exc:
        raise DomainError(f"error config missing field {exc.args[0]!r}") from exc


def _grid_from_config(cfg: dict, default_family: str) -> FrequencyGrid:
    g = cfg["grid"]
    family = g.get("family") or default_family
    if family == "formula":
        grid = log_spaced(float(g["f_start_hz"]), float(g["f_end_hz"]), int(g["ppd"]))
    elif family == "inclusive":
        grid = log_spaced_inclusive(
            float(g["f_start_hz"]), float(g["f_end_hz"]), int(g["ppd"])
        )
    else:
        raise DomainError(
            f"unknown grid family {family!r}; use 'formula' or 'inclusive'"
        )
    for red in g.get("reductions", []):
        grid = reduce_ppd(grid, float(red["threshold_hz"]), int(red["ppd"]))
    return grid


def _design_from_config(cfg: dict) -> DesignConfig:
    unknown = set(cfg["design"]) - _DESIGN_KEYS
    if unknown:
        raise DomainError(
            f"unknown design config fields {sorted(unknown)}; "
            f"known fields are {sorted(_DESIGN_KEYS)}"
        )
    return DesignConfig(**cfg["design"], n_p=int(cfg["n_p"]))


def _output_dir(cfg: dict) -> Path:
    target = cfg.get("output_dir") or os.environ.get(ENV_OUTPUT_DIR) or "."
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _provenance(cfg: dict) -> dict:
    return {
        "config_hash": _config_hash(cfg),
        "seed": int(cfg["seed"]),
        "version": __version__,
    }


def _write_provenance_lines(fh, prov: dict) -> None:
    for key in ("config_hash", "seed", "version"):
        fh.write(f"# {key}={prov[key]}\n")


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")


def _parse_list(text: str, flag: str, kind) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(
            f"{flag} expects a comma-separated list of {kind.__name__} values: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    theta = _theta_from_config(cfg)
    err = _error_from_config(cfg)
    grid = _grid_from_config(cfg, default_family="formula")
    prov = _provenance(cfg)
    out = _output_dir(cfg)

    spectrum = synthesize(theta, grid, err, seed=int(cfg["seed"]), noiseless=args.noiseless)
    spectrum.provenance.update(prov)
    csv_path = out / args.out
    save_spectrum(spectrum, csv_path)
    prov_path = csv_path.with_suffix(csv_path.suffix + ".provenance.json")
    _write_json(prov_path, {"provenance": prov, "config": cfg})
    print(f"wrote {csv_path} ({spectrum.n} rows) and {prov_path}")
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
    _write_json(fit_path, payload)
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
    theta = _theta_from_config(cfg)
    err = _error_from_config(cfg)
    baseline = _grid_from_config(cfg, default_family="inclusive")
    prov = _provenance(cfg)
    out = _output_dir(cfg)

    thresholds = _parse_list(args.thresholds, "--thresholds", float)
    ppds = _parse_list(args.ppd_list, "--ppd-list", int)
    base_crlb = crlb(fisher(theta, baseline, err))

    sweep_path = out / args.out
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        _write_provenance_lines(fh, prov)
        writer = csv.writer(fh)
        writer.writerow(["parameter", "normalized_crlb", "ppd", "threshold_hz"])
        for threshold in thresholds:
            for ppd in ppds:
                reduced = reduce_ppd(baseline, threshold, ppd)
                ratios = crlb(fisher(theta, reduced, err)) / base_crlb
                for name, value in zip(PARAMETER_NAMES, ratios):
                    writer.writerow([name, repr(float(value)), ppd, repr(threshold)])
    n_rows = len(thresholds) * len(ppds) * len(PARAMETER_NAMES)
    print(f"wrote {sweep_path} ({n_rows} rows)")
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    theta = _theta_from_config(cfg)
    err = _error_from_config(cfg)
    baseline = _grid_from_config(cfg, default_family="inclusive")
    design_cfg = _design_from_config(cfg)
    prov = _provenance(cfg)
    out = _output_dir(cfg)

    threshold = float(args.threshold)
    ppds = _parse_list(args.ppd_list, "--ppd-list", int)
    n_p = int(cfg["n_p"])
    t_base = total_time(baseline, n_p)

    summary_path = out / args.out
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        _write_provenance_lines(fh, prov)
        writer = csv.writer(fh)
        writer.writerow(
            ["ppd", "threshold_hz", "delta_volume_pct", "delta_time_pct",
             "iterations", "terminated"]
        )
        # The initial sweep uses the seed as `synth` does; the loop's
        # re-measurements draw from a stream spawned from it, since reusing
        # the seed would replay the sweep's noise at the moved points.
        seed = int(cfg["seed"])
        remeasure_seed = int(np.random.SeedSequence(seed).spawn(1)[0].generate_state(1)[0])
        for ppd in ppds:
            reduced = reduce_ppd(baseline, threshold, ppd)
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
            writer.writerow(
                [ppd, repr(threshold), repr(delta_v), repr(delta_t),
                 final.iteration, trace.terminated]
            )
            print(
                f"ppd {ppd}: dV={delta_v:+.2f}% dt={delta_t:+.2f}% "
                f"({final.iteration} iterations, {trace.terminated})"
            )
    print(f"wrote {summary_path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    theta = _theta_from_config(cfg)
    err = _error_from_config(cfg)
    baseline = _grid_from_config(cfg, default_family="inclusive")
    prov = _provenance(cfg)
    out = _output_dir(cfg)

    grid = baseline
    threshold = ppd = None
    if args.reduce_ppd is not None:
        if args.threshold is None:
            raise DomainError("--reduce-ppd requires --threshold")
        threshold, ppd = float(args.threshold), int(args.reduce_ppd)
        grid = reduce_ppd(baseline, threshold, ppd)

    base_crlb = crlb(fisher(theta, baseline, err))
    report = uncertainty_report(fisher(theta, grid, err))
    normalized = report.crlb / base_crlb

    json_path = out / args.out
    payload = {"provenance": prov}
    payload.update(report.to_json_dict())
    payload["normalized_crlb"] = dict(zip(PARAMETER_NAMES, normalized.tolist()))
    _write_json(json_path, payload)

    csv_path = json_path.with_suffix(".csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        _write_provenance_lines(fh, prov)
        writer = csv.writer(fh)
        writer.writerow(["parameter", "normalized_crlb", "ppd", "threshold_hz"])
        for name, value in zip(PARAMETER_NAMES, normalized):
            writer.writerow(
                [name, repr(float(value)),
                 ppd if ppd is not None else int(cfg["grid"]["ppd"]),
                 repr(threshold) if threshold is not None else ""]
            )
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
    common.add_argument("--f-start", type=float, help="highest frequency in Hz")
    common.add_argument("--f-end", type=float, help="lowest frequency in Hz")
    common.add_argument("--grid-ppd", type=int, help="baseline grid points per decade")
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
    p.add_argument("--threshold", default="0.1", help="reduction threshold in Hz")
    p.add_argument("--ppd-list", default="7", help="comma-separated reduced densities")
    p.add_argument("--max-iterations", type=int, help="adjustment iteration budget")
    p.add_argument("--time-budget", type=float, help="total experimental time budget in s")
    p.add_argument("--min-frequency", type=float, help="frequency floor in Hz")
    p.add_argument("--unfreeze-endpoints", action="store_true",
                   help="allow the loop to move f_start and f_end")
    p.add_argument("--out", default="design_summary.csv", help="summary file name")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("report", parents=[common], help="uncertainty report for a grid")
    p.add_argument("--reduce-ppd", type=int, help="reduced density below --threshold")
    p.add_argument("--threshold", help="reduction threshold in Hz")
    p.add_argument("--out", default="report.json", help="output file name")
    p.set_defaults(func=cmd_report)
    return parser


def _design_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    if getattr(args, "max_iterations", None) is not None:
        overrides["max_iterations"] = args.max_iterations
    if getattr(args, "time_budget", None) is not None:
        overrides["time_budget_s"] = args.time_budget
    if getattr(args, "min_frequency", None) is not None:
        overrides["min_frequency_hz"] = args.min_frequency
    if getattr(args, "unfreeze_endpoints", False):
        overrides["freeze_endpoints"] = False
    return overrides


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.design_overrides = _design_overrides(args)
    try:
        return args.func(args)
    except (FitError, SingularInformationError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (DomainError, SpectrumFormatError, InitializationError, DesignError,
            FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
