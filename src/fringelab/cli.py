"""Command-line front end: simulation, processing, studies, and fitting.

Each subcommand takes only the shared flags its handler reads: --config (a
JSON run configuration, see io.load_run_config), --seed, --range (the one
window of all three estimators, and simulate's native range too), --out and
--format.
Randomized commands print their seed, so any run can be reproduced; with no
seed given anywhere one is drawn from system entropy. Exit codes: 0 success,
2 parse or configuration failure, 3 processing failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import warnings
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from ._split import split
from .errors import ConfigError, FringelabError, SpectrumFormatError
from .filmsim import add_noise, check_range_nm, measure_snr, simulate_reflectance
from .io import (
    RunConfig,
    check_seed,
    load_run_config,
    read_concentration_table,
    read_manifest,
    read_spectrum,
    write_polyline_svg,
    write_spectrum,
)
from .isotherm import (
    ConcentrationSeries,
    fit_redlich_peterson,
    lod_concentration,
    model_eval,
)
from .lamp import lamp_signal, lamp_to_delta_eot
from .legacy import iaw, rifts_eot
from .lodstudy import METHODS, MIN_REPORTED_TRIALS, LodStudyConfig, crlb_delta_n, run_table1
from .wavegrid import WindowConfig

PARSE_EXIT = 2
PROCESS_EXIT = 3


def _float_pair(text: str):
    try:  # floats first: check_range_nm refuses text
        return check_range_nm([float(part) for part in text.split(",")], "wavelength range")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # The flags several subcommands share; each subcommand adds those its handler reads.
    shared_flags = {
        "config": {"help": "JSON run configuration file"},
        "seed": {"type": int, "help": "override the master seed"},
        "range": {"type": _float_pair, "dest": "range_nm", "help": "wavelength range LO,HI in nm"},
        "out": {"help": "output file path"},
        "format": {"choices": ("json", "csv"), "default": "json", "help": "output format"},
    }
    parser = argparse.ArgumentParser(
        prog="fringelab",
        description="thin-film fringe simulation and signal processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, shared, summary):
        p = sub.add_parser(name, help=summary)
        for flag in shared:
            p.add_argument(f"--{flag}", **shared_flags[flag])
        p.set_defaults(handler=handler)
        return p

    p = add_command("simulate", cmd_simulate, ("config", "seed", "range", "out"),
                    "simulate reflectance spectra and write them out")
    p.add_argument("--clean-out", help="also write the noiseless spectrum here")

    p = add_command("process", cmd_process, ("config", "range", "out", "format"),
                    "run one method on analyte spectra against a reference")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("reference", help="reference spectrum file")
    p.add_argument("analytes", nargs="+", help="analyte spectrum files")

    p = add_command("timeseries", cmd_timeseries, ("config", "range", "out", "format"),
                    "process a timestamped manifest against its reference")
    p.add_argument("--manifest", required=True)
    p.add_argument("--methods", default="rifts,iaw,lamp",
                   help="comma-separated subset of rifts,iaw,lamp")
    p.add_argument("--normalize", action="store_true",
                   help="map each method's series to [0, 1] by its min/max")
    p.add_argument("--svg", help="also write a line plot to this path")

    p = add_command("lod-table", cmd_lod_table, ("config", "seed", "range", "out"),
                    "Monte-Carlo detection-limit matrix over methods and drifts")
    p.add_argument("--trials", type=_positive_int, help="override the trial count")

    p = add_command("fit", cmd_fit, ("out", "format"),
                    "fit the adsorption isotherm to a concentration table")
    p.add_argument("series", help="concentration,unit,response table")
    p.add_argument("--three-sigma-blank", type=float, required=True,
                   help="noise floor above the intercept defining the LOD")
    p.add_argument("--curve-points", type=_positive_int, default=200)

    p = add_command("snr", cmd_snr, (),
                    "signal-to-noise ratio between a clean and a noisy spectrum")
    p.add_argument("clean")
    p.add_argument("noisy")

    return parser


def _load_config(args) -> RunConfig:
    config = load_run_config(args.config)
    if args.range_nm is not None:
        config = replace(config, window=WindowConfig(args.range_nm))
    return config


def _resolve_seed(args, config: RunConfig) -> int:
    if args.seed is not None:
        return check_seed(args.seed, "--seed")
    if config.seed is not None:
        return config.seed
    return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])


def _write_file(write, path, *args) -> None:
    """write(path, *args), an unwritable path being a configuration error (exit 2)."""
    try:
        write(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write_file(lambda p: Path(p).write_text(text, encoding="utf-8", newline=""), path)


def _rows_to_text(rows: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(_format_cell(v) for v in row.values())
    return buffer.getvalue()


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def cmd_simulate(args) -> int:
    config = _load_config(args)
    if args.out is None and args.clean_out is None:
        raise ConfigError("give --out and/or --clean-out")
    seed = _resolve_seed(args, config)
    native = replace(config.native, range_nm=args.range_nm or config.native.range_nm)
    clean = simulate_reflectance(config.stack, native.wavelengths())
    if args.clean_out is not None:
        _write_file(write_spectrum, args.clean_out, clean)
    print(f"seed: {seed}")
    if args.out is not None:
        noisy = add_noise(clean, replace(config.noise, seed=seed))
        _write_file(write_spectrum, args.out, noisy)
        snr = measure_snr(clean, noisy)
        label = "infinite" if snr == float("inf") else f"{snr:.2f} dB"
        print(f"achieved S/N: {label}")
    return 0


def _process_one(method: str, config: RunConfig, reference, analyte, reference_eot) -> dict:
    if method == "rifts":
        eot = rifts_eot(analyte, config.window)
        return {"signal": eot, "eot_nm": eot, "delta_eot_nm": eot - reference_eot()}
    if method == "iaw":
        return {"signal": iaw(reference, analyte, config.window)}
    phase = lamp_signal(reference, analyte, config.window)
    return {
        "signal": phase,
        "delta_phase_rad": phase,
        "delta_eot_nm": lamp_to_delta_eot(phase, config.window),
    }


def _run_batch(items, work) -> tuple[list, int]:
    """Rows work(item) for the (label, item) pairs that succeed, each failure on one
    stderr line; exit code 3 if any failed to process, else 2 if any failed to parse.

    The batch runs through _split.split, so a long one may run half in a forked child; the
    rows, the stderr lines and the exit code are those of the serial loop.
    """
    items = list(items)

    def run(part) -> tuple[list, int]:
        rows, code = [], 0
        for label, item in (items[i] for i in part):
            try:
                rows.append(work(item))
            except SpectrumFormatError as exc:
                print(f"error (parse): {label}: {exc}", file=sys.stderr)
                code = code or PARSE_EXIT
            except (FringelabError, ValueError) as exc:
                print(f"error (process): {label}: {exc}", file=sys.stderr)
                code = PROCESS_EXIT
        return rows, code

    parts = split(run, len(items))
    return [row for rows, _ in parts for row in rows], max(code for _, code in parts)


def cmd_process(args) -> int:
    config = _load_config(args)
    reference = read_spectrum(args.reference)
    reference_eot = cache(lambda: rifts_eot(reference, config.window))
    rows, code = _run_batch(((path, path) for path in args.analytes), lambda path: {"file": path,
        **_process_one(args.method, config, reference, read_spectrum(path), reference_eot)})
    _write_text(args.out, _rows_to_text(rows, args.format))
    return code


def cmd_timeseries(args) -> int:
    config = _load_config(args)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    unknown = set(methods) - set(METHODS)
    if not methods or unknown:
        raise ConfigError(f"--methods must name a subset of {METHODS}")
    entries = read_manifest(args.manifest)
    reference_entry = next(e for e in entries if e.role == "reference")
    reference = read_spectrum(reference_entry.path)
    reference_eot = cache(lambda: rifts_eot(reference, config.window))

    def work(entry):
        spectrum = read_spectrum(entry.path)
        signals = {m: _process_one(m, config, reference, spectrum, reference_eot)["signal"]
                   for m in methods}
        return {"timestamp_s": entry.timestamp_s, **signals}

    rows, code = _run_batch(((f"at timestamp {e.timestamp_s:g}", e) for e in entries), work)
    if args.normalize and rows:
        for method in methods:
            values = np.array([row[method] for row in rows])
            span = values.max() - values.min()
            for row, value in zip(rows, values - values.min()):
                row[method] = float(value / span) if span else 0.0
    _write_text(args.out, _rows_to_text(rows, args.format))
    if args.svg is not None and rows:
        stamps = [row["timestamp_s"] for row in rows]
        _write_file(write_polyline_svg, args.svg,
                    {m: (stamps, [r[m] for r in rows]) for m in methods})
    return code


def cmd_lod_table(args) -> int:
    config = _load_config(args)
    seed = _resolve_seed(args, config)
    study = dict(config.study)
    if args.trials is not None:
        study["n_trials"] = args.trials
    try:
        study_cfg = LodStudyConfig(
            stack=config.stack,
            noise=replace(config.noise, seed=seed),
            native=config.native,
            window=config.window,
            **study,
        )
    except ValueError as exc:  # a rule that spans sections: each section was checked at load
        raise ConfigError(f"study configuration: {exc}") from exc
    smoke = study_cfg.n_trials < MIN_REPORTED_TRIALS
    print(f"seed: {seed}")
    if smoke:
        print("smoke mode: trial count below the reporting minimum", file=sys.stderr)
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # every run reports all of them, not only the first
        report = run_table1(study_cfg, allow_smoke_trials=smoke)
    payload = report.to_dict()
    payload["runtime_s"] = time.perf_counter() - started
    payload["smoke"] = smoke
    payload["warnings"] = [str(caught_warning.message) for caught_warning in caught]
    # the none column's sigma_blank / slope against the Cramer-Rao bound; a noiseless study
    # has a bound of 0 and no efficiency
    payload["crlb_riu"] = bound = crlb_delta_n(study_cfg)
    for (method, gradient), cell in report.cells.items():
        if gradient == "none":
            payload["cells"][f"{method}/none"]["efficiency"] = (
                cell.sigma_blank / cell.slope / bound if bound > 0.0 else None)
    for message in payload["warnings"]:
        print(f"warning: {message}", file=sys.stderr)
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    for key, message in sorted(report.failures.items()):
        print(f"cell failed: {key[0]}/{key[1]}: {message}", file=sys.stderr)
    return PROCESS_EXIT if report.failures else 0


def cmd_fit(args) -> int:
    if not 0.0 < args.three_sigma_blank < float("inf"):
        raise ConfigError(f"--three-sigma-blank must be positive and finite, "
                          f"got {args.three_sigma_blank!r}")
    concentrations, unit, groups = read_concentration_table(args.series)
    order = np.argsort(concentrations)
    try:
        series = ConcentrationSeries.from_display(
            [concentrations[i] for i in order],
            [groups[i] for i in order],
            unit=unit,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_redlich_peterson(series)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fit_warnings = [str(caught_warning.message) for caught_warning in caught]
    for message in fit_warnings:
        print(f"warning: {message}", file=sys.stderr)
    lod = lod_concentration(fit, args.three_sigma_blank)
    display = series.display_concentrations()
    positive = display[display > 0]
    curve_c = np.geomspace(positive.min() / 10.0, positive.max(), args.curve_points)
    curve = [
        {"concentration": float(c), "theta_fit": float(model_eval(fit, c))}
        for c in curve_c
    ]
    report = {
        "unit": unit,
        "intercept": fit.intercept,
        "a": fit.a,
        "b": fit.b,
        "beta": fit.beta,
        "reduced_chi2": fit.reduced_chi2,
        "three_sigma_blank": args.three_sigma_blank,
        "lod_concentration": lod,
        "warnings": fit_warnings,
    }
    if args.format == "csv":
        print(json.dumps(report))
        _write_text(args.out, _rows_to_text(curve, "csv"))
    else:
        _write_text(args.out, json.dumps({**report, "curve": curve}, indent=2) + "\n")
    return 0


def cmd_snr(args) -> int:
    clean = read_spectrum(args.clean)
    noisy = read_spectrum(args.noisy)
    value = measure_snr(clean, noisy)
    label = "infinite" if value == float("inf") else f"{value:.2f} dB"
    print(f"S/N: {label}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SpectrumFormatError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except FringelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PROCESS_EXIT


if __name__ == "__main__":
    sys.exit(main())
