"""File formats: spectrum tables, time-series manifests, run configuration.

All formats are UTF-8 text, read and decoded in one place: a file that
cannot be read or decoded is a SpectrumFormatError (tables) or a
ConfigError (configuration). Spectra, manifests and concentration series
are comma-separated tables with fixed headers, split into rows by one
reader that checks the header and each row's field count; their numeric
columns must hold finite numbers. Every error names the file, and the
line where there is one. Configuration is a single JSON object whose
sections mirror the library's config dataclasses, with one window for all
three estimators and one native grid for simulation and the study, plus a
seed; every section, the study's included, is checked when it is loaded,
and its error names the section. Floats are written with 17
significant digits so a parse of the written file reproduces the in-memory
values bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import filmsim
from .errors import ConfigError, SpectrumFormatError
from .filmsim import FilmStack, NativeGrid, NoiseModel, Spectrum
from .lodstudy import LodStudyConfig
from .wavegrid import WindowConfig

SPECTRUM_HEADER = "wavelength_nm,reflectance"
MANIFEST_HEADER = "timestamp_s,path,role"
MANIFEST_ROLES = ("reference", "sample")
SERIES_HEADER = "concentration,unit,response"


def _read_text(path, error) -> str:
    """The file's text; a file that cannot be read or decoded as UTF-8 raises error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: {exc}") from exc


def _table_rows(path, header: str) -> list:
    """(line number, fields) of each non-blank row under a fixed header line."""
    lines = _read_text(path, SpectrumFormatError).splitlines()
    if not lines or lines[0].strip() != header:
        raise SpectrumFormatError(f"{path}:1: header must be exactly {header!r}")
    width = header.count(",") + 1
    rows = [(number, line.split(",")) for number, line in enumerate(lines[1:], start=2)
            if line.strip()]
    for number, fields in rows:
        if len(fields) != width:
            raise SpectrumFormatError(f"{path}:{number}: expected {width} fields, got {len(fields)}")
    return rows


def _finite_column(path, rows, column: int) -> np.ndarray:
    """One column of the rows as finite float64; the first bad value names its line."""
    texts = [fields[column] for _, fields in rows]
    try:
        values = np.array(texts, dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    values = []  # numpy refused the column: parse it line by line to name the line at fault
    for (number, _), text in zip(rows, texts):
        try:
            values.append(float(text))
        except ValueError as exc:
            raise SpectrumFormatError(f"{path}:{number}: {exc}") from exc
        if not math.isfinite(values[-1]):
            raise SpectrumFormatError(f"{path}:{number}: {text.strip()!r} is not a finite number")
    return np.array(values)


def _write_table(path, header: str, lines) -> None:
    Path(path).write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def write_spectrum(path, spectrum: Spectrum) -> None:
    _write_table(path, SPECTRUM_HEADER, (f"{wl:.17g},{r:.17g}" for wl, r in
                                         zip(spectrum.wavelengths_nm, spectrum.reflectance)))


def read_spectrum(path) -> Spectrum:
    """Parse a two-column spectrum table, reporting errors by line number."""
    rows = _table_rows(path, SPECTRUM_HEADER)
    try:
        return Spectrum(_finite_column(path, rows, 0), _finite_column(path, rows, 1))
    except ValueError as exc:
        raise SpectrumFormatError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ManifestEntry:
    timestamp_s: float
    path: Path
    role: str


def read_manifest(path) -> tuple[ManifestEntry, ...]:
    """Parse a time-series manifest; spectrum paths resolve relative to it.

    Exactly one entry must carry the reference role, and timestamps must
    be non-decreasing.
    """
    path = Path(path)
    rows = _table_rows(path, MANIFEST_HEADER)
    stamps = _finite_column(path, rows, 0).tolist()
    entries = []
    for (number, (_, rel_path, role)), stamp in zip(rows, stamps):
        role = role.strip()
        if role not in MANIFEST_ROLES:
            raise SpectrumFormatError(f"{path}:{number}: role must be one of {MANIFEST_ROLES}")
        resolved = path.parent / rel_path.strip()
        if not resolved.exists():
            raise SpectrumFormatError(f"{path}:{number}: no such spectrum file {resolved}")
        entries.append(ManifestEntry(stamp, resolved, role))
    if any(b < a for a, b in zip(stamps, stamps[1:])):
        raise SpectrumFormatError(f"{path}: timestamps must be non-decreasing")
    references = [e for e in entries if e.role == "reference"]
    if len(references) != 1:
        raise SpectrumFormatError(
            f"{path}: need exactly one reference entry, found {len(references)}"
        )
    return tuple(entries)


def write_manifest(path, entries) -> None:
    _write_table(path, MANIFEST_HEADER,
                 (f"{e.timestamp_s:.17g},{e.path},{e.role}" for e in entries))


def read_concentration_table(path):
    """Parse concentration,unit,response rows into grouped replicates.

    Repeated concentrations are replicates of one group. Every row must
    declare the same unit. Returns (concentrations, unit, response lists)
    with concentrations in file order of first appearance.
    """
    rows = _table_rows(path, SERIES_HEADER)
    if not rows:
        raise SpectrumFormatError(f"{path}: no data rows")
    units = [fields[1].strip() for _, fields in rows]
    for (number, _), unit in zip(rows, units):
        if unit != units[0]:
            raise SpectrumFormatError(f"{path}:{number}: mixed units {units[0]!r} and {unit!r}")
    groups: dict[float, list] = {}  # insertion-ordered: first appearance
    for concentration, response in zip(_finite_column(path, rows, 0).tolist(),
                                       _finite_column(path, rows, 2).tolist()):
        groups.setdefault(concentration, []).append(response)
    return list(groups), units[0], list(groups.values())


# Section name -> dataclass it mirrors.
_SECTION_TYPES = {
    "stack": FilmStack,
    "noise": NoiseModel,
    "window": WindowConfig,
    "native": NativeGrid,
    "study": LodStudyConfig,
}
# Keys each section takes. The top-level seed is the one seed key, so a noise
# seed is not one; the study takes the other sections as sections, not keys.
_SECTION_KEYS = {name: {f.name for f in dataclasses.fields(cls)} - set(_SECTION_TYPES) - {"seed"}
                 for name, cls in _SECTION_TYPES.items()}
_TOP_LEVEL_KEYS = set(_SECTION_TYPES) | {"seed"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration assembled from a JSON document.

    native is the instrument's one native grid, which simulate samples and the study simulates
    on. study holds the study section's keys, each value as LodStudyConfig checked and stored it
    alone; the rules that span sections (no noise ramps, the trial count after --trials) are
    checked where the study is built from them.
    """

    stack: FilmStack
    noise: NoiseModel
    window: WindowConfig
    native: NativeGrid
    study: dict
    seed: int | None = None


def _section(document: dict, name: str, keys: set, default=None) -> dict:
    """document[name], or default when absent: an object holding only the given keys."""
    payload = document.get(name, default or {})
    if not isinstance(payload, dict):
        raise ConfigError(f"{name!r} section must be an object")
    unknown = set(payload) - keys
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r} section: {sorted(unknown)}")
    return payload


def _build_section(name: str, cls, payload: dict):
    converted = {k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}
    try:
        return cls(**converted)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"invalid {name!r} section: {exc}") from exc


def check_seed(value, name: str) -> int:
    """filmsim.check_seed for a master seed, whose refusal is a ConfigError."""
    try:
        return filmsim.check_seed(value, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path=None, text: str | None = None) -> RunConfig:
    """Load and validate a JSON run configuration; unknown keys are errors."""
    def number(literal):  # refuses NaN, Infinity, -Infinity and overflows such as 1e999
        if not math.isfinite(float(literal)):
            raise ConfigError(f"configuration holds {literal}, which is not a finite number")
        return float(literal)

    def integer(literal):  # refuses integers too large for a float, such as 1 and 400 zeros
        if not math.isfinite(float(literal)):
            raise ConfigError(f"configuration holds a {len(literal.lstrip('-'))}-digit "
                              "integer, too large for a float")
        return int(literal)

    if text is None and path is not None:
        text = _read_text(path, ConfigError)
    try:
        document = {} if text is None else json.loads(text, parse_float=number, parse_int=integer,
                                                      parse_constant=number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(document) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {sorted(unknown)}")
    defaults = {"noise": {"target_snr_db": 27.7}}
    payloads = {name: _section(document, name, _SECTION_KEYS[name], defaults.get(name))
                for name in _SECTION_TYPES}
    sections = {name: _build_section(name, cls, payloads[name])
                for name, cls in _SECTION_TYPES.items()}
    sections["study"] = {key: getattr(sections["study"], key) for key in payloads["study"]}
    seed = None if document.get("seed") is None else check_seed(document["seed"], "'seed'")
    return RunConfig(**sections, seed=seed)


SVG_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b")


def write_polyline_svg(path, series: dict) -> None:
    """Write a minimal 800x400 line plot of signal against time, one polyline per series.

    series maps a label to (x values, y values). Axes are linear with a
    shared x range and a shared y range across all series.
    """
    width, height, margin = 800, 400, 50
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def to_px(x, y):
        px = margin + (x - x_lo) / x_span * plot_w
        py = height - margin - (y - y_lo) / y_span * plot_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        'font-size="13">time (s)</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height / 2:.1f})">signal</text>',
    ]
    for i, (label, (x, y)) in enumerate(series.items()):
        color = SVG_PALETTE[i % len(SVG_PALETTE)]
        points = " ".join(
            "{:.2f},{:.2f}".format(*to_px(xv, yv)) for xv, yv in zip(x, y)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 6}" y="{margin + 16 * (i + 1)}" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
