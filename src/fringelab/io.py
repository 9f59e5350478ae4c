"""File formats: spectrum tables, time-series manifests, run configuration.

All formats are plain text. Spectra and manifests are comma-separated
with fixed headers; configuration is a single JSON object whose sections
mirror the library's config dataclasses. Floats are written with 17
significant digits so a parse of the written file reproduces the
in-memory values bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, SpectrumFormatError
from .filmsim import WAVELENGTH_CEIL_NM, WAVELENGTH_FLOOR_NM, FilmStack, NoiseModel, Spectrum
from .lamp import LampConfig
from .legacy import IawConfig, RiftsConfig
from .lodstudy import LodStudyConfig

SPECTRUM_HEADER = "wavelength_nm,reflectance"
MANIFEST_HEADER = "timestamp_s,path,role"
MANIFEST_ROLES = ("reference", "sample")
SERIES_HEADER = "concentration,unit,response"

FLOAT_FORMAT = "%.17g"


def write_spectrum(path, spectrum: Spectrum) -> None:
    lines = [SPECTRUM_HEADER]
    for wl, r in zip(spectrum.wavelengths_nm, spectrum.reflectance):
        lines.append(f"{wl:.17g},{r:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_spectrum(path) -> Spectrum:
    """Parse a two-column spectrum table, reporting errors by line number."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpectrumFormatError(f"{path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != SPECTRUM_HEADER:
        raise SpectrumFormatError(
            f"{path}:1: header must be exactly {SPECTRUM_HEADER!r}"
        )
    wavelengths = []
    reflectance = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SpectrumFormatError(f"{path}:{number}: expected 2 fields, got {len(parts)}")
        try:
            wavelengths.append(float(parts[0]))
            reflectance.append(float(parts[1]))
        except ValueError as exc:
            raise SpectrumFormatError(f"{path}:{number}: {exc}") from exc
    try:
        return Spectrum(np.asarray(wavelengths), np.asarray(reflectance))
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
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SpectrumFormatError(f"{path}: {exc}") from exc
    if not lines or lines[0].strip() != MANIFEST_HEADER:
        raise SpectrumFormatError(f"{path}:1: header must be exactly {MANIFEST_HEADER!r}")
    entries = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise SpectrumFormatError(f"{path}:{number}: expected 3 fields, got {len(parts)}")
        stamp, rel_path, role = (p.strip() for p in parts)
        try:
            timestamp = float(stamp)
        except ValueError as exc:
            raise SpectrumFormatError(f"{path}:{number}: {exc}") from exc
        if role not in MANIFEST_ROLES:
            raise SpectrumFormatError(
                f"{path}:{number}: role must be one of {MANIFEST_ROLES}"
            )
        resolved = path.parent / rel_path
        if not resolved.exists():
            raise SpectrumFormatError(f"{path}:{number}: no such spectrum file {resolved}")
        entries.append(ManifestEntry(timestamp, resolved, role))
    stamps = [e.timestamp_s for e in entries]
    if any(b < a for a, b in zip(stamps, stamps[1:])):
        raise SpectrumFormatError(f"{path}: timestamps must be non-decreasing")
    references = [e for e in entries if e.role == "reference"]
    if len(references) != 1:
        raise SpectrumFormatError(
            f"{path}: need exactly one reference entry, found {len(references)}"
        )
    return tuple(entries)


def write_manifest(path, entries) -> None:
    path = Path(path)
    lines = [MANIFEST_HEADER]
    for entry in entries:
        lines.append(f"{entry.timestamp_s:.17g},{entry.path},{entry.role}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_concentration_table(path):
    """Parse concentration,unit,response rows into grouped replicates.

    Repeated concentrations are replicates of one group. Every row must
    declare the same unit. Returns (concentrations, unit, response lists)
    with concentrations in file order of first appearance.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SpectrumFormatError(f"{path}: {exc}") from exc
    if not lines or lines[0].strip() != SERIES_HEADER:
        raise SpectrumFormatError(f"{path}:1: header must be exactly {SERIES_HEADER!r}")
    unit = None
    order = []
    groups: dict[float, list] = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise SpectrumFormatError(f"{path}:{number}: expected 3 fields, got {len(parts)}")
        try:
            concentration = float(parts[0])
            response = float(parts[2])
        except ValueError as exc:
            raise SpectrumFormatError(f"{path}:{number}: {exc}") from exc
        if unit is None:
            unit = parts[1]
        elif parts[1] != unit:
            raise SpectrumFormatError(
                f"{path}:{number}: mixed units {unit!r} and {parts[1]!r}"
            )
        if concentration not in groups:
            order.append(concentration)
            groups[concentration] = []
        groups[concentration].append(response)
    if unit is None:
        raise SpectrumFormatError(f"{path}: no data rows")
    return order, unit, [groups[c] for c in order]


# Section name -> dataclass it mirrors. The study section is kept as a
# plain mapping because its dataclass embeds the others.
_SECTION_TYPES = {
    "stack": FilmStack,
    "noise": NoiseModel,
    "rifts": RiftsConfig,
    "iaw": IawConfig,
    "lamp": LampConfig,
}
_STUDY_KEYS = {f.name for f in dataclasses.fields(LodStudyConfig)} - set(_SECTION_TYPES)
_TOP_LEVEL_KEYS = set(_SECTION_TYPES) | {"study", "range_nm", "n_points", "seed"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration assembled from a JSON document."""

    stack: FilmStack
    noise: NoiseModel
    rifts: RiftsConfig
    iaw: IawConfig
    lamp: LampConfig
    study: dict
    range_nm: tuple = (500.0, 800.0)
    n_points: int = 768
    seed: int | None = None


def _build_section(name: str, cls, payload: dict):
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - field_names
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r} section: {sorted(unknown)}")
    converted = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in payload.items()
    }
    try:
        return cls(**converted)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name!r} section: {exc}") from exc


def check_range_nm(value) -> tuple[float, float]:
    """A wavelength range as (low, high) nm; ConfigError unless ascending and in the band."""
    try:
        low, high = (float(x) for x in value)
    except (TypeError, ValueError):
        low = high = np.nan
    if not WAVELENGTH_FLOOR_NM <= low < high <= WAVELENGTH_CEIL_NM:
        raise ConfigError(f"wavelength range must be two numbers {WAVELENGTH_FLOOR_NM:g} <= "
                          f"low < high <= {WAVELENGTH_CEIL_NM:g} nm, got {value!r}")
    return low, high


def load_run_config(path=None, text: str | None = None) -> RunConfig:
    """Load and validate a JSON run configuration; unknown keys are errors."""
    if text is None:
        if path is None:
            document = {}
        else:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
    if text is not None:
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(document) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {sorted(unknown)}")
    defaults = {"noise": {"target_snr_db": 27.7}}
    sections = {
        name: _build_section(name, cls, document.get(name, defaults.get(name, {})))
        for name, cls in _SECTION_TYPES.items()
    }
    study = document.get("study", {})
    if not isinstance(study, dict):
        raise ConfigError("'study' section must be an object")
    unknown = set(study) - _STUDY_KEYS
    if unknown:
        raise ConfigError(f"unknown key(s) in 'study' section: {sorted(unknown)}")
    if "native_range_nm" in study:
        study = {**study, "native_range_nm": check_range_nm(study["native_range_nm"])}
    range_nm = check_range_nm(document.get("range_nm", (500.0, 800.0)))
    seed = document.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise ConfigError("'seed' must be a non-negative integer")
    n_points = document.get("n_points", 768)
    if not isinstance(n_points, int) or n_points < 16:
        raise ConfigError("'n_points' must be an integer >= 16")
    return RunConfig(
        stack=sections["stack"],
        noise=sections["noise"],
        rifts=sections["rifts"],
        iaw=sections["iaw"],
        lamp=sections["lamp"],
        study=study,
        range_nm=range_nm,
        n_points=n_points,
        seed=seed,
    )


SVG_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b")


def write_polyline_svg(path, series: dict, width: int = 800, height: int = 400,
                       x_label: str = "time (s)", y_label: str = "signal") -> None:
    """Write a minimal line plot: one polyline per named series.

    series maps a label to (x values, y values). Axes are linear with a
    shared x range and a shared y range across all series.
    """
    margin = 50
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
        f'font-size="13">{x_label}</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height / 2:.1f})">{y_label}</text>',
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
