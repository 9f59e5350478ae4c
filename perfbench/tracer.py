"""Per-layer spans recorded from outside the package.

A Tracer replaces each layer's public function, at every module attribute
of the package that holds it, with a wrapper that records a span (layer,
lookup site, start, end, parent span, op id) in memory. Because the
pipeline looks its callees up as module globals (fringelab.lamp.padded_peak,
fringelab.lodstudy.lamp_signal, ...), the wrappers see every call without
any change to the package. Leaving the context restores every attribute.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "fringelab"

LAYERS = (
    "filmsim.simulate_reflectance",
    "filmsim.add_noise",
    "wavegrid.to_wavenumber",
    "wavegrid.hann_window",
    "spectral.padded_peak",
    "lamp.design_wavelet",
    "lamp.filter_spectrum",
    "lamp.unwrap_phase",
    "lamp.anchor_cycle",
    "lamp.lamp_signal",
    "legacy.rifts_eot",
    "legacy.iaw",
    "lodstudy.run_table1",
    "io.read_spectrum",
    "cli.main",
)

# Estimator calls looked up from the study module are its trials.
TRIAL_LAYERS = ("lamp.lamp_signal", "legacy.rifts_eot", "legacy.iaw")
# Layers whose calls inside lamp_signal count recomputed reference work.
PER_LAMP_CALL = {"wavegrid.to_wavenumber": "lamp.to_wavenumber.calls_per_call",
                 "spectral.padded_peak": "lamp.padded_peak.calls_per_call"}


class Tracer:
    """Context manager: wraps the layers on entry and restores them on exit."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[list] = []  # [layer, site, start, end, parent, op]
        self.errors: Counter = Counter()  # (layer, site) -> exceptions raised
        self.read_bytes = 0
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def __enter__(self) -> "Tracer":
        originals = {}
        for layer in self.layers:
            module_name, attr = layer.split(".")
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                home = None
            original = getattr(home, attr, None)
            if callable(original):
                originals[layer] = original
            else:
                self.absent.append(layer)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, original in originals.items():
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        wrapper = self._wrap(layer, module.__name__, original)
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)

    def restored(self) -> bool:
        """True when every attribute the tracer patched holds its original again."""
        return all(getattr(module, name) is original
                   for module, name, original in self._patched)

    def _wrap(self, layer: str, site: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [layer, site, clock(), 0.0, parent, self.op]
            spans.append(span)
            stack.append(index)
            if layer == "io.read_spectrum" and args:
                self.read_bytes += os.path.getsize(args[0])
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[layer, site] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self) -> dict:
        """Per-layer calls, self time and errors, plus the derived counts."""
        calls: Counter = Counter()
        site_calls: Counter = Counter()
        self_s: Counter = Counter()
        errors: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            site_calls[span[0], span[1]] += 1
            self_s[span[0]] += own
        for (layer, _), count in self.errors.items():
            errors[layer] += count
        out = {}
        for layer in self.layers:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.errors"] = errors[layer]
        in_lamp = [False] * len(self.spans)
        inner: Counter = Counter()
        for i, (layer, _, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                in_lamp[i] = in_lamp[parent] or self.spans[parent][0] == "lamp.lamp_signal"
            if in_lamp[i]:
                inner[layer] += 1
        lamp_calls = calls["lamp.lamp_signal"]
        for layer, name in PER_LAMP_CALL.items():
            out[name] = inner[layer] / lamp_calls if lamp_calls else 0.0
        study = f"{PACKAGE}.lodstudy"
        out["io.read_spectrum.bytes"] = self.read_bytes
        out["lodstudy.trials_attempted"] = sum(site_calls[layer, study] for layer in TRIAL_LAYERS)
        out["lodstudy.trials_failed"] = sum(self.errors[layer, study] for layer in TRIAL_LAYERS)
        out["trace.absent_layers"] = len(self.absent)
        return out

    def dump(self, path) -> None:
        """Write the spans, one JSON object holding a row per span."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["layer", "site", "start", "end", "parent", "op"],
                       "absent": self.absent, "spans": self.spans}, handle)
