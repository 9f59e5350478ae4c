"""Which one-line mutants of fringelab's gates and stages the tier-1 suite catches.

    python3 tools/mutants.py

Uses the standard library only. Each mutant is a (file, old text, new text, test file) entry
whose old text must occur exactly once in that file. For each, the script copies the tree
(without .git and caches) to a fresh temporary directory (under $TMPDIR), applies the mutant
there, and runs `python -m pytest -q -x -p no:cacheprovider` on the copy: first on the entry's
test file, the one most likely to catch it, and only if that passes on the whole tier-1 suite.
A mutant is caught when either run fails, and survives only if the whole suite passes. The two
criterion-1b cells that fail on purpose (README, Testing) are deselected, so that -x stops only
on a failure the mutant caused; before any mutant, the unmutated copy must pass the whole suite.
It prints one line per mutant, caught (by its test file or by the suite) or survived, with the
time the runs took, and exits 1 if any mutant survived. The working tree is never written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KNOWN_FAILURES = [
    f"tests/test_acceptance.py::test_criterion_1b_cell_matches_reference[{cell}]"
    for cell in ("rifts-amplitude", "iaw-offset")
]

# name -> (file under src/fringelab, old text, new text, the test file run first)
MUTANTS = {
    "anchor_cycle rounds down": (
        "lamp.py", "cycles = np.round((two_pi", "cycles = np.floor((two_pi", "tests/test_lamp.py"),
    "wavelet envelope at +/-3.9 sigma": (
        "lamp.py", "ENVELOPE_HALF_WIDTH_SIGMAS = 4.0", "ENVELOPE_HALF_WIDTH_SIGMAS = 3.9",
        "tests/test_golden.py"),
    "iaw without de-meaning": (
        "legacy.py", "    diff -= diff.mean(axis=1, keepdims=True)\n", "", "tests/test_legacy.py"),
    "failure cap at 2%": (
        "lodstudy.py", "MAX_FAILURE_FRACTION = 0.01", "MAX_FAILURE_FRACTION = 0.02",
        "tests/test_lodstudy.py"),
    "linearity warning at 2x the tolerance": (
        "lodstudy.py", "if abs(ratio - 1.0) > LINEARITY_TOLERANCE:",
        "if abs(ratio - 1.0) > 2 * LINEARITY_TOLERANCE:", "tests/test_lodstudy.py"),
    "transform cutoff at 900 nm": (
        "spectral.py", "LOW_CUTOFF_NM = 1000.0", "LOW_CUTOFF_NM = 900.0", "tests/test_spectral.py"),
    "pad rule at 1.6 nm bins": (
        "wavegrid.py", "MAX_BIN_SPACING_NM = 1.5", "MAX_BIN_SPACING_NM = 1.6",
        "tests/test_wavegrid.py"),
    "detection limit at 3.0 sigma": (
        "lodstudy.py", "lod_riu=3.3 * (", "lod_riu=3.0 * (", "tests/test_lodstudy.py"),
    "blank std with ddof=0": (
        "lodstudy.py", "blank.std(ddof=1)", "blank.std(ddof=0)", "tests/test_lodstudy.py"),
    "reported studies from 99 trials": (
        "lodstudy.py", "MIN_REPORTED_TRIALS = 100", "MIN_REPORTED_TRIALS = 99",
        "tests/test_lodstudy.py"),
    "amplitude floor at 1e-13": (
        "lamp.py", "AMPLITUDE_FLOOR = 1e-12", "AMPLITUDE_FLOOR = 1e-13", "tests/test_lamp.py"),
    "unwrap leaves a +pi step at -pi": (
        "lamp.py", "    folded[(folded == -high) & (step > 0)] = high\n", "",
        "tests/test_lamp.py"),
    "split joins its halves swapped": (
        "_split.py", "return [lower, upper]", "return [upper, lower]", "tests/test_split.py"),
    "per-trial seed (i, seed)": (
        "lodstudy.py", "SeedSequence((master_seed, index))", "SeedSequence((index, master_seed))",
        "tests/test_golden.py"),
    "grid of 2047 points": (
        "wavegrid.py", "DEFAULT_GRID_POINTS = 2048", "DEFAULT_GRID_POINTS = 2047",
        "tests/test_wavegrid.py"),
    "parse failures exit 1": ("cli.py", "PARSE_EXIT = 2", "PARSE_EXIT = 1", "tests/test_cli.py"),
    "processing failures exit 4": (
        "cli.py", "PROCESS_EXIT = 3", "PROCESS_EXIT = 4", "tests/test_cli.py"),
    "linearity tolerance 12%": (
        "lodstudy.py", "LINEARITY_TOLERANCE = 0.10", "LINEARITY_TOLERANCE = 0.12",
        "tests/test_lodstudy.py"),
    "--range leaves the window": (
        "cli.py", "config = replace(config, window=WindowConfig(args.range_nm))",
        "config = replace(config)", "tests/test_cli.py"),
    "simulate's --range leaves the native grid": (
        "cli.py", "range_nm=args.range_nm or config.native.range_nm",
        "range_nm=config.native.range_nm", "tests/test_cli.py"),
    "chunks of 7 trials": ("lodstudy.py", "CHUNK_ROWS = 8", "CHUNK_ROWS = 7",
                           "tests/test_lodstudy.py"),
    "a wavelength range takes text": (
        "filmsim.py", "float(x) if isinstance(x, Real) and not isinstance(x, bool) else math.nan",
        "float(x)", "tests/test_filmsim.py"),
    "an unknown method runs as lamp": (
        "lodstudy.py", "    if any(method not in METHODS for method in methods):\n"
        "        raise ValueError(f\"method must be one of {METHODS}\")\n", "",
        "tests/test_lodstudy.py"),
    "the reduction drops non-finite signals as failed trials": (
        "lodstudy.py", "np.delete(signals, [trial for trial, _, _ in failures])",
        "signals[np.isfinite(signals)]", "tests/test_lodstudy.py"),
    "a group takes a NaN concentration": (
        "isotherm.py", "        check_float(\"concentration\", self.concentration)\n", "",
        "tests/test_isotherm.py"),
}


def apply(dest: Path, file: str, old: str, new: str) -> None:
    path = dest / "src" / "fringelab" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"mutant text {old!r} occurs {text.count(old)} times in {file}, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def fails(tree: Path, *paths: str) -> bool:
    """Whether tier 1 (or only paths) fails on tree, stopping at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            *(arg for test in KNOWN_FAILURES for arg in ("--deselect", test)), *paths]
    run = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode != 0


def suite_fails(tree: Path, first: str | None) -> tuple[str | None, float]:
    """What failed on tree, first (the test file) or "the suite", or None if the whole suite
    passed; and the seconds it took. The whole suite runs only if first passes."""
    started = time.perf_counter()
    if first and fails(tree, first):
        failed = first
    elif fails(tree):
        failed = "the suite"
    else:
        failed = None
    return failed, time.perf_counter() - started


def run_in_copy(mutant: tuple | None) -> tuple[str | None, float]:
    with tempfile.TemporaryDirectory(prefix="fringelab-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks", ".perfbench_out"))
        first = None
        if mutant is not None:
            *change, first = mutant
            apply(tree, *change)
        return suite_fails(tree, first)


def main() -> int:
    failed, seconds = run_in_copy(None)
    if failed:
        print(f"the unmutated suite fails ({seconds:.0f} s): no mutant can be judged")
        return 2
    print(f"unmutated: passes in {seconds:.0f} s")
    survivors = 0
    started = time.perf_counter()
    for name, mutant in MUTANTS.items():
        caught, seconds = run_in_copy(mutant)
        survivors += not caught
        print(f"{'caught' if caught else 'SURVIVED':>8}  {seconds:5.0f} s  {name}"
              f"{f' (by {caught})' if caught else ''}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived, in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
