"""Which one-line mutants of fringelab's gates and stages the tier-1 suite catches.

    python3 tools/mutants.py

Uses the standard library only. For each mutant, a (file, old text, new text)
triple whose old text must occur exactly once in that file, the script copies
the tree (without .git and caches) to a fresh temporary directory (under
$TMPDIR), applies the mutant there, and runs the tier-1 suite on the copy with
`python -m pytest -q -x -p no:cacheprovider`. A mutant is caught when the suite
fails. The two criterion-1b cells that fail on purpose (README, Testing) are
deselected, so that -x stops only on a failure the mutant caused; before any
mutant, the unmutated copy must pass the same run. It prints one line per
mutant, caught or survived, with the time the run took, and exits 1 if any
mutant survived. The working tree is never written.
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

# name -> (file under src/fringelab, old text, new text)
MUTANTS = {
    "anchor_cycle rounds down": (
        "lamp.py", "cycles = np.round((two_pi", "cycles = np.floor((two_pi"),
    "wavelet envelope at +/-3.9 sigma": (
        "lamp.py", "ENVELOPE_HALF_WIDTH_SIGMAS = 4.0", "ENVELOPE_HALF_WIDTH_SIGMAS = 3.9"),
    "iaw without de-meaning": (
        "legacy.py", "    diff -= diff.mean(axis=1, keepdims=True)\n", ""),
    "failure cap at 2%": (
        "lodstudy.py", "MAX_FAILURE_FRACTION = 0.01", "MAX_FAILURE_FRACTION = 0.02"),
    "linearity warning at 2x the tolerance": (
        "lodstudy.py", "if abs(ratio - 1.0) > LINEARITY_TOLERANCE:",
        "if abs(ratio - 1.0) > 2 * LINEARITY_TOLERANCE:"),
    "transform cutoff at 900 nm": (
        "spectral.py", "LOW_CUTOFF_NM = 1000.0", "LOW_CUTOFF_NM = 900.0"),
    "pad rule at 1.6 nm bins": (
        "wavegrid.py", "MAX_BIN_SPACING_NM = 1.5", "MAX_BIN_SPACING_NM = 1.6"),
    "detection limit at 3.0 sigma": (
        "lodstudy.py", "lod_riu=3.3 * (", "lod_riu=3.0 * ("),
    "blank std with ddof=0": (
        "lodstudy.py", "values.std(ddof=1)", "values.std(ddof=0)"),
    "reported studies from 99 trials": (
        "lodstudy.py", "MIN_REPORTED_TRIALS = 100", "MIN_REPORTED_TRIALS = 99"),
    "amplitude floor at 1e-13": (
        "lamp.py", "AMPLITUDE_FLOOR = 1e-12", "AMPLITUDE_FLOOR = 1e-13"),
    "unwrap leaves a +pi step at -pi": (
        "lamp.py", "    folded[(folded == -high) & (step > 0)] = high\n", ""),
    "split joins its halves swapped": (
        "_split.py", "return [lower, upper]", "return [upper, lower]"),
    "per-trial seed (i, seed)": (
        "lodstudy.py", "SeedSequence((master_seed, index))", "SeedSequence((index, master_seed))"),
    "grid of 2047 points": (
        "wavegrid.py", "DEFAULT_GRID_POINTS = 2048", "DEFAULT_GRID_POINTS = 2047"),
    "parse failures exit 1": ("cli.py", "PARSE_EXIT = 2", "PARSE_EXIT = 1"),
    "processing failures exit 4": ("cli.py", "PROCESS_EXIT = 3", "PROCESS_EXIT = 4"),
    "linearity tolerance 12%": (
        "lodstudy.py", "LINEARITY_TOLERANCE = 0.10", "LINEARITY_TOLERANCE = 0.12"),
    "--range leaves the window": (
        "cli.py", "range_nm=args.range_nm, window=WindowConfig(args.range_nm))",
        "range_nm=args.range_nm)"),
    "chunks of 7 trials": ("lodstudy.py", "CHUNK_ROWS = 8", "CHUNK_ROWS = 7"),
    "a wavelength range takes text": (
        "filmsim.py", "float(x) if isinstance(x, Real) and not isinstance(x, bool) else math.nan",
        "float(x)"),
    "an unknown method runs as lamp": (
        "lodstudy.py", "    if any(method not in METHODS for method in methods):\n"
        "        raise ValueError(f\"method must be one of {METHODS}\")\n", ""),
}


def apply(dest: Path, file: str, old: str, new: str) -> None:
    path = dest / "src" / "fringelab" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"mutant text {old!r} occurs {text.count(old)} times in {file}, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def suite_fails(tree: Path) -> tuple[bool, float]:
    """Whether tier 1 fails on tree, stopping at the first failure, and the seconds it took."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            *(arg for test in KNOWN_FAILURES for arg in ("--deselect", test))]
    started = time.perf_counter()
    run = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode != 0, time.perf_counter() - started


def run_in_copy(mutant: tuple | None) -> tuple[bool, float]:
    with tempfile.TemporaryDirectory(prefix="fringelab-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks", ".perfbench_out"))
        if mutant is not None:
            apply(tree, *mutant)
        return suite_fails(tree)


def main() -> int:
    failed, seconds = run_in_copy(None)
    if failed:
        print(f"the unmutated suite fails ({seconds:.0f} s): no mutant can be judged")
        return 2
    print(f"unmutated: passes in {seconds:.0f} s")
    survivors = 0
    for name, mutant in MUTANTS.items():
        caught, seconds = run_in_copy(mutant)
        survivors += not caught
        print(f"{'caught' if caught else 'SURVIVED':>8}  {seconds:5.0f} s  {name}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
