"""fringelab benchmark: one workload, untraced or traced, on the tree under test.

    python3 perfbench/run.py --workload table1|stream|process --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's src/. With --trace 0 the last line of stdout holds the
end-to-end metrics, with --trace 1 the per-layer metrics (see README.md).
Each workload phase runs in a fresh child interpreter; this process only
spawns, times and checks them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import numpy as np

sys.dont_write_bytecode = True  # keep the benchmark's own bytecode out of the tree
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden"

WORKLOADS = ("table1", "stream", "process")
GOLDEN_SEED = 0
SETUP_REPEATS = 3
MIN_PROCESS_CALLS = 3
CHILD_TIMEOUT_S = 170.0
# Golden tolerance: loose enough for reordered floating-point sums, tight
# enough that a transform peak moving by one padded bin fails.
REL_TOL, ABS_TOL = 1e-6, 1e-12
CLEAN_EOT_NM = 5760.21
MIN_STREAM_CORRELATION = 0.99
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


class Child(NamedTuple):
    result: dict
    wall_s: float
    rss_mb: float
    launched: float


def child_env() -> dict:
    """The caller's environment, with the tree under test as the only extra path."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


def spawn(argv: list, workdir: Path, exit_codes: tuple = (0,)) -> Child:
    """Run argv to completion; its wall time, peak RSS and last stdout line.

    os.wait4 gives the resource usage of this child alone. A watchdog
    kills a child that outlives CHILD_TIMEOUT_S. An exit code outside
    exit_codes aborts the benchmark.
    """
    with open(workdir / "stdout", "w+") as out, open(workdir / "stderr", "w+") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - launched
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines = out.read().strip().splitlines()
        if proc.returncode not in exit_codes:
            raise BenchError(f"{' '.join(map(str, argv[:6]))} exited {proc.returncode}:\n"
                             + err.read()[-2000:])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return Child(result, wall_s, usage.ru_maxrss / 1024.0, launched)


def child(workdir: Path, workload: str, phase: str, seed: int, seconds: float = 0.0,
          extra: tuple = ()) -> Child:
    return spawn([sys.executable, "-B", str(HERE / "child.py"), "--workload", workload,
                  "--phase", phase, "--seed", str(seed), "--seconds", str(seconds), *extra],
                 workdir)


def process_args(workdir: Path, files: list, out: Path) -> list:
    return ["process", "--method", "lamp", "--out", str(out), str(workdir / "reference.csv"),
            *map(str, files)]


def process_call(workdir: Path, files: list) -> tuple[Child, list]:
    """One `python -m fringelab.cli process --method lamp` call and its rows.

    Exit code 3 (some files failed) still writes the rows that succeeded;
    the files without a row count as failed operations.
    """
    out = workdir / "rows.json"
    run = spawn([sys.executable, "-B", "-m", "fringelab.cli", *process_args(workdir, files, out)],
                workdir, exit_codes=(0, 3))
    return run, json.loads(out.read_text())


def write_process_inputs(workdir: Path, seed: int) -> list:
    wavelengths, reference, analytes, _ = inputs.process_inputs(seed)
    (workdir / "reference.csv").write_text(inputs.spectrum_text(wavelengths, reference))
    files = []
    for i, row in enumerate(analytes):
        files.append(workdir / f"analyte_{i:02d}.csv")
        files[-1].write_text(inputs.spectrum_text(wavelengths, row))
    return files


def import_times(workdir: Path) -> dict:
    """cli.import_s and cli.import.scipy_s from `-X importtime`."""
    proc = subprocess.run([sys.executable, "-B", "-X", "importtime", "-c", "import fringelab.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    package_us = scipy_us = 0
    ancestors: list[str] = []
    # Lines come children first; reversed, each parent precedes its children.
    for line in reversed(proc.stderr.splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2][1:]
        depth = (len(label) - len(label.lstrip())) // 2
        name = label.strip()
        ancestors = ancestors[:depth]
        cumulative = int(parts[1])
        if depth == 0 and name.split(".")[0] == "fringelab":
            package_us += cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy_us += cumulative
        ancestors.append(name)
    return {"cli.import_s": package_us / 1e6, "cli.import.scipy_s": scipy_us / 1e6}


# ---------------------------------------------------------------- checks


class Tally:
    """Operations attempted and failed, outputs matching golden bit for bit."""

    def __init__(self):
        self.attempted = self.failed = self.exact = 0
        self.broken = False
        self.problems: list[str] = []

    def op(self, label: str, values, golden=None) -> None:
        """Count one operation; values is its output list, or an error string."""
        self.attempted += 1
        if not isinstance(values, list) or not all(map(math.isfinite, values)):
            self.fail(f"{label}: {values}")
        elif golden is not None and values == golden:
            self.exact += 1
        elif golden is not None and (len(values) != len(golden) or not all(
                math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL) for a, b in zip(values, golden))):
            self.fail(f"{label}: {values} outside tolerance of golden {golden}")

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def require(self, ok: bool, problem: str) -> None:
        """A seed-independent invariant; breaking it makes the run incorrect."""
        if not ok:
            self.problems.append(problem)
            self.broken = True


def golden(workload: str) -> dict:
    return json.loads((GOLDEN / f"{workload}.json").read_text())


def check_clean_eot(tally: Tally, clean_eot: float, gold: dict) -> None:
    tally.require(round(clean_eot, 2) == CLEAN_EOT_NM,
                  f"clean-reference EOT {clean_eot!r} nm, expected {CLEAN_EOT_NM}")
    tally.exact += clean_eot == gold["clean_eot"]


def cell_values(cell: dict):
    return "error: " + cell["error"] if "error" in cell else [cell[k] for k in sorted(cell)]


def check_table1(tally: Tally, seed: int, reports: list, clean_eot: float) -> None:
    gold = golden("table1")
    check_clean_eot(tally, clean_eot, gold)
    for repeat, report in enumerate(reports):
        tally.require(report == reports[0], f"table1 repeat {repeat} differs from repeat 0")
        for key, gold_cell in gold["report"]["cells"].items():
            values = cell_values(report["cells"].get(key, {"error": "missing"}))
            reference = cell_values(gold_cell) if seed == GOLDEN_SEED and repeat == 0 else None
            tally.op(f"cell {key}", values, reference)


def check_stream(tally: Tally, seed: int, signals: list, delta_n: list, clean_eot: float) -> None:
    gold = golden("stream")
    check_clean_eot(tally, clean_eot, gold)
    for i, values in enumerate(signals):
        reference = gold["signals"][i] if seed == GOLDEN_SEED or i == 0 else None
        tally.op(f"spectrum {i}", values, reference)
    ok = [i for i, v in enumerate(signals) if isinstance(v, list)]
    lamp = [signals[i][0] for i in ok]
    correlation = float(np.corrcoef(lamp, [delta_n[i] for i in ok])[0, 1]) if len(ok) > 2 else 0.0
    tally.require(correlation >= MIN_STREAM_CORRELATION,
                  f"lamp signal tracks the index ramp with r={correlation:.4f}")


def rows_by_file(rows: list) -> dict:
    """File name -> [signal, delta_phase_rad, delta_eot_nm] of `process` output rows."""
    return {Path(row["file"]).name: [row["signal"], row["delta_phase_rad"], row["delta_eot_nm"]]
            for row in rows}


def check_process(tally: Tally, seed: int, files: list, rows: list) -> None:
    gold = golden("process")["rows"]
    by_name = rows_by_file(rows)
    for i, path in enumerate(files):
        reference = gold[i] if seed == GOLDEN_SEED or i == 0 else None
        tally.op(f"file {path.name}", by_name.get(path.name, "no output row"), reference)


# ---------------------------------------------------------------- runs


def tail(values: list, q: float = 0.9) -> float:
    """Nearest-rank q-quantile, or the highest rank with ten samples above it.

    With 100 samples or more this is p90. A run with too few samples for
    any such rank above the median reports the median: its tail is not
    measured.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(q * n) - 1, n - 11)
    return ordered[rank] if rank > (n - 1) // 2 else statistics.median(ordered)


def end_to_end(workdir: Path, workload: str, seed: int, seconds: float,
               tally: Tally) -> tuple[dict, list]:
    """End-to-end metrics, and figures that are printed but not gated."""
    if workload == "process":
        files = write_process_inputs(workdir, seed)
        setups = [process_call(workdir, files[:1])[0].wall_s for _ in range(SETUP_REPEATS)]
        walls, rss = [], []
        started = time.perf_counter()
        while (len(walls) < MIN_PROCESS_CALLS
               or time.perf_counter() - started + statistics.median(walls) <= seconds):
            run, rows = process_call(workdir, files)
            walls.append(run.wall_s)
            rss.append(run.rss_mb)
            check_process(tally, seed, files, rows)
        latencies, peak_rss = walls, max(rss)
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            run = child(workdir, workload, "setup", seed)
            setups.append(run.result["ready"] - run.launched - run.result["gen_s"])
        run = child(workdir, workload, "timed", seed, seconds)
        walls, peak_rss = run.result["walls"], run.rss_mb
        if workload == "table1":
            latencies = walls
            check_table1(tally, seed, run.result["reports"], run.result["clean_eot"])
        else:
            latencies = run.result["latencies"]
            check_stream(tally, seed, run.result["signals"], run.result["delta_n"],
                         run.result["clean_eot"])
            # Later passes repeat the first pass's inputs; only their failures count.
            tally.attempted += len(latencies) - len(run.result["signals"])
            tally.failed += run.result["failed_later"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "lat_p90_ms": (1e3 * tail(latencies), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    # Not gated: on a shared machine whose speed drifts between two states,
    # these move by up to a quarter between runs (see README.md).
    notes = [("wall_s", statistics.median(walls), "s"),
             ("lat_p50_ms", 1e3 * statistics.median(latencies), "ms"),
             ("lat_p99_ms", 1e3 * tail(latencies, 0.99), "ms"),
             ("latency samples", len(latencies), "count"),
             ("check.exact_outputs", tally.exact, "count")]
    return metrics, notes


def per_layer(workdir: Path, workload: str, seed: int, tally: Tally) -> tuple[dict, list]:
    """Per-layer metrics from one traced run, and the layers found absent."""
    OUT.mkdir(exist_ok=True)
    spans = ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    if workload == "process":
        files = write_process_inputs(workdir, seed)
        untraced, rows = process_call(workdir, files)
        check_process(tally, seed, files, rows)
        traced_out = workdir / "traced_rows.json"
        run = child(workdir, workload, "traced", seed,
                    extra=(*spans, "--", *process_args(workdir, files, traced_out)))
        check_process(tally, seed, files, json.loads(traced_out.read_text()))
        tally.require(run.result["exit_code"] == 0, f"traced CLI exit {run.result['exit_code']}")
        # Both sides are a whole fresh interpreter running the CLI.
        overhead = run.wall_s / untraced.wall_s - 1.0
    else:
        run = child(workdir, workload, "traced", seed, extra=spans)
        result = run.result
        overhead = result["traced_s"] / result["untraced_s"] - 1.0
        if workload == "table1":
            check_table1(tally, seed, result["reports"], result["clean_eot"])
            gap = abs(result["self_sum_s"] - result["traced_s"])
            tally.require(gap <= max(abs(overhead), 1e-3) * result["traced_s"],
                          f"layer self times sum to {result['self_sum_s']:.4f} s, "
                          f"traced wall {result['traced_s']:.4f} s")
        else:
            check_stream(tally, seed, result["signals"], result["delta_n"], result["clean_eot"])
            tally.require(result["traced_signals"] == result["signals"],
                          "tracing changed the stream outputs")
            for i, values in enumerate(result["traced_signals"]):
                tally.op(f"traced spectrum {i}", values)
    tally.require(run.result["restored"], "traced attributes were not restored")
    metrics = dict(run.result["layers"])
    metrics.update(import_times(workdir))
    metrics["trace.overhead_frac"] = overhead
    metrics["check.exact_outputs"] = tally.exact
    absent = run.result["absent"]
    notes = [("absent layers", len(absent), " ".join(absent))] if absent else []
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}, notes


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "import_s": "s", "scipy_s": "s", "bytes": "B",
            "calls_per_call": "1/call", "overhead_frac": "frac"}.get(suffix, "count")


def commit() -> str:
    """HEAD's commit when the tree is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def machine() -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": next((line.split(":", 1)[1].strip() for line in cpuinfo
                     if line.startswith("model name")), platform.processor()),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fringelab" / "__init__.py").is_file():
        print(f"error: no package under test at {SRC / 'fringelab'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        if args.trace:
            metrics, notes = per_layer(workdir, args.workload, args.seed, tally)
        else:
            metrics, notes = end_to_end(workdir, args.workload, args.seed, args.seconds, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes.append(("ops_failed_frac", tally.failed / max(tally.attempted, 1),
                  f"({tally.failed} of {tally.attempted} operations)"))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {unit}")
    for name, value, unit in notes:
        print(f"  {name:42s} {value:>14.6g} {unit}  [not gated]")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}")
    print("machine " + json.dumps(machine()))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.broken,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
