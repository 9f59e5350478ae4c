"""One workload phase in a fresh interpreter; prints one JSON line.

    python -B perfbench/child.py --workload table1|stream|process \\
        --phase setup|timed|traced --seed N --seconds S [--spans PATH] [-- CLI ARGS]

run.py starts this with PYTHONPATH pointing at the tree under test. The
package is imported only after input generation, and every call into it
goes through a module attribute, so a Tracer sees it.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

import inputs
from tracer import Tracer

TABLE1_TRIALS = 100  # the study's MIN_REPORTED_TRIALS
SMOKE_TRIALS = 4


def clean_reference_eot() -> float:
    """Transform-peak EOT (nm) of the package's own noiseless 768-px reference."""
    from fringelab import filmsim, legacy
    wavelengths = np.linspace(500.0, 800.0, 768)
    return legacy.rifts_eot(filmsim.simulate_reflectance(filmsim.FilmStack(), wavelengths))


def table1_report(seed: int, trials: int) -> dict:
    from fringelab import filmsim, lodstudy
    cfg = lodstudy.LodStudyConfig(
        noise=filmsim.NoiseModel(target_snr_db=inputs.TARGET_SNR_DB, seed=seed),
        n_trials=trials)
    return lodstudy.run_table1(cfg, allow_smoke_trials=trials < TABLE1_TRIALS).to_dict()


def timed_table1(seed: int) -> tuple[float, dict]:
    started = time.perf_counter()
    report = table1_report(seed, TABLE1_TRIALS)
    return time.perf_counter() - started, report


class Stream:
    """Pre-generated spectra fed one at a time through the three estimators."""

    def __init__(self, seed: int, count: int = inputs.STREAM_SPECTRA):
        started = time.perf_counter()
        wavelengths, reference, analytes, self.delta_n = inputs.stream_inputs(seed, count)
        self.gen_s = time.perf_counter() - started
        from fringelab import filmsim
        self.reference = filmsim.Spectrum(wavelengths, reference)
        self.analytes = [filmsim.Spectrum(wavelengths, row) for row in analytes]

    def feed(self, index: int):
        """Signals [lamp rad, rifts nm, iaw] of one spectrum, or the error if one raised."""
        from fringelab import lamp, legacy
        analyte = self.analytes[index % len(self.analytes)]
        try:
            return [lamp.lamp_signal(self.reference, analyte),
                    legacy.rifts_eot(analyte),
                    legacy.iaw(self.reference, analyte)]
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            return repr(exc)

    def one_pass(self, tracer: Tracer | None = None) -> tuple[float, list]:
        started = time.perf_counter()
        signals = []
        for i in range(len(self.analytes)):
            if tracer is not None:
                tracer.op = i
            signals.append(self.feed(i))
        return time.perf_counter() - started, signals


def setup_phase(workload: str, seed: int) -> dict:
    gen_s = 0.0
    if workload == "table1":
        table1_report(seed, SMOKE_TRIALS)
    else:
        stream = Stream(seed, count=2)
        gen_s = stream.gen_s
        stream.feed(1)
    return {"ready": time.perf_counter(), "gen_s": gen_s}


def timed_phase(workload: str, seed: int, seconds: float) -> dict:
    if workload == "table1":
        table1_report(seed, SMOKE_TRIALS)
        walls, reports = [], []
        started = time.perf_counter()
        # At least three repeats for a median; after that, no repeat starts
        # that would, at the median pace, end past the measuring time.
        while len(walls) < 3 or time.perf_counter() - started + np.median(walls) <= seconds:
            wall, report = timed_table1(seed)
            walls.append(wall)
            reports.append(report)
        return {"walls": walls, "reports": reports, "clean_eot": clean_reference_eot()}

    stream = Stream(seed)
    stream.feed(0)
    count = len(stream.analytes)
    latencies, signals, passes, failed_later = [], [], [], 0
    started = pass_started = time.perf_counter()
    i = 0
    # Whole passes until the measuring time is used, then stop mid-pass.
    while i < count or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        out = stream.feed(i)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if i < count:
            signals.append(out)
        elif not isinstance(out, list):
            failed_later += 1
        i += 1
        if i % count == 0:
            passes.append(t1 - pass_started)
            pass_started = time.perf_counter()
    return {"walls": passes, "latencies": latencies, "signals": signals,
            "failed_later": failed_later, "delta_n": stream.delta_n.tolist(),
            "clean_eot": clean_reference_eot()}


def traced_phase(workload: str, seed: int, spans_path: str, cli_args: list) -> dict:
    """An untraced then a traced run of the timed unit, with the layer metrics."""
    if workload == "process":
        import fringelab.cli
        with Tracer() as tracer:
            started = time.perf_counter()
            code = fringelab.cli.main(cli_args)
            traced_s = time.perf_counter() - started
        result = {"exit_code": code}
    elif workload == "table1":
        table1_report(seed, SMOKE_TRIALS)
        untraced_s, report = timed_table1(seed)
        with Tracer() as tracer:
            traced_s, traced_report = timed_table1(seed)
        result = {"untraced_s": untraced_s, "reports": [report, traced_report],
                  "clean_eot": clean_reference_eot()}
    else:
        stream = Stream(seed)
        stream.feed(0)
        untraced_s, signals = stream.one_pass()
        with Tracer() as tracer:
            traced_s, traced_signals = stream.one_pass(tracer)
        result = {"untraced_s": untraced_s, "signals": signals,
                  "traced_signals": traced_signals, "delta_n": stream.delta_n.tolist(),
                  "clean_eot": clean_reference_eot()}
    tracer.dump(spans_path)
    result.update(traced_s=traced_s, layers=tracer.metrics(), absent=tracer.absent,
                  self_sum_s=math.fsum(tracer.self_times()), restored=tracer.restored())
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("table1", "stream", "process"), required=True)
    parser.add_argument("--phase", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()
    if args.phase == "setup":
        result = setup_phase(args.workload, args.seed)
    elif args.phase == "timed":
        result = timed_phase(args.workload, args.seed, args.seconds)
    else:
        result = traced_phase(args.workload, args.seed, args.spans, args.cli_args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
