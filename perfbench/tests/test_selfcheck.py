"""Self-checks of the benchmark's own machinery, not of fringelab.

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -q -p no:cacheprovider perfbench/tests
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
from child import SMOKE_TRIALS, table1_report  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def package_attributes() -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name.startswith("fringelab") and module is not None
            for attr, value in vars(module).items()}


def test_traced_table1_self_times_sum_to_traced_wall():
    table1_report(1, SMOKE_TRIALS)
    started = time.perf_counter()
    untraced = table1_report(1, SMOKE_TRIALS)
    untraced_s = time.perf_counter() - started
    with Tracer() as tracer:
        started = time.perf_counter()
        traced = table1_report(1, SMOKE_TRIALS)
        traced_s = time.perf_counter() - started
    overhead = traced_s / untraced_s - 1.0
    assert traced == untraced
    assert abs(math.fsum(tracer.self_times()) - traced_s) <= max(abs(overhead), 1e-3) * traced_s
    metrics = tracer.metrics()
    assert metrics["lodstudy.run_table1.calls"] == 1
    assert metrics["lodstudy.trials_attempted"] > 0


def test_wrappers_are_removed_after_the_run():
    import fringelab.cli  # noqa: F401 - load every module that holds a layer
    before = package_attributes()
    with Tracer() as tracer:
        import fringelab.lamp
        assert fringelab.lamp.padded_peak is not before["fringelab.lamp", "padded_peak"]
    assert tracer.restored()
    after = package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_layer_is_reported_absent():
    with Tracer(layers=LAYERS + ("lamp.no_such_stage", "nosuchmodule.run")) as tracer:
        pass
    assert tracer.absent == ["lamp.no_such_stage", "nosuchmodule.run"]
    assert tracer.metrics()["trace.absent_layers"] == 2


def test_same_seed_gives_byte_identical_inputs():
    for make in (inputs.stream_inputs, inputs.process_inputs):
        first, again, other = make(5, 12), make(5, 12), make(6, 12)
        for a, b in zip(first, again):
            assert a.tobytes() == b.tobytes()
        assert first[2][1:].tobytes() != other[2][1:].tobytes()
        assert first[2][0].tobytes() == other[2][0].tobytes()  # the seed-independent anchor

    def spectrum_file(seed):
        wavelengths, _, analytes, _ = inputs.process_inputs(seed, 3)
        return inputs.spectrum_text(wavelengths, analytes[1])

    assert spectrum_file(5) == spectrum_file(5)
