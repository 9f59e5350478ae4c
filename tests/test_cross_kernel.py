"""The seeded 100-trial tables under two other x86 kernels, within the rounding rule.

The == fixtures (test_golden, test_decisions) hold on the machine tests/data/fingerprint.json
records. This test re-runs both seeded tables in a child process under an emulated other
kernel: OpenBLAS's Haswell core, or numpy's dispatch without AVX-512. Each variant is set in
the child's environment only. It requires every decision (peak bin, anchor cycle) to equal
the fixtures, the rifts and iaw cells to be ==, and each lamp cell's numbers to lie within
the rounding rule's 1e-12 relative of the fixture's. A variant that cannot apply here (not
x86_64, an OpenBLAS that names no core or is already Haswell, a numpy without AVX-512
dispatch, a setting that changes no kernel) is skipped with the reason.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import fingerprint
import fringelab

DATA = Path(__file__).parent / "data"
SEEDS = (0, 7)
ROUNDING_RULE = 1e-12

CHILD = """
import json, sys, warnings
import fingerprint, test_decisions
from fringelab import LodStudyConfig, NoiseModel, run_table1
out = {"machine": fingerprint.machine(), "tables": {}, "decisions": {}}
for seed in (0, 7):
    cfg = LodStudyConfig(noise=NoiseModel(target_snr_db=27.7, seed=seed), n_trials=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # iaw's linearity warning
        out["tables"][seed] = run_table1(cfg).to_dict()
    out["decisions"][seed] = test_decisions.capture(seed)
json.dump(out, sys.stdout)
"""

# name -> the environment variable and value that emulate it in the child
VARIANTS = {
    "openblas-haswell": ("OPENBLAS_CORETYPE", "Haswell"),
    "numpy-without-avx512": ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR"),
}


def inapplicable(variant: str, native: dict):
    """Why variant cannot apply on a machine of fingerprint native, or None where it can."""
    if variant == "openblas-haswell":
        if native["openblas_core"] in ("unknown", "Haswell"):
            return f"OpenBLAS's core here is {native['openblas_core']}"
    elif native["x86_level"] != "X86_V4":
        return f"numpy dispatches no AVX-512 here ({native['x86_level']})"
    return None


def run_child(name: str, value: str) -> dict:
    paths = [str(Path(fringelab.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, name: value, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def relative_moves(cell: dict, fixture: dict) -> list:
    return [abs(cell[key] - fixture[key]) / abs(fixture[key]) if fixture[key] else
            abs(cell[key]) for key in fixture]


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the variants are x86_64 kernels")
@pytest.mark.parametrize("variant", VARIANTS)
def test_tables_under_another_kernel_stay_within_the_rounding_rule(variant):
    reason = inapplicable(variant, fingerprint.machine())
    if reason is not None:
        pytest.skip(reason)
    name, value = VARIANTS[variant]
    child = run_child(name, value)
    if child["machine"] == fingerprint.machine():  # such as an OpenBLAS built for one core
        pytest.skip(f"{name}={value} changes no kernel here")
    for seed in SEEDS:
        decisions = json.loads((DATA / f"decisions_seed{seed}_100.json").read_text())
        assert child["decisions"][str(seed)] == decisions, child["machine"]
        table = child["tables"][str(seed)]
        fixture = json.loads((DATA / f"table1_seed{seed}_100.json").read_text())
        assert {k: v for k, v in table.items() if k != "cells"} == {
            k: v for k, v in fixture.items() if k != "cells"}
        assert set(table["cells"]) == set(fixture["cells"])
        for key, expected in fixture["cells"].items():
            if key.startswith("lamp/"):
                assert max(relative_moves(table["cells"][key], expected)) <= ROUNDING_RULE, key
            else:
                assert table["cells"][key] == expected, key
