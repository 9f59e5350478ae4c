"""The seeded 100-trial Table-1 report against a committed fixture, bit for bit.

tests/data/table1_seed0_100.json holds run_table1(...).to_dict() at seed 0,
100 trials and a 27.7 dB white-noise target, written with json.dump. Every
float is compared with == after the same JSON round trip, so any change to
any trial's arithmetic shows here.
"""

import json
import warnings
from pathlib import Path

import pytest

from fringelab import LodStudyConfig, NoiseModel, run_table1
from fringelab.lodstudy import GRADIENTS, METHODS

FIXTURE = Path(__file__).parent / "data" / "table1_seed0_100.json"


@pytest.fixture(scope="module")
def reports():
    cfg = LodStudyConfig(noise=NoiseModel(target_snr_db=27.7, seed=0), n_trials=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # iaw's linearity warning
        actual = json.loads(json.dumps(run_table1(cfg).to_dict()))
    return json.loads(FIXTURE.read_text(encoding="utf-8")), actual


def test_header_matches(reports):
    expected, actual = reports
    assert {k: v for k, v in actual.items() if k != "cells"} == {
        k: v for k, v in expected.items() if k != "cells"}
    assert set(actual["cells"]) == set(expected["cells"])


@pytest.mark.parametrize("cell", [f"{m}/{g}" for m in METHODS for g in GRADIENTS])
def test_cell_is_bit_identical(reports, cell):
    expected, actual = reports
    assert "error" not in actual["cells"][cell]
    assert actual["cells"][cell] == expected["cells"][cell]
