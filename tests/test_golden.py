"""The seeded 100-trial Table-1 reports against committed fixtures, bit for bit.

tests/data/table1_seed<N>_100.json holds run_table1(...).to_dict() at seed N
(0 and 7), 100 trials and a 27.7 dB white-noise target, written with
json.dump. Every float is compared with == after the same JSON round trip,
so any change to any trial's arithmetic shows here. Seed-0 cells keep their
bare ids ("lamp/none"); seed-7 cells are "seed7-lamp/none".
"""

import json
import warnings
from functools import lru_cache
from pathlib import Path

import pytest

from fringelab import LodStudyConfig, NoiseModel, run_table1
from fringelab.lodstudy import GRADIENTS, METHODS

DATA = Path(__file__).parent / "data"
SEEDS = (0, 7)
CELLS = [f"{m}/{g}" for m in METHODS for g in GRADIENTS]


@lru_cache(maxsize=None)
def reports(seed):
    """The committed fixture and a fresh report at this seed, both JSON round-tripped."""
    cfg = LodStudyConfig(noise=NoiseModel(target_snr_db=27.7, seed=seed), n_trials=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # iaw's linearity warning
        actual = json.loads(json.dumps(run_table1(cfg).to_dict()))
    fixture = DATA / f"table1_seed{seed}_100.json"
    return json.loads(fixture.read_text(encoding="utf-8")), actual


def test_header_matches():
    for seed in SEEDS:
        expected, actual = reports(seed)
        assert {k: v for k, v in actual.items() if k != "cells"} == {
            k: v for k, v in expected.items() if k != "cells"}
        assert set(actual["cells"]) == set(expected["cells"])


@pytest.mark.parametrize("seed, cell", [(seed, cell) for seed in SEEDS for cell in CELLS],
                         ids=[cell if seed == 0 else f"seed{seed}-{cell}"
                              for seed in SEEDS for cell in CELLS])
def test_cell_is_bit_identical(seed, cell):
    expected, actual = reports(seed)
    assert "error" not in actual["cells"][cell]
    assert actual["cells"][cell] == expected["cells"][cell]
