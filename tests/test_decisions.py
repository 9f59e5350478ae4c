"""The discrete decisions of the seeded 100-trial tables against committed fixtures.

A change that only rounds differently may move a detection limit's last digits, but no
trial's decisions: rifts' and lamp's padded-peak centre bin (centre / bin width, rounded;
the centre is a bin frequency, so it is the bin itself) and lamp's anchor cycle count.
tests/data/decisions_seed<N>_100.json holds them for run_table1 at seed N (0 and 7), 100
trials and a 27.7 dB white-noise target, on the serial path, per (key, method, trial); they
are compared with ==. The cached reference profile's own decisions are left out, so the
record does not depend on which test filled the cache. Rewrite the fixtures with

    PYTHONPATH=src python tests/test_decisions.py
"""

import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import fringelab.lamp as lamp
import fringelab.legacy as legacy
import fringelab.lodstudy as lodstudy
from fringelab import LodStudyConfig, NoiseModel, run_table1

DATA = Path(__file__).parent / "data"
SEEDS = (0, 7)
N_TRIALS = 100


def capture(seed: int) -> dict:
    """{"delta_n/gradient": {method: {"bins" or "cycles": per-trial list}}} at seed, serially."""
    cfg = LodStudyConfig(noise=NoiseModel(target_snr_db=27.7, seed=seed), n_trials=N_TRIALS)
    keys = lodstudy._lod_keys(cfg, lodstudy.GRADIENTS)
    decisions = {f"{delta_n!r}/{gradient}": {} for delta_n, gradient in keys}
    where = {"reference": False}  # the stack being evaluated: its key, trials and calls
    pending = []  # (name, per-row values) made by the current _evaluate call

    def peaks(original, centre):
        def recorded(rows, delta_sigma, pad_length, *args, **kwargs):
            result = original(rows, delta_sigma, pad_length, *args, **kwargs)
            if not where["reference"]:
                width = 1.0 / (pad_length * delta_sigma)
                pending.append(("bins", [round(centre(p) / width) for p in result]))
            return result
        return recorded

    def anchor_cycle(unwrapped, coarse_eot_nm, sigma_min):
        result = original_anchor(unwrapped, coarse_eot_nm, sigma_min)
        if not where["reference"]:
            cycles = np.round((result[:, 0] - unwrapped[:, 0]) / (2.0 * math.pi))
            pending.append(("cycles", cycles.astype(int).tolist()))
        return result

    def reference_profile(*args):
        where["reference"] = True
        try:
            return original_reference(*args)
        finally:
            where["reference"] = False

    def trial_signals(cfg, methods, reference, white_sigma, ramped, trials):
        # the table's one pass: each chunk of trials, and in it every key's stack in order
        assert len(ramped) == len(keys)
        results = [{method: ([], []) for method in methods} for _ in ramped]
        for start in range(trials.start, trials.stop, lodstudy.CHUNK_ROWS):
            chunk = range(start, min(start + lodstudy.CHUNK_ROWS, trials.stop))
            for (delta_n, gradient), row, result in zip(keys, ramped, results):
                where.update(key=f"{delta_n!r}/{gradient}", trials=list(chunk), calls={})
                [stack] = original_trial_signals(cfg, methods, reference, white_sigma, [row], chunk)
                for method, (signals, errors) in stack.items():
                    result[method][0].extend(signals)
                    result[method][1].extend(errors)
        return results

    def evaluate(cfg, method, reference, rows):
        # call 0 takes the whole stack; after a domain error, call k reruns trial k - 1 alone
        k = where["calls"][method] = where["calls"].get(method, -1) + 1
        trials = where["trials"] if k == 0 else where["trials"][k - 1 : k]
        pending.clear()
        signals = original_evaluate(cfg, method, reference, rows)
        for name, values in pending:
            record = decisions[where["key"]].setdefault(method, {})
            per_trial = record.setdefault(name, [None] * N_TRIALS)
            for trial, value in zip(trials, values, strict=True):
                per_trial[trial] = value
        return signals

    original_anchor, original_reference = lamp.anchor_cycle, lamp._reference_profile
    original_trial_signals, original_evaluate = lodstudy._trial_signals, lodstudy._evaluate
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # iaw's linearity warning
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})  # the serial path
        patch.setattr(lamp, "padded_peak_rows",
                      peaks(lamp.padded_peak_rows, lambda peak: peak.center_frequency_nm))
        patch.setattr(legacy, "padded_centre_rows", peaks(legacy.padded_centre_rows, float))
        patch.setattr(lamp, "anchor_cycle", anchor_cycle)
        patch.setattr(lamp, "_reference_profile", reference_profile)
        patch.setattr(lodstudy, "_trial_signals", trial_signals)
        patch.setattr(lodstudy, "_evaluate", evaluate)
        run_table1(cfg)
    return {"n_trials": N_TRIALS, "master_seed": seed, "decisions": decisions}


def fixture(seed: int) -> Path:
    return DATA / f"decisions_seed{seed}_100.json"


@pytest.mark.parametrize("seed", SEEDS)
def test_decisions_are_unchanged(seed):
    expected = json.loads(fixture(seed).read_text(encoding="utf-8"))
    actual = capture(seed)
    moved = [(key, method, name, trial, old, new)
             for key, methods in expected["decisions"].items()
             for method, record in methods.items()
             for name, values in record.items()
             for trial, (old, new) in enumerate(zip(values, actual["decisions"][key][method][name]))
             if old != new]
    assert moved == []
    assert actual == expected


if __name__ == "__main__":
    for seed in SEEDS:
        fixture(seed).write_text(json.dumps(capture(seed)) + "\n", encoding="utf-8")
