"""The seed-0 100-trial Table 1 from tests/oracle.py's estimators, against run_table1's.

    python3 tools/oracle_table.py

Outside tier 1: it takes about a minute, since the oracle's rifts and lamp each run one full
2**21-point transform per spectrum. It draws each trial's noisy spectra with
fringelab.filmsim (add_noise, the ramps calibrated to the study's S/N floors), trial i
from the seed that SeedSequence((0, i)) generates, and runs the oracle's rifts (peak bin
times bin width), iaw and lamp on every spectrum. Its own reduction then gives each method's
detection limits: the blank's mean and standard deviation (ddof=1), the slope from the
calibration shift, the half-shift ratio, each drift's shift of the blank mean, and
LOD = 3.3 (sigma_blank + delta_g) / slope. It prints, for each field, the worst relative
difference from run_table1's cells at the same configuration, and exits 1 if any cell's
lod_riu differs by more than 1e-9 relative.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
from fringelab.filmsim import (  # noqa: E402
    NoiseModel,
    add_noise,
    calibrate_ramp_magnitude,
    simulate_reflectance,
)
from fringelab.lodstudy import LodStudyConfig, run_table1  # noqa: E402

SEED = 0
N_TRIALS = 100
LOD_REL_TOL = 1e-9
FIELDS = ("sigma_blank", "delta_g", "slope", "linearity_ratio", "lod_riu")


def trial_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


def oracle_cells(cfg: LodStudyConfig) -> dict:
    """{"method/gradient": {field: value}} from the oracle's signals and this reduction."""
    wavelengths = cfg.native.wavelengths()
    reference = simulate_reflectance(cfg.stack, wavelengths)
    white_sigma = cfg.noise.white_sigma(reference)
    reference_phase = oracle.lamp_phase(reference)

    def signals(spectrum) -> dict:
        peak, bin_nm = oracle.rifts_bin(spectrum)
        return {"rifts": peak * bin_nm, "iaw": oracle.iaw(reference, spectrum),
                "lamp": oracle.lamp_signal(reference_phase, spectrum)}

    dn = cfg.calibration_delta_n
    floors = {"offset": ("offset_ramp_magnitude", cfg.offset_snr_db),
              "amplitude": ("amplitude_ramp_gain", cfg.amplitude_snr_db)}
    keys = [(0.0, "none"), (dn, "none"), (dn / 2.0, "none"), (0.0, "offset"),
            (0.0, "amplitude")]
    means, blank_std = {}, {}
    for delta_n, gradient in keys:
        ramp = {}
        if gradient in floors:
            term, floor_db = floors[gradient]
            ramp[term] = calibrate_ramp_magnitude(reference, gradient, floor_db,
                                                  white_sigma=white_sigma)
        clean = simulate_reflectance(cfg.stack.with_film_index_shift(delta_n), wavelengths)
        rows = [signals(add_noise(clean, NoiseModel(gaussian_sigma=white_sigma,
                                                    seed=trial_seed(cfg.noise.seed, i), **ramp)))
                for i in range(cfg.n_trials)]
        for method in rows[0]:
            values = np.array([row[method] for row in rows])
            means[delta_n, gradient, method] = float(np.mean(values))
            if (delta_n, gradient) == (0.0, "none"):
                blank_std[method] = float(np.std(values, ddof=1))
    cells = {}
    for method in blank_std:
        blank = means[0.0, "none", method]
        slope = (means[dn, "none", method] - blank) / dn
        ratio = (means[dn / 2.0, "none", method] - blank) / (dn / 2.0) / slope
        for gradient in ("none", "offset", "amplitude"):
            delta_g = 0.0 if gradient == "none" else abs(means[0.0, gradient, method] - blank)
            cells[f"{method}/{gradient}"] = {
                "sigma_blank": blank_std[method], "delta_g": delta_g, "slope": slope,
                "linearity_ratio": ratio,
                "lod_riu": 3.3 * (blank_std[method] + delta_g) / slope}
    return cells


def relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def main() -> int:
    cfg = LodStudyConfig(noise=NoiseModel(target_snr_db=27.7, seed=SEED), n_trials=N_TRIALS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # iaw's linearity warning
        table = run_table1(cfg).to_dict()["cells"]
    cells = oracle_cells(cfg)
    misses = [key for key, cell in cells.items()
              if "error" in table[key] or relative(table[key]["lod_riu"], cell["lod_riu"])
              > LOD_REL_TOL]
    methods = sorted({key.split("/")[0] for key in cells})
    print("worst relative difference from run_table1, per field and method")
    print(f"{'':16}" + "".join(f"{m:>10}" for m in methods))
    for field in FIELDS:
        worst = [max((relative(table[key][field], cell[field]) for key, cell in cells.items()
                      if key.startswith(f"{method}/") and key not in misses), default=np.nan)
                 for method in methods]
        print(f"{field:16}" + "".join(f"{w:10.2e}" for w in worst))
    for key in misses:
        print(f"MISS  {key}: run_table1 {table[key]}, oracle {cells[key]}")
    print(f"{len(cells) - len(misses)} of {len(cells)} cells within {LOD_REL_TOL:g} rel on "
          f"lod_riu (seed {SEED}, {N_TRIALS} trials)")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
