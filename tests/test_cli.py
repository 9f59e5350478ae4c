"""End-to-end command-line behavior, driven through main(argv)."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fringelab
import fringelab.cli as cli
from fringelab import (
    FilmStack,
    ManifestEntry,
    NoiseModel,
    RedlichPetersonFit,
    Spectrum,
    model_eval,
    simulate_reflectance,
    write_manifest,
    write_spectrum,
)
from fringelab.cli import PARSE_EXIT, PROCESS_EXIT, main
from fringelab.io import _SECTION_KEYS, _STUDY_KEYS
from fringelab.lodstudy import CHUNK_ROWS, LodStudyConfig, crlb_delta_n


def write_stack_spectrum(path, delta_n=0.0, n=768, range_nm=(500.0, 800.0)):
    wl = np.linspace(range_nm[0], range_nm[1], n)
    stack = FilmStack().with_film_index_shift(delta_n)
    write_spectrum(path, simulate_reflectance(stack, wl))
    return path


class TestSimulate:
    def test_writes_both_files_and_echoes_seed(self, tmp_path, capsys):
        noisy = tmp_path / "noisy.csv"
        clean = tmp_path / "clean.csv"
        rc = main(["simulate", "--seed", "7", "--out", str(noisy),
                   "--clean-out", str(clean)])
        out = capsys.readouterr().out
        assert rc == 0
        assert noisy.exists() and clean.exists()
        assert "seed: 7" in out
        assert "achieved S/N" in out

    def test_deterministic_for_a_seed(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["simulate", "--seed", "11", "--out", str(a)]) == 0
        assert main(["simulate", "--seed", "11", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_omitted_seed_is_drawn_and_printed(self, tmp_path, capsys):
        first = tmp_path / "first.csv"
        rc = main(["simulate", "--out", str(first)])
        out = capsys.readouterr().out
        assert rc == 0
        seed_line = next(line for line in out.splitlines() if line.startswith("seed: "))
        drawn = int(seed_line.split(": ")[1])
        again = tmp_path / "again.csv"
        assert main(["simulate", "--seed", str(drawn), "--out", str(again)]) == 0
        assert first.read_bytes() == again.read_bytes()

    def test_achieved_snr_near_target(self, tmp_path, capsys):
        rc = main(["simulate", "--seed", "7", "--out", str(tmp_path / "n.csv")])
        out = capsys.readouterr().out
        assert rc == 0
        snr_line = next(line for line in out.splitlines() if "achieved" in line)
        achieved = float(snr_line.split(": ")[1].split()[0])
        assert achieved == pytest.approx(27.7, abs=1.0)

    @pytest.mark.parametrize("sigma", [1e160, 1e300])
    def test_achieved_snr_of_a_white_power_past_the_float_range(self, tmp_path, capsys, sigma):
        # the noise power, about sigma**2, overflows to inf; the S/N is P / sigma**2 in dB
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"noise": {"gaussian_sigma": sigma}}))
        rc = main(["simulate", "--seed", "1", "--config", str(config),
                   "--out", str(tmp_path / "n.csv"), "--clean-out", str(tmp_path / "c.csv")])
        out = capsys.readouterr().out
        assert rc == 0
        achieved = float(out.split("achieved S/N: ")[1].split(" dB")[0])
        clean = fringelab.read_spectrum(tmp_path / "c.csv")
        expected = 10 * math.log10(fringelab.ac_power(clean.reflectance)) - 20 * math.log10(sigma)
        assert achieved == pytest.approx(expected, abs=0.5)

    def test_white_power_below_the_float_range_changes_no_bit(self, tmp_path, capsys):
        # sigma 1e-300 rounds away against reflectances near 0.1
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"noise": {"gaussian_sigma": 1e-300}}))
        rc = main(["simulate", "--seed", "1", "--config", str(config),
                   "--out", str(tmp_path / "n.csv"), "--clean-out", str(tmp_path / "c.csv")])
        assert rc == 0
        assert "achieved S/N: infinite" in capsys.readouterr().out

    def test_requires_an_output(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "1"]) == PARSE_EXIT
        assert "error" in capsys.readouterr().err

    def test_config_seed_used_when_flag_absent(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text('{"seed": 5}')
        rc = main(["simulate", "--config", str(config),
                   "--out", str(tmp_path / "n.csv")])
        assert rc == 0
        assert "seed: 5" in capsys.readouterr().out

    def test_range_flag_controls_the_grid(self, tmp_path, capsys):
        clean = tmp_path / "clean.csv"
        rc = main(["simulate", "--seed", "1", "--range", "520,780",
                   "--clean-out", str(clean)])
        assert rc == 0
        rows = clean.read_text().splitlines()[1:]
        assert float(rows[0].split(",")[0]) == 520.0
        assert float(rows[-1].split(",")[0]) == 780.0


class TestProcess:
    def test_rifts_reports_optical_thickness_step(self, tmp_path, capsys):
        reference = write_stack_spectrum(tmp_path / "ref.csv")
        analyte = write_stack_spectrum(tmp_path / "mod.csv", delta_n=0.01)
        out = tmp_path / "rows.json"
        rc = main(["process", "--method", "rifts", str(reference), str(analyte),
                   "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        assert rows[0]["delta_eot_nm"] == pytest.approx(48.0, abs=3.0)
        assert rows[0]["eot_nm"] == pytest.approx(5808.0, abs=3.0)

    def test_lamp_reference_against_itself_is_zero(self, tmp_path, capsys):
        reference = write_stack_spectrum(tmp_path / "ref.csv")
        out = tmp_path / "rows.json"
        rc = main(["process", "--method", "lamp", str(reference), str(reference),
                   "--out", str(out)])
        assert rc == 0
        row = json.loads(out.read_text())[0]
        assert row["delta_phase_rad"] == 0.0
        assert row["delta_eot_nm"] == 0.0

    def test_lamp_converts_phase_to_thickness(self, tmp_path, capsys):
        reference = write_stack_spectrum(tmp_path / "ref.csv")
        analyte = write_stack_spectrum(tmp_path / "mod.csv", delta_n=0.01)
        out = tmp_path / "rows.json"
        rc = main(["process", "--method", "lamp", str(reference), str(analyte),
                   "--out", str(out)])
        assert rc == 0
        row = json.loads(out.read_text())[0]
        assert row["delta_eot_nm"] == pytest.approx(48.0, rel=0.02)

    def test_grid_mismatch_and_parse_error_exit_differently(self, tmp_path, capsys):
        reference = write_stack_spectrum(tmp_path / "ref.csv")
        offgrid = write_stack_spectrum(tmp_path / "off.csv", n=500)
        malformed = tmp_path / "bad.csv"
        malformed.write_text("lambda,R\n500,0.1\n")
        rc_grid = main(["process", "--method", "iaw", str(reference), str(offgrid),
                        "--out", str(tmp_path / "a.json")])
        rc_parse = main(["process", "--method", "iaw", str(reference), str(malformed),
                         "--out", str(tmp_path / "b.json")])
        assert rc_grid == PROCESS_EXIT
        assert rc_parse == PARSE_EXIT
        assert rc_grid != rc_parse

    def test_partial_failure_keeps_good_rows(self, tmp_path, capsys):
        reference = write_stack_spectrum(tmp_path / "ref.csv")
        good = write_stack_spectrum(tmp_path / "good.csv", delta_n=1e-3)
        offgrid = write_stack_spectrum(tmp_path / "off.csv", n=500)
        out = tmp_path / "rows.json"
        rc = main(["process", "--method", "iaw", str(reference), str(good),
                   str(offgrid), "--out", str(out)])
        assert rc == PROCESS_EXIT
        rows = json.loads(out.read_text())
        assert [r["file"] for r in rows] == [str(good)]
        assert "different wavelength grids" in capsys.readouterr().err

    def test_out_of_range_file_fails_alone(self, tmp_path, capsys):
        wide = (450.0, 800.0)
        reference = write_stack_spectrum(tmp_path / "ref.csv", range_nm=wide)
        good = write_stack_spectrum(tmp_path / "good.csv", delta_n=1e-3, range_nm=wide)
        narrow = write_stack_spectrum(tmp_path / "narrow.csv", delta_n=1e-3)
        out = tmp_path / "rows.json"
        rc = main(["process", "--method", "lamp", "--range", "450,800", str(reference),
                   str(narrow), str(good), "--out", str(out)])
        assert rc == PROCESS_EXIT
        assert [r["file"] for r in json.loads(out.read_text())] == [str(good)]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "narrow.csv" in err[0] and "exceeds sampled range" in err[0]

    def test_csv_format(self, tmp_path, capsys):
        reference = write_stack_spectrum(tmp_path / "ref.csv")
        out = tmp_path / "rows.csv"
        rc = main(["process", "--method", "iaw", "--format", "csv",
                   str(reference), str(reference), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "file,signal"
        assert lines[1].endswith(",0")


FORKS = cli.forks(CHUNK_ROWS + 1, CHUNK_ROWS)
needs_fork = pytest.mark.skipif(not FORKS, reason="the forked path needs fork and 2 CPUs")


def split_batch(tmp_path):
    """A reference and 20 files for `process --range 450,800`: parse failures on files 0, 3 and
    14 and process failures on files 6 and 17, on both sides of the split at 10."""
    wide = (450.0, 800.0)
    write_stack_spectrum(tmp_path / "ref.csv", range_nm=wide)
    names = []
    for i in range(20):
        names.append(f"f{i:02d}.csv")
        if i in (0, 3, 14):
            (tmp_path / names[-1]).write_text("lambda,R\n500,0.1\n")
        elif i in (6, 17):  # narrower than the window
            write_stack_spectrum(tmp_path / names[-1], 1e-4 * i)
        else:
            write_stack_spectrum(tmp_path / names[-1], 1e-4 * i, range_nm=wide)
    return ["process", "--method", "lamp", "--range", "450,800", "ref.csv", *names]


class TestSplitBatch:
    def run(self, capsys, argv, out):
        rc = main([*argv, "--out", out])
        return rc, Path(out).read_bytes(), capsys.readouterr().err.splitlines()

    def counted_joins(self, monkeypatch):
        joins, original = [], cli.fork_join
        monkeypatch.setattr(cli, "fork_join", lambda *halves: joins.append(1) or original(*halves))
        return joins

    @needs_fork
    @pytest.mark.parametrize("dropped", [None, "f06.csv", "f17.csv"],
                             ids=["both", "parse-only-below", "parse-only-above"])
    def test_forked_process_batch_equals_serial(self, tmp_path, capsys, monkeypatch, dropped):
        # without f06 or f17 one half fails to parse only, and the exit code is the other's
        monkeypatch.chdir(tmp_path)
        argv = [arg for arg in split_batch(tmp_path) if arg != dropped]
        joins = self.counted_joins(monkeypatch)
        forked = self.run(capsys, argv, "forked.json")
        assert joins == [1]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = self.run(capsys, argv, "serial.json")
        assert joins == [1]
        assert forked == serial
        rc, rows, err = forked
        assert rc == PROCESS_EXIT
        assert len(json.loads(rows)) == 15
        expected = [["error (parse)", "f00.csv"], ["error (parse)", "f03.csv"],
                    ["error (process)", "f06.csv"], ["error (parse)", "f14.csv"],
                    ["error (process)", "f17.csv"]]
        assert [line.split(": ")[:2] for line in err] == [e for e in expected if e[1] != dropped]

    @needs_fork
    def test_forked_timeseries_equals_serial(self, tmp_path, capsys, monkeypatch):
        entries = [ManifestEntry(0.0, write_stack_spectrum(tmp_path / "ref.csv"), "reference")]
        for i in range(1, 12):  # a grid mismatch on each side of the split at 6
            entries.append(ManifestEntry(
                10.0 * i, write_stack_spectrum(tmp_path / f"s{i}.csv", 1e-4 * i,
                                               n=500 if i in (2, 9) else 768), "sample"))
        write_manifest(tmp_path / "run.manifest", entries)
        argv = ["timeseries", "--manifest", str(tmp_path / "run.manifest"), "--normalize"]
        joins = self.counted_joins(monkeypatch)
        forked = self.run(capsys, argv, str(tmp_path / "forked.json"))
        assert joins == [1]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.run(capsys, argv, str(tmp_path / "serial.json")) == forked
        assert forked[0] == PROCESS_EXIT
        assert [line.split(": ")[1] for line in forked[2]] == ["at timestamp 20",
                                                               "at timestamp 90"]

    @needs_fork
    def test_what_the_child_writes_to_stderr_keeps_its_place(self, tmp_path, capsys,
                                                             monkeypatch):
        # as a warning does: Python's warnings print to sys.stderr when they are raised
        monkeypatch.chdir(tmp_path)
        argv = split_batch(tmp_path)
        original = cli.read_spectrum

        def noted(path):
            print(f"note: reading {path}", file=sys.stderr)
            return original(path)

        monkeypatch.setattr(cli, "read_spectrum", noted)
        forked = self.run(capsys, argv, "forked.json")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.run(capsys, argv, "serial.json") == forked
        assert [line.split(": ")[1] for line in forked[2][-4:]] == [
            "reading f17.csv", "f17.csv", "reading f18.csv", "reading f19.csv"]

    @needs_fork
    def test_bug_in_the_forked_worker_reaches_the_caller(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = split_batch(tmp_path)
        caller, original = os.getpid(), cli.read_spectrum

        def broken(path):
            if os.getpid() != caller:
                raise KeyError("injected bug")
            return original(path)

        monkeypatch.setattr(cli, "read_spectrum", broken)
        with pytest.raises(KeyError, match="injected bug"):
            main([*argv, "--out", "rows.json"])
        assert not (tmp_path / "rows.json").exists()

    def test_batch_at_the_threshold_stays_serial(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        joins = self.counted_joins(monkeypatch)
        rc, _, err = self.run(capsys, split_batch(tmp_path)[:6 + CHUNK_ROWS], "rows.json")
        assert (rc, joins, len(err)) == (PROCESS_EXIT, [], 3)


class TestTimeseries:
    def build_manifest(self, tmp_path, deltas=(0.0, 1e-3, 2e-3, 3e-3)):
        entries = []
        for i, dn in enumerate(deltas):
            p = write_stack_spectrum(tmp_path / f"s{i}.csv", delta_n=dn)
            role = "reference" if i == 0 else "sample"
            entries.append(ManifestEntry(10.0 * i, p, role))
        manifest = tmp_path / "run.manifest"
        write_manifest(manifest, entries)
        return manifest

    def test_staircase_scales_linearly(self, tmp_path, capsys):
        manifest = self.build_manifest(tmp_path)
        out = tmp_path / "ts.csv"
        rc = main(["timeseries", "--manifest", str(manifest), "--methods", "lamp",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp_s,lamp"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values[0] == 0.0
        assert values[2] / values[1] == pytest.approx(2.0, rel=0.05)
        assert values[3] / values[1] == pytest.approx(3.0, rel=0.05)

    def test_normalize_maps_to_unit_interval(self, tmp_path, capsys):
        manifest = self.build_manifest(tmp_path)
        out = tmp_path / "ts.csv"
        rc = main(["timeseries", "--manifest", str(manifest),
                   "--methods", "lamp,rifts", "--normalize",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp_s,lamp,rifts"
        for column in (1, 2):
            values = [float(line.split(",")[column]) for line in lines[1:]]
            assert min(values) == 0.0
            assert max(values) == 1.0

    def test_normalize_constant_series_becomes_zeros(self, tmp_path, capsys):
        manifest = self.build_manifest(tmp_path, deltas=(0.0, 0.0, 0.0))
        out = tmp_path / "ts.csv"
        rc = main(["timeseries", "--manifest", str(manifest), "--methods", "rifts",
                   "--normalize", "--format", "csv", "--out", str(out)])
        assert rc == 0
        values = [float(line.split(",")[1])
                  for line in out.read_text().splitlines()[1:]]
        assert values == [0.0, 0.0, 0.0]

    def test_svg_written(self, tmp_path, capsys):
        manifest = self.build_manifest(tmp_path)
        svg = tmp_path / "ts.svg"
        rc = main(["timeseries", "--manifest", str(manifest), "--methods", "lamp",
                   "--out", str(tmp_path / "ts.csv"), "--svg", str(svg)])
        assert rc == 0
        assert "<polyline" in svg.read_text()

    def test_failure_names_the_timestamp(self, tmp_path, capsys):
        entries = [
            ManifestEntry(0.0, write_stack_spectrum(tmp_path / "ref.csv"), "reference"),
            ManifestEntry(30.0, write_stack_spectrum(tmp_path / "off.csv", n=500), "sample"),
        ]
        manifest = tmp_path / "run.manifest"
        write_manifest(manifest, entries)
        rc = main(["timeseries", "--manifest", str(manifest), "--methods", "iaw",
                   "--out", str(tmp_path / "ts.csv")])
        assert rc == PROCESS_EXIT
        assert "at timestamp 30" in capsys.readouterr().err

    def test_out_of_range_entry_fails_alone(self, tmp_path, capsys):
        wide = (450.0, 800.0)
        entries = [
            ManifestEntry(0.0, write_stack_spectrum(tmp_path / "ref.csv", range_nm=wide),
                          "reference"),
            ManifestEntry(10.0, write_stack_spectrum(tmp_path / "s1.csv", 1e-3, range_nm=wide),
                          "sample"),
            ManifestEntry(20.0, write_stack_spectrum(tmp_path / "s2.csv", 2e-3), "sample"),
        ]
        manifest = tmp_path / "run.manifest"
        write_manifest(manifest, entries)
        out = tmp_path / "ts.json"
        rc = main(["timeseries", "--manifest", str(manifest), "--methods", "lamp,iaw",
                   "--range", "450,800", "--out", str(out)])
        assert rc == PROCESS_EXIT
        assert [row["timestamp_s"] for row in json.loads(out.read_text())] == [0.0, 10.0]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "at timestamp 20" in err[0]

    def test_unknown_method_rejected(self, tmp_path, capsys):
        manifest = self.build_manifest(tmp_path, deltas=(0.0, 1e-3))
        rc = main(["timeseries", "--manifest", str(manifest),
                   "--methods", "lamp,fft", "--out", str(tmp_path / "ts.csv")])
        assert rc == PARSE_EXIT


class TestLodTable:
    def test_smoke_run_is_fast_and_populated(self, tmp_path, capsys):
        import time

        out = tmp_path / "table.json"
        started = time.perf_counter()
        rc = main(["lod-table", "--trials", "10", "--seed", "3", "--out", str(out)])
        elapsed = time.perf_counter() - started
        assert rc == 0
        assert elapsed < 5.0
        payload = json.loads(out.read_text())
        assert payload["smoke"] is True
        assert payload["n_trials"] == 10
        assert payload["master_seed"] == 3
        assert set(payload["cells"]) == {
            f"{m}/{g}" for m in ("rifts", "iaw", "lamp")
            for g in ("none", "offset", "amplitude")
        }
        for cell in payload["cells"].values():
            assert cell["lod_riu"] > 0
        assert payload["runtime_s"] > 0

    def test_reports_identical_modulo_runtime(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            assert main(["lod-table", "--trials", "10", "--seed", "9",
                         "--out", str(target)]) == 0
        payload_a = json.loads(a.read_text())
        payload_b = json.loads(b.read_text())
        payload_a.pop("runtime_s")
        payload_b.pop("runtime_s")
        assert payload_a == payload_b

    def test_warnings_are_one_line_each_and_in_the_report(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        rc = main(["lod-table", "--trials", "4", "--seed", "1", "--out", str(out)])
        assert rc == 0
        recorded = json.loads(out.read_text())["warnings"]
        # iaw's calibration is not linear; every gradient shares it: one warning
        assert len(recorded) == 1
        assert all(message.startswith("iaw response is not linear") for message in recorded)
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("warning: ")] == [
            f"warning: {message}" for message in recorded]
        assert "cli.py:" not in err and "UserWarning" not in err and "run_table1(" not in err

    def test_reports_the_bound_and_each_none_cells_efficiency(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert main(["lod-table", "--trials", "10", "--seed", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        bound = crlb_delta_n(LodStudyConfig(noise=NoiseModel(target_snr_db=27.7, seed=3)))
        assert payload["crlb_riu"] == bound
        for key, cell in payload["cells"].items():
            if key.endswith("/none"):
                assert cell["efficiency"] == cell["sigma_blank"] / cell["slope"] / bound
            else:
                assert "efficiency" not in cell
        # a noiseless study has a bound of 0: no efficiency, and no Infinity or NaN in the file
        config = tmp_path / "noiseless.json"
        config.write_text(json.dumps({"noise": {"gaussian_sigma": 0}}))
        assert main(["lod-table", "--config", str(config), "--trials", "10", "--seed", "3",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert payload["crlb_riu"] == 0.0
        assert [cell["efficiency"] for key, cell in payload["cells"].items()
                if key.endswith("/none")] == [None, None, None]

    def test_film_at_the_index_floor_reports_its_bound(self, tmp_path, capsys):
        # the bound's derivative once stepped below index 1 and ended the run in a traceback;
        # such a film has no fringes, so no S/N target has a white level and no cell an LOD
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"stack": {"film_index": 1.0}}))
        out = tmp_path / "table.json"
        rc = main(["lod-table", "--config", str(config), "--trials", "4", "--seed", "1",
                   "--out", str(out)])
        assert rc == PROCESS_EXIT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith("error: clean spectrum has no fringes")
        assert not out.exists()  # so no LOD of 0 is reported

    def test_bad_trial_count_is_a_config_error(self, tmp_path, capsys):
        rc = main(["lod-table", "--trials", "1", "--seed", "0",
                   "--out", str(tmp_path / "t.json")])
        assert rc == PARSE_EXIT
        assert "study configuration" in capsys.readouterr().err


class TestFit:
    def write_series(self, path, replicates=16, noise=True):
        true = RedlichPetersonFit(intercept=0.08, a=0.82, b=0.47, beta=0.88)
        rng = np.random.default_rng(0)
        rows = ["concentration,unit,response"]
        for c in np.geomspace(3e-6, 300.0, 7):
            theta = model_eval(true, c)
            sigma = 0.015 * theta + 5e-4
            values = rng.normal(theta, sigma, replicates) if noise else [theta] * replicates
            rows.extend(f"{c:.17g},uM,{v:.17g}" for v in values)
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_recovers_detection_limit(self, tmp_path, capsys):
        table = self.write_series(tmp_path / "series.csv")
        out = tmp_path / "fit.json"
        rc = main(["fit", str(table), "--three-sigma-blank", "1.85e-4",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["unit"] == "uM"
        assert payload["lod_concentration"] * 1e3 == pytest.approx(0.22, rel=0.05)
        assert 0.5 < payload["reduced_chi2"] < 2.0
        assert payload["beta"] == pytest.approx(0.88, rel=0.05)
        assert len(payload["curve"]) == 200
        theta = payload["curve"][-1]["theta_fit"]
        assert theta == pytest.approx(0.08 + 0.82 * 300 / (1 + 0.47 * 300**0.88), rel=0.05)
        assert payload["warnings"] == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_zero_variance_group_is_one_warning_line_and_recorded(self, tmp_path, capsys, fmt):
        table = self.write_series(tmp_path / "series.csv", replicates=4)
        header, *rows = table.read_text().splitlines()
        # the lowest concentration's four replicates all read the same response
        table.write_text("\n".join([header, *[rows[0]] * 4, *rows[4:]]) + "\n")
        out = tmp_path / f"fit.{fmt}"
        rc = main(["fit", str(table), "--three-sigma-blank", "1.85e-4", "--format", fmt,
                   "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        payload = json.loads(out.read_text() if fmt == "json" else captured.out)
        assert payload["warnings"] == [
            "zero-variance concentration groups weighted by the pooled variance"]
        assert captured.err.splitlines() == [f"warning: {payload['warnings'][0]}"]

    def test_too_few_groups_is_a_config_error(self, tmp_path, capsys):
        table = tmp_path / "series.csv"
        table.write_text(
            "concentration,unit,response\n"
            "1,uM,0.1\n1,uM,0.11\n10,uM,0.3\n10,uM,0.31\n100,uM,0.5\n100,uM,0.51\n"
        )
        rc = main(["fit", str(table), "--three-sigma-blank", "0.01",
                   "--out", str(tmp_path / "f.json")])
        assert rc == PARSE_EXIT
        assert "at least 4 concentration groups" in capsys.readouterr().err


class TestSnrAndErrors:
    def test_snr_reports_infinite_for_identical_files(self, tmp_path, capsys):
        spectrum = write_stack_spectrum(tmp_path / "s.csv")
        rc = main(["snr", str(spectrum), str(spectrum)])
        assert rc == 0
        assert "infinite" in capsys.readouterr().out

    def test_snr_agrees_with_simulate_echo(self, tmp_path, capsys):
        clean = tmp_path / "clean.csv"
        noisy = tmp_path / "noisy.csv"
        assert main(["simulate", "--seed", "2", "--out", str(noisy),
                     "--clean-out", str(clean)]) == 0
        achieved = capsys.readouterr().out
        rc = main(["snr", str(clean), str(noisy)])
        reported = capsys.readouterr().out
        assert rc == 0
        assert achieved.splitlines()[-1].split(": ")[1] == reported.split(": ")[1].strip()

    def test_snr_on_mismatched_grids_is_a_processing_error(self, tmp_path, capsys):
        clean = write_stack_spectrum(tmp_path / "clean.csv")
        noisy = write_stack_spectrum(tmp_path / "noisy.csv", range_nm=(500.0, 700.0))
        rc = main(["snr", str(clean), str(noisy)])
        err = capsys.readouterr().err
        assert rc == PROCESS_EXIT
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error" in line]) == 1

    def test_snr_of_a_clean_spectrum_without_fringes_is_a_processing_error(self, tmp_path,
                                                                            capsys):
        wl = np.linspace(500.0, 800.0, 768)
        write_spectrum(tmp_path / "flat.csv", Spectrum(wl, np.full(wl.size, 0.3)))
        noisy = write_stack_spectrum(tmp_path / "noisy.csv")
        rc = main(["snr", str(tmp_path / "flat.csv"), str(noisy)])
        err = capsys.readouterr().err
        assert rc == PROCESS_EXIT
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: clean spectrum has no fringes")

    def test_missing_input_file_is_a_parse_error(self, tmp_path, capsys):
        rc = main(["process", "--method", "rifts",
                   str(tmp_path / "ghost.csv"), str(tmp_path / "also.csv")])
        assert rc == PARSE_EXIT

    def test_unknown_subcommand_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_range_flag_raises_system_exit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--range", "500", "--out", str(tmp_path / "n.csv")])


def true_key_cases():
    """`true` for each numeric config key (complex(True) and int(True) are 1): under lod-table,
    without --trials, which would override study.n_trials; under simulate too for the stack
    and noise sections, which it reads. A noise section needs its S/N target."""
    sections = {**_SECTION_KEYS, "study": _STUDY_KEYS}
    for section, keys in sections.items():
        commands = ("lod-table", "simulate") if section in ("stack", "noise") else ("lod-table",)
        base = {"target_snr_db": 27.7} if section == "noise" else {}
        for key in sorted(keys):
            config = json.dumps({section: {**base, key: True}})
            for command in commands:
                yield pytest.param([command, "--seed", "1"], config,
                                   id=f"{command}-{section}.{key}-true")
    for key in ("range_nm", "n_points", "seed"):
        yield pytest.param(["lod-table", "--seed", "1"], json.dumps({key: True}),
                           id=f"lod-table-{key}-true")


@pytest.mark.parametrize(
    "argv, config",
    [
        (["simulate", "--range", "800,500"], None),
        (["simulate", "--range", "a,b"], None),
        (["simulate", "--range=-100,500"], None),
        (["simulate", "--range", "500,inf"], None),
        (["simulate"], '{"range_nm": ["a", "b"]}'),
        (["simulate"], '{"range_nm": [800, 500]}'),
        (["simulate"], '{"range_nm": [0, 500]}'),
        (["simulate"], '{"range_nm": 500}'),
        (["fit", "series.csv", "--three-sigma-blank", "0.01", "--curve-points", "-1"], None),
        (["fit", "series.csv", "--three-sigma-blank", "0.01", "--curve-points", "0"], None),
        (["lod-table", "--trials", "0"], None),
        (["lod-table", "--trials", "many"], None),
        (["simulate", "--range", "100,300"], None),
        (["simulate"], '{"range_nm": [500, 2500]}'),
        (["lod-table"], '{"study": {"native_range_nm": 5}}'),
        (["lod-table"], '{"study": {"native_range_nm": [100, 300]}}'),
        (["process", "--method", "rifts", "ref.csv", "a.csv"], '{"rifts": 5}'),
        (["lod-table"], '{"rifts": 5}'),
        (["process", "--method", "rifts", "ref.csv", "a.csv"], '{"noise": [1, 2]}'),
        (["lod-table"], '{"noise": [1, 2]}'),
        (["fit", "series.csv", "--three-sigma-blank", "-1"], None),
        (["fit", "series.csv", "--three-sigma-blank", "0"], None),
        (["fit", "series.csv", "--three-sigma-blank", "nan"], None),
        (["fit", "series.csv", "--three-sigma-blank", "inf"], None),
        (["simulate", "--seed", "1"], '{"noise": {"target_snr_db": NaN}}'),
        (["lod-table", "--trials", "4", "--seed", "1"], '{"study": {"offset_snr_db": NaN}}'),
        (["simulate", "--seed", "1"], '{"stack": {"film_thickness_nm": Infinity}}'),
        (["simulate", "--seed", "1"], '{"stack": {"film_thickness_nm": 1e999}}'),
        (["simulate"], '{"seed": 18446744073709551616}'),
        (["lod-table", "--trials", "4"], '{"seed": 18446744073709551616}'),
        (["simulate", "--seed", "18446744073709551616"], None),
        pytest.param(["simulate", "--seed", "1"], '{"stack": {"film_thickness_nm": 1%s}}'
                     % ("0" * 400), id="stack-integer-too-large-for-a-float"),
        pytest.param(["simulate", "--seed", "1"], '{"noise": {"target_snr_db": 1%s}}'
                     % ("0" * 400), id="noise-integer-too-large-for-a-float"),
        pytest.param(["lod-table", "--trials", "4", "--seed", "1"],
                     '{"study": {"calibration_delta_n": 1%s}}' % ("0" * 400),
                     id="study-integer-too-large-for-a-float"),
        # a value of the wrong type, each of which once ran on to a traceback
        (["lod-table", "--trials", "4", "--seed", "1"], '{"rifts": {"n_points": 2048.0}}'),
        (["lod-table", "--seed", "1"], '{"study": {"n_trials": 12.0}}'),
        (["lod-table", "--trials", "4", "--seed", "1"], '{"study": {"native_points": 768.0}}'),
        (["lod-table", "--trials", "4", "--seed", "1"], '{"noise": {"target_snr_db": "x"}}'),
        (["lod-table", "--trials", "4", "--seed", "1"], '{"study": {"offset_snr_db": "x"}}'),
        (["simulate", "--seed", "1"], '{"stack": {"film_thickness_nm": true}}'),
        (["lod-table", "--trials", "4", "--seed", "1"], '{"stack": {"film_index": "x"}}'),
        (["lod-table", "--trials", "4", "--seed", "1"], '{"study": {"calibration_delta_n": "x"}}'),
        (["lod-table", "--trials", "4", "--seed", "1"],
         '{"noise": {"gaussian_sigma": "x", "target_snr_db": null}}'),
        *true_key_cases(),
    ],
)
def test_bad_arguments_exit_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    TestFit().write_series(tmp_path / "series.csv")
    argv = [*argv, "--out", "out"]
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv += ["--config", "run.json"]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects a flag after printing its usage
        rc = exc.code
    assert rc == PARSE_EXIT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error" in line]) == 1


@pytest.mark.parametrize("argv, first_error", [
    (["process", "--method", "lamp", "bad", "s1.csv", "--out", "out"], "error: bad: "),
    (["process", "--method", "lamp", "s0.csv", "bad", "--out", "out"],
     "error (parse): bad: bad: "),
    (["snr", "s0.csv", "bad"], "error: bad: "),
    (["fit", "bad", "--three-sigma-blank", "0.01", "--out", "out"], "error: bad: "),
    (["timeseries", "--manifest", "bad", "--methods", "lamp", "--out", "out"], "error: bad: "),
    (["simulate", "--seed", "1", "--config", "bad", "--out", "out"], "error: bad: "),
], ids=["process-reference", "process-analyte", "snr", "fit", "timeseries-manifest", "config"])
def test_undecodable_input_is_a_parse_error(tmp_path, capsys, monkeypatch, argv, first_error):
    monkeypatch.chdir(tmp_path)
    TestTimeseries().build_manifest(tmp_path)
    (tmp_path / "bad").write_bytes(b"\xff\xfe\x00bad")  # not UTF-8
    assert main(argv) == PARSE_EXIT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith(first_error)
    assert "utf-8" in errors[0]


UNREAD_FLAG_VALUES = {"--config": "run.json", "--seed": "1", "--range": "600,700",
                      "--out": "out", "--format": "csv"}


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--seed", "1", "--out", "n.csv"], "--format"),
    (["process", "--method", "lamp", "s0.csv", "s1.csv"], "--seed"),
    (["timeseries", "--manifest", "run.manifest", "--methods", "lamp"], "--seed"),
    (["lod-table", "--trials", "4", "--seed", "1", "--out", "table.json"], "--format"),
    *((["fit", "series.csv", "--three-sigma-blank", "0.01"], flag)
      for flag in ("--config", "--seed", "--range")),
    *((["snr", "s0.csv", "s1.csv"], flag) for flag in UNREAD_FLAG_VALUES),
])
def test_shared_flag_the_subcommand_does_not_read_is_rejected(tmp_path, capsys, monkeypatch,
                                                              argv, flag):
    # each of these was accepted and then ignored while every subcommand took all five flags
    monkeypatch.chdir(tmp_path)
    TestTimeseries().build_manifest(tmp_path)
    TestFit().write_series(tmp_path / "series.csv")
    (tmp_path / "run.json").write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, UNREAD_FLAG_VALUES[flag]])
    assert exc.value.code == PARSE_EXIT
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [f"fringelab: error: unrecognized arguments: "
                      f"{flag} {UNREAD_FLAG_VALUES[flag]}"]


@pytest.mark.parametrize("command", ["process", "lod-table"])
@pytest.mark.parametrize("config", [
    '{"lamp": {"range_nm": [800, 500]}}',
    '{"rifts": {"range_nm": [800, 500]}}',
    '{"iaw": {"range_nm": [800, 500]}}',
    '{"lamp": {"n_points": 8}}',
    '{"iaw": {"range_nm": [100, 3000]}}',
])
def test_bad_section_window_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                        command, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(config)
    if command == "process":  # the method whose section is bad
        write_stack_spectrum(tmp_path / "ref.csv")
        write_stack_spectrum(tmp_path / "a.csv", 1e-3)
        argv = ["process", "--method", next(iter(json.loads(config))), "ref.csv", "a.csv"]
    else:
        argv = ["lod-table", "--trials", "4", "--seed", "1"]
    assert main([*argv, "--config", "run.json", "--out", "out"]) == PARSE_EXIT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error" in line] == [err.strip()]
    assert err.startswith("error: invalid ")


NARROW_IAW = '{"iaw": {"range_nm": [600, 600.1]}}'  # no native sample inside


@pytest.mark.parametrize("flags, failing, reason", [
    (["--range", "600,610"], {"rifts", "lamp"}, "too narrow"),
    (["--config", "run.json"], {"iaw"}, "fewer than two samples"),
], ids=["range-600-610", "iaw-600-600.1"])
def test_window_too_narrow_fails_its_table_cells(tmp_path, capsys, monkeypatch,
                                                 flags, failing, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(NARROW_IAW)
    rc = main(["lod-table", "--trials", "4", "--seed", "1", *flags, "--out", "table.json"])
    assert rc == PROCESS_EXIT
    cells = json.loads((tmp_path / "table.json").read_text())["cells"]
    assert {key.split("/")[0] for key, cell in cells.items() if "error" in cell} == failing
    assert all(reason in cells[f"{m}/{g}"]["error"]
               for m in failing for g in ("none", "offset", "amplitude"))
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("method, flags, reason", [
    ("rifts", ["--range", "600,610"], "too narrow"),
    ("lamp", ["--range", "600,610"], "too narrow"),
    ("iaw", ["--config", "run.json"], "fewer than two samples"),
], ids=["rifts", "lamp", "iaw"])
def test_window_too_narrow_fails_each_processed_file(tmp_path, capsys, monkeypatch,
                                                     method, flags, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(NARROW_IAW)
    write_stack_spectrum(tmp_path / "ref.csv")
    for name in ("a.csv", "b.csv"):
        write_stack_spectrum(tmp_path / name, 1e-3)
    rc = main(["process", "--method", method, "ref.csv", "a.csv", "b.csv", *flags])
    assert rc == PROCESS_EXIT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert [line.split(": ")[:2] for line in lines] == [["error (process)", "a.csv"],
                                                        ["error (process)", "b.csv"]]
    assert all(reason in line for line in lines)


@pytest.mark.parametrize("argv", [["lod-table", "--trials", "4", "--seed", "1"],
                                  ["simulate", "--seed", "1"]], ids=["lod-table", "simulate"])
@pytest.mark.parametrize("config", [
    '{"noise": {"gaussian_sigma": 1e-300}}',
    '{"noise": {"gaussian_sigma": 1e160}}',
    '{"noise": {"gaussian_sigma": 1e300}}',
    # a floor below the white one: the bisection squares sigma
    '{"noise": {"gaussian_sigma": 1e160}, "study": {"offset_snr_db": -1e4}}',
], ids=["sigma-1e-300", "sigma-1e160", "sigma-1e300", "sigma-1e160-floor-below-white"])
def test_float_extreme_white_sigma_ends_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                            argv, config):
    # the white floor once divided by sigma**2, which is 0 or overflows at these sigmas, and
    # the achieved S/N took the log of a noise power that overflowed to inf
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(config)
    rc = main([*argv, "--config", "run.json", "--out", "out"])
    assert rc in (0, PARSE_EXIT, PROCESS_EXIT)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "1", "--out", "{missing}/noisy.csv"],
        ["simulate", "--seed", "1", "--clean-out", "{missing}/clean.csv"],
        ["simulate", "--seed", "1", "--out", "."],
        ["process", "--method", "lamp", "s0.csv", "s1.csv", "--out", "{missing}/rows.json"],
        ["timeseries", "--manifest", "run.manifest", "--methods", "lamp",
         "--out", "ts.csv", "--svg", "{missing}/ts.svg"],
        ["lod-table", "--trials", "4", "--seed", "1", "--out", "{missing}/table.json"],
    ],
)
def test_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    TestTimeseries().build_manifest(tmp_path)
    missing = tmp_path / "no" / "such"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the smoke table's linearity warnings
        rc = main([arg.format(missing=missing) for arg in argv])
    assert rc == PARSE_EXIT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("error: cannot write ")
    assert not missing.parent.exists()


def test_cli_import_and_lamp_process_never_load_scipy(tmp_path):
    # scipy costs ~0.5 s of start-up and no fringelab module imports it; it
    # is only the tests' reference. No fringelab module imports multiprocessing
    # (~8 ms) either: a forked table or batch is one os.fork and a pipe.
    reference = write_stack_spectrum(tmp_path / "ref.csv")
    analyte = write_stack_spectrum(tmp_path / "mod.csv", delta_n=1e-3)
    table = TestFit().write_series(tmp_path / "series.csv")
    script = (
        "import sys, warnings, fringelab.cli\n"
        "from fringelab import RedlichPetersonFit, lod_concentration\n"
        "lazy = lambda: sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'multiprocessing'))\n"
        "print(lazy())\n"
        "rc = fringelab.cli.main(['process', '--method', 'lamp', sys.argv[1], sys.argv[2],"
        " '--out', sys.argv[3]])\n"
        "print(rc, lazy())\n"
        "rc = fringelab.cli.main(['fit', sys.argv[4], '--three-sigma-blank', '1.85e-4',"
        " '--out', sys.argv[5]])\n"
        "lod_concentration(RedlichPetersonFit(intercept=0.08, a=0.82, b=0.47, beta=0.88), 1.85e-4)\n"
        "print(rc, lazy())\n"
        # past CHUNK_ROWS trials and files, both run forked where two CPUs allow
        "warnings.simplefilter('ignore')  # the smoke table's linearity warnings\n"
        "rc = fringelab.cli.main(['lod-table', '--trials', '16', '--seed', '1',"
        " '--out', sys.argv[6]])\n"
        "print(rc, lazy())\n"
        "rc = fringelab.cli.main(['process', '--method', 'lamp', sys.argv[1],"
        " *[sys.argv[2]] * 12, '--out', sys.argv[3]])\n"
        "print(rc, lazy())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fringelab.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, str(reference), str(analyte), str(tmp_path / "rows.json"),
         str(table), str(tmp_path / "fit.json"), str(tmp_path / "table.json")],
        capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines() == ["[]", "0 []", "0 []", "seed: 1", "0 []", "0 []"]
    assert len(json.loads((tmp_path / "rows.json").read_text())) == 12


def test_rifts_and_the_smoke_table_never_load_scipy(tmp_path):
    # rifts resamples through fringelab's own natural spline, not scipy's
    reference = write_stack_spectrum(tmp_path / "ref.csv")
    analyte = write_stack_spectrum(tmp_path / "mod.csv", delta_n=1e-3)
    script = (
        "import sys, warnings, fringelab.cli\n"
        "from fringelab import LodStudyConfig, read_spectrum, rifts_eot, run_table1\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "rifts_eot(read_spectrum(sys.argv[1]))\n"
        "print(scipy())\n"
        "rc = fringelab.cli.main(['process', '--method', 'rifts', sys.argv[1], sys.argv[2],"
        " '--out', sys.argv[3]])\n"
        "print(rc, scipy())\n"
        "warnings.simplefilter('ignore')  # the smoke table's linearity warnings\n"
        "run_table1(LodStudyConfig(n_trials=4), allow_smoke_trials=True)\n"
        "print(scipy())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fringelab.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, str(reference), str(analyte), str(tmp_path / "rows.json")],
        capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines() == ["[]", "0 []", "[]"]
