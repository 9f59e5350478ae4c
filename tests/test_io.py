"""File-format round trips and validation errors."""

import numpy as np
import pytest

from fringelab import (
    ConfigError,
    FilmStack,
    ManifestEntry,
    NativeGrid,
    Spectrum,
    SpectrumFormatError,
    WindowConfig,
    load_run_config,
    read_concentration_table,
    read_manifest,
    read_spectrum,
    simulate_reflectance,
    write_manifest,
    write_polyline_svg,
    write_spectrum,
)


def sample_spectrum(n=64, seed=0):
    rng = np.random.default_rng(seed)
    wl = np.linspace(500.0, 800.0, n)
    return Spectrum(wl, rng.uniform(0.05, 0.35, n))


class TestSpectrumFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        spectrum = sample_spectrum()
        path = tmp_path / "s.csv"
        write_spectrum(path, spectrum)
        back = read_spectrum(path)
        assert np.array_equal(back.wavelengths_nm, spectrum.wavelengths_nm)
        assert np.array_equal(back.reflectance, spectrum.reflectance)

    def test_simulated_spectrum_survives_round_trip(self, tmp_path):
        wl = np.linspace(500.0, 800.0, 768)
        spectrum = simulate_reflectance(FilmStack(), wl)
        path = tmp_path / "sim.csv"
        write_spectrum(path, spectrum)
        back = read_spectrum(path)
        assert np.array_equal(back.reflectance, spectrum.reflectance)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpectrumFormatError):
            read_spectrum(tmp_path / "absent.csv")

    def test_wrong_header_names_line_one(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("lambda,R\n500,0.1\n501,0.2\n")
        with pytest.raises(SpectrumFormatError, match=r"s\.csv:1: header"):
            read_spectrum(path)

    def test_bad_row_names_its_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,reflectance\n500,0.1\n501,oops\n")
        with pytest.raises(SpectrumFormatError, match=r"s\.csv:3"):
            read_spectrum(path)

    def test_wrong_field_count_names_its_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,reflectance\n500,0.1,9\n")
        with pytest.raises(SpectrumFormatError, match=r"s\.csv:2: expected 2 fields"):
            read_spectrum(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,reflectance\n\n500,0.1\n\n501,0.2\n")
        back = read_spectrum(path)
        assert len(back) == 2

    def test_descending_wavelengths_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,reflectance\n501,0.1\n500,0.2\n")
        with pytest.raises(SpectrumFormatError, match="ascending"):
            read_spectrum(path)


class TestManifests:
    def write_files(self, tmp_path, n=3):
        paths = []
        for i in range(n):
            p = tmp_path / f"s{i}.csv"
            write_spectrum(p, sample_spectrum(seed=i))
            paths.append(p)
        return paths

    def test_round_trip(self, tmp_path):
        paths = self.write_files(tmp_path)
        entries = [ManifestEntry(0.0, paths[0], "reference"),
                   ManifestEntry(5.0, paths[1], "sample"),
                   ManifestEntry(10.0, paths[2], "sample")]
        manifest = tmp_path / "run.manifest"
        write_manifest(manifest, entries)
        back = read_manifest(manifest)
        assert [e.timestamp_s for e in back] == [0.0, 5.0, 10.0]
        assert [e.role for e in back] == ["reference", "sample", "sample"]
        assert all(e.path.exists() for e in back)

    def test_relative_paths_resolve_against_manifest(self, tmp_path):
        self.write_files(tmp_path, n=1)
        manifest = tmp_path / "run.manifest"
        manifest.write_text("timestamp_s,path,role\n0,s0.csv,reference\n")
        back = read_manifest(manifest)
        assert back[0].path == tmp_path / "s0.csv"

    def test_missing_spectrum_file_rejected(self, tmp_path):
        manifest = tmp_path / "run.manifest"
        manifest.write_text("timestamp_s,path,role\n0,ghost.csv,reference\n")
        with pytest.raises(SpectrumFormatError, match="no such spectrum file"):
            read_manifest(manifest)

    def test_unknown_role_rejected(self, tmp_path):
        paths = self.write_files(tmp_path, n=1)
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"timestamp_s,path,role\n0,{paths[0].name},blank\n")
        with pytest.raises(SpectrumFormatError, match="role must be one of"):
            read_manifest(manifest)

    def test_decreasing_timestamps_rejected(self, tmp_path):
        paths = self.write_files(tmp_path, n=2)
        manifest = tmp_path / "run.manifest"
        manifest.write_text(
            "timestamp_s,path,role\n"
            f"5,{paths[0].name},reference\n"
            f"1,{paths[1].name},sample\n"
        )
        with pytest.raises(SpectrumFormatError, match="non-decreasing"):
            read_manifest(manifest)

    @pytest.mark.parametrize("roles", [("sample", "sample"), ("reference", "reference")])
    def test_exactly_one_reference_required(self, tmp_path, roles):
        paths = self.write_files(tmp_path, n=2)
        manifest = tmp_path / "run.manifest"
        manifest.write_text(
            "timestamp_s,path,role\n"
            f"0,{paths[0].name},{roles[0]}\n"
            f"1,{paths[1].name},{roles[1]}\n"
        )
        with pytest.raises(SpectrumFormatError, match="exactly one reference"):
            read_manifest(manifest)


class TestConcentrationTables:
    def test_replicates_group_by_repeated_concentration(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "concentration,unit,response\n"
            "0.003,uM,0.11\n0.003,uM,0.12\n0.3,uM,0.45\n0.3,uM,0.47\n30,uM,0.9\n"
        )
        concentrations, unit, groups = read_concentration_table(path)
        assert concentrations == [0.003, 0.3, 30.0]
        assert unit == "uM"
        assert groups == [[0.11, 0.12], [0.45, 0.47], [0.9]]

    def test_mixed_units_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("concentration,unit,response\n1,uM,0.1\n2,nM,0.2\n")
        with pytest.raises(SpectrumFormatError, match="mixed units"):
            read_concentration_table(path)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("concentration,unit,response\n")
        with pytest.raises(SpectrumFormatError, match="no data rows"):
            read_concentration_table(path)


# One table of each format: a good row, then on line 3 a row whose numeric
# field {} is under test. The manifest's rows name s0.csv.
TABLES = {
    "spectrum-reflectance": ("s.csv", read_spectrum,
                             "wavelength_nm,reflectance\n500,0.1\n501,{}\n"),
    "spectrum-wavelength": ("s.csv", read_spectrum,
                            "wavelength_nm,reflectance\n500,0.1\n{},0.2\n"),
    "manifest-timestamp": ("run.manifest", read_manifest,
                           "timestamp_s,path,role\n0,s0.csv,reference\n{},s0.csv,sample\n"),
    "series-concentration": ("series.csv", read_concentration_table,
                             "concentration,unit,response\n1,uM,0.1\n{},uM,0.2\n"),
    "series-response": ("series.csv", read_concentration_table,
                        "concentration,unit,response\n1,uM,0.1\n2,uM,{}\n"),
}


@pytest.mark.parametrize("table", TABLES)
class TestEveryTableFormat:
    def read_with(self, tmp_path, table, value):
        name, reader, template = TABLES[table]
        write_spectrum(tmp_path / "s0.csv", sample_spectrum())
        (tmp_path / name).write_text(template.format(value))
        return reader(tmp_path / name)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", " NaN "])
    def test_non_finite_value_names_its_line(self, tmp_path, table, value):
        name = TABLES[table][0]
        with pytest.raises(SpectrumFormatError, match=rf"{name}:3: .* is not a finite number"):
            self.read_with(tmp_path, table, value)

    def test_unparsable_value_names_its_line(self, tmp_path, table):
        name = TABLES[table][0]
        with pytest.raises(SpectrumFormatError, match=rf"{name}:3: could not convert"):
            self.read_with(tmp_path, table, "1.5e")

    def test_extra_field_names_its_line(self, tmp_path, table):
        name = TABLES[table][0]
        with pytest.raises(SpectrumFormatError, match=rf"{name}:3: expected \d fields"):
            self.read_with(tmp_path, table, "0,0")


class TestRunConfig:
    def test_empty_document_gives_defaults(self):
        config = load_run_config(text="{}")
        assert config.stack == FilmStack()
        assert config.noise.target_snr_db == 27.7
        assert config.native == NativeGrid()
        assert config.seed is None
        assert config.study == {}

    def test_no_path_no_text_gives_defaults(self):
        assert load_run_config() == load_run_config(text="{}")

    def test_sections_build_their_dataclasses(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            '{"stack": {"film_thickness_nm": 1200.0},'
            ' "noise": {"gaussian_sigma": 0.002},'
            ' "window": {"range_nm": [520, 780]},'
            ' "native": {"range_nm": [450, 900], "points": 3648},'
            ' "study": {"n_trials": 200},'
            ' "seed": 42}'
        )
        config = load_run_config(path)
        assert config.stack.film_thickness_nm == 1200.0
        assert config.noise.gaussian_sigma == 0.002
        assert config.window == WindowConfig((520.0, 780.0))
        assert config.native == NativeGrid((450.0, 900.0), 3648)
        assert config.study == {"n_trials": 200}
        assert config.seed == 42

    def test_unknown_top_level_key_rejected(self):
        # the three estimators read one window section, and no per-method one
        for key in ("stak", "rifts", "iaw", "lamp"):
            with pytest.raises(ConfigError,
                               match=rf"^unknown configuration key\(s\): \['{key}'\]$"):
                load_run_config(text=f'{{"{key}": {{"range_nm": [520, 780]}}}}')

    def test_native_grid_keys_outside_the_native_section_are_unknown(self):
        # the native grid is one section: the top-level keys simulate read and the study's
        # own pair are gone
        for key, value in (("range_nm", "[450, 900]"), ("n_points", "3648")):
            with pytest.raises(ConfigError,
                               match=rf"^unknown configuration key\(s\): \['{key}'\]$"):
                load_run_config(text=f'{{"{key}": {value}}}')
        for key, value in (("native_range_nm", "[450, 900]"), ("native_points", "3648")):
            with pytest.raises(ConfigError,
                               match=rf"^unknown key\(s\) in 'study' section: \['{key}'\]$"):
                load_run_config(text=f'{{"study": {{"{key}": {value}}}}}')

    def test_unknown_section_key_names_the_section(self):
        with pytest.raises(ConfigError, match="'noise' section"):
            load_run_config(text='{"noise": {"sigma": 0.1}}')
        # the pad, cutoff, wavelet width and grid size follow from the window: no section
        # takes them
        # nor does the noise section take a seed: the top-level seed is the one seed key;
        # iaw has one rule, the mean (a sum scales the blank, drift and slope alike)
        for section, key in (("window", '"pad_exponent": 20'), ("window", '"low_cutoff_nm": 900'),
                             ("window", '"wavelet_width_scale": 2'), ("noise", '"seed": 5'),
                             ("window", '"rule": "sum_abs"'), ("window", '"refine_peak": true'),
                             ("window", '"edge_trim_fraction": 0.1'),
                             ("window", '"reuse_reference_wavelet": true'),
                             ("window", '"n_points": 2048')):
            with pytest.raises(ConfigError, match=f"unknown key.*'{section}' section"):
                load_run_config(text=f'{{"{section}": {{{key}}}}}')

    def test_unknown_study_key_rejected(self):
        # the study config names no method: each study call takes the one it computes
        for study in ('{"trials": 10}', '{"method": "iaw"}', '{"strict_linearity": true}'):
            with pytest.raises(ConfigError, match="unknown key.*'study' section"):
                load_run_config(text=f'{{"study": {study}}}')

    @pytest.mark.parametrize("section", ["stack", "noise", "window", "native", "study"])
    @pytest.mark.parametrize("value", ["5", "[1, 2]", "null"])
    def test_non_object_section_rejected(self, section, value):
        with pytest.raises(ConfigError, match=f"^'{section}' section must be an object$"):
            load_run_config(text=f'{{"{section}": {value}}}')

    def test_invalid_section_value_wrapped(self):
        with pytest.raises(ConfigError, match="invalid 'stack'"):
            load_run_config(text='{"stack": {"film_thickness_nm": -5}}')

    @pytest.mark.parametrize("index", ["nan+0j", "1+nanj", "inf+0j"])
    def test_non_finite_substrate_index_names_the_field(self, index):
        with pytest.raises(ConfigError, match="^invalid 'stack' section: substrate_index must "
                           "be finite"):
            load_run_config(text=f'{{"stack": {{"substrate_index": "{index}"}}}}')

    def test_lists_become_tuples(self):
        config = load_run_config(text='{"window": {"range_nm": [520, 780]}}')
        assert config.window.range_nm == (520, 780)

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(text="{nope}")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            load_run_config(text="[1, 2]")

    @pytest.mark.parametrize("seed", ["-1", "2.5", "true", '"7"', str(2**64)])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="'seed'"):
            load_run_config(text=f'{{"seed": {seed}}}')

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_names_its_literal(self, literal):
        with pytest.raises(ConfigError, match=f"^configuration holds {literal}, which is not"):
            load_run_config(text=f'{{"noise": {{"target_snr_db": {literal}}}}}')

    @pytest.mark.parametrize("document", [
        '{"stack": {"film_thickness_nm": %s}}', '{"noise": {"target_snr_db": -%s}}',
        '{"window": {"range_nm": [500, %s]}}', '{"study": {"calibration_delta_n": %s}}',
        '{"native": {"range_nm": [500, %s]}}', '{"native": {"points": %s}}', '{"seed": %s}',
    ])
    def test_integer_too_large_for_a_float_rejected(self, document):
        with pytest.raises(ConfigError, match="401-digit integer, too large for a float"):
            load_run_config(text=document % ("1" + "0" * 400))

    @pytest.mark.parametrize("document", ['{"window": {"range_nm": %s}}',
                                          '{"native": {"range_nm": %s}}'])
    def test_range_of_text_rejected(self, document):
        # as every other numeric key refuses a string, a wavelength range refuses "500"; the
        # error names the section and, for the native grid, its key
        with pytest.raises(ConfigError, match="^invalid '(window' section: wavelength range|"
                           "native' section: range_nm) must be two numbers"):
            load_run_config(text=document % '["500", "800"]')

    def test_bad_native_points_rejected(self):
        with pytest.raises(ConfigError,
                           match="^invalid 'native' section: points must be an integer >= 16$"):
            load_run_config(text='{"native": {"points": 4}}')

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "absent.json")


class TestSvg:
    def test_polyline_per_series(self, tmp_path):
        path = tmp_path / "plot.svg"
        x = np.arange(5.0)
        write_polyline_svg(path, {"a": (x, x**2), "b": (x, -x)})
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert ">a</text>" in text and ">b</text>" in text
        assert text.startswith("<svg ")

    def test_constant_series_does_not_divide_by_zero(self, tmp_path):
        path = tmp_path / "flat.svg"
        write_polyline_svg(path, {"flat": ([0.0, 1.0], [0.5, 0.5])})
        text = path.read_text()
        assert "nan" not in text.lower()
