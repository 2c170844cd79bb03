import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec import cli, errors
from pairspec.analysis import simulate_jsi_scan
from pairspec.cli import main
from pairspec.crystals import _DB_KEYS, _FORMULAS
from pairspec.jsa import NO_SUPPORT

from conftest import count_calls

REPO_ROOT = Path(__file__).resolve().parents[1]
KDP_CFG = str(REPO_ROOT / "configs" / "kdp.cfg")
BBO_CFG = str(REPO_ROOT / "configs" / "bbo.cfg")
CRYSTAL_TABLE = REPO_ROOT / "src" / "pairspec" / "data" / "crystals.txt"


def run(args):
    return main(args)


class TestGvmCommand:
    def test_kdp_solution(self, tmp_path):
        code = run(["gvm", "--crystal", "KDP", "--daughter-nm", "830",
                    "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "gvm.json").read_text())
        assert payload["pump_wavelength_nm"] == pytest.approx(415.0, abs=5.0)
        assert abs(payload["residual"]) < 1e-9

    def test_seed_is_rejected(self, tmp_path):
        # --seed acts only where counts are drawn (hom, scan).
        with pytest.raises(SystemExit) as exc:
            run(["gvm", "--crystal", "KDP", "--daughter-nm", "830", "--seed", "3",
                 "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_length_is_rejected(self, tmp_path):
        # The GVM point follows from dispersion alone; length sets only bandwidth.
        with pytest.raises(SystemExit) as exc:
            run(["gvm", "--crystal", "KDP", "--daughter-nm", "830", "--length-mm", "5",
                 "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_flat_phase_flag_is_rejected(self, tmp_path):
        # The config key flat_phase is the one switch.
        with pytest.raises(SystemExit) as exc:
            run(["jsa", "--config", KDP_CFG, "--flat-phase", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_eta_key_is_rejected(self, tmp_path, capsys):
        # No pair-rate scale enters a normalized JSA, so eta is an unknown key.
        cfg = tmp_path / "eta.cfg"
        cfg.write_text(Path(KDP_CFG).read_text().replace(
            "pump_fwhm_nm = 4\n", "pump_fwhm_nm = 4\neta = 2\n"))
        assert run(["jsa", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "unknown keys: eta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_crystal_is_config_error(self, tmp_path):
        code = run(["gvm", "--crystal", "NOSUCH", "--daughter-nm", "830",
                    "--out", str(tmp_path)])
        assert code == 2

    def test_no_phasematching_is_physics_error(self, tmp_path):
        code = run(["gvm", "--crystal", "ZEROBIREF", "--daughter-nm", "830",
                    "--out", str(tmp_path)])
        assert code == 3


class TestJsaCommand:
    def test_kdp_outputs(self, tmp_path):
        code = run(["jsa", "--config", KDP_CFG, "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "jsi.csv").exists()
        meta = json.loads((tmp_path / "jsi_meta.json").read_text())
        assert meta["crystal"]["name"] == "KDP"
        assert abs(meta["pearson_correlation"]) < 0.35
        assert "out_of_model" in meta

    def test_deterministic_bytes(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["jsa", "--config", BBO_CFG, "--grid-points", "128",
                        "--out", str(out)]) == 0
        assert (out_a / "jsi.csv").read_bytes() == (out_b / "jsi.csv").read_bytes()

    @pytest.mark.parametrize("argv, solves", [
        (["jsa", "--config", KDP_CFG], 1),
        (["schmidt", "--config", KDP_CFG], 1),
        (["sweep", "--config", KDP_CFG, "--bandwidths", "8,4"], 1),
        (["scan", "--config", KDP_CFG, "--resolution-nm", "0.5", "--step-nm", "0.5"], 1),
        # One solve per config read; the covering grid and both JSAs reuse them.
        (["hom", "--config-a", KDP_CFG, "--config-b", "KDP8", "--delays=-1300:1300:61"], 2),
    ])
    def test_phasematching_solves_per_subcommand(self, tmp_path, monkeypatch, argv, solves):
        kdp8 = tmp_path / "kdp8.cfg"
        kdp8.write_text(Path(KDP_CFG).read_text().replace("pump_fwhm_nm = 4",
                                                          "pump_fwhm_nm = 8"))
        argv = [str(kdp8) if arg == "KDP8" else arg for arg in argv]
        calls = count_calls(monkeypatch, ["dispersion.phasematching_angle"])
        assert run(argv + ["--grid-points", "64", "--out", str(tmp_path)]) == 0
        assert calls["dispersion.phasematching_angle"] == solves
        if argv[0] == "jsa":
            # The metadata records the solved angle as the crystal's cut.
            meta = json.loads((tmp_path / "jsi_meta.json").read_text())
            theta = cli.load_config(KDP_CFG)[0].source.theta
            assert meta["crystal"]["cut_angle_deg"] == theta

    def test_no_phasematching_writes_nothing(self, tmp_path):
        cfg = tmp_path / "zerobiref.cfg"
        cfg.write_text(Path(KDP_CFG).read_text().replace("crystal = KDP",
                                                         "crystal = ZEROBIREF"))
        out = tmp_path / "out"
        assert run(["jsa", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()


class TestSchmidtCommand:
    def test_kdp_purity(self, tmp_path):
        code = run(["schmidt", "--config", KDP_CFG, "--out", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "schmidt_meta.json").read_text())
        assert meta["purity"] >= 0.95
        lines = (tmp_path / "schmidt.csv").read_text().splitlines()
        assert lines[0] == "k,c_k,c_k_squared"
        first = float(lines[1].split(",")[1])
        assert 0.9 < first <= 1.0


class TestSweepCommand:
    def test_bbo_sweep(self, tmp_path):
        code = run(["sweep", "--config", BBO_CFG, "--grid-points", "256",
                    "--bandwidths", "16,8,4,2", "--out", str(tmp_path)])
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()
                if line and not line.startswith(("#", "bandwidth"))]
        purities = [float(r[1]) for r in rows]
        assert purities == sorted(purities)
        assert json.loads((tmp_path / "sweep_meta.json").read_text())["gaps"] == []

    def test_gaps_are_recorded(self, tmp_path, capsys):
        # A 1 fm rectangular filter passes no grid point: a gap, not a bare NaN row.
        assert run(["sweep", "--config", BBO_CFG, "--grid-points", "64", "--shape",
                    "rectangular", "--bandwidths", "4,1e-6", "--out", str(tmp_path)]) == 0
        assert "(2 bandwidths, 1 gaps)" in capsys.readouterr().out
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[-2:]
        assert rows[0].split(",")[1] != "nan" and rows[1] == "1e-06,nan,nan"
        gaps = json.loads((tmp_path / "sweep_meta.json").read_text())["gaps"]
        assert gaps == [[1e-6, NO_SUPPORT]]

    def test_config_filters_do_not_apply(self, tmp_path):
        # The sweep sets its own filters on both arms.
        cfg = tmp_path / "bbo_filtered.cfg"
        cfg.write_text(Path(BBO_CFG).read_text()
                       + "\n[filter.o]\nshape = gaussian\ncenter_nm = 800\nfwhm_nm = 4\n")
        for name, path in (("plain", BBO_CFG), ("filtered", str(cfg))):
            assert run(["sweep", "--config", path, "--grid-points", "64",
                        "--bandwidths", "16,4,1", "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "plain" / "sweep.csv").read_bytes()
                == (tmp_path / "filtered" / "sweep.csv").read_bytes())


class TestHomFitRoundtrip:
    def test_kdp_hom_and_fit(self, tmp_path):
        code = run(["hom", "--config-a", KDP_CFG, "--config-b", KDP_CFG,
                    "--herald-arm", "o", "--delays=-1500:1500:61",
                    "--pairs-per-point", "2000", "--seed", "42",
                    "--out", str(tmp_path)])
        assert code == 0
        header = {}
        for line in (tmp_path / "hom.csv").read_text().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(",")
                header[key] = value
        visibility = float(header["visibility"])
        fwhm = float(header["dip_fwhm_fs"])
        assert visibility >= 0.95
        assert fwhm == pytest.approx(440.0, rel=0.30)
        assert float(header["coherence_time_fs"]) == pytest.approx(
            fwhm / np.sqrt(2), rel=1e-6)

        code = run(["fit", "--counts", str(tmp_path / "hom_counts.csv"),
                    "--out", str(tmp_path)])
        assert code == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["converged"]
        # Gaussian model mismatch margin on top of the 3-sigma band.
        band = 3.0 * fit["uncertainties"]["visibility"] + 0.05
        assert abs(fit["visibility"] - visibility) <= band

    def test_bad_pair_budget_writes_nothing(self, tmp_path):
        code = run(["hom", "--config-a", KDP_CFG, "--config-b", KDP_CFG,
                    "--grid-points", "64", "--delays=-1500:1500:61",
                    "--pairs-per-point", "-5", "--out", str(tmp_path)])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_bad_delay_spec_is_config_error(self, tmp_path):
        code = run(["hom", "--config-a", KDP_CFG, "--config-b", KDP_CFG,
                    "--delays", "oops", "--out", str(tmp_path)])
        assert code == 2


class TestHomFilters:
    CONFIG = """\
[source]
crystal = BBO
length_mm = 2
pump_center_nm = 400
pump_fwhm_nm = 4
flat_phase = true

[grid]
n_points = 128

[filter.o]
shape = gaussian
center_nm = 800
fwhm_nm = 1
"""

    def config(self, tmp_path):
        path = tmp_path / "bbo_filtered.cfg"
        path.write_text(self.CONFIG)
        return str(path)

    def test_herald_filter_honoured(self, tmp_path):
        # Identical sources: V = Tr rho^2 of the heralded photon, which is
        # the Schmidt purity of the filtered amplitude.
        cfg = self.config(tmp_path)
        assert run(["hom", "--config-a", cfg, "--config-b", cfg,
                    "--herald-arm", "o", "--out", str(tmp_path)]) == 0
        header = dict(line[2:].split(",", 1)
                      for line in (tmp_path / "hom.csv").read_text().splitlines()
                      if line.startswith("# "))
        assert run(["schmidt", "--config", cfg, "--out", str(tmp_path)]) == 0
        purity = json.loads((tmp_path / "schmidt_meta.json").read_text())["purity"]
        assert purity > 0.9
        assert float(header["visibility"]) == pytest.approx(purity, abs=1e-9)

    def test_interfered_arm_filter_is_config_error(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        assert run(["hom", "--config-a", BBO_CFG, "--config-b", cfg,
                    "--herald-arm", "e", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert cfg in err and "[filter.o]" in err


class TestHomCoveringGrid:
    # KDP 1 mm against 10 mm, both pumped at 415 nm / 8 nm: the short
    # crystal's window is 3.16x the long one's, so at one n for both the
    # covering step is 3.16x the long crystal's own, whatever that n is.
    def configs(self, tmp_path):
        paths = []
        for length_mm, n_points in ((1, 128), (10, 64)):
            path = tmp_path / f"kdp_{length_mm}mm.cfg"
            path.write_text(f"[source]\ncrystal = KDP\nlength_mm = {length_mm}\n"
                            f"pump_center_nm = 415\npump_fwhm_nm = 8\n\n"
                            f"[grid]\nn_points = {n_points}\n")
            paths.append(str(path))
        return ["hom", "--config-a", paths[0], "--config-b", paths[1],
                "--herald-arm", "e", "--delays=-600:600:121"]

    def test_grid_points_cannot_refine_unequal_windows(self, tmp_path, capsys):
        args = self.configs(tmp_path)
        assert run(args + ["--grid-points", "512", "--out", str(tmp_path / "one_n")]) == 2
        err = capsys.readouterr().err
        assert "covering grid too coarse" in err and "leave out --grid-points" in err
        assert not (tmp_path / "one_n").exists()
        # What the message asks for: more points for the wider window, per config.
        assert run(args + ["--out", str(tmp_path / "per_config")]) == 0
        assert (tmp_path / "per_config" / "hom.csv").exists()


class TestScanCommand:
    def test_noiseless_scan(self, tmp_path):
        code = run(["scan", "--config", KDP_CFG, "--grid-points", "256",
                    "--resolution-nm", "0.5", "--step-nm", "0.5",
                    "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "scan.csv").exists()
        meta = json.loads((tmp_path / "scan_meta.json").read_text())
        assert meta["pairs_budget"] is None

    def test_sampled_scan_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["scan", "--config", BBO_CFG, "--grid-points", "128",
                        "--resolution-nm", "1.0", "--step-nm", "1.0",
                        "--budget", "10000", "--seed", "5",
                        "--out", str(out)]) == 0
        assert (out_a / "scan.csv").read_bytes() == (out_b / "scan.csv").read_bytes()

    def test_large_counts_read_back_exactly(self, tmp_path):
        # A 1e15 budget puts cells past 1e9, whose every digit must survive.
        argv = ["scan", "--config", KDP_CFG, "--grid-points", "64", "--resolution-nm", "0.5",
                "--step-nm", "0.5", "--budget", "1e15", "--seed", "1"]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        config, _ = cli.load_config(KDP_CFG, 64)
        drawn = simulate_jsi_scan(config.source.build_jsa(), 0.5, 0.5, 1e15, 1).counts
        cells = [int(cell) for line in (tmp_path / "scan.csv").read_text().splitlines()
                 if not line.startswith("#") for cell in line.split(",")]
        assert drawn.max() > 1e9
        assert max(cells) == drawn.max()


class TestConfigValidation:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        return str(path)

    def test_missing_file(self, tmp_path):
        code = run(["schmidt", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self.write(tmp_path, """\
[source]
crystal = KDP
length_mm = 5
pump_center_nm = 415
pump_fwhm_nm = 4
walkoff = 7
""")
        assert run(["schmidt", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_section_rejected(self, tmp_path):
        cfg = self.write(tmp_path, """\
[source]
crystal = KDP
length_mm = 5
pump_center_nm = 415
pump_fwhm_nm = 4

[laser]
power = 1
""")
        assert run(["schmidt", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_crystal_rejected(self, tmp_path):
        cfg = self.write(tmp_path, """\
[source]
length_mm = 5
pump_center_nm = 415
pump_fwhm_nm = 4
""")
        assert run(["schmidt", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_inline_crystal_accepted(self, tmp_path):
        cfg = self.write(tmp_path, """\
[source]
length_mm = 5
pump_center_nm = 415
pump_fwhm_nm = 4
flat_phase = true

[crystal]
formula_id = sellmeier_2pole
coefficients_o = 2.259276, 0.01008956, 0.012942625, 13.00522, 400
coefficients_e = 2.132668, 0.008637494, 0.012281043, 3.2279924, 400
valid_um_min = 0.25
valid_um_max = 1.5
source_citation = inline test record
""")
        out = tmp_path / "out"
        assert run(["schmidt", "--config", cfg, "--grid-points", "128",
                    "--out", str(out)]) == 0
        meta = json.loads((out / "schmidt_meta.json").read_text())
        assert meta["purity"] >= 0.95

    def test_malformed_inline_coefficients_rejected(self, tmp_path, capsys):
        cfg = self.write(tmp_path, """\
[source]
length_mm = 5
pump_center_nm = 415
pump_fwhm_nm = 4

[crystal]
formula_id = sellmeier_2pole
coefficients_o = 2.259276, 0.01008956, oops, 13.00522, 400
coefficients_e = 2.132668, 0.008637494, 0.012281043, 3.2279924, 400
valid_um_min = 0.25
valid_um_max = 1.5
source_citation = inline test record
""")
        assert run(["schmidt", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert cfg in capsys.readouterr().err

    HOM = ["hom", "--config-a", KDP_CFG, "--config-b", KDP_CFG, "--grid-points", "64"]
    SCAN = ["scan", "--config", KDP_CFG, "--grid-points", "64"]

    @pytest.mark.parametrize("args", [
        HOM + ["--delays=nan:1500:61"],
        HOM + ["--delays=-1500:inf:61"],
        HOM + ["--delays=-1500:1500:61", "--pairs-per-point", "nan"],
        ["schmidt", "--config", ("pump_fwhm_nm = 4", "pump_fwhm_nm = nan")],
        ["schmidt", "--config", ("length_mm = 5", "length_mm = nan")],
        SCAN + ["--resolution-nm", "0.2", "--step-nm", "nan"],
        SCAN + ["--resolution-nm", "0.2", "--step-nm", "0.1", "--budget", "nan"],
        SCAN + ["--resolution-nm", "nan", "--step-nm", "0.1"],
        ["gvm", "--crystal", "KDP", "--daughter-nm", "nan"],
        ["sweep", "--config", KDP_CFG, "--grid-points", "64", "--bandwidths", "nan,4"],
    ], ids=["hom-delay-nan", "hom-delay-inf", "hom-pairs-nan", "pump-fwhm-nan",
            "length-nan", "scan-step-nan", "scan-budget-nan", "scan-resolution-nan",
            "gvm-daughter-nan", "sweep-bandwidth-nan"])
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, args):
        # A (line, replacement) pair stands for a copy of configs/kdp.cfg
        # with that line replaced.
        text = Path(KDP_CFG).read_text()
        args = [self.write(tmp_path, text.replace(*a)) if isinstance(a, tuple) else a
                for a in args]
        assert run(args + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("case", [
        "fit-missing-counts", "fit-non-numeric-row", "gvm-missing-crystal-file",
        "config-missing-crystal-file", "out-below-a-file", "sweep-bandwidths-text",
        "scan-negative-seed", "hom-negative-seed", "config-fractional-n-points",
        "config-not-utf8", "gvm-crystal-file-not-utf8", "config-crystal-file-not-utf8",
        "config-flat-phase-not-boolean", "schmidt-pump-fwhm-negative",
        "schmidt-length-zero", "schmidt-cut-angle-120", "schmidt-filter-fwhm-negative",
        "schmidt-filter-shape-boxy", "hom-pump-fwhm-negative", "hom-length-zero",
        "hom-cut-angle-120", "hom-filter-fwhm-negative", "hom-filter-shape-boxy",
        "schmidt-n-points-8", "schmidt-span-sigmas-zero", "hom-n-points-8",
        "hom-span-sigmas-zero", "schmidt-grid-points-8", "hom-grid-points-8",
    ])
    def test_bad_input_names_its_source(self, tmp_path, capsys, case):
        # Unreadable files and unusable values exit 2, and the message names
        # the path or flag at fault.
        out = ["--out", str(tmp_path)]
        missing = str(tmp_path / "missing.txt")
        counts = tmp_path / "counts.csv"
        counts.write_text("delay_fs,counts\n-10,5\nx,3\n")
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        not_utf8 = tmp_path / "not_utf8.txt"
        not_utf8.write_bytes(b"\xff\xfe[\x00s\x00")
        kdp = Path(KDP_CFG).read_text()
        # Values the source's own checks refuse, each run by schmidt and by
        # hom next to the shipped config, so the message must say which file.
        value_faults = {
            "pump-fwhm-negative": kdp.replace("pump_fwhm_nm = 4", "pump_fwhm_nm = -4"),
            "length-zero": kdp.replace("length_mm = 5", "length_mm = 0"),
            "cut-angle-120": kdp.replace("crystal = KDP", "crystal = KDP\ncut_angle_deg = 120"),
            "filter-fwhm-negative": kdp + "\n[filter.o]\ncenter_nm = 830\nfwhm_nm = -1\n",
            "filter-shape-boxy": kdp + "\n[filter.o]\nshape = boxy\ncenter_nm = 830\nfwhm_nm = 4\n",
            "n-points-8": kdp.replace("n_points = 512", "n_points = 8"),
            "span-sigmas-zero": kdp.replace("span_sigmas = 4", "span_sigmas = 0"),
        }
        cfg = self.write(tmp_path, {
            "config-missing-crystal-file": kdp.replace(
                "crystal = KDP", f"crystal = KDP\ncrystal_file = {missing}"),
            "config-crystal-file-not-utf8": kdp.replace(
                "crystal = KDP", f"crystal = KDP\ncrystal_file = {not_utf8}"),
            "config-fractional-n-points": kdp.replace(
                "n_points = 512", "n_points = 100.7"),
            "config-flat-phase-not-boolean": kdp.replace(
                "flat_phase = true", "flat_phase = maybe"),
        }.get(case) or value_faults.get(case.partition("-")[2], kdp))
        # --grid-points would override the faulty n_points.
        grid = {fault: [] if fault == "n-points-8" else ["--grid-points", "64"]
                for fault in value_faults}
        args, named = {
            "fit-missing-counts": (["fit", "--counts", missing] + out, missing),
            "fit-non-numeric-row": (["fit", "--counts", str(counts)] + out,
                                    f"{counts}: line 3"),
            "gvm-missing-crystal-file": (
                ["gvm", "--crystal", "KDP", "--daughter-nm", "830",
                 "--crystal-file", missing] + out, missing),
            "config-missing-crystal-file": (["schmidt", "--config", cfg] + out, missing),
            "out-below-a-file": (
                ["gvm", "--crystal", "KDP", "--daughter-nm", "830",
                 "--out", str(a_file / "x")], "--out"),
            "sweep-bandwidths-text": (
                ["sweep", "--config", KDP_CFG, "--grid-points", "64",
                 "--bandwidths", "a,b"] + out, "--bandwidths"),
            "scan-negative-seed": (
                self.SCAN + ["--resolution-nm", "0.5", "--step-nm", "0.5",
                             "--budget", "1e6", "--seed", "-1"] + out, "seed"),
            "hom-negative-seed": (
                ["hom", "--config-a", KDP_CFG, "--config-b", KDP_CFG,
                 "--grid-points", "128", "--delays=-1500:1500:61",
                 "--pairs-per-point", "10", "--seed", "-1"] + out, "seed"),
            "config-fractional-n-points": (["schmidt", "--config", cfg] + out, "n_points"),
            "config-flat-phase-not-boolean": (["schmidt", "--config", cfg] + out,
                                              "flat_phase"),
            "config-not-utf8": (["schmidt", "--config", str(not_utf8)] + out, str(not_utf8)),
            "gvm-crystal-file-not-utf8": (
                ["gvm", "--crystal", "KDP", "--daughter-nm", "830",
                 "--crystal-file", str(not_utf8)] + out, str(not_utf8)),
            "config-crystal-file-not-utf8": (["schmidt", "--config", cfg] + out,
                                             str(not_utf8)),
            **{f"schmidt-{fault}": (["schmidt", "--config", cfg] + grid[fault] + out,
                                    f"{cfg}: ") for fault in value_faults},
            **{f"hom-{fault}": (
                ["hom", "--config-a", KDP_CFG, "--config-b", cfg] + grid[fault] + out,
                f"{cfg}: ") for fault in value_faults},
            "schmidt-grid-points-8": (
                ["schmidt", "--config", KDP_CFG, "--grid-points", "8"] + out, "--grid-points"),
            "hom-grid-points-8": (
                ["hom", "--config-a", KDP_CFG, "--config-b", KDP_CFG, "--grid-points", "8"]
                + out, "--grid-points"),
        }[case]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count(named) == 1

    @pytest.mark.parametrize("delay", ["nan", "inf"])
    def test_non_finite_count_delay_is_config_error(self, tmp_path, capsys, delay):
        # Fitted, such a row gives a NaN chi2 or NaN uncertainties.
        delays = np.linspace(-1500.0, 1500.0, 21)
        counts = np.round(1000.0 * (1.0 - 0.9 * np.exp(-(delays / 300.0) ** 2))).astype(int)
        rows = [f"{t:.9g},{n}" for t, n in zip(delays, counts)]
        rows[10] = f"{delay},{counts[10]}"
        path = tmp_path / "counts.csv"
        path.write_text("delay_fs,counts\n" + "\n".join(rows) + "\n")
        out = tmp_path / "fit"
        assert run(["fit", "--counts", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{path}: line 12" in err
        assert not (out / "fit.json").exists()

    # Each fault as an edit of (a config, a crystal file), and a fragment of
    # its message.
    FILE_FAULTS = {
        "duplicate-section": (lambda t: t + "\n[source]\n", lambda t: t + "\n[KDP]\n",
                              "already exists"),
        "duplicate-key-case": (
            lambda t: t.replace("length_mm = 5", "length_mm = 5\nLength_MM = 5"),
            lambda t: t.replace("[KDP]\n", "[KDP]\nFormula_ID = constant\n"),
            "already exists"),
        # [DEFAULT] keys would reach every section: a config's [source] would
        # get its crystal (the config has no other section to refuse the key),
        # and a crystal file's KDP record its citation.
        "default-section": (
            lambda t: "[DEFAULT]\ncrystal = KDP\n"
            + t.replace("crystal = KDP\n", "").partition("[grid]")[0],
            lambda t: "[DEFAULT]\nsource_citation = shared\n"
            + t.replace("source_citation = Zernike", "# Zernike"),
            "a [DEFAULT] section is not allowed"),
        "missing-field": (
            lambda t: t.replace("crystal = KDP\n", "") + "\n[crystal]\nformula_id = constant\n",
            lambda t: t.replace("source_citation = Zernike", "# Zernike"),
            "missing or unknown fields"),
    }

    @pytest.mark.parametrize("route", ["config", "crystal_file", "gvm-crystal-file"])
    @pytest.mark.parametrize("fault", ["not-utf8", "missing", *FILE_FAULTS])
    def test_unusable_input_file_names_it(self, tmp_path, capsys, route, fault):
        # Configs and crystal files go through one reader: each fault exits 2,
        # names the file at fault, and writes nothing.
        kdp = Path(KDP_CFG).read_text()
        text = kdp if route == "config" else CRYSTAL_TABLE.read_text()
        bad = tmp_path / "input.txt"
        if fault == "not-utf8":
            bad.write_bytes(b"\xff\xfe[\x00s\x00")
        elif fault != "missing":
            bad.write_text(self.FILE_FAULTS[fault][route != "config"](text))
        expected = {"not-utf8": "is not UTF-8 text", "missing": "cannot read",
                    **{key: value[2] for key, value in self.FILE_FAULTS.items()}}[fault]
        args = {
            "config": ["schmidt", "--config", str(bad), "--grid-points", "64"],
            "crystal_file": ["schmidt", "--config", self.write(
                tmp_path, kdp.replace("crystal = KDP", f"crystal = KDP\ncrystal_file = {bad}")),
                "--grid-points", "64"],
            "gvm-crystal-file": ["gvm", "--crystal", "KDP", "--daughter-nm", "830",
                                 "--crystal-file", str(bad)],
        }[route]
        assert run(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(bad) in err and expected in err
        assert not (tmp_path / "out").exists()

    def test_inline_and_named_conflict(self, tmp_path):
        cfg = self.write(tmp_path, """\
[source]
crystal = KDP
length_mm = 5
pump_center_nm = 415
pump_fwhm_nm = 4

[crystal]
formula_id = constant
coefficients_o = 1.5
coefficients_e = 1.6
valid_um_min = 0.3
valid_um_max = 2.0
source_citation = x
""")
        assert run(["schmidt", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_filter_section_applied(self, tmp_path, capsys):
        cfg = self.write(tmp_path, """\
[source]
crystal = BBO
length_mm = 2
pump_center_nm = 400
pump_fwhm_nm = 4
flat_phase = true

[grid]
n_points = 256

[filter.e]
shape = gaussian
center_nm = 800
fwhm_nm = 4

[filter.o]
shape = gaussian
center_nm = 800
fwhm_nm = 4
""")
        out = tmp_path / "out"
        assert run(["schmidt", "--config", cfg, "--out", str(out)]) == 0
        filtered = json.loads((out / "schmidt_meta.json").read_text())["purity"]
        out2 = tmp_path / "out2"
        assert run(["schmidt", "--config", BBO_CFG, "--grid-points", "256",
                    "--out", str(out2)]) == 0
        raw = json.loads((out2 / "schmidt_meta.json").read_text())["purity"]
        assert filtered > raw + 0.3

    def test_filter_shape_none_is_no_filter(self, tmp_path):
        # shape = none spells out an unfiltered arm: the same JSI, and no
        # entry under the metadata's filters (the section stays under config).
        cfg = self.write(tmp_path, Path(KDP_CFG).read_text() + "\n[filter.o]\nshape = none\n")
        for name, path in (("plain", KDP_CFG), ("none", cfg)):
            assert run(["jsa", "--config", path, "--grid-points", "64",
                        "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "plain" / "jsi.csv").read_bytes()
                == (tmp_path / "none" / "jsi.csv").read_bytes())
        meta = json.loads((tmp_path / "none" / "jsi_meta.json").read_text())
        assert meta["filters"] == []
        assert meta["config"]["filter.o"] == {"shape": "none"}


class TestErrorExitCodes:
    """Each concrete error class reaches the exit code and stderr prefix the
    CLI maps it to, with no traceback."""

    CASES = [
        (errors.ConfigError, 2, "config error:"),
        (errors.DispersionRangeError, 3, "physics error:"),
        (errors.NoPhasematchingError, 3, "physics error:"),
        (errors.NoGvmPointError, 3, "physics error:"),
        (errors.FilterSupportError, 3, "physics error:"),
        (errors.NumericalError, 4, "numerical error:"),
        (np.linalg.LinAlgError, 4, "numerical error:"),
    ]

    @pytest.mark.parametrize("error,code,prefix", CASES,
                             ids=[error.__name__ for error, _, _ in CASES])
    def test_error_class_exit_code(self, tmp_path, monkeypatch, capsys, error, code, prefix):
        def fail(crystal, daughter_nm):
            raise error("injected failure")

        monkeypatch.setattr(cli, "gvm_pump_wavelength", fail)
        assert run(["gvm", "--crystal", "KDP", "--daughter-nm", "830",
                    "--out", str(tmp_path)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{prefix} injected failure\n"
        assert "Traceback" not in captured.out + captured.err
        assert list(tmp_path.iterdir()) == []

    def test_every_concrete_error_class_has_a_case(self):
        concrete = {cls for cls in vars(errors).values()
                    if isinstance(cls, type) and issubclass(cls, errors.PairspecError)
                    and not cls.__subclasses__()}
        assert concrete == {error for error, _, _ in self.CASES} - {np.linalg.LinAlgError}

    def test_scan_range_error(self, tmp_path, capsys):
        # BBO is valid to 1060 nm: the scan's pump 531 nm has a 1062 nm daughter.
        assert run(["gvm", "--crystal", "BBO", "--daughter-nm", "1100",
                    "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("physics error: 1062 nm is outside the validity range "
                                "[220, 1060] nm of crystal BBO\n")
        assert "Traceback" not in captured.out + captured.err

    # An inline crystal whose index is zero (with and without a cut angle),
    # NaN (KDP's record with A_o negated, so n_o^2 < 0) or negative is a
    # physics error naming the first bad wavelength, not a traceback (exit
    # 1) or a purity computed from a negative index.
    BAD_INDEX = {
        "zero": ("constant", "0", "0", "", "0"),
        "zero-cut-45": ("constant", "0", "0", "cut_angle_deg = 45\n", "0"),
        "kdp-negated-a-o": ("sellmeier_2pole",
                            "-2.259276, 0.01008956, 0.012942625, 13.00522, 400.0",
                            "2.132668, 0.008637494, 0.012281043, 3.2279924, 400.0", "", "nan"),
        "negative-cut-45": ("constant", "-1.5", "-1.5", "cut_angle_deg = 45\n", "-1.5"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INDEX))
    def test_index_not_positive_and_finite(self, tmp_path, capsys, case):
        formula, coefficients_o, coefficients_e, cut, index = self.BAD_INDEX[case]
        cfg = tmp_path / "bad_index.cfg"
        cfg.write_text(
            f"[source]\nlength_mm = 5\n{cut}pump_center_nm = 415\npump_fwhm_nm = 4\n"
            f"flat_phase = true\n\n[crystal]\nformula_id = {formula}\n"
            f"coefficients_o = {coefficients_o}\ncoefficients_e = {coefficients_e}\n"
            "valid_um_min = 0.25\nvalid_um_max = 1.5\nsource_citation = test\n")
        out = tmp_path / "out"
        args = ["schmidt", "--config", str(cfg), "--grid-points", "64", "--out", str(out)]
        if index == "nan":  # numpy warns at the square root of n^2 < 0 first
            with pytest.warns(RuntimeWarning, match="invalid value"):
                code = run(args)
        else:
            code = run(args)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == (f"physics error: refractive index {index} at 415 nm is not "
                                "positive and finite for crystal inline\n")
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()


_SPACES = st.sampled_from(["", " ", "  ", "\t", " \t "])
_COEFFICIENT = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
_CITATION = st.text(st.characters(whitelist_categories=("L", "N"),
                                  whitelist_characters=" .,;:()-/%='"), max_size=30)


@st.composite
def crystal_records(draw):
    """Field values of a valid record: any formula with its coefficient count."""
    formula_id = draw(st.sampled_from(sorted(_FORMULAS)))
    n_coeff = _FORMULAS[formula_id][2]
    vmin = draw(st.floats(0.1, 1.0))
    return {
        "formula_id": formula_id,
        "coefficients_o": draw(st.lists(_COEFFICIENT, min_size=n_coeff, max_size=n_coeff)),
        "coefficients_e": draw(st.lists(_COEFFICIENT, min_size=n_coeff, max_size=n_coeff)),
        "valid_um_min": vmin,
        "valid_um_max": vmin + draw(st.floats(0.01, 3.0)),
        "source_citation": draw(_CITATION),
    }


def cased(draw, key):
    """The key with each letter's case drawn: field names are case-insensitive."""
    upper = draw(st.lists(st.booleans(), min_size=len(key), max_size=len(key)))
    return "".join(ch.upper() if up else ch for ch, up in zip(key, upper))


def record_lines(draw, fields, keys):
    """'key = value' lines for the keys in the given order, with mixed-case
    keys and varied whitespace."""
    lines = []
    for key in keys:
        value = fields[key]
        if isinstance(value, list):
            value = ",".join(draw(_SPACES) + repr(x) for x in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{cased(draw, key)}{draw(_SPACES)}={draw(_SPACES)}{value}{draw(_SPACES)}")
    return lines


class TestInlineCrystalProperty:
    """An inline [crystal] section and the same record read through a
    crystal_file give the same crystal; a bad field set is a config error."""

    SOURCE = ("[source]\nlength_mm = 5\npump_center_nm = 415\npump_fwhm_nm = 4\n"
              "cut_angle_deg = 60\n")

    def write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return str(path)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(fields=crystal_records(), data=st.data())
    def test_inline_equals_crystal_file(self, tmp_path_factory, fields, data):
        tmp = tmp_path_factory.mktemp("inline")
        inline = record_lines(data.draw, fields, data.draw(st.permutations(_DB_KEYS)))
        named = record_lines(data.draw, fields, data.draw(st.permutations(_DB_KEYS)))
        db = self.write(tmp / "crystals.txt", "\n".join(["[REC]"] + named) + "\n")
        from_inline = cli.load_config(self.write(
            tmp / "inline.cfg", self.SOURCE + "\n[crystal]\n" + "\n".join(inline) + "\n"))
        from_file = cli.load_config(self.write(
            tmp / "named.cfg", self.SOURCE + f"crystal = REC\ncrystal_file = {db}\n"))
        assert replace(from_inline[0].source.crystal, name="REC") == from_file[0].source.crystal

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(fields=crystal_records(), data=st.data(),
           fault=st.sampled_from(["drop", "duplicate", "unknown"]))
    def test_bad_field_set_is_config_error(self, tmp_path_factory, fields, data, fault):
        tmp = tmp_path_factory.mktemp("bad")
        keys = list(data.draw(st.permutations(_DB_KEYS)))
        key = data.draw(st.sampled_from(keys))
        if fault == "drop":
            keys.remove(key)
        elif fault == "duplicate":
            keys.insert(data.draw(st.integers(0, len(keys))), key)
        else:
            fields = {**fields, "walkoff_deg": 1.0}
            keys.insert(data.draw(st.integers(0, len(keys))), "walkoff_deg")
        inline = record_lines(data.draw, fields, keys)
        cfg = self.write(tmp / "inline.cfg",
                         self.SOURCE + "\n[crystal]\n" + "\n".join(inline) + "\n")
        assert cli.main(["schmidt", "--config", cfg, "--grid-points", "16",
                         "--out", str(tmp / "out")]) == 2
        assert not (tmp / "out").exists()


class TestBenchmarkCallContract:
    # perfbench/workloads.py MUST_HIT lists the functions a traced run of each
    # workload must reach; a run that misses one is void. Here small versions
    # of each workload's commands run with every listed function counted at
    # each module that binds it (the package imports with `from .x import
    # y`), so dropping a listed call fails tier-1 too.
    COMMANDS = (["jsa"], ["schmidt"], ["sweep", "--bandwidths", "8,4,inf"],
                ["scan", "--resolution-nm", "0.2", "--step-nm", "0.1"])

    @staticmethod
    def must_hit(monkeypatch, workload):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # Its dataclasses resolve their module through sys.modules.
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        return workloads.MUST_HIT[workload]

    @staticmethod
    def missed(calls):
        return [name for name, count in calls.items() if count == 0]

    def test_characterize_reaches_every_required_function(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, self.must_hit(monkeypatch, "characterize"))
        for config in (KDP_CFG, BBO_CFG):
            for command, *rest in self.COMMANDS:
                out = tmp_path / Path(config).stem / command
                assert cli.main(
                    [command, "--config", config, "--grid-points", "64",
                     "--out", str(out)] + rest) == 0
        assert self.missed(calls) == []

    def test_solve_reaches_every_required_function(self, tmp_path, monkeypatch):
        # A GVM hit, a miss (which makes no angle solve) and one dip fit.
        calls = count_calls(monkeypatch, self.must_hit(monkeypatch, "solve"))
        delays = np.linspace(-1500.0, 1500.0, 61)
        counts = np.round(1000.0 * (1.0 - 0.9 * np.exp(-4.0 * np.log(2.0) * (delays / 440.0) ** 2)))
        csv = tmp_path / "counts.csv"
        csv.write_text("# pairs_per_point,1000\n# seed,0\ndelay_fs,counts\n"
                       + "".join(f"{t:.9g},{int(n)}\n" for t, n in zip(delays, counts)))
        assert cli.main(["gvm", "--crystal", "KDP", "--daughter-nm", "830",
                         "--out", str(tmp_path / "hit")]) == 0
        assert cli.main(["gvm", "--crystal", "BBO", "--daughter-nm", "800",
                         "--out", str(tmp_path / "miss")]) == 3
        assert cli.main(["fit", "--counts", str(csv), "--out", str(tmp_path / "fit")]) == 0
        assert self.missed(calls) == []

    def test_interfere_reaches_every_required_function(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, self.must_hit(monkeypatch, "interfere"))
        hom = tmp_path / "hom"
        assert cli.main(["hom", "--config-a", KDP_CFG, "--config-b", KDP_CFG,
                         "--grid-points", "64", "--delays=-1500:1500:61",
                         "--pairs-per-point", "100", "--out", str(hom)]) == 0
        assert cli.main(["fit", "--counts", str(hom / "hom_counts.csv"),
                         "--out", str(tmp_path / "fit")]) == 0
        assert self.missed(calls) == []
