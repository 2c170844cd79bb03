import json
from pathlib import Path

import numpy as np
import pytest

from pairspec import interference
from pairspec.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
KDP_CFG = str(REPO_ROOT / "configs" / "kdp.cfg")
BBO_CFG = str(REPO_ROOT / "configs" / "bbo.cfg")


def run(args):
    return main(args)


class TestGvmCommand:
    def test_kdp_solution(self, tmp_path):
        code = run(["gvm", "--crystal", "KDP", "--daughter-nm", "830",
                    "--length-mm", "5", "--out", str(tmp_path)])
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

    def test_phasematching_solved_once(self, tmp_path, monkeypatch):
        solve = interference.phasematching_angle
        thetas = []

        def counting_solve(*args, **kwargs):
            thetas.append(solve(*args, **kwargs))
            return thetas[-1]

        monkeypatch.setattr(interference, "phasematching_angle", counting_solve)
        assert run(["jsa", "--config", BBO_CFG, "--grid-points", "128",
                    "--out", str(tmp_path)]) == 0
        assert len(thetas) == 1
        meta = json.loads((tmp_path / "jsi_meta.json").read_text())
        assert meta["crystal"]["cut_angle_deg"] == thetas[0]


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
