"""The byte layout of every CSV table pairspec writes, on tiny hand-built
results: `# ` comment lines, an optional column header, comma-separated
cells in %.9g (%d for k and counts, %.12g for Schmidt coefficients)."""

import numpy as np
import pytest

from pairspec.analysis import CountRecord, JsiScanResult, SweepResult
from pairspec.interference import HomScan
from pairspec.jsa import FrequencyGrid, JointAmplitude, export_jsi_csv, lattice_axis
from pairspec.schmidt import SchmidtResult, export_schmidt_csv

LAMBDA_NM = np.array([829.9, 830.0, 830.1])
EXPECTED = np.array([[0.5, 12.25, 1 / 3], [7.0, 1234.5678912, 2.0], [0.0, 1e-7, 3.5]])
JSI_AXIS = lattice_axis(2.27e15, 2.28e15, 16)
JSI_VALUES = np.eye(16) / 3.0
JSI_VALUES[0, 15] = 2.0

WRITERS = {
    "hom": lambda path: HomScan(
        np.array([-150.0, 0.0, 150.0]), np.array([0.999123456789, 0.0561234567891, 1.0]),
        0.94387654321, 312.3456789, 0.0,
    ).to_csv(path, metadata_lines=["source_a,a.cfg", "herald_arm,o"]),
    "sweep": lambda path: SweepResult(
        np.array([16.0, 1e-6, np.inf]), np.array([0.912345678912, np.nan, 0.35]),
        np.array([0.5, np.nan, 1.0]), {"crystal": "BBO", "n_points": 64},
        ((1e-6, "filter removes all support"),),
    ).to_csv(path),
    "counts": lambda path: CountRecord(
        np.array([-10.5, 0.0, 10.5]), np.array([1000, 56, 2 ** 60 + 1]), 1000.0, 3).to_csv(path),
    "scan-counts": lambda path: JsiScanResult(
        LAMBDA_NM, EXPECTED, np.array([[1, 12, 0], [7, 1235, 2], [0, 0, 4]]), 0.2, 0.1, 5,
    ).to_csv(path),
    # Cells at and past 1e9, where %.9g would drop digits.
    "scan-large-counts": lambda path: JsiScanResult(
        LAMBDA_NM, EXPECTED, np.array([[999999999, 1000000000, 0], [7, 6083130621519, 2],
                                       [0, 0, 2 ** 62 + 1]]), 0.2, 0.1, 5,
    ).to_csv(path),
    "scan-noiseless": lambda path: JsiScanResult(
        LAMBDA_NM, EXPECTED, None, 0.0, 0.1, None).to_csv(path),
    "schmidt": lambda path: export_schmidt_csv(SchmidtResult(
        np.array([0.97, 0.2, 0.1234567890123, 1e-13]), np.eye(4), np.eye(4), 1e-11,
    ), path),
    "jsi": lambda path: export_jsi_csv(
        JointAmplitude(FrequencyGrid(JSI_AXIS, JSI_AXIS), JSI_VALUES), path),
}

JSI_NM = ("829.802453,829.558823,829.315336,829.071993,828.828792,828.585733,828.342818,"
          "828.100044,827.857413,827.614924,827.372577,827.130372,826.888309,826.646387,"
          "826.404607,826.162968")
JSI_RAD_S = ("2.27e+15,2.27066667e+15,2.27133333e+15,2.272e+15,2.27266667e+15,"
             "2.27333333e+15,2.274e+15,2.27466667e+15,2.27533333e+15,2.276e+15,"
             "2.27666667e+15,2.27733333e+15,2.278e+15,2.27866667e+15,2.27933333e+15,2.28e+15")
JSI_ROWS = (
    "0.111111111,0,0,0,0,0,0,0,0,0,0,0,0,0,0,4\n"
    "0,0.111111111,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0.111111111,0,0,0,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0.111111111,0,0,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0.111111111,0,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0.111111111,0,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0.111111111,0,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0.111111111,0,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0.111111111,0,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0.111111111,0,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0.111111111,0,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0.111111111,0,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0,0.111111111,0,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0,0,0.111111111,0,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.111111111,0\n"
    "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.111111111\n"
)

TEXT = {
    "hom": (
        "# source_a,a.cfg\n"
        "# herald_arm,o\n"
        "# visibility,0.943876543\n"
        "# dip_fwhm_fs,312.345679\n"
        "# dip_center_fs,0\n"
        "# coherence_time_fs,220.861748\n"
        "delay_fs,normalized_rate\n"
        "-150,0.999123457\n"
        "0,0.0561234568\n"
        "150,1\n"),
    "sweep": (
        '# {"crystal": "BBO", "n_points": 64}\n'
        "bandwidth_nm,purity,heralding_efficiency\n"
        "16,0.912345679,0.5\n"
        "1e-06,nan,nan\n"
        "inf,0.35,1\n"),
    "counts": (
        "# pairs_per_point,1000\n"
        "# seed,3\n"
        "delay_fs,counts\n"
        "-10.5,1000\n"
        "0,56\n"
        "10.5,1152921504606846977\n"),
    "scan-counts": (
        "# resolution_fwhm_nm,0.2\n"
        "# step_nm,0.1\n"
        "# axis_e_nm,829.9,830,830.1\n"
        "# axis_o_nm,829.9,830,830.1\n"
        "1,12,0\n"
        "7,1235,2\n"
        "0,0,4\n"),
    "scan-large-counts": (
        "# resolution_fwhm_nm,0.2\n"
        "# step_nm,0.1\n"
        "# axis_e_nm,829.9,830,830.1\n"
        "# axis_o_nm,829.9,830,830.1\n"
        "999999999,1000000000,0\n"
        "7,6083130621519,2\n"
        "0,0,4611686018427387905\n"),
    "scan-noiseless": (
        "# resolution_fwhm_nm,0\n"
        "# step_nm,0.1\n"
        "# axis_e_nm,829.9,830,830.1\n"
        "# axis_o_nm,829.9,830,830.1\n"
        "0.5,12.25,0.333333333\n"
        "7,1234.56789,2\n"
        "0,1e-07,3.5\n"),
    "schmidt": (
        "k,c_k,c_k_squared\n"
        "1,0.97,0.9409\n"
        "2,0.2,0.04\n"
        "3,0.123456789012,0.0152415787532\n"),
    "jsi": (
        f"# axis_e_nm,{JSI_NM}\n"
        f"# axis_e_rad_s,{JSI_RAD_S}\n"
        f"# axis_o_nm,{JSI_NM}\n"
        f"# axis_o_rad_s,{JSI_RAD_S}\n"
        + JSI_ROWS),
}


@pytest.mark.parametrize("table", sorted(WRITERS))
def test_table_layout(tmp_path, table):
    # Literal bytes: a change to any table's layout is a change to its readers.
    path = tmp_path / f"{table}.csv"
    WRITERS[table](path)
    assert path.read_bytes() == TEXT[table].encode()
