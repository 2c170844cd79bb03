"""The output checker's comparison of one file (scripts/compare_outputs.py),
on small synthetic tables in the formats the CLI writes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
# dataclasses looks the module up by name while the script runs.
sys.modules.setdefault("compare_outputs", compare_outputs)
_spec.loader.exec_module(compare_outputs)
compare_file = compare_outputs.compare_file

PURITY = 0.9569675419512387
SCHMIDT_META = {"basis_rank": 32, "basis_residual": 2.874128227123795e-12,
                "config_path": "configs/kdp.cfg", "purity": PURITY}
COUNTS = "# pairs_per_point,1000\n# seed,7\ndelay_fs,counts\n-20,1011\n0,43\n20,983\n"
SCHMIDT = "k,c_k,c_k_squared\n1,0.702362878353,0.493313612888\n21,7.02425746674e-12,4.9340192959e-23\n"


def moved_meta(**changes):
    return json.dumps({**SCHMIDT_META, **changes}, indent=2)


def test_identical_files_pass():
    report = compare_file("schmidt_meta.json", moved_meta(), moved_meta())
    assert report.ok and report.values == 4 and report.max_abs == 0.0


@pytest.mark.parametrize("move, ok", [(1e-16, True), (1e-10, False)])
def test_purity_moves_within_relative_bound(move, ok):
    report = compare_file("schmidt_meta.json", moved_meta(), moved_meta(purity=PURITY + move))
    assert report.ok is ok
    assert report.max_abs == pytest.approx(move, rel=0.2)
    assert "purity" in report.worst


def test_count_off_by_one_fails():
    report = compare_file("hom_counts.csv", COUNTS, COUNTS.replace("0,43", "0,44"))
    assert not report.ok
    assert report.failures == ["line 5 col 2 (counts): 43.0 -> 44.0, moved 1 > exact bound 0"]


def test_small_schmidt_coefficient_is_judged_against_c1():
    # A 1e-17 move of c_21 is 1.4e-6 relative but far below 1e-15 * c_1.
    assert compare_file("schmidt.csv", SCHMIDT,
                        SCHMIDT.replace("7.02425746674e-12", "7.02426746674e-12")).ok
    assert not compare_file("schmidt.csv", SCHMIDT,
                            SCHMIDT.replace("0.702362878353", "0.702362878354")).ok


def test_basis_residual_is_absolute():
    assert compare_file("schmidt_meta.json", moved_meta(),
                        moved_meta(basis_residual=2.884e-12)).ok is False
    assert compare_file("schmidt_meta.json", moved_meta(),
                        moved_meta(basis_residual=2.874128227123795e-12 + 1e-18)).ok


@pytest.mark.parametrize("new", [
    moved_meta(config_path="configs/bbo.cfg"),
    moved_meta(basis_rank=33),
    json.dumps({**SCHMIDT_META, "schmidt_number": 1.04}),
])
def test_text_integers_and_layout_are_exact(new):
    assert not compare_file("schmidt_meta.json", moved_meta(), new).ok


def test_nan_gap_rows_match_and_json_comment_is_read():
    sweep = ('# {"basis_residual": 2.8e-12, "n_points": 512}\n'
             "bandwidth_nm,purity,heralding_efficiency\n1,nan,nan\n2,0.999919003,0.578703272\n")
    assert compare_file("sweep.csv", sweep, sweep).ok
    assert not compare_file("sweep.csv", sweep, sweep.replace("1,nan", "1,0.5")).ok
    assert not compare_file("sweep.csv", sweep, sweep.replace("512", "256")).ok
