import math

import numpy as np
import pytest

from pairspec.crystals import (CrystalDatabase, CrystalSpec, SellmeierForm,
                               builtin_database, crystal_from_record, get_crystal)
from pairspec.errors import ConfigError, DispersionRangeError


def test_builtin_database_has_expected_records():
    db = builtin_database()
    assert {"KDP", "BBO", "ZEROBIREF"} <= set(db.names())


def test_kdp_index_matches_coefficient_oracle():
    # Evaluate the 2-pole formula by hand from the shipped coefficients.
    kdp = get_crystal("KDP", 5.0)
    a, b, c, d, e = kdp.sellmeier_o.coefficients
    lam = 0.830
    expected = math.sqrt(a + b / (lam**2 - c) + d * lam**2 / (lam**2 - e))
    assert kdp.sellmeier_o.index(830.0, "KDP") == pytest.approx(expected, abs=1e-12)


def test_index_is_real_and_above_one_in_range():
    db = builtin_database()
    for name in db.names():
        crystal = db.crystal(name, 1.0)
        lo = crystal.sellmeier_o.valid_um_min * 1e3
        hi = crystal.sellmeier_o.valid_um_max * 1e3
        lams = np.linspace(lo, hi, 50)
        for form in (crystal.sellmeier_o, crystal.sellmeier_e):
            n = form.index(lams, name)
            assert np.all(np.isfinite(n))
            assert np.all(n > 1.0)


def test_out_of_range_is_an_error_not_extrapolation():
    kdp = get_crystal("KDP", 5.0)
    with pytest.raises(DispersionRangeError, match="KDP"):
        kdp.sellmeier_o.index(20000.0, "KDP")
    with pytest.raises(DispersionRangeError):
        kdp.sellmeier_o.index(100.0, "KDP")


def test_index_must_be_positive_and_finite():
    # n = 1 - 0.5 / lambda_um^2 is 0.5 at 1000 nm and negative below 707 nm;
    # an array names the first wavelength with a bad index, a scalar its own.
    form = SellmeierForm("cauchy2", (1.0, -0.5), 0.2, 2.0)
    assert form.index(1000.0, "X") == 0.5
    with pytest.raises(DispersionRangeError,
                       match=r"^refractive index -0.388889 at 600 nm is not positive and "
                             r"finite for crystal X$"):
        form.index(np.array([1000.0, 600.0, 500.0]), "X")
    with pytest.raises(DispersionRangeError, match=r"index 0 at 700 nm"):
        SellmeierForm("constant", (0.0,), 0.2, 2.0).index(700.0, "X")
    with pytest.raises(DispersionRangeError, match=r"index inf at 1000 nm"):
        SellmeierForm("constant", (math.inf,), 0.2, 2.0).index(np.full((2, 2), 1000.0), "X")


def test_array_evaluation_matches_scalar():
    kdp = get_crystal("KDP", 5.0)
    lams = np.array([400.0, 830.0, 1000.0])
    arr = kdp.sellmeier_o.index(lams, "KDP")
    for lam, n in zip(lams, arr):
        assert n == pytest.approx(kdp.sellmeier_o.index(float(lam), "KDP"), abs=0)


def test_unknown_formula_rejected():
    with pytest.raises(ConfigError, match="formula_id"):
        SellmeierForm("nope", (1.0,), 0.2, 2.0)


def test_wrong_coefficient_count_rejected():
    with pytest.raises(ConfigError, match="coefficients"):
        SellmeierForm("sellmeier_2pole", (1.0, 2.0), 0.2, 2.0)


def test_crystal_spec_validation():
    form = SellmeierForm("constant", (1.5,), 0.2, 2.0)
    with pytest.raises(ConfigError, match="length"):
        CrystalSpec("X", form, form, length_mm=0.0)
    with pytest.raises(ConfigError, match="length"):
        CrystalSpec("X", form, form, length_mm=math.nan)
    with pytest.raises(ConfigError, match="angle"):
        CrystalSpec("X", form, form, length_mm=1.0, cut_angle_deg=120.0)


VALID_RECORD = """\
[TEST]
formula_id = constant
coefficients_o = 1.5
coefficients_e = 1.6
valid_um_min = 0.3
valid_um_max = 2.0
source_citation = synthetic
"""


def test_database_parse_roundtrip():
    db = CrystalDatabase(VALID_RECORD)
    crystal = db.crystal("TEST", 3.0, cut_angle_deg=45.0)
    assert crystal.sellmeier_o.index(500.0) == 1.5
    assert crystal.sellmeier_e.index(500.0) == 1.6
    assert crystal.source_citation == "synthetic"


def test_record_fields_must_match_the_database_keys():
    fields = dict(line.split(" = ") for line in VALID_RECORD.splitlines()[1:])
    assert crystal_from_record("T", fields, 3.0).sellmeier_e.index(500.0) == 1.6
    for wrong, bad in (("valid_um_max", {k: v for k, v in fields.items()
                                         if k != "valid_um_max"}),
                       ("name", {**fields, "name": "T"})):
        with pytest.raises(ConfigError, match=f"missing or unknown fields: {wrong}"):
            crystal_from_record("T", bad, 3.0)


def test_database_unknown_field_is_error():
    # Every record's field set is checked when the file is loaded.
    with pytest.raises(ConfigError, match="crystal 'TEST': missing or unknown fields: walkoff"):
        CrystalDatabase(VALID_RECORD + "walkoff = 1\n")


def test_database_field_names_fold_to_lowercase():
    header, *lines = VALID_RECORD.splitlines(True)
    shouted = header + "".join(key.upper() + "=" + value for key, _, value in
                               (line.partition("=") for line in lines))
    assert (CrystalDatabase(shouted).crystal("TEST", 3.0)
            == CrystalDatabase(VALID_RECORD).crystal("TEST", 3.0))
    with pytest.raises(ConfigError, match="option 'formula_id' in section 'TEST' already exists"):
        CrystalDatabase(VALID_RECORD + "Formula_ID = constant\n")


def test_database_missing_field_is_error():
    broken = VALID_RECORD.replace("valid_um_max = 2.0\n", "")
    with pytest.raises(ConfigError, match="missing or unknown fields: valid_um_max"):
        CrystalDatabase(broken)


def test_database_duplicate_record_is_error():
    with pytest.raises(ConfigError, match="section 'TEST' already exists"):
        CrystalDatabase(VALID_RECORD + "\n" + VALID_RECORD)


def test_database_default_section_is_error():
    # Its keys would otherwise be copied into every record.
    with pytest.raises(ConfigError, match=r"<crystal text>: a \[DEFAULT\] section"):
        CrystalDatabase("[DEFAULT]\nsource_citation = shared\n"
                        + VALID_RECORD.replace("source_citation = synthetic\n", ""))


def test_unknown_crystal_name_is_error():
    with pytest.raises(ConfigError, match="unknown crystal"):
        builtin_database().crystal("NOSUCH", 5.0)
