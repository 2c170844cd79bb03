import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.constants import c as c_light
from scipy.optimize import brentq

from pairspec import dispersion as disp
from pairspec.crystals import _FORMULAS, SellmeierForm, builtin_database, get_crystal
from pairspec.errors import (ConfigError, DispersionRangeError, NoGvmPointError,
                             NoPhasematchingError, PairspecError)
from pairspec.jsa import PumpSpec, pump_envelope

from conftest import cauchy_crystal, constant_crystal, count_calls


def omega(nm):
    return 2.0 * math.pi * c_light / (nm * 1e-9)


def richardson_slope(n, lam, h):
    """dn/dlambda from two central differences, extrapolated to O(h^4)."""
    def central(step):
        return (n(lam + step) - n(lam - step)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def richardson_group_index(crystal, pol, lam_nm, theta):
    def n(lam):
        return disp.index_o(crystal, lam) if pol == "o" else disp.index_e(crystal, lam, theta)
    return n(lam_nm) - lam_nm * richardson_slope(n, lam_nm, 1e-3 * lam_nm)


def test_speed_of_light_is_the_si_value():
    # Exact by the SI definition, so it needs no scipy.constants.
    assert disp.C_LIGHT == c_light == 299792458.0


class TestIndexO:
    def test_matches_sellmeier_oracle(self, kdp):
        a, b, c, d, e = kdp.sellmeier_o.coefficients
        lam = 0.830
        oracle = math.sqrt(a + b / (lam**2 - c) + d * lam**2 / (lam**2 - e))
        assert disp.index_o(kdp, 830.0) == pytest.approx(oracle, abs=1e-6)

    def test_normal_dispersion(self, kdp):
        assert disp.index_o(kdp, 400.0) > disp.index_o(kdp, 830.0)

    def test_out_of_range(self, kdp):
        with pytest.raises(DispersionRangeError):
            disp.index_o(kdp, 20000.0)


class TestIndexE:
    def test_theta_zero_equals_ordinary(self, kdp):
        for lam in (300.0, 415.0, 830.0, 1200.0):
            assert disp.index_e(kdp, lam, 0.0) == pytest.approx(
                disp.index_o(kdp, lam), abs=1e-12)

    def test_theta_ninety_equals_principal(self, kdp):
        for lam in (415.0, 830.0):
            principal = kdp.sellmeier_e.index(lam, "KDP")
            assert disp.index_e(kdp, lam, 90.0) == pytest.approx(principal, abs=1e-12)

    def test_intermediate_angle_between_principals(self, kdp):
        n = disp.index_e(kdp, 415.0, 45.0)
        n_o = disp.index_o(kdp, 415.0)
        n_ep = kdp.sellmeier_e.index(415.0, "KDP")
        lo, hi = min(n_o, n_ep), max(n_o, n_ep)
        assert lo < n < hi
        # closed-form ellipsoid oracle
        oracle = 1.0 / math.sqrt(0.5 / n_o**2 + 0.5 / n_ep**2)
        assert n == pytest.approx(oracle, abs=1e-12)

    def test_bounded_by_principals_randomized(self, kdp, rng):
        lams = rng.uniform(260.0, 1400.0, size=1000)
        thetas = rng.uniform(0.0, 90.0, size=1000)
        for lam, th in zip(lams, thetas):
            n = disp.index_e(kdp, lam, th)
            n_o = disp.index_o(kdp, lam)
            n_ep = kdp.sellmeier_e.index(lam, "KDP")
            assert min(n_o, n_ep) - 1e-12 <= n <= max(n_o, n_ep) + 1e-12

    def test_theta_zero_property_randomized(self, kdp, rng):
        lams = rng.uniform(260.0, 1400.0, size=1000)
        n_theta0 = np.array([disp.index_e(kdp, lam, 0.0) for lam in lams])
        n_ord = np.array([disp.index_o(kdp, lam) for lam in lams])
        assert np.max(np.abs(n_theta0 - n_ord)) < 1e-12


class TestGroupIndex:
    def test_constant_form_equals_phase_index(self):
        crystal = constant_crystal(n_o=1.5, n_e=1.7)
        assert disp.group_index(crystal, "o", 800.0) == 1.5
        assert disp.group_index(crystal, "e", 800.0, 90.0) == pytest.approx(1.7, abs=1e-12)

    def test_cauchy_form_matches_analytic(self):
        # n = A + B/lam^2  ->  n_g = A + 3B/lam^2
        a, b = 1.5, 0.02
        crystal = cauchy_crystal(a_o=a, b_o=b)
        lam_nm = 800.0
        lam_um = lam_nm * 1e-3
        expected = a + 3.0 * b / lam_um**2
        got = disp.group_index(crystal, "o", lam_nm)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_gvm_group_indices_nearly_equal_at_415(self, kdp):
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        ng_pump = disp.group_index(kdp, "e", 415.0, theta)
        ng_daughter = disp.group_index(kdp, "o", 830.0)
        assert ng_pump == pytest.approx(ng_daughter, abs=1e-2)

    def test_valid_up_to_range_edge(self, kdp):
        assert math.isfinite(disp.group_index(kdp, "o", 250.0))  # KDP range starts at 250 nm
        with pytest.raises(DispersionRangeError):
            disp.group_index(kdp, "o", 249.0)

    @pytest.mark.parametrize("name,pol,lam,theta", [("KDP", "e", 415.0, 67.8),
                                                    ("KDP", "o", 830.0, 0.0),
                                                    ("BBO", "e", 400.0, 42.0),
                                                    ("BBO", "e", 700.0, 0.0),
                                                    ("BBO", "e", 700.0, 90.0)])
    def test_matches_richardson_difference(self, name, pol, lam, theta):
        crystal = get_crystal(name, 1.0)
        assert disp.group_index(crystal, pol, lam, theta) == pytest.approx(
            richardson_group_index(crystal, pol, lam, theta), rel=1e-10)


# Every o and e curve of the shipped database, plus the conftest test-crystal
# coefficients for the formulas no record uses; each over every shipped range.
_SHIPPED_FORMS = [form for name in builtin_database().names()
                  for form in (get_crystal(name, 1.0).sellmeier_o, get_crystal(name, 1.0).sellmeier_e)]
_SLOPE_CASES = {"constant": [(1.5,)], "cauchy2": [(1.5, 0.02)]}
for _form in _SHIPPED_FORMS:
    _SLOPE_CASES.setdefault(_form.formula_id, []).append(_form.coefficients)
_VALID_RANGES = sorted({(f.valid_um_min, f.valid_um_max) for f in _SHIPPED_FORMS})


class TestAnalyticSlope:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(formula_id=st.sampled_from(sorted(_FORMULAS)), data=st.data())
    def test_matches_richardson_difference(self, formula_id, data):
        valid = data.draw(st.sampled_from(_VALID_RANGES))
        form = SellmeierForm(formula_id, data.draw(st.sampled_from(_SLOPE_CASES[formula_id])),
                             *valid)
        # Keep the stencil lam +- 1e-3 lam inside the validity range.
        lo, hi = valid[0] * 1e3 * 1.002, valid[1] * 1e3 / 1.002
        lam = lo + data.draw(st.floats(0.0, 1.0)) * (hi - lo)
        expected = richardson_slope(form.index, lam, 1e-3 * lam)
        assert abs(form.slope(lam) - expected) <= 1e-9 * abs(expected)


class TestDeltaK:
    def test_zero_at_phasematching_angle(self, kdp):
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        w0 = omega(830.0)
        assert abs(disp.delta_k(kdp, theta, w0, w0)) < 1e-6

    def test_type_ii_asymmetry(self, kdp):
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        w_a, w_b = omega(820.0), omega(840.0)
        assert disp.delta_k(kdp, theta, w_a, w_b) != pytest.approx(
            disp.delta_k(kdp, theta, w_b, w_a), rel=1e-6)

    def test_linear_in_index(self):
        base = constant_crystal(n_o=1.5, n_e=1.7)
        doubled = constant_crystal(n_o=3.0, n_e=3.4)
        w_e, w_o = omega(820.0), omega(840.0)
        dk1 = disp.delta_k(base, 30.0, w_e, w_o)
        dk2 = disp.delta_k(doubled, 30.0, w_e, w_o)
        assert dk2 == pytest.approx(2.0 * dk1, rel=1e-12)

    def test_vectorized_matches_scalar(self, kdp):
        theta = 67.0
        axis = np.linspace(omega(860.0), omega(800.0), 7)
        grid = disp.delta_k(kdp, theta, axis[:, None], axis[None, :])
        for i, we in enumerate(axis):
            for j, wo in enumerate(axis):
                assert grid[i, j] == pytest.approx(
                    disp.delta_k(kdp, theta, we, wo), rel=1e-12)


def pump_wavevector(crystal, theta):
    """k_p(omega_p) as delta_k evaluates it."""
    def k_p(omega_p):
        lam_p = 2.0 * math.pi * c_light / omega_p * 1e9
        return disp.index_e(crystal, lam_p, theta) * omega_p / c_light
    return k_p


def recording(fn, shapes):
    def recorded(x):
        shapes.append(np.shape(x))
        return fn(x)
    return recorded


class TestOnSums:
    """fn(omega_e + omega_o) once per distinct sum, bitwise equal to direct."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(e0=st.integers(10**15, 24 * 10**14), o0=st.integers(10**15, 24 * 10**14),
           step=st.integers(10**9, 10**11), n=st.integers(2, 40), m=st.integers(2, 40))
    def test_lattice_gather_is_bitwise_direct(self, kdp, e0, o0, step, n, m):
        assume(n != m)
        e = (float(e0) + float(step) * np.arange(n))[:, None]
        o = (float(o0) + float(step) * np.arange(m))[None, :]
        fns = (pump_wavevector(kdp, 59.0),
               lambda s: pump_envelope(PumpSpec(415.0, 4.0), s))
        for fn in fns:
            shapes = []
            gathered = disp._on_sums(recording(fn, shapes), e, o)
            assert shapes == [(n + m - 1,)]
            assert gathered.shape == (n, m)
            np.testing.assert_array_equal(gathered, fn(e + o))

    @pytest.mark.parametrize("e,o", [
        # 7-point axis of test_vectorized_matches_scalar: not whole rad/s.
        (np.linspace(omega(860.0), omega(800.0), 7)[:, None],
         np.linspace(omega(860.0), omega(800.0), 7)[None, :]),
        # Whole values on two different steps.
        (2.2e15 + 1e11 * np.arange(5.0)[:, None], 2.2e15 + 2e11 * np.arange(6.0)[None, :]),
        # Whole values off a uniform step.
        (2.2e15 + 1e11 * np.array([0.0, 1.0, 3.0])[:, None],
         2.2e15 + 1e11 * np.arange(4.0)[None, :]),
        # Not a column and a row.
        (2.2e15 + 1e11 * np.arange(5.0), 2.3e15 + 1e11 * np.arange(5.0)),
        (omega(830.0), omega(830.0)),
    ])
    def test_other_inputs_take_direct_path(self, kdp, e, o):
        k_p = pump_wavevector(kdp, 59.0)
        shapes = []
        got = disp._on_sums(recording(k_p, shapes), e, o)
        assert shapes == [np.shape(np.add(e, o))]
        np.testing.assert_array_equal(got, k_p(np.add(e, o)))

    def test_linspace_axis_equals_direct(self, kdp):
        # The 257-point HOM test axis happens to be whole rad/s on a whole
        # step, so it is gathered; either way it must equal the direct sum.
        axis = np.linspace(2.22e15, 2.32e15, 257)
        k_p = pump_wavevector(kdp, 59.0)
        np.testing.assert_array_equal(
            disp._on_sums(k_p, axis[:, None], axis[None, :]),
            k_p(axis[:, None] + axis[None, :]))


class TestPhasematchingAngle:
    @pytest.mark.parametrize("name,length,pump,daughter",
                             [("KDP", 5.0, 415.0, 830.0),
                              ("BBO", 2.0, 400.0, 800.0)])
    def test_residual_below_bound(self, name, length, pump, daughter):
        crystal = get_crystal(name, length)
        theta = disp.phasematching_angle(crystal, pump, daughter)
        assert 0.0 < theta < 90.0
        w0 = omega(daughter)
        assert abs(disp.delta_k(crystal, theta, w0, w0)) < 1e-6

    def test_against_coarse_grid_scan(self, kdp):
        # Independent oracle: locate the sign change on a 0.01 degree grid.
        w0 = omega(830.0)
        thetas = np.arange(0.01, 90.0, 0.01)
        dks = disp.delta_k(kdp, thetas[0], w0, w0)
        bracket = None
        prev = (thetas[0], dks)
        for th in thetas[1:]:
            val = disp.delta_k(kdp, th, w0, w0)
            if prev[1] * val <= 0.0:
                bracket = (prev[0], th)
                break
            prev = (th, val)
        assert bracket is not None
        solved = disp.phasematching_angle(kdp, 415.0, 830.0)
        assert bracket[0] <= solved <= bracket[1]

    def test_zero_birefringence_has_no_solution(self, zerobiref):
        with pytest.raises(NoPhasematchingError):
            disp.phasematching_angle(zerobiref, 415.0, 830.0)

    def test_non_degenerate_input_rejected(self, kdp):
        with pytest.raises(ValueError):
            disp.phasematching_angle(kdp, 415.0, 850.0)

    def test_principal_indices_evaluated_once(self, kdp, monkeypatch):
        # The four principal indices do not depend on theta; the solve must
        # not go back to evaluating Sellmeier (or delta_k) per iteration.
        calls = {"index": 0, "delta_k": 0}
        index, delta_k = SellmeierForm.index, disp.delta_k

        def counted_index(self, *args, **kwargs):
            calls["index"] += 1
            return index(self, *args, **kwargs)

        def counted_delta_k(*args, **kwargs):
            calls["delta_k"] += 1
            return delta_k(*args, **kwargs)

        monkeypatch.setattr(SellmeierForm, "index", counted_index)
        monkeypatch.setattr(disp, "delta_k", counted_delta_k)
        disp.phasematching_angle(kdp, 415.0, 830.0)
        assert calls == {"index": 4, "delta_k": 0}


class TestGvmPumpWavelength:
    def test_kdp_gvm_near_415(self, kdp):
        solution = disp.gvm_pump_wavelength(kdp, 830.0)
        assert solution.pump_wavelength_nm == pytest.approx(415.0, abs=5.0)

    def test_residual_contract(self, kdp):
        solution = disp.gvm_pump_wavelength(kdp, 830.0)
        assert abs(solution.residual) < 1e-9

    def test_length_does_not_move_the_solution(self):
        # Dispersion alone sets the GVM point; length sets only the bandwidth.
        assert (disp.gvm_pump_wavelength(get_crystal("KDP", 1.0), 830.0)
                == disp.gvm_pump_wavelength(get_crystal("KDP", 10.0), 830.0))

    def test_zero_birefringence_propagates(self, zerobiref):
        with pytest.raises(NoGvmPointError):
            disp.gvm_pump_wavelength(zerobiref, 830.0)

    def test_matches_richardson_reference(self, kdp):
        # Independent solve: brentq on delta_k for the angle and on a
        # Richardson-extrapolated group index for the pump wavelength.
        def mismatch(lam_p):
            w = omega(2.0 * lam_p)
            theta = brentq(lambda th: disp.delta_k(kdp, th, w, w), 1e-6, 90.0,
                           xtol=1e-13, rtol=1e-15)
            return (richardson_group_index(kdp, "e", lam_p, theta)
                    - richardson_group_index(kdp, "o", 2.0 * lam_p, 0.0))

        reference = brentq(mismatch, 414.0, 416.0, xtol=1e-12, rtol=1e-15)
        solution = disp.gvm_pump_wavelength(kdp, 830.0)
        assert abs(solution.pump_wavelength_nm - reference) <= 1e-8


def reference_gvm_pump_wavelength(crystal, daughter_o_wavelength_nm):
    """The scalar coarse scan that gvm_pump_wavelength ran before its array
    pass, kept as it was (package names qualified) as the oracle: a full
    angle solve and two group indices at each of up to 101 pump
    wavelengths, in order."""
    if not 0 < daughter_o_wavelength_nm < math.inf:
        raise ConfigError("daughter wavelength must be positive and finite")
    center = daughter_o_wavelength_nm / 2.0

    def mismatch(lam_p):
        theta = disp.phasematching_angle(crystal, lam_p, 2.0 * lam_p)
        ng_pump = disp.group_index(crystal, "e", lam_p, theta)
        ng_daughter = disp.group_index(crystal, "o", 2.0 * lam_p)
        return ng_pump - ng_daughter, theta, ng_pump, ng_daughter

    # Coarse scan first: parts of the window may have no phasematching
    # solution at all, so bracket the sign change between valid points only.
    n_coarse = 101
    lo, hi = center - disp.GVM_SCAN_HALFWIDTH_NM, center + disp.GVM_SCAN_HALFWIDTH_NM
    step = 2.0 * disp.GVM_SCAN_HALFWIDTH_NM / (n_coarse - 1)
    prev = None
    for i in range(n_coarse):
        lam = lo + i * step
        try:
            f = mismatch(lam)[0]
        except NoPhasematchingError:
            prev = None
            continue
        if prev is not None and prev[1] * f <= 0.0:
            break
        prev = (lam, f)
    else:
        raise NoGvmPointError(
            f"no GVM point: group-index mismatch has no sign change in "
            f"[{lo:.6g}, {hi:.6g}] nm for {crystal.name}"
        )
    lam_p = brentq(lambda x: mismatch(x)[0], prev[0], lam, xtol=1e-12)
    residual, theta, ng_pump, ng_daughter = mismatch(lam_p)
    return disp.GvmSolution(
        pump_wavelength_nm=lam_p,
        phasematching_angle_deg=theta,
        group_index_pump_e=ng_pump,
        group_index_daughter_o=ng_daughter,
        residual=residual,
    )


def reference_gvm_mismatch(crystal, pump_nm):
    """The scalar group-index mismatch of the reference scan at one pump."""
    theta = disp.phasematching_angle(crystal, pump_nm, 2.0 * pump_nm)
    return (disp.group_index(crystal, "e", pump_nm, theta)
            - disp.group_index(crystal, "o", 2.0 * pump_nm))


def gvm_outcome(solve, crystal, daughter_nm):
    """The solution, or the type and message of the package error raised.
    Any other exception, a bare ValueError from brentq included, propagates."""
    try:
        return solve(crystal, daughter_nm)
    except PairspecError as exc:
        return type(exc), str(exc)


def windowed_kdp(o_window_um, e_window_um):
    """KDP dispersion on narrower validity windows, one per form."""
    kdp = get_crystal("KDP", 5.0)
    return replace(
        kdp, name="NARROW",
        sellmeier_o=replace(kdp.sellmeier_o, valid_um_min=o_window_um[0],
                            valid_um_max=o_window_um[1]),
        sellmeier_e=replace(kdp.sellmeier_e, valid_um_min=e_window_um[0],
                            valid_um_max=e_window_um[1]))


class TestGvmArrayScan:
    """The one-pass array scan against the scalar loop it replaced."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(["KDP", "BBO", "ZEROBIREF"]),
           daughter=st.one_of(st.floats(720.0, 940.0), st.floats(450.0, 1500.0)))
    @example(name="KDP", daughter=830.0)
    @example(name="KDP", daughter=750.0)
    @example(name="BBO", daughter=800.0)
    @example(name="BBO", daughter=1100.0)
    def test_shipped_crystals_match_scalar_scan(self, name, daughter):
        crystal = get_crystal(name, 5.0)
        assert (gvm_outcome(disp.gvm_pump_wavelength, crystal, daughter)
                == gvm_outcome(reference_gvm_pump_wavelength, crystal, daughter))

    # Windows whose ends fall before, inside and after the KDP scan: of 200
    # uniform draws, 86 raise at point 0, 74 mid-scan before the bracket at
    # 415.1 nm, and 39 find the bracket first.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(o_min=st.floats(0.28, 0.40), o_max=st.floats(0.80, 0.88),
           e_min=st.floats(0.28, 0.40), e_max=st.floats(0.80, 0.88),
           daughter=st.floats(720.0, 940.0))
    def test_narrow_windows_match_scalar_scan(self, o_min, o_max, e_min, e_max, daughter):
        crystal = windowed_kdp((o_min, o_max), (e_min, e_max))
        assert (gvm_outcome(disp.gvm_pump_wavelength, crystal, daughter)
                == gvm_outcome(reference_gvm_pump_wavelength, crystal, daughter))

    @pytest.mark.parametrize("name,daughter", [("KDP", 750.0), ("KDP", 830.0), ("BBO", 800.0)])
    def test_array_mismatch_matches_scalar(self, name, daughter):
        # KDP at 750 nm has no phasematching below 375 nm, so that scan
        # holds both kinds of point. The angles are bisected to 1e-13 deg.
        crystal = get_crystal(name, 5.0)
        lam = daughter / 2.0 - disp.GVM_SCAN_HALFWIDTH_NM + np.arange(101.0)
        f, phasematched = disp._scan_mismatch(crystal, lam)
        for x, fx, ok in zip(lam, f, phasematched):
            try:
                expected = reference_gvm_mismatch(crystal, float(x))
            except NoPhasematchingError:
                assert not ok
                continue
            assert ok and abs(fx - expected) <= 1e-14

    def test_range_error_mid_scan(self):
        # Points 365, 366, ... nm: 416 nm is the first whose daughter (832 nm)
        # leaves the window, and the bracket [415, 416] needs it.
        crystal = windowed_kdp((0.36, 0.831), (0.36, 0.831))
        with pytest.raises(DispersionRangeError,
                           match=r"^832 nm is outside the validity range \[360, 831\] nm "
                                 r"of crystal NARROW$"):
            disp.gvm_pump_wavelength(crystal, 830.0)
        assert disp.gvm_pump_wavelength(windowed_kdp((0.36, 0.84), (0.36, 0.84)), 830.0) \
            == disp.gvm_pump_wavelength(get_crystal("KDP", 5.0), 830.0)

    @pytest.mark.parametrize("end", [0, 1], ids=["low-end", "high-end"])
    @pytest.mark.parametrize("fault", ["sign", "no-phasematching"])
    def test_unconfirmed_bracket_ends_typed(self, kdp, monkeypatch, end, fault):
        # The array scan brackets KDP at 830 nm on [415, 416] nm. At one end,
        # make the scalar mismatch take the other end's sign, or find no
        # phasematching; the array pass is left as it is.
        ends = (415.0, 416.0)
        target, other = ends[end], ends[1 - end]
        group_index, angle = disp.group_index, disp.phasematching_angle
        other_sign = math.copysign(1.0, reference_gvm_mismatch(kdp, other))

        def faulty_group_index(crystal, polarization, wavelength_nm, theta_deg=0.0):
            if polarization == "e" and np.ndim(wavelength_nm) == 0 and wavelength_nm == target:
                return group_index(crystal, "o", 2.0 * wavelength_nm) + 1e-3 * other_sign
            return group_index(crystal, polarization, wavelength_nm, theta_deg)

        def faulty_angle(crystal, pump_nm, degenerate_nm):
            if pump_nm == target:
                raise NoPhasematchingError(f"no phasematching at {pump_nm} nm")
            return angle(crystal, pump_nm, degenerate_nm)

        if fault == "sign":
            monkeypatch.setattr(disp, "group_index", faulty_group_index)
        else:
            monkeypatch.setattr(disp, "phasematching_angle", faulty_angle)
        # A package error, or the solution the scalar scan reaches with the
        # same fault; gvm_outcome lets a bare ValueError through.
        got = gvm_outcome(disp.gvm_pump_wavelength, kdp, 830.0)
        assert isinstance(got, tuple) or got == reference_gvm_pump_wavelength(kdp, 830.0)


class TestGvmCallCounts:
    """Angle solves and Sellmeier calls per GVM solve. Before the array scan
    (the scalar loop above) KDP at 830 nm made 59 angle solves and 526
    SellmeierForm.index calls, and the BBO 800 nm miss 101 and 909."""

    COUNTED = ["dispersion.phasematching_angle", "crystals.SellmeierForm.index"]

    def test_hit_refines_only_the_bracket(self, kdp, monkeypatch):
        # Measured: 6 angle solves and 63 index calls. The scan makes 9 array
        # index calls (4 for the angles, 4 for the e group index, 1 for the
        # o one), and each scalar mismatch evaluation the same 9 on scalars.
        calls = count_calls(monkeypatch, self.COUNTED)
        disp.gvm_pump_wavelength(kdp, 830.0)
        solves = calls["dispersion.phasematching_angle"]
        assert solves <= 10
        assert calls["crystals.SellmeierForm.index"] == 9 + 9 * solves

    def test_miss_makes_no_angle_solve(self, bbo, monkeypatch):
        # Measured: 0 angle solves and the scan's 9 array index calls.
        calls = count_calls(monkeypatch, self.COUNTED)
        with pytest.raises(NoGvmPointError):
            disp.gvm_pump_wavelength(bbo, 800.0)
        assert calls == {"dispersion.phasematching_angle": 0,
                         "crystals.SellmeierForm.index": 9}
