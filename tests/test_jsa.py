import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import c as c_light

from pairspec import dispersion as disp
from pairspec import jsa as jsa_module
from pairspec.crystals import SellmeierForm
from pairspec.errors import ConfigError, FilterSupportError, NumericalError
from pairspec.jsa import (FilterSpec, FrequencyGrid, PumpSpec, apply_filters,
                          arm_transmissions, build_grid, filter_transmission,
                          joint_amplitude, jsi_pearson,
                          lattice_axis, marginal_spectrum, normalize, other_arm,
                          phasematching_function, pump_envelope)

from conftest import assert_lattice, assert_same_bits, constant_crystal


def fwhm_of_curve(x, y):
    """FWHM of a peaked sampled curve by linear interpolation at half max."""
    y = np.asarray(y, dtype=float)
    half = np.max(y) / 2.0
    above = np.where(y >= half)[0]
    if above.size == 0:
        raise NumericalError("curve has no points above half maximum")
    i0, i1 = above[0], above[-1]
    if i0 == 0 or i1 == len(y) - 1:
        raise NumericalError("half-maximum crossings not bracketed by the axis")
    x_lo = np.interp(half, [y[i0 - 1], y[i0]], [x[i0 - 1], x[i0]])
    x_hi = np.interp(half, [y[i1 + 1], y[i1]], [x[i1 + 1], x[i1]])
    return float(abs(x_hi - x_lo))


def make_grid(center_omega, half, n=64):
    axis = np.linspace(center_omega - half, center_omega + half, n)
    return FrequencyGrid(axis, axis.copy())


def gaussian_jsa(grid, sig_e, sig_o, center=None):
    """Separable two-Gaussian test amplitude."""
    w0e = center if center is not None else grid.omega_e.mean()
    w0o = center if center is not None else grid.omega_o.mean()
    ve = grid.omega_e[:, None] - w0e
    vo = grid.omega_o[None, :] - w0o
    return normalize(grid, np.exp(-ve**2 / (4 * sig_e**2)) * np.exp(-vo**2 / (4 * sig_o**2)))


class TestPumpEnvelope:
    pump = PumpSpec(center_nm=415.0, fwhm_nm=4.0)

    def test_peak_amplitude_is_one(self):
        assert pump_envelope(self.pump, self.pump.omega_p) == 1.0

    def test_intensity_fwhm(self):
        d_omega = 2 * math.pi * c_light * 4e-9 / (415e-9) ** 2
        for sign in (-1, 1):
            amp = pump_envelope(self.pump, self.pump.omega_p + sign * d_omega / 2)
            assert abs(amp) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_symmetry(self, rng):
        deltas = rng.uniform(0, 5e13, size=50)
        up = pump_envelope(self.pump, self.pump.omega_p + deltas)
        down = pump_envelope(self.pump, self.pump.omega_p - deltas)
        np.testing.assert_allclose(up, down, rtol=1e-12)

    def test_wavelength_intensity_fwhm(self):
        # Sampled in wavelength, the intensity FWHM recovers fwhm_nm.
        lam = np.linspace(405.0, 425.0, 4001)
        intensity = np.abs(pump_envelope(
            self.pump, 2 * math.pi * c_light / (lam * 1e-9))) ** 2
        assert fwhm_of_curve(lam, intensity) == pytest.approx(4.0, rel=5e-3)


class TestPhasematchingFunction:
    def test_unity_at_zero_mismatch(self, kdp):
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        w0 = 2 * math.pi * c_light / 830e-9
        phi = phasematching_function(kdp, theta, w0, w0)
        assert abs(phi) == pytest.approx(1.0, abs=1e-9)

    def test_first_sinc_zero(self, kdp):
        # Scan along omega_e at fixed omega_o until dk L / 2 crosses pi.
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        w0 = 2 * math.pi * c_light / 830e-9
        length = kdp.length_mm * 1e-3
        target = 2 * math.pi / length

        def mismatch(we):
            return disp.delta_k(kdp, theta, we, w0) - target

        lo, hi = w0, w0 + 5e13
        assert mismatch(lo) * mismatch(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mismatch(lo) * mismatch(mid) <= 0:
                hi = mid
            else:
                lo = mid
        we_zero = 0.5 * (lo + hi)
        # |phi| at a bisected zero is floored by the ~5e-9 rad/m evaluation
        # noise of delta_k, so compare with the first-order expansion at
        # the same point instead: with dk = 2 pi / L + m, x = pi + m L / 2
        # and sinc(x) exp(i x) = m L / (2 pi) + O(m^2).
        m = mismatch(we_zero)
        expected = m * length / (2 * math.pi)
        assert abs(phasematching_function(kdp, theta, we_zero, w0) - expected) < 1e-12

    def test_flat_phase_mode_is_real(self, kdp):
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        axis = np.linspace(2 * math.pi * c_light / 850e-9,
                           2 * math.pi * c_light / 810e-9, 32)
        phi = phasematching_function(kdp, theta, axis[:, None], axis[None, :],
                                     flat_phase=True)
        assert np.max(np.abs(phi.imag)) == 0.0
        with_phase = phasematching_function(kdp, theta, axis[:, None], axis[None, :])
        np.testing.assert_allclose(np.abs(with_phase), np.abs(phi), atol=1e-15)

    @pytest.mark.parametrize("source", ["kdp_source", "bbo_source"])
    def test_kernel_is_np_sinc_bit_for_bit(self, source, request):
        # The in-place sinc repeats np.sinc's own steps on the delta_k buffer.
        src = replace(request.getfixturevalue(source), n_points=256)
        grid = src.grid()
        we, wo = grid.omega_e[:, None], grid.omega_o[None, :]
        length = src.crystal.length_mm * 1e-3
        x = disp.delta_k(src.crystal, src.theta, we, wo) * length / 2.0
        assert_same_bits(phasematching_function(src.crystal, src.theta, we, wo,
                                                flat_phase=True),
                         np.sinc(x / np.pi))
        assert_same_bits(phasematching_function(src.crystal, src.theta, we, wo),
                         np.sinc(x / np.pi) * np.exp(1j * x))

    @pytest.mark.parametrize("flat_phase, kind", [(True, np.float64), (False, np.complex128)])
    def test_scalar_in_gives_scalar_out(self, kdp, flat_phase, kind):
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        w0 = 2 * math.pi * c_light / 830e-9
        phi = phasematching_function(kdp, theta, w0, 1.001 * w0, flat_phase=flat_phase)
        assert type(phi) is kind and np.ndim(phi) == 0

    @pytest.mark.parametrize("flat_phase", [True, False])
    def test_exact_zero_mismatch_is_one(self, kdp, monkeypatch, flat_phase):
        # np.sinc's guard: an exact zero of dk (of either sign) becomes eps
        # before the divide, so it gives exactly 1 with no 0/0.
        dk = np.arange(-27.0, 37.0).reshape(8, 8)
        dk[0, 0] = -0.0
        axis = np.linspace(2.2e15, 2.3e15, 8)
        for given, zeros in ((dk, (np.array([0, 3]), np.array([0, 3]))), (0.0, ())):
            def fake_delta_k(*args, out, dk=given):
                out[...] = dk
                return out

            monkeypatch.setattr(jsa_module, "delta_k", fake_delta_k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                phi = phasematching_function(kdp, 60.0, axis[:, None], axis[None, :],
                                             flat_phase=flat_phase)
            assert np.all(np.isfinite(phi))
            assert np.all(np.asarray(phi)[zeros] == 1.0)

    def test_kdp_ridge_is_vertical(self, kdp_jsa, kdp):
        # Position of the |phi|^2 maximum along omega_e barely moves with
        # omega_o: its spread stays below 5% of the phasematching width.
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        grid = kdp_jsa.grid
        phi = phasematching_function(kdp, theta, grid.omega_e[:, None],
                                     grid.omega_o[None, :], flat_phase=True)
        intensity = np.abs(phi) ** 2
        argmax_e = grid.omega_e[np.argmax(intensity, axis=0)]
        central = intensity[:, intensity.shape[1] // 2]
        width = fwhm_of_curve(grid.omega_e, central)
        assert np.std(argmax_e) < 0.05 * width


class TestBuildGrid:
    def test_axes_symmetric_about_degenerate_frequency(self, kdp, kdp_source):
        pump = PumpSpec(415.0, 4.0)
        grid = build_grid(kdp, pump, n_points=128, theta_deg=kdp_source.resolve_theta())
        w0 = pump.omega_p / 2
        assert grid.omega_e[0] + grid.omega_e[-1] == pytest.approx(2 * w0, rel=1e-12)
        np.testing.assert_allclose(grid.omega_e, grid.omega_o)

    def test_doubling_points_halves_spacing(self, kdp, kdp_source):
        pump = PumpSpec(415.0, 4.0)
        theta = kdp_source.resolve_theta()
        coarse = build_grid(kdp, pump, n_points=128, theta_deg=theta)
        fine = build_grid(kdp, pump, n_points=255, theta_deg=theta)
        assert fine.d_omega == pytest.approx(coarse.d_omega / 2, rel=1e-9)

    def test_kdp_marginals_decay_at_edges(self, kdp_jsa):
        # Truncation guard at the default window. The e-axis edge sits on
        # the slowly decaying sinc tail, so the achievable bound is ~1e-2
        # rather than the 1e-4 a Gaussian envelope would give.
        for arm in ("e", "o"):
            _, intensity = marginal_spectrum(kdp_jsa, arm)
            assert max(intensity[0], intensity[-1]) < 5e-2

    def test_rejects_degenerate_inputs(self, kdp, kdp_source):
        theta = kdp_source.resolve_theta()
        with pytest.raises(ConfigError):
            build_grid(kdp, PumpSpec(415.0, 4.0), n_points=8, theta_deg=theta)
        with pytest.raises(ConfigError):
            build_grid(kdp, PumpSpec(415.0, 4.0), span_sigmas=0.0, theta_deg=theta)
        with pytest.raises(ConfigError):
            build_grid(kdp, PumpSpec(415.0, 4.0), span_sigmas=math.nan, theta_deg=theta)
        # A source refuses the settings when it is made, with the same message.
        for settings, message in (({"n_points": 8}, "n_points must be at least 16, got 8"),
                                  ({"span_sigmas": 0.0},
                                   "span_sigmas must be positive and finite, got 0")):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                build_grid(kdp, PumpSpec(415.0, 4.0), theta_deg=theta, **settings)
            with pytest.raises(ConfigError, match=f"^{message}$"):
                replace(kdp_source, **settings)
        for fwhm_nm in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                PumpSpec(415.0, fwhm_nm)
        with pytest.raises(ConfigError):
            FilterSpec(shape="gaussian", arm="o", center_nm=830.0, fwhm_nm=math.nan)
        with pytest.raises(ConfigError):
            # No null filter: an arm without a filter is left out of the list.
            FilterSpec(shape="none", arm="o", center_nm=830.0, fwhm_nm=4.0)
        with pytest.raises(ConfigError):
            # Dispersionless and isotropic: no group-index mismatch to
            # size the phasematching bandwidth from.
            build_grid(constant_crystal(n_o=1.5, n_e=1.5),
                       PumpSpec(415.0, 4.0), theta_deg=45.0)

    @pytest.mark.parametrize("source", ["kdp_source", "bbo_source"])
    def test_shipped_axes_are_lattices(self, source, request):
        src = request.getfixturevalue(source)
        grid = src.grid()
        assert_lattice(grid.omega_e)
        assert_lattice(grid.omega_o)

    def test_one_axis_shared_by_both_photons(self):
        axis = np.linspace(2.2e15, 2.3e15, 32)
        grid = FrequencyGrid(axis, axis.copy())
        assert grid.omega_o is grid.omega_e
        assert grid.measure == grid.d_omega ** 2
        for other in (axis + 1.0, axis[:-1]):
            with pytest.raises(ConfigError, match="omega_o must equal omega_e"):
                FrequencyGrid(axis, other)

    def test_step_rounding_to_zero_rejected(self):
        with pytest.raises(ConfigError, match="step of 0"):
            lattice_axis(2.27e15, 2.27e15 + 10.0, 64)


class TestJointAmplitude:
    def test_pump_terms_evaluated_once_per_sum(self, kdp, monkeypatch):
        # On a lattice grid k_p sees the 2n - 1 distinct sums, not n^2 points.
        n = 64
        pump = PumpSpec(415.0, 4.0)
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        grid = build_grid(kdp, pump, n_points=n, theta_deg=theta)
        points = {"e": 0, "o": 0}
        index = SellmeierForm.index

        def counted_index(self, wavelength_nm, *args, **kwargs):
            points["e" if self is kdp.sellmeier_e else "o"] += np.size(wavelength_nm)
            return index(self, wavelength_nm, *args, **kwargs)

        monkeypatch.setattr(SellmeierForm, "index", counted_index)
        joint_amplitude(kdp, theta, pump, grid, flat_phase=True)
        assert points == {"e": (2 * n - 1) + n, "o": (2 * n - 1) + 2 * n}

    def test_kdp_weakly_correlated(self, kdp_jsa):
        # Plane-wave pump with the full sinc response keeps a residual
        # sidelobe correlation; the KDP source is still far less
        # correlated than BBO (see test_bbo below).
        assert abs(jsi_pearson(kdp_jsa)) < 0.35

    def test_kdp_marginal_asymmetry(self, kdp_jsa):
        lam_e, int_e = marginal_spectrum(kdp_jsa, "e")
        lam_o, int_o = marginal_spectrum(kdp_jsa, "o")
        assert fwhm_of_curve(lam_o, int_o) > 3 * fwhm_of_curve(lam_e, int_e)

    def test_bbo_strongly_correlated(self, bbo_jsa):
        assert abs(jsi_pearson(bbo_jsa)) > 0.5

    def test_unit_norm(self, kdp_jsa, bbo_jsa):
        assert kdp_jsa.norm_sq() == pytest.approx(1.0, abs=1e-9)
        assert bbo_jsa.norm_sq() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flat_phase", [False, True])
    def test_pipeline_is_product_of_factors(self, kdp, flat_phase):
        # Bit-level determinism: f equals alpha * phi elementwise before
        # normalization.
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        pump = PumpSpec(415.0, 4.0)
        grid = build_grid(kdp, pump, n_points=64, theta_deg=theta)
        jsa = joint_amplitude(kdp, theta, pump, grid, flat_phase=flat_phase)
        alpha = pump_envelope(pump, grid.omega_e[:, None] + grid.omega_o[None, :])
        phi = phasematching_function(kdp, theta, grid.omega_e[:, None],
                                     grid.omega_o[None, :], flat_phase=flat_phase)
        raw = alpha * phi
        raw = raw / math.sqrt(np.sum(np.abs(raw) ** 2) * grid.measure)
        np.testing.assert_array_equal(jsa.values, raw)

    @pytest.mark.parametrize("lattice", [True, False])
    def test_builds_leave_the_grid_axes_unchanged(self, kdp, lattice):
        # phi, the pump product and the scale are formed in place; none of
        # them may write through to the axes they were built from.
        theta = disp.phasematching_angle(kdp, 415.0, 830.0)
        pump = PumpSpec(415.0, 4.0)
        grid = build_grid(kdp, pump, n_points=64, theta_deg=theta)
        if not lattice:
            grid = make_grid(grid.omega_e.mean(), 1e13)
        before = grid.omega_e.copy()
        for flat_phase in (True, False):
            phasematching_function(kdp, theta, grid.omega_e[:, None],
                                   grid.omega_o[None, :], flat_phase=flat_phase)
            joint_amplitude(kdp, theta, pump, grid, flat_phase=flat_phase)
            np.testing.assert_array_equal(grid.omega_e, before)
            assert grid.omega_o is grid.omega_e

    def test_normalize_leaves_its_input_unchanged(self, kdp_source):
        jsa = replace(kdp_source, n_points=64).build_jsa()
        before = jsa.values.copy()
        flipped = normalize(jsa.grid, jsa.values[::-1, ::-1])
        assert_same_bits(jsa.values, before)
        assert not np.shares_memory(flipped.values, jsa.values)

    @pytest.mark.parametrize("flat_phase", [True, False], ids=["flat", "kept"])
    def test_one_n_by_n_buffer(self, kdp_source, flat_phase):
        # phi, the pump product and the normalization share delta_k's array.
        n = 256
        grid = replace(kdp_source, n_points=n).grid()
        tracemalloc.start()
        try:
            joint_amplitude(kdp_source.crystal, kdp_source.theta, kdp_source.pump, grid,
                            flat_phase=flat_phase)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * np.dtype(float if flat_phase else complex).itemsize

    @pytest.mark.parametrize("shape", [(16, 16), (100, 100), (256, 256), (300, 300),
                                       (513, 513), (64, 1000)])
    @pytest.mark.parametrize("kind", ["real", "complex", "fortran"])
    def test_norm_is_np_sum_bit_for_bit(self, rng, shape, kind):
        values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, (shape[0], 1))
        if kind == "complex":
            values = values + 1j * rng.standard_normal(shape)
        if kind == "fortran":
            values = np.asfortranarray(values)
        assert_same_bits(jsa_module._sum_abs_sq(values),
                         np.sum(jsa_module._abs_sq(values)))

    def test_energy_conservation_structure(self, rng):
        # alpha depends on the frequencies only through their sum: shearing
        # the grid (omega_e + d, omega_o - d) leaves alpha unchanged.
        pump = PumpSpec(415.0, 4.0)
        we = rng.uniform(2.2e15, 2.4e15, size=200)
        wo = rng.uniform(2.2e15, 2.4e15, size=200)
        shear = rng.uniform(-1e13, 1e13, size=200)
        np.testing.assert_allclose(
            pump_envelope(pump, (we + shear) + (wo - shear)),
            pump_envelope(pump, we + wo), rtol=1e-12)


class TestApplyFilters:
    @pytest.mark.parametrize("flat_phase, dtype",
                             [(True, np.float64), (False, np.complex128)])
    def test_dtype_follows_phase(self, kdp_source, flat_phase, dtype):
        # A flat-phase amplitude is real and stays float64 through the
        # build and the filters; with the phasematching phase it is complex.
        jsa = replace(kdp_source, n_points=64, flat_phase=flat_phase).build_jsa()
        filt = FilterSpec(shape="gaussian", arm="o", center_nm=830.0, fwhm_nm=4.0)
        assert jsa.values.dtype == dtype
        assert apply_filters(jsa, [filt])[0].values.dtype == dtype
        assert jsa.flat_phase is flat_phase

    def test_no_filters_is_identity(self, kdp_jsa):
        # An empty list returns the amplitude itself, with nothing lost.
        filtered, passed = apply_filters(kdp_jsa, [])
        assert filtered is kdp_jsa and passed == 1.0

    def test_arm_transmissions_multiply_per_arm(self, bbo_jsa):
        axis = bbo_jsa.grid.omega_e
        a = FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0)
        b = FilterSpec(shape="rectangular", arm="o", center_nm=801.0, fwhm_nm=6.0)
        t = arm_transmissions([a, b], axis)
        np.testing.assert_array_equal(t["e"], np.ones_like(axis))
        np.testing.assert_array_equal(
            t["o"], filter_transmission(a, axis) * filter_transmission(b, axis))

    def test_full_rectangular_filter_is_identity(self, kdp_jsa):
        lam = 2 * math.pi * c_light / kdp_jsa.grid.omega_e.mean() * 1e9
        filt = FilterSpec(shape="rectangular", arm="e", center_nm=lam,
                          fwhm_nm=500.0)
        filtered, passed = apply_filters(kdp_jsa, [filt])
        np.testing.assert_allclose(filtered.values, kdp_jsa.values, atol=1e-12)
        assert passed == pytest.approx(1.0, abs=1e-12)

    def test_narrowing_filter_decreases_passed_fraction(self, bbo_jsa):
        passed_values = []
        for bw in (16.0, 8.0, 4.0, 2.0, 1.0):
            filt = FilterSpec(shape="gaussian", arm="o", center_nm=800.0,
                              fwhm_nm=bw)
            _, passed = apply_filters(bbo_jsa, [filt])
            passed_values.append(passed)
        assert all(a > b for a, b in zip(passed_values, passed_values[1:]))

    def test_filter_removing_all_support_is_error(self, bbo_jsa):
        filt = FilterSpec(shape="rectangular", arm="o", center_nm=400.0,
                          fwhm_nm=1.0)
        with pytest.raises(FilterSupportError):
            apply_filters(bbo_jsa, [filt])

    def test_transmission_bounded(self, bbo_jsa):
        for shape, bw in (("gaussian", 3.0), ("rectangular", 3.0)):
            filt = FilterSpec(shape=shape, arm="o", center_nm=800.0, fwhm_nm=bw)
            t = filter_transmission(filt, bbo_jsa.grid.omega_o)
            assert np.all((t >= 0.0) & (t <= 1.0))


class TestArmNames:
    def test_partner_arm(self):
        assert other_arm("e") == "o"
        assert other_arm("o") == "e"

    def test_every_arm_argument_names_a_bad_value(self, kdp_source, kdp_jsa):
        from pairspec.analysis import filter_sweep
        from pairspec.interference import two_source_experiment
        from pairspec.schmidt import heralded_density_matrix, heralding_efficiency
        calls = [
            lambda: marginal_spectrum(kdp_jsa, "x"),
            lambda: FilterSpec("gaussian", "x", 830.0, 4.0),
            lambda: heralded_density_matrix(kdp_jsa, "x"),
            lambda: heralding_efficiency(kdp_jsa, [], "x"),
            lambda: filter_sweep(kdp_source, [4.0], herald_arm="x"),
            lambda: two_source_experiment(kdp_source, kdp_source, "x", [0, 1, 2]),
        ]
        for call in calls:
            with pytest.raises(ConfigError, match="must be 'e' or 'o', got 'x'"):
                call()


class TestMarginals:
    def test_symmetric_separable_jsa_has_identical_marginals(self):
        grid = make_grid(2.27e15, 5e13, n=65)
        jsa = gaussian_jsa(grid, 1e13, 1e13)
        lam_e, int_e = marginal_spectrum(jsa, "e")
        lam_o, int_o = marginal_spectrum(jsa, "o")
        np.testing.assert_array_equal(lam_e, lam_o)
        np.testing.assert_allclose(int_e, int_o, atol=1e-12)

    def test_kdp_e_marginal_near_4nm(self, kdp_jsa):
        lam, intensity = marginal_spectrum(kdp_jsa, "e")
        assert fwhm_of_curve(lam, intensity) == pytest.approx(4.0, abs=1.5)

    def test_kdp_o_marginal_broader(self, kdp_jsa):
        lam_e, int_e = marginal_spectrum(kdp_jsa, "e")
        lam_o, int_o = marginal_spectrum(kdp_jsa, "o")
        assert fwhm_of_curve(lam_o, int_o) > fwhm_of_curve(lam_e, int_e)


class TestGridConvergence:
    def test_purity_and_marginals_stable_under_refinement(self, kdp_source):
        from dataclasses import replace
        from pairspec.schmidt import schmidt_decompose
        coarse = replace(kdp_source, n_points=256).build_jsa()
        fine = kdp_source.build_jsa()
        p_coarse = schmidt_decompose(coarse).purity
        p_fine = schmidt_decompose(fine).purity
        assert abs(p_fine - p_coarse) < 1e-3
        for arm in ("e", "o"):
            lam_c, int_c = marginal_spectrum(coarse, arm)
            lam_f, int_f = marginal_spectrum(fine, arm)
            assert fwhm_of_curve(lam_c, int_c) == pytest.approx(
                fwhm_of_curve(lam_f, int_f), rel=1e-3)
