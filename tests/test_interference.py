import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairspec import interference
from pairspec.crystals import get_crystal
from pairspec.dispersion import phasematching_angle
from pairspec.errors import ConfigError
from pairspec.interference import (SourceSpec, coherence_time, covering_grid, hom_dip,
                                   two_source_experiment)
from pairspec.jsa import (FilterSpec, FrequencyGrid, PumpSpec, build_grid, lattice_axis,
                         normalize, other_arm)
from pairspec.schmidt import ReducedDensityMatrix, heralded_density_matrix, schmidt_decompose

from conftest import assert_lattice, assert_same_bits, purity


def pure_state_density(axis, sigma, center=None):
    """rho = |psi><psi| for a Gaussian spectral amplitude."""
    c = axis.mean() if center is None else center
    psi = np.exp(-((axis - c) ** 2) / (4 * sigma**2)).astype(complex)
    d = float(axis[1] - axis[0])
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * d)
    return ReducedDensityMatrix(grid=FrequencyGrid(axis, axis), values=np.outer(psi, psi.conj()))


AXIS = np.linspace(2.22e15, 2.32e15, 257)


def assert_peak_not_below_scan(scan):
    """The refined visibility is at least the best sampled overlap."""
    assert scan.visibility >= np.max(1.0 - scan.rates)


class TestCoherenceTime:
    def test_scaling(self):
        assert coherence_time(440.0) == pytest.approx(311.1, abs=0.1)
        assert coherence_time(92.0) == pytest.approx(65.05, abs=0.05)
        assert coherence_time(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            coherence_time(-1.0)


class TestHomDip:
    def test_identical_pure_states_full_visibility(self):
        rho = pure_state_density(AXIS, 5e12)
        scan = hom_dip(rho, rho, np.linspace(-2000, 2000, 201))
        assert scan.visibility == pytest.approx(1.0, abs=1e-9)
        assert scan.rates[np.argmin(np.abs(scan.delays_fs))] < 1e-9
        assert scan.dip_center_fs == pytest.approx(0.0, abs=1.0)
        assert_peak_not_below_scan(scan)

    @pytest.mark.parametrize("tau0_fs", [123.4, -37.77])
    def test_peak_between_scan_samples(self, tau0_fs):
        # A linear spectral phase delays rho_b by tau0, which falls between
        # the 50 fs scan samples; the dip must be found there at full depth.
        rho_a = pure_state_density(AXIS, 5e12)
        phase = np.exp(1j * (AXIS - AXIS.mean()) * tau0_fs * 1e-15)
        rho_b = ReducedDensityMatrix(grid=rho_a.grid,
                                     values=rho_a.values * np.outer(phase, phase.conj()))
        scan = hom_dip(rho_a, rho_b, np.linspace(-2000, 2000, 81))
        assert scan.visibility == pytest.approx(1.0, abs=1e-12)
        assert scan.dip_center_fs == pytest.approx(tau0_fs, abs=1e-3)
        assert_peak_not_below_scan(scan)

    def test_gaussian_dip_width_analytic(self):
        # Identical pure Gaussians: overlap(tau) = exp(-sigma^2 tau^2), so
        # the dip FWHM is 2 sqrt(ln 2) / sigma.
        sigma = 5e12
        rho = pure_state_density(AXIS, sigma)
        scan = hom_dip(rho, rho, np.linspace(-2000, 2000, 2001))
        expected_fs = 2 * math.sqrt(math.log(2)) / sigma * 1e15
        assert scan.dip_fwhm_fs == pytest.approx(expected_fs, rel=5e-3)
        assert_peak_not_below_scan(scan)

    def test_disjoint_spectra_flat(self):
        rho_a = pure_state_density(AXIS, 1.5e12, center=2.24e15)
        rho_b = pure_state_density(AXIS, 1.5e12, center=2.30e15)
        scan = hom_dip(rho_a, rho_b, np.linspace(-2000, 2000, 201))
        assert scan.visibility < 1e-6
        assert scan.dip_fwhm_fs == 0.0
        np.testing.assert_allclose(scan.rates, 1.0, atol=1e-6)
        assert_peak_not_below_scan(scan)

    def test_visibility_equals_purity_for_identical_sources(self, kdp_jsa):
        rho = heralded_density_matrix(kdp_jsa, "e")
        scan = hom_dip(rho, rho, np.linspace(-1500, 1500, 301))
        assert scan.visibility == pytest.approx(purity(rho), abs=1e-9)
        assert_peak_not_below_scan(scan)

    def test_symmetric_in_delay_sign(self, kdp_jsa):
        rho = heralded_density_matrix(kdp_jsa, "e")
        delays = np.linspace(-1500, 1500, 301)
        scan = hom_dip(rho, rho, delays)
        np.testing.assert_allclose(scan.rates, scan.rates[::-1], atol=1e-9)

    def test_swap_symmetry(self, kdp_jsa, bbo_jsa):
        rho_a = heralded_density_matrix(kdp_jsa, "e")
        rho_b = pure_state_density(kdp_jsa.grid.omega_e, 4e12)
        delays = np.linspace(-1500, 1500, 201)
        forward = hom_dip(rho_a, rho_b, delays)
        backward = hom_dip(rho_b, rho_a, delays)
        np.testing.assert_allclose(forward.rates, backward.rates, atol=1e-12)
        assert forward.visibility == pytest.approx(backward.visibility, abs=1e-12)
        assert_peak_not_below_scan(forward)
        assert_peak_not_below_scan(backward)

    def test_cauchy_schwarz_bound(self, kdp_jsa, bbo_jsa):
        rho_a = heralded_density_matrix(kdp_jsa, "e")
        rho_b = pure_state_density(kdp_jsa.grid.omega_e, 4e12)
        scan = hom_dip(rho_a, rho_b, np.linspace(-1500, 1500, 201))
        bound = math.sqrt(purity(rho_a) * purity(rho_b))
        assert scan.visibility <= bound + 1e-9
        assert_peak_not_below_scan(scan)

    def test_baseline_recovered_at_large_delay(self, kdp_jsa):
        rho = heralded_density_matrix(kdp_jsa, "e")
        scan = hom_dip(rho, rho, np.linspace(-6000, 6000, 601))
        assert abs(scan.rates[0] - 1.0) < 1e-3
        assert abs(scan.rates[-1] - 1.0) < 1e-3

    def test_narrow_scan_is_error(self):
        rho = pure_state_density(AXIS, 5e12)
        with pytest.raises(ConfigError, match="widen"):
            hom_dip(rho, rho, np.linspace(-20, 20, 21))
        with pytest.raises(ConfigError):
            hom_dip(rho, rho, [0.0, 1.0])

    @pytest.mark.parametrize("delays,first", [
        (np.linspace(1500, -1500, 301), "delay 1 (1490 fs)"),
        ([-100.0, 100.0, 0.0, 200.0], "delay 2 (0 fs)"),
        ([-100.0, 0.0, 0.0, 100.0], "delay 2 (0 fs)"),
    ], ids=["descending", "shuffled", "repeated"])
    def test_delays_must_increase(self, kdp_source, delays, first):
        # A scan read backwards gave a negative dip FWHM; the first delay
        # that does not increase is named, before any JSA is built.
        rho = pure_state_density(AXIS, 5e12)
        message = f"delays must increase: {first}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            hom_dip(rho, rho, delays)
        with mock.patch("pairspec.interference.joint_amplitude") as build:
            with pytest.raises(ConfigError, match=re.escape(message)):
                two_source_experiment(kdp_source, kdp_source, "o", delays)
        build.assert_not_called()

    def test_states_on_different_axes_are_error(self):
        rho = pure_state_density(AXIS, 5e12)
        delays = np.linspace(-2000, 2000, 201)
        for other_axis in (AXIS + 1e9, AXIS[:-1]):
            other = pure_state_density(other_axis, 5e12)
            for pair in ((rho, other), (other, rho)):
                with pytest.raises(ConfigError, match="share an identical frequency axis"):
                    hom_dip(*pair, delays)


class TestSourceSpec:
    def test_theta_is_the_cut_angle_or_the_degenerate_solve(self, kdp, kdp_source):
        assert kdp_source.crystal == kdp
        assert kdp_source.theta == phasematching_angle(kdp, 415.0, 830.0)
        cut = SourceSpec(replace(kdp, cut_angle_deg=60.0), PumpSpec(415.0, 4.0))
        assert cut.theta == cut.resolve_theta() == 60.0

    def test_copy_with_new_pump_solves_its_own_theta(self, kdp, kdp_source):
        other = replace(kdp_source, pump=PumpSpec(416.0, 4.0))
        assert other.theta == phasematching_angle(kdp, 416.0, 832.0) != kdp_source.theta


class TestTwoSourceExperiment:
    def test_kdp_herald_o_dip(self, kdp_source):
        scan = two_source_experiment(kdp_source, kdp_source, "o",
                                     np.linspace(-1500, 1500, 301))
        assert scan.visibility >= 0.95
        assert scan.dip_fwhm_fs == pytest.approx(440.0, rel=0.30)
        assert_peak_not_below_scan(scan)
        assert coherence_time(scan.dip_fwhm_fs) == pytest.approx(
            scan.dip_fwhm_fs / math.sqrt(2), abs=1e-12)

    def test_kdp_herald_e_dip(self, kdp_source):
        scan = two_source_experiment(kdp_source, kdp_source, "e",
                                     np.linspace(-400, 400, 401))
        assert scan.dip_fwhm_fs == pytest.approx(92.0, rel=0.30)
        assert_peak_not_below_scan(scan)

    def test_dip_width_ratio(self, kdp_source):
        wide = two_source_experiment(kdp_source, kdp_source, "o",
                                     np.linspace(-1500, 1500, 301))
        narrow = two_source_experiment(kdp_source, kdp_source, "e",
                                       np.linspace(-400, 400, 401))
        assert wide.dip_fwhm_fs / narrow.dip_fwhm_fs == pytest.approx(4.8, abs=1.2)

    def test_visibility_matches_schmidt_purity(self, kdp_source, kdp_jsa):
        scan = two_source_experiment(kdp_source, kdp_source, "o",
                                     np.linspace(-1500, 1500, 301))
        assert scan.visibility == pytest.approx(
            schmidt_decompose(kdp_jsa).purity, abs=1e-9)

    def test_detuned_pumps_reduce_visibility(self, kdp_source):
        delays = np.linspace(-1500, 1500, 301)
        base = two_source_experiment(kdp_source, kdp_source, "o", delays).visibility
        previous = base
        for detune in (0.5, 1.0, 2.0):
            other = replace(kdp_source,
                            pump=PumpSpec(415.0 + detune, 4.0))
            vis = two_source_experiment(kdp_source, other, "o", delays).visibility
            assert vis < previous
            previous = vis
        assert previous < 0.5 * base

    def test_herald_filter_improves_visibility(self, bbo_source):
        delays = np.linspace(-3000, 3000, 601)
        raw = two_source_experiment(bbo_source, bbo_source, "o", delays).visibility
        filt = FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0)
        filtered_source = replace(bbo_source, filters=(filt,))
        filtered = two_source_experiment(filtered_source, filtered_source, "o",
                                         delays).visibility
        assert filtered > raw + 0.2

    def test_bad_herald_arm(self, kdp_source):
        with pytest.raises(ConfigError):
            two_source_experiment(kdp_source, kdp_source, "x", [0, 1, 2])

    @pytest.mark.parametrize("fwhm_nm", [1.0, 4.0])
    @pytest.mark.parametrize("herald_arm", ["e", "o"])
    @pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
    @pytest.mark.parametrize("source_name, flat_phase", [
        ("kdp_source", True), ("bbo_source", True), ("bbo_source", False)])
    def test_symmetric_dip_centre_is_exactly_zero(self, request, source_name,
                                                  flat_phase, shape, herald_arm,
                                                  fwhm_nm):
        # A self-HOM dip is symmetric about 0, a scan sample. The overlap is
        # flat to the last bits there, so the bounded search may gain only
        # rounding, which must not move the centre off the sample.
        source = replace(request.getfixturevalue(source_name), n_points=256,
                         flat_phase=flat_phase)
        filt = FilterSpec(shape, herald_arm, 2.0 * source.pump.center_nm, fwhm_nm)
        source = replace(source, filters=(filt,))
        scan = two_source_experiment(source, source, herald_arm,
                                     np.linspace(-2000, 2000, 201))
        assert scan.dip_center_fs == 0.0


class TestIdenticalSources:
    @pytest.fixture
    def rho_calls(self, monkeypatch):
        build = interference.heralded_density_matrix
        calls = []

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(interference, "heralded_density_matrix", counting_build)
        return calls

    def test_equal_specs_build_one_state(self, kdp_source, rho_calls):
        delays = np.linspace(-1500, 1500, 301)
        twin = replace(kdp_source)  # equal by value, a distinct object
        scan = two_source_experiment(kdp_source, twin, "o", delays)
        assert len(rho_calls) == 1
        rho_a, rho_b = (heralded_density_matrix(kdp_source.build_jsa(), "e")
                        for _ in range(2))
        np.testing.assert_array_equal(scan.rates, hom_dip(rho_a, rho_b, delays).rates)

    def test_different_specs_form_one_state(self, kdp_source, rho_calls):
        # rho_b is streamed into the product with rho_a and never formed.
        other = replace(kdp_source, pump=PumpSpec(415.0, 8.0))
        two_source_experiment(kdp_source, other, "o", np.linspace(-1500, 1500, 301))
        assert len(rho_calls) == 1


class TestCoveringGrid:
    def test_mismatched_grids_still_interfere(self, kdp_source):
        # Identical windows at 512 and 384 points: both sources run on the
        # same 512-point grid, so the result is the 512/512 one exactly.
        other = replace(kdp_source, n_points=384)
        delays = np.linspace(-1500, 1500, 301)
        same = two_source_experiment(kdp_source, kdp_source, "o", delays)
        mixed = two_source_experiment(kdp_source, other, "o", delays)
        np.testing.assert_array_equal(mixed.rates, same.rates)
        assert mixed.visibility == same.visibility
        assert mixed.dip_fwhm_fs == same.dip_fwhm_fs

    @pytest.mark.parametrize("n", [16, 255, 512, 4000])
    @pytest.mark.parametrize("source", ["kdp_source", "bbo_source"])
    def test_one_source_covers_with_its_own_grid(self, source, n, request):
        src = replace(request.getfixturevalue(source), n_points=n)
        own = build_grid(src.crystal, src.pump, n_points=n, span_sigmas=src.span_sigmas,
                         theta_deg=src.theta)
        assert_same_bits(covering_grid(src).omega_e, own.omega_e)

    def test_covering_grid_is_a_lattice(self, kdp_source, monkeypatch):
        grids = []
        build = interference.joint_amplitude

        def recording_build(crystal, theta, pump, grid, **kwargs):
            grids.append(grid)
            return build(crystal, theta, pump, grid, **kwargs)

        monkeypatch.setattr(interference, "joint_amplitude", recording_build)
        other = replace(kdp_source, pump=PumpSpec(415.0, 8.0))
        two_source_experiment(kdp_source, other, "o", np.linspace(-1500, 1500, 31))
        assert len(grids) == 2 and grids[0] is grids[1]
        assert_lattice(grids[0].omega_e)
        assert_lattice(grids[0].omega_o)

    def test_mismatched_pump_bandwidths(self, kdp_source):
        # Reference: both JSAs on one converged union grid
        # (hom.kdp4_kdp8_o in perfbench/reference.json).
        other = replace(kdp_source, pump=PumpSpec(415.0, 8.0))
        scan = two_source_experiment(kdp_source, other, "o",
                                     np.linspace(-1500, 1500, 301))
        assert abs(scan.visibility - 0.957470) < 1e-4


MIN_POINTS = 64


def grid_step(src):
    return covering_grid(src).d_omega


@st.composite
def source_pairs(draw):
    """Two flat-phase sources sharing crystal, pump centre and grid size.

    The windows share their centre, so the covering grid is the wider one.
    Pairs are kept when it samples the narrower window at least as finely
    as that source's own grid at the smallest drawn size would; coarser
    sampling can leave a narrow photon spectrum on too few points to show
    a dip.
    """
    name = draw(st.sampled_from(["KDP", "BBO"]))
    center_nm = draw(st.floats(405.0, 420.0))
    n_points = draw(st.integers(MIN_POINTS, 128))
    length = st.floats(1.0, 10.0)
    fwhm = st.floats(1.0, 10.0)
    pair = tuple(
        SourceSpec(crystal=get_crystal(name, draw(length)),
                   pump=PumpSpec(center_nm, draw(fwhm)),
                   n_points=n_points, flat_phase=True)
        for _ in range(2)
    )
    fine, coarse = sorted(grid_step(src) for src in pair)
    assume((n_points - 1) * fine / coarse >= MIN_POINTS - 1)
    return pair


def alias_safe_delays(*sources):
    """Symmetric scan to just short of half the overlap's period 2*pi/d_omega
    on the covering grid, whose step is the largest of the sources' steps."""
    half_range_fs = 0.49 * 2.0 * math.pi / max(map(grid_step, sources)) * 1e15
    return np.linspace(-half_range_fs, half_range_fs, 201)


property_settings = settings(max_examples=15, deadline=None, derandomize=True,
                             database=None)


class TestTwoSourceProperties:
    @property_settings
    @given(source_pairs())
    def test_identical_visibility_is_purity(self, pair):
        for src in pair:
            scan = two_source_experiment(src, src, "o", alias_safe_delays(src))
            assert scan.visibility == pytest.approx(
                schmidt_decompose(src.build_jsa()).purity, abs=1e-9)
            assert_peak_not_below_scan(scan)

    @property_settings
    @given(source_pairs())
    def test_swapping_sources_is_symmetric(self, pair):
        # Flat phase keeps both density matrices real, so the overlap is
        # even in the delay and a symmetric scan is unchanged by the swap.
        a, b = pair
        delays = alias_safe_delays(a, b)
        forward = two_source_experiment(a, b, "o", delays)
        backward = two_source_experiment(b, a, "o", delays)
        np.testing.assert_allclose(forward.rates, backward.rates, rtol=0, atol=1e-12)
        assert forward.visibility == pytest.approx(backward.visibility, abs=1e-12)


def covering_states(source_a, source_b, herald_arm):
    """The two heralded states on the grid that covers both sources' windows
    at the larger n_points, built as two_source_experiment builds them, also
    for a pair whose covering grid it refuses as too coarse."""
    windows = [covering_grid(src).omega_e for src in (source_a, source_b)]
    axis = lattice_axis(min(w[0] for w in windows), max(w[-1] for w in windows),
                        max(source_a.n_points, source_b.n_points))
    grid = FrequencyGrid(omega_e=axis, omega_o=axis)
    return tuple(heralded_density_matrix(src.build_jsa(grid), other_arm(herald_arm))
                 for src in (source_a, source_b))


def pipeline_states(source_a, source_b, herald_arm):
    """What two_source_experiment scans: the two heralded states it hands to
    hom_dip, or, where it streams rho_b instead, the overlap it scans."""
    handed = []
    with mock.patch.object(interference, "hom_dip",
                           lambda rho_a, rho_b, delays: handed.append((rho_a, rho_b))), \
            mock.patch.object(interference, "_dip_scan",
                              lambda overlap, delays: handed.append(overlap)):
        two_source_experiment(source_a, source_b, herald_arm, [0.0, 0.0, 0.0])
    return handed[0]


def reference_overlap(rho_a, rho_b, tau_s):
    """Re sum_ij rho_a[i, j] rho_b[j, i] exp(-i (w_j - w_i) tau) dw^2, term by term."""
    w = rho_a.grid.omega_e
    phase = np.exp(-1j * (w[None, :] - w[:, None]) * tau_s)
    return float(np.real(np.sum(rho_a.values * rho_b.values.T * phase))) * rho_a.grid.d_omega ** 2


@st.composite
def overlap_cases(draw):
    """One or two KDP/BBO sources of either phase on one covering grid, a
    herald arm with an optional filter, and delays within +-pi / d_omega."""
    name = draw(st.sampled_from(["KDP", "BBO"]))
    center_nm = {"KDP": 415.0, "BBO": 400.0}[name]
    n_points = draw(st.integers(MIN_POINTS, 128))
    flat_phase = draw(st.booleans())
    herald_arm = draw(st.sampled_from(["e", "o"]))
    shape = draw(st.sampled_from(["none", "gaussian", "rectangular"]))
    filters = () if shape == "none" else (FilterSpec(
        shape, herald_arm, 2.0 * center_nm, draw(st.floats(5.0, 40.0))),)

    def source():
        return SourceSpec(crystal=get_crystal(name, draw(st.floats(1.0, 10.0))),
                          pump=PumpSpec(center_nm, draw(st.floats(1.0, 10.0))),
                          n_points=n_points, flat_phase=flat_phase,
                          filters=filters)

    source_a = source()
    source_b = source_a if draw(st.booleans()) else source()
    fractions = draw(st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=12))
    return source_a, source_b, herald_arm, np.array(fractions)


class TestOverlapReference:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(overlap_cases())
    def test_matches_direct_double_sum(self, case):
        source_a, source_b, herald_arm, fractions = case
        rho_a, rho_b = covering_states(source_a, source_b, herald_arm)
        try:
            handed = pipeline_states(source_a, source_b, herald_arm)
        except ConfigError:  # a covering grid too coarse for one source
            handed = None
        if isinstance(handed, tuple):
            for rho, rho_handed in zip((rho_a, rho_b), handed):
                np.testing.assert_array_equal(rho_handed.values, rho.values)
        assert np.iscomplexobj(rho_a.values) == (not source_a.flat_phase)
        taus = fractions * math.pi / rho_a.grid.d_omega
        expected = [reference_overlap(rho_a, rho_b, tau) for tau in taus]
        np.testing.assert_allclose(interference._Overlap.between(rho_a, rho_b)(taus), expected,
                                   rtol=0, atol=1e-12)
        if isinstance(handed, interference._Overlap):  # rho_b streamed into the product
            np.testing.assert_allclose(handed(taus), expected, rtol=0, atol=1e-12)

    def test_real_and_complex_states_mix(self):
        rho = pure_state_density(AXIS, 5e12)
        real = ReducedDensityMatrix(grid=rho.grid, values=rho.values.real.copy())
        phase = np.exp(1j * (AXIS - AXIS.mean()) * 50e-15)
        shifted = ReducedDensityMatrix(grid=rho.grid,
                                       values=rho.values * np.outer(phase, phase.conj()))
        taus = np.linspace(-1e-12, 1e-12, 9)
        for pair in ((real, shifted), (shifted, real)):
            expected = [reference_overlap(*pair, tau) for tau in taus]
            np.testing.assert_allclose(interference._Overlap.between(*pair)(taus), expected,
                                       rtol=0, atol=1e-12)


@st.composite
def unequal_kdp_pairs(draw):
    """Two KDP sources that differ in length and pump bandwidth, sharing
    grid size, phase setting and pump centre, a herald arm, and how far
    towards the covering grid's alias limit pi / d_omega the scan reaches."""
    n_points = draw(st.sampled_from([64, 128]))
    flat_phase = draw(st.booleans())
    source_a, source_b = (
        SourceSpec(crystal=get_crystal("KDP", draw(st.floats(1.0, 10.0))),
                   pump=PumpSpec(415.0, draw(st.floats(2.0, 8.0))),
                   n_points=n_points, flat_phase=flat_phase)
        for _ in range(2))
    assume(source_a != source_b)
    return (source_a, source_b, draw(st.sampled_from(["e", "o"])),
            draw(st.floats(0.1, 0.99)))


# Relative tolerance of a scan at n against the same pair at 4n. The two
# runs share the covering window and differ only in its step h. The window
# cuts the sinc sidelobes, so the rectangle-rule sums behind V and the dip
# converge at first order, X_n - X_inf ~ c h, hence X_n - X_4n ~ (3/4) c h
# (X_n - X_2n halves with h on the pairs followed out to 16n). With each
# source at no less than half its own density on the covering grid, n >= 64
# puts >= 4 points per width estimate on its window, where (3/4) c h stayed
# below 1e-2 over 216 corner and random pairs of this strategy (worst 6.2e-3
# in V, 7.5e-3 in FWHM). The strategy also draws pairs whose covering grid
# is coarser than that; those are what the test probes. two_source_experiment
# refuses a covering step more than 2x a source's own, which the two examples
# exceed (3.16x and 6.32x): both fail the comparison when they are run.
COVERING_RTOL = 1e-2


def kdp_source(length_mm, fwhm_nm, n_points, flat_phase):
    return SourceSpec(crystal=get_crystal("KDP", length_mm), pump=PumpSpec(415.0, fwhm_nm),
                      n_points=n_points, flat_phase=flat_phase)


class TestCoveringGridConvergence:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(unequal_kdp_pairs())
    @example((kdp_source(1.0, 8.0, 64, False), kdp_source(10.0, 8.0, 64, False), "e", 0.99))
    @example((kdp_source(1.0, 8.0, 64, True), kdp_source(10.0, 2.0, 64, True), "o", 0.99))
    def test_accepted_scan_matches_four_times_the_points(self, case):
        source_a, source_b, herald_arm, reach = case
        d_omega = covering_states(source_a, source_b, herald_arm)[0].grid.d_omega
        delays = np.linspace(-reach, reach, 201) * math.pi / d_omega * 1e15
        try:
            scan = two_source_experiment(source_a, source_b, herald_arm, delays)
        except ConfigError:
            return
        fine = two_source_experiment(replace(source_a, n_points=4 * source_a.n_points),
                                     replace(source_b, n_points=4 * source_b.n_points),
                                     herald_arm, delays)
        assert scan.visibility == pytest.approx(fine.visibility, rel=COVERING_RTOL)
        assert scan.dip_fwhm_fs == pytest.approx(fine.dip_fwhm_fs, rel=COVERING_RTOL)


class TestDiagonalSums:
    """The row-block accumulator against the upper diagonal sums of P."""

    @pytest.mark.parametrize("n", [16, 17, 100, 257])  # one-row and uneven last blocks
    @pytest.mark.parametrize("dtypes", [(float, float), (complex, complex), (float, complex),
                                        (complex, float)], ids=["real", "complex", "real-complex",
                                                                "complex-real"])
    def test_matches_diagonal_sums(self, n, dtypes):
        rng = np.random.default_rng(n)

        def random(dtype):
            values = rng.standard_normal((n, n))
            return values + 1j * rng.standard_normal((n, n)) if dtype is complex else values

        a, b = random(dtypes[0]), random(dtypes[1])
        product = a * b.conj()

        def fill(rows, block):
            block[...] = product[rows, rows.start:]

        sums = interference._diagonal_sums(n, product.dtype, fill)
        assert sums.dtype == product.dtype
        expected = [product.diagonal(k).sum() for k in range(n)]
        # Each sum adds at most n terms, in another order than the reference.
        bound = [n * np.finfo(float).eps * np.abs(product.diagonal(k)).sum() for k in range(n)]
        assert np.all(np.abs(sums - expected) <= bound)


class TestOverlapMemory:
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_one_n_by_n_temporary(self, real):
        # The diagonal sums need only one row block of the product at a time.
        rho = pure_state_density(lattice_axis(2.22e15, 2.32e15, 512), 5e12)
        if real:
            rho = ReducedDensityMatrix(grid=rho.grid, values=rho.values.real.copy())
        tracemalloc.start()
        try:
            interference._Overlap.between(rho, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * rho.values.nbytes


# The paper's two-source case: KDP sources with 4 and 8 nm pumps.
STREAM_DELAYS = np.linspace(-1500, 1500, 301)


def scan_fields(scan):
    return [scan.visibility, scan.dip_fwhm_fs, *scan.rates]


class TestStreamedProduct:
    """Unequal sources: rho_b is streamed into the product with rho_a."""

    @pytest.mark.parametrize("phase_a, phase_b", [(True, True), (False, False), (True, False)],
                             ids=["flat", "kept", "mixed"])
    @pytest.mark.parametrize("herald_arm", ["e", "o"])
    def test_equals_hom_dip_of_formed_states(self, phase_a, phase_b, herald_arm):
        a, b = kdp_source(5.0, 4.0, 256, phase_a), kdp_source(5.0, 8.0, 256, phase_b)
        streamed = two_source_experiment(a, b, herald_arm, STREAM_DELAYS)
        formed = hom_dip(*covering_states(a, b, herald_arm), STREAM_DELAYS)
        np.testing.assert_allclose(scan_fields(streamed), scan_fields(formed),
                                   rtol=1e-12, atol=0)
        # The centre is the bounded search's argument, good to its tolerance.
        assert streamed.dip_center_fs == pytest.approx(formed.dip_center_fs, abs=1e-5)

    @pytest.mark.parametrize("flat_phase", [True, False], ids=["flat", "kept"])
    def test_strictly_lower_triangle_is_not_read(self, flat_phase):
        a, b = kdp_source(5.0, 4.0, 128, flat_phase), kdp_source(5.0, 8.0, 128, flat_phase)
        rho_a, rho_b = covering_states(a, b, "o")
        jsa_b = b.build_jsa(rho_a.grid)
        before = rho_a.values.copy(), rho_b.values.copy()

        def nan_below(rho):
            values = rho.values.copy()
            values[np.tril_indices(values.shape[0], -1)] = np.nan
            return ReducedDensityMatrix(grid=rho.grid, values=values)

        for overlap, from_upper in (
                (interference._Overlap.between(rho_a, rho_b),
                 interference._Overlap.between(nan_below(rho_a), nan_below(rho_b))),
                (interference._stream_product(rho_a, jsa_b, "o"),
                 interference._stream_product(nan_below(rho_a), jsa_b, "o"))):
            expected = interference._dip_scan(overlap, STREAM_DELAYS)
            scan = interference._dip_scan(from_upper, STREAM_DELAYS)
            assert scan_fields(scan) == scan_fields(expected)
            assert scan.dip_center_fs == expected.dip_center_fs
        for rho, values in zip((rho_a, rho_b), before):  # both paths leave the states alone
            np.testing.assert_array_equal(rho.values, values)

    @pytest.mark.parametrize("phases, herald_filter", [
        ((True, True), False), ((False, False), False), ((True, True), True),
        ((False, False), True), ((True, False), False)],
        ids=["flat", "kept", "flat-herald-filter", "kept-herald-filter", "mixed"])
    def test_two_n_by_n_arrays(self, phases, herald_filter):
        # rho_a and JSA_b are the only full arrays alive at once: a herald
        # filter acts on each JSA in its own array, and a real rho_a is not
        # copied to complex against a complex JSA_b.
        n = 256
        filters = (FilterSpec("gaussian", "o", 830.0, 4.0),) if herald_filter else ()
        a, b = (replace(kdp_source(5.0, fwhm_nm, n, flat_phase), filters=filters)
                for fwhm_nm, flat_phase in zip((4.0, 8.0), phases))
        tracemalloc.start()
        try:
            two_source_experiment(a, b, "o", STREAM_DELAYS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * n * n * np.dtype(float if all(phases) else complex).itemsize


# Frequency unit of the two-Gaussian oracle, rad/s, and its sources as
# (a, b, c) of f = exp(-(a x^2 + 2 b x y + c y^2) / 2), x and y the e and o
# offsets from the axis centre in units of SIGMA.
SIGMA = 5e12
GAUSS_A = (1.0, 0.4, 1.2)
GAUSS_B = (2.0, -0.6, 0.8)
WINDOW = 12.0  # axis half-width in units of SIGMA


def gaussian_source_state(axis, a, b, c):
    """Heralded e-photon state of the real two-Gaussian JSA, herald on o."""
    x = (axis - (axis[0] + axis[-1]) / 2) / SIGMA
    xe, xo = x[:, None], x[None, :]
    jsa = normalize(FrequencyGrid(axis, axis),
                    np.exp(-(a * xe**2 + 2 * b * xe * xo + c * xo**2) / 2))
    return heralded_density_matrix(jsa, "e")


def heralded_form(a, b, c):
    """rho(x, x') = exp(-v^T M v / 2) for v = (x, x'), and Tr's exponent s:
    integrating y out of f(x, y) f(x', y) leaves this Gaussian."""
    m = b * b / (2 * c)
    return np.array([[a - m, -m], [-m, a - m]]), 2 * a - 2 * b * b / c


class TestTwoGaussianOracle:
    """HOM between heralded photons of two real two-Gaussian JSAs, in closed
    form. With S = M_a + M_b and u = (1, -1), the overlap at delay t is
    sqrt(s_a s_b / det S) exp(-q t^2 / 2), q = u^T S^-1 u, so V is its value
    at 0 and the dip FWHM is 2 sqrt(2 ln 2 / q)."""

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("coeffs", [(GAUSS_A, GAUSS_B), (GAUSS_A, GAUSS_A),
                                        (GAUSS_B, GAUSS_B)], ids=["a-b", "a-a", "b-b"])
    def test_visibility_and_fwhm(self, n, coeffs):
        (m_a, s_a), (m_b, s_b) = (heralded_form(*abc) for abc in coeffs)
        total = m_a + m_b
        u = np.array([1.0, -1.0])
        q = float(u @ np.linalg.solve(total, u)) * SIGMA**2 * 1e-30  # per fs^2
        visibility = math.sqrt(s_a * s_b / np.linalg.det(total))
        fwhm_fs = 2 * math.sqrt(2 * math.log(2) / q)
        if coeffs[0] == coeffs[1]:
            a, b, c = coeffs[0]
            assert visibility == pytest.approx(math.sqrt(1 - b * b / (a * c)), rel=1e-14)

        axis = lattice_axis(2.27e15 - WINDOW * SIGMA, 2.27e15 + WINDOW * SIGMA, n)
        half_count = math.ceil(2 * fwhm_fs / 5.0)
        delays = np.arange(-half_count, half_count + 1) * 5.0  # 5 fs steps, 0 a sample
        scan = hom_dip(gaussian_source_state(axis, *coeffs[0]),
                       gaussian_source_state(axis, *coeffs[1]), delays)

        # Discretization: a sampled Gaussian sum of width w at step h misses
        # its integral by about 2 exp(-2 pi^2 w^2 / h^2), and the window cuts
        # a tail of erfc(WINDOW / w); w runs over the widths of the JSA and
        # of S. Rounding: n^2 eps bounds a sum of n^2 positive terms.
        h = (axis[1] - axis[0]) / SIGMA
        forms = [np.array([[a, b], [b, c]]) for a, b, c in coeffs] + [total]
        widths = [1 / math.sqrt(np.linalg.eigvalsh(f)[k]) for f in forms for k in (0, 1)]
        v_tol = (n * n * np.finfo(float).eps
                 + sum(2 * math.exp(-2 * math.pi**2 * w * w / (h * h))
                       + math.erfc(WINDOW / w) for w in widths))
        assert scan.visibility == pytest.approx(visibility, abs=v_tol)

        # Linear interpolation between scan samples a step apart misplaces
        # each half-depth crossing of g = V exp(-q t^2 / 2) by at most
        # (step^2 / 8) max|g''| / min|g'| over the bracketing samples, and an
        # error v_tol in the rates moves it by v_tol / min|g'|.
        step = delays[1] - delays[0]
        near = np.linspace(fwhm_fs / 2 - step, fwhm_fs / 2 + step, 1001)
        g = visibility * np.exp(-q * near**2 / 2)
        slope = np.min(q * near * g)
        curvature = np.max(np.abs(q * q * near**2 - q) * g)
        fwhm_tol = 2 * (step * step / 8 * curvature + v_tol) / slope
        assert scan.dip_fwhm_fs == pytest.approx(fwhm_fs, abs=fwhm_tol)
        assert scan.dip_center_fs == 0.0


class TestAliasLimit:
    def test_delay_beyond_the_limit_is_error(self):
        rho = pure_state_density(AXIS, 5e12)
        half_period_fs = math.pi / rho.grid.d_omega * 1e15
        with pytest.raises(ConfigError, match=r"alias limit.*n=257 grid"):
            hom_dip(rho, rho, np.linspace(-1.001 * half_period_fs, 0.0, 201))
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="finite"):
                hom_dip(rho, rho, np.array([bad, 0.0, 100.0]))

    def test_coarse_covering_grid_is_named(self):
        # KDP 7 mm / 3 nm against 1 mm / 6 nm at n=64: the wide window sets
        # the covering grid's step, 3.7x the narrow source's own, and the
        # narrow source's dip is wider than the overlap's period.
        a, b = (kdp_source(length, fwhm, 64, False) for length, fwhm in ((7.0, 3.0), (1.0, 6.0)))
        rho_a, rho_b = covering_states(a, b, "o")
        half_period_fs = math.pi / rho_a.grid.d_omega * 1e15
        assert half_period_fs == pytest.approx(710.5, abs=0.1)

        def delays(reach):
            return np.linspace(-reach * half_period_fs, reach * half_period_fs, 201)

        # two_source_experiment refuses this pair, so hom_dip gets its
        # covering states directly.
        with pytest.raises(ConfigError, match="widen"):
            hom_dip(rho_a, rho_b, delays(0.5))
        with pytest.raises(ConfigError, match=r"too coarse.*n=64 grid \(d_omega = 4\.42"):
            hom_dip(rho_a, rho_b, delays(1.0))
        with pytest.raises(ConfigError, match="alias limit"):
            hom_dip(rho_a, rho_b, delays(2.0))
        with pytest.raises(ConfigError, match=r"covering grid too coarse: its step 4\.42.*"
                                              r"own step 1\.18.*leave out --grid-points"):
            two_source_experiment(a, b, "o", delays(0.5))
