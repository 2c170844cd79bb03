import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairspec import interference
from pairspec.crystals import get_crystal
from pairspec.errors import ConfigError
from pairspec.interference import (SourceSpec, coherence_time, hom_dip,
                                   two_source_experiment)
from pairspec.jsa import FilterSpec, PumpSpec, build_grid, lattice_axis
from pairspec.schmidt import (ReducedDensityMatrix, heralded_density_matrix,
                              purity, schmidt_decompose)

from conftest import assert_lattice


def pure_state_density(axis, sigma, center=None):
    """rho = |psi><psi| for a Gaussian spectral amplitude."""
    c = axis.mean() if center is None else center
    psi = np.exp(-((axis - c) ** 2) / (4 * sigma**2)).astype(complex)
    d = float(axis[1] - axis[0])
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * d)
    return ReducedDensityMatrix(omega_axis=axis, values=np.outer(psi, psi.conj()))


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
        rho_b = ReducedDensityMatrix(omega_axis=AXIS,
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

    def test_different_specs_build_two_states(self, kdp_source, rho_calls):
        other = replace(kdp_source, pump=PumpSpec(415.0, 8.0))
        two_source_experiment(kdp_source, other, "o", np.linspace(-1500, 1500, 301))
        assert len(rho_calls) == 2


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
    return build_grid(src.crystal, src.pump, n_points=src.n_points).d_omega


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
    """The two heralded states two_source_experiment hands to hom_dip."""
    states = []
    with mock.patch.object(interference, "hom_dip",
                           lambda rho_a, rho_b, delays: states.append((rho_a, rho_b))):
        two_source_experiment(source_a, source_b, herald_arm, [0.0, 0.0, 0.0])
    return states[0]


def reference_overlap(rho_a, rho_b, tau_s):
    """Re sum_ij rho_a[i, j] rho_b[j, i] exp(-i (w_j - w_i) tau) dw^2, term by term."""
    w = rho_a.omega_axis
    phase = np.exp(-1j * (w[None, :] - w[:, None]) * tau_s)
    return float(np.real(np.sum(rho_a.values * rho_b.values.T * phase))) * rho_a.d_omega ** 2


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
        assert np.iscomplexobj(rho_a.values) == (not source_a.flat_phase)
        taus = fractions * math.pi / rho_a.d_omega
        expected = [reference_overlap(rho_a, rho_b, tau) for tau in taus]
        np.testing.assert_allclose(interference._Overlap(rho_a, rho_b)(taus), expected,
                                   rtol=0, atol=1e-12)


class TestAliasLimit:
    def test_delay_beyond_the_limit_is_error(self):
        rho = pure_state_density(AXIS, 5e12)
        half_period_fs = math.pi / rho.d_omega * 1e15
        with pytest.raises(ConfigError, match=r"alias limit.*n=257 grid"):
            hom_dip(rho, rho, np.linspace(-1.001 * half_period_fs, 0.0, 201))
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="finite"):
                hom_dip(rho, rho, np.array([bad, 0.0, 100.0]))

    def test_coarse_covering_grid_is_named(self):
        # KDP 7 mm / 3 nm against 1 mm / 6 nm at n=64: the wide window sets
        # the covering grid's step, and the narrow source's dip is wider
        # than the overlap's period.
        a, b = (SourceSpec(crystal=get_crystal("KDP", length), pump=PumpSpec(415.0, fwhm),
                           n_points=64)
                for length, fwhm in ((7.0, 3.0), (1.0, 6.0)))
        windows = [build_grid(src.crystal, src.pump, n_points=64).omega_e for src in (a, b)]
        axis = lattice_axis(min(w[0] for w in windows), max(w[-1] for w in windows), 64)
        half_period_fs = math.pi / (axis[1] - axis[0]) * 1e15
        assert half_period_fs == pytest.approx(710.5, abs=0.1)

        def scan(reach):
            delays = np.linspace(-reach * half_period_fs, reach * half_period_fs, 201)
            return two_source_experiment(a, b, "o", delays)

        with pytest.raises(ConfigError, match="widen"):
            scan(0.5)
        with pytest.raises(ConfigError, match=r"too coarse.*n=64 grid \(d_omega = 4\.42"):
            scan(1.0)
        with pytest.raises(ConfigError, match="alias limit"):
            scan(2.0)
