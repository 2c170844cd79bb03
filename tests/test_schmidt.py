import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec.crystals import get_crystal
from pairspec.errors import ConfigError, FilterSupportError
from pairspec.interference import SourceSpec, hom_dip
from pairspec.jsa import (FilterSpec, FrequencyGrid, JointAmplitude, PumpSpec,
                          apply_filters, normalize)
from pairspec.schmidt import (heralded_density_matrix, heralding_efficiency,
                              purity, schmidt_decompose)


def make_grid(half=5e13, n=129, center=2.27e15):
    axis = np.linspace(center - half, center + half, n)
    return FrequencyGrid(axis, axis.copy())


def correlated_gaussian(grid, sig_plus, sig_minus):
    """Gaussian correlated in the sum/difference coordinates."""
    center_e = grid.omega_e.mean()
    center_o = grid.omega_o.mean()
    ve = grid.omega_e[:, None] - center_e
    vo = grid.omega_o[None, :] - center_o
    raw = np.exp(-((ve + vo) ** 2) / (4 * sig_plus**2)
                 - ((ve - vo) ** 2) / (4 * sig_minus**2))
    return normalize(grid, raw)


def two_gaussian_purity(sig_plus, sig_minus):
    """Closed form: P = 2 s+ s- / (s+^2 + s-^2)."""
    return 2 * sig_plus * sig_minus / (sig_plus**2 + sig_minus**2)


class TestSchmidtDecompose:
    def test_separable_state_is_rank_one(self):
        grid = make_grid()
        ve = grid.omega_e[:, None] - grid.omega_e.mean()
        vo = grid.omega_o[None, :] - grid.omega_o.mean()
        jsa = normalize(grid, np.exp(-ve**2 / 4e26) * np.exp(-vo**2 / 9e26))
        result = schmidt_decompose(jsa)
        assert result.coefficients[0] == pytest.approx(1.0, abs=1e-9)
        assert result.purity == pytest.approx(1.0, abs=1e-9)
        assert result.schmidt_number == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("ratio", [0.2, 1.0, 5.0])
    def test_two_gaussian_closed_form(self, ratio):
        sig_minus = 1e13
        sig_plus = ratio * sig_minus
        grid = make_grid(half=8 * max(sig_plus, sig_minus), n=257)
        result = schmidt_decompose(correlated_gaussian(grid, sig_plus, sig_minus))
        assert result.purity == pytest.approx(
            two_gaussian_purity(sig_plus, sig_minus), abs=1e-4)

    def test_coefficients_descending_and_normalized(self, kdp_jsa):
        result = schmidt_decompose(kdp_jsa)
        assert np.all(np.diff(result.coefficients) <= 1e-15)
        assert np.sum(result.coefficients**2) == pytest.approx(1.0, abs=1e-9)

    def test_kdp_purity_above_095(self, kdp_jsa):
        assert schmidt_decompose(kdp_jsa).purity >= 0.95

    def test_bbo_less_pure_than_kdp(self, kdp_jsa, bbo_jsa):
        assert schmidt_decompose(bbo_jsa).purity < schmidt_decompose(kdp_jsa).purity


class TestHeraldedDensityMatrix:
    def test_unit_trace_and_hermitian(self, kdp_jsa):
        for arm in ("e", "o"):
            rho = heralded_density_matrix(kdp_jsa, arm)
            assert rho.trace() == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(rho.values, rho.values.conj().T, atol=1e-20)

    def test_unfiltered_purity_equals_schmidt_purity(self, kdp_jsa, bbo_jsa):
        for jsa in (kdp_jsa, bbo_jsa):
            target = schmidt_decompose(jsa).purity
            for arm in ("e", "o"):
                assert purity(heralded_density_matrix(jsa, arm)) == pytest.approx(
                    target, abs=1e-9)

    def test_purity_oracle_eigendecomposition(self, bbo_jsa):
        # Independent route: purity = sum of squared eigenvalues of the
        # measure-weighted matrix.
        rho = heralded_density_matrix(bbo_jsa, "e")
        eigs = np.linalg.eigvalsh(rho.values * rho.d_omega)
        assert purity(rho) == pytest.approx(float(np.sum(eigs**2)), abs=1e-12)
        assert eigs.min() > -1e-10

    def test_narrow_herald_filter_purifies(self, bbo_jsa):
        purities = []
        for bw in (10.0, 4.0, 2.0, 1.0, 0.5):
            filt = FilterSpec(shape="gaussian", arm="o", center_nm=800.0,
                              fwhm_nm=bw)
            purities.append(purity(heralded_density_matrix(
                apply_filters(bbo_jsa, [filt])[0], "e")))
        assert all(a < b for a, b in zip(purities, purities[1:]))
        assert purities[-1] > 0.95

    @pytest.mark.parametrize("flat_phase, dtype",
                             [(True, np.float64), (False, np.complex128)])
    def test_dtype_follows_phase(self, kdp_source, flat_phase, dtype):
        jsa = replace(kdp_source, n_points=64, flat_phase=flat_phase).build_jsa()
        filt = FilterSpec(shape="gaussian", arm="o", center_nm=830.0, fwhm_nm=4.0)
        assert heralded_density_matrix(jsa, "e").values.dtype == dtype
        filtered = apply_filters(jsa, [filt])[0]
        assert heralded_density_matrix(filtered, "e").values.dtype == dtype

    def test_filter_outside_support_is_error(self, kdp_jsa):
        filt = FilterSpec(shape="rectangular", arm="o", center_nm=400.0,
                          fwhm_nm=1.0)
        with pytest.raises(FilterSupportError):
            heralded_density_matrix(apply_filters(kdp_jsa, [filt])[0], "e")

    @pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
    @pytest.mark.parametrize("heralded_arm", ["e", "o"])
    @pytest.mark.parametrize("flat_phase", [True, False])
    @pytest.mark.parametrize("source_name", ["kdp_source", "bbo_source"])
    def test_source_filter_matches_weighted_sum(self, request, source_name,
                                                flat_phase, heralded_arm, shape):
        # rho(w, w') = sum_h f(w, w_h) f*(w', w_h) T(w_h) / trace, with T
        # written out here and f the unfiltered amplitude.
        source = replace(request.getfixturevalue(source_name), n_points=128,
                         flat_phase=flat_phase)
        herald_arm = "o" if heralded_arm == "e" else "e"
        center_nm, fwhm_nm = 2.0 * source.pump.center_nm, 4.0
        filt = FilterSpec(shape, herald_arm, center_nm, fwhm_nm)
        rho = heralded_density_matrix(replace(source, filters=(filt,)).build_jsa(),
                                      heralded_arm)

        f = source.build_jsa().values
        f = f if heralded_arm == "e" else f.T
        lam_nm = 2e9 * math.pi * 299792458.0 / rho.omega_axis
        if shape == "gaussian":
            sigma_nm = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            t = np.exp(-(lam_nm - center_nm) ** 2 / (2.0 * sigma_nm ** 2))
        else:
            t = (np.abs(lam_nm - center_nm) <= fwhm_nm / 2.0).astype(float)
        expected = np.einsum("ih,jh,h->ij", f, f.conj(), t)
        expected /= np.trace(expected).real
        np.testing.assert_allclose(rho.values * rho.d_omega, expected,
                                   rtol=0, atol=1e-12)

    def test_axis_reversal_invariance(self):
        # Purity is basis-independent: flipping both frequency axes of the
        # amplitude leaves the spectrum unchanged.
        grid = make_grid(n=65)
        jsa = correlated_gaussian(grid, 2e13, 0.7e13)
        flipped = normalize(grid, jsa.values[::-1, ::-1])
        assert purity(heralded_density_matrix(flipped, "e")) == pytest.approx(
            purity(heralded_density_matrix(jsa, "e")), abs=1e-12)


PUMP_CENTER_NM = {"KDP": 415.0, "BBO": 400.0}


@st.composite
def sources(draw):
    """KDP or BBO at its shipped pump centre, with drawn length, pump
    bandwidth, grid size and phase."""
    name = draw(st.sampled_from(sorted(PUMP_CENTER_NM)))
    return SourceSpec(
        crystal=get_crystal(name, draw(st.floats(1.0, 10.0))),
        pump=PumpSpec(PUMP_CENTER_NM[name], draw(st.floats(1.0, 10.0))),
        n_points=draw(st.integers(64, 128)),
        flat_phase=draw(st.booleans()),
    )


@st.composite
def filtered_sources(draw):
    """A source from sources(), a herald arm, and on each arm either no
    filter or a Gaussian or rectangular one at the degenerate wavelength."""
    source = draw(sources())
    herald_arm = draw(st.sampled_from(["e", "o"]))
    center_nm = 2.0 * source.pump.center_nm

    def optional_filter(arm):
        shape = draw(st.sampled_from(["none", "gaussian", "rectangular"]))
        if shape == "none":
            return FilterSpec.none(arm)
        # Wider than any drawn grid step (< 2.5 nm), so a rectangular
        # filter always passes some samples.
        return FilterSpec(shape, arm, center_nm, draw(st.floats(5.0, 40.0)))

    signal_arm = "e" if herald_arm == "o" else "o"
    return source, optional_filter(herald_arm), optional_filter(signal_arm)


class TestPurityIdentity:
    # Tr rho^2 of either heralded photon is the Schmidt purity sum_k
    # lambda_k^2 (Law, Walmsley & Eberly 2000); filter_sweep relies on it.
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(sources(), st.sampled_from(["e", "o"]))
    def test_heralded_purity_is_schmidt_purity(self, source, arm):
        jsa = source.build_jsa()
        rho = heralded_density_matrix(jsa, arm)
        assert purity(rho) == pytest.approx(schmidt_decompose(jsa).purity, abs=1e-12)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        hermitian_err = np.max(np.abs(rho.values - rho.values.conj().T)) * rho.d_omega
        assert hermitian_err <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(filtered_sources())
    def test_filtered_state_is_physical(self, case):
        source, herald_f, signal_f = case
        jsa = source.build_jsa()
        filtered = apply_filters(jsa, [herald_f, signal_f])[0]
        rho = heralded_density_matrix(filtered, signal_f.arm)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        weighted = rho.values * rho.d_omega
        assert np.max(np.abs(weighted - weighted.conj().T)) <= 1e-12
        eigs = np.linalg.eigvalsh(weighted)
        assert eigs.min() >= -1e-12 * eigs.max()
        # The filter_sweep identity, with both filters in place.
        assert purity(rho) == pytest.approx(schmidt_decompose(filtered).purity,
                                            abs=1e-12)
        assert 0.0 <= heralding_efficiency(jsa, herald_f, signal_f) <= 1.0

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(filtered_sources())
    def test_real_amplitude_matches_complex(self, case):
        # A flat-phase amplitude is real and takes the real BLAS/LAPACK
        # kernels; cast to complex it takes the complex ones. Both must give
        # the same state, Schmidt spectrum and HOM dip.
        source, herald_f, signal_f = case
        real = replace(source, flat_phase=True).build_jsa()
        results = []
        for values in (real.values, real.values.astype(complex)):
            jsa = apply_filters(JointAmplitude(real.grid, values),
                                [herald_f, signal_f])[0]
            rho = heralded_density_matrix(jsa, signal_f.arm)
            half_period_fs = math.pi / rho.d_omega * 1e15
            scan = hom_dip(rho, rho, np.linspace(-half_period_fs, half_period_fs, 201))
            results.append((rho, schmidt_decompose(jsa).coefficients, scan))
        (rho_r, coeff_r, scan_r), (rho_c, coeff_c, scan_c) = results
        assert rho_r.values.dtype == np.float64 and rho_c.values.dtype == np.complex128
        assert np.max(np.abs(rho_r.values - rho_c.values)) * rho_r.d_omega <= 1e-12
        assert purity(rho_r) == pytest.approx(purity(rho_c), abs=1e-12)
        np.testing.assert_allclose(coeff_r, coeff_c, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scan_r.rates, scan_c.rates, rtol=0, atol=1e-12)
        assert scan_r.visibility == pytest.approx(scan_c.visibility, abs=1e-12)


class TestHeraldingEfficiency:
    def test_open_filters_give_unity(self, bbo_jsa):
        eff = heralding_efficiency(bbo_jsa, FilterSpec.none("o"),
                                   FilterSpec.none("e"))
        assert eff == pytest.approx(1.0, abs=1e-12)

    def test_efficiency_bounded(self, bbo_jsa):
        herald = FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0)
        signal = FilterSpec(shape="gaussian", arm="e", center_nm=800.0, fwhm_nm=4.0)
        eff = heralding_efficiency(bbo_jsa, herald, signal)
        assert 0.0 < eff < 1.0

    def test_bbo_matched_filters_near_075(self, bbo_jsa):
        # Symmetric 4 nm Gaussian filters: the bandwidth at which the
        # heralded purity first reaches 0.95 for this source.
        herald = FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0)
        signal = FilterSpec(shape="gaussian", arm="e", center_nm=800.0, fwhm_nm=4.0)
        eff = heralding_efficiency(bbo_jsa, herald, signal)
        assert eff == pytest.approx(0.75, abs=0.10)

    def test_widening_signal_filter_monotone(self, bbo_jsa):
        herald = FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0)
        effs = []
        for bw in (1.0, 2.0, 4.0, 8.0, 16.0):
            signal = FilterSpec(shape="gaussian", arm="e", center_nm=800.0,
                                fwhm_nm=bw)
            effs.append(heralding_efficiency(bbo_jsa, herald, signal))
        assert all(a < b for a, b in zip(effs, effs[1:]))

    def test_same_arm_filters_rejected(self, bbo_jsa):
        filt = FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0)
        with pytest.raises(ConfigError):
            heralding_efficiency(bbo_jsa, filt, filt)

    def test_empty_herald_is_error(self, bbo_jsa):
        herald = FilterSpec(shape="rectangular", arm="o", center_nm=400.0,
                            fwhm_nm=1.0)
        with pytest.raises(FilterSupportError):
            heralding_efficiency(bbo_jsa, herald, FilterSpec.none("e"))
