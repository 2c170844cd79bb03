import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec.crystals import get_crystal
from pairspec.errors import ConfigError, FilterSupportError
from pairspec.interference import SourceSpec, hom_dip
from pairspec.jsa import (FilterSpec, FrequencyGrid, JointAmplitude, PumpSpec,
                          apply_filters, lattice_axis, nm_from_omega, normalize)
from pairspec.schmidt import (RESIDUAL_TOL, ReducedDensityMatrix, export_schmidt_csv,
                              heralded_density_matrix, heralding_efficiency,
                              schmidt_decompose)

from conftest import assert_same_bits, purity, trace


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


def dense_coefficients(jsa):
    s = np.linalg.svd(jsa.values, compute_uv=False)
    return s / np.sqrt(np.sum(s ** 2))


class TestCertifiedBasis:
    # schmidt_decompose is a randomized range finder with an explicit
    # residual certificate; these pin it to exact spectra and to the dense SVD.
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(st.floats(-0.8, 0.8), st.sampled_from([256, 512]))
    def test_geometric_spectrum_oracle(self, mu, n):
        # f ~ exp(-(x+y)^2 / 4 s+^2 - (x-y)^2 / 4 s-^2) has the Schmidt
        # spectrum lambda_k = (1 - mu^2) mu^(2k), mu = (s+ - s-) / (s+ + s-)
        # (Law, Walmsley & Eberly 2000; Mehler's formula).
        # Discretization: the window is 8 times the wider sigma (edge terms
        # below e^-64), and |mu| <= 0.8 keeps the narrower sigma at >= 1.7
        # grid steps at n = 256, where the sampled Gaussian's spectrum sits
        # within 1e-15 of the continuum. The certificate moves each c_k by
        # at most the residual, so each lambda_k by at most twice it.
        tolerance = 1e-12 + 2.0 * RESIDUAL_TOL
        wide = 1e13
        narrow = wide * (1.0 - abs(mu)) / (1.0 + abs(mu))
        sig_plus, sig_minus = (wide, narrow) if mu >= 0 else (narrow, wide)
        axis = lattice_axis(2.27e15 - 8.0 * wide, 2.27e15 + 8.0 * wide, n)
        x = axis - axis.mean()
        raw = np.exp(-((x[:, None] + x[None, :]) ** 2) / (4.0 * sig_plus ** 2)
                     - ((x[:, None] - x[None, :]) ** 2) / (4.0 * sig_minus ** 2))
        result = schmidt_decompose(normalize(FrequencyGrid(axis, axis), raw))
        assert result.residual <= RESIDUAL_TOL
        exact = (1.0 - mu ** 2) * mu ** (2.0 * np.arange(result.rank))
        np.testing.assert_allclose(result.coefficients ** 2, exact, rtol=0, atol=tolerance)
        assert result.purity == pytest.approx((1.0 - mu ** 2) / (1.0 + mu ** 2),
                                              abs=tolerance)

    def test_growth_matches_dense_svd(self):
        # A 0.05 nm pump makes BBO 2 mm strongly correlated (K ~ 15): 32
        # and 64 columns leave more than the tolerance, so the basis grows
        # to 128 from the residual, without restarting.
        jsa = SourceSpec(get_crystal("BBO", 2.0), PumpSpec(400.0, 0.05),
                         flat_phase=True).build_jsa()
        result = schmidt_decompose(jsa)
        dense = dense_coefficients(jsa)
        assert result.rank == 128 and result.residual <= RESIDUAL_TOL
        assert 14.0 < result.schmidt_number < 16.0
        np.testing.assert_allclose(result.coefficients, dense[:128], rtol=0, atol=1e-12)
        assert result.purity == pytest.approx(np.sum(dense ** 4), rel=1e-14)

    @pytest.mark.parametrize("source_name", ["kdp_source", "bbo_source"])
    @pytest.mark.parametrize("flat_phase", [True, False])
    @pytest.mark.parametrize("n", [256, 512])
    def test_shipped_sources_match_dense_svd(self, request, source_name, flat_phase, n):
        source = replace(request.getfixturevalue(source_name), n_points=n,
                         flat_phase=flat_phase)
        jsa = source.build_jsa()
        result = schmidt_decompose(jsa)
        dense = dense_coefficients(jsa)
        assert result.residual <= RESIDUAL_TOL
        resolved = result.resolved
        assert 0 < resolved.size < result.rank
        np.testing.assert_allclose(resolved, dense[:resolved.size], rtol=0, atol=1e-12)
        assert result.purity == pytest.approx(np.sum(dense ** 4), rel=1e-14)
        # The modes are orthonormal and rebuild the amplitude to the residual.
        u, v, c = result.modes_e, result.modes_o, result.coefficients
        eye = np.eye(result.rank)
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-13
        assert np.max(np.abs(v.conj().T @ v - eye)) < 1e-13
        f = jsa.values / np.linalg.norm(jsa.values)
        assert np.linalg.norm(f - (u * c) @ v.conj().T) <= result.residual + 1e-14

    def test_small_grid_is_exact(self):
        # At n <= 32 the first block spans the grid.
        jsa = correlated_gaussian(make_grid(n=17), 2e13, 1e13)
        result = schmidt_decompose(jsa)
        assert result.rank == 17 and result.residual < 1e-14
        np.testing.assert_allclose(result.coefficients, dense_coefficients(jsa),
                                   rtol=0, atol=1e-14)

    def test_csv_writes_resolved_modes_only(self, kdp_jsa, tmp_path):
        result = schmidt_decompose(kdp_jsa)
        export_schmidt_csv(result, tmp_path / "schmidt.csv")
        rows = (tmp_path / "schmidt.csv").read_text().splitlines()[1:]
        c = np.array([float(row.split(",")[1]) for row in rows])
        assert c.size == result.resolved.size < result.rank
        assert c.min() > result.residual
        assert abs(np.sum(c ** 4) - result.purity) < 1e-12


class TestHeraldedDensityMatrix:
    def test_unit_trace_and_hermitian(self, kdp_jsa):
        for arm in ("e", "o"):
            rho = heralded_density_matrix(kdp_jsa, arm)
            assert trace(rho) == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(rho.values, rho.values.conj().T, atol=1e-20)

    @pytest.mark.parametrize("flat_phase", [True, False])
    @pytest.mark.parametrize("arm", ["e", "o"])
    def test_scaled_in_place_bit_for_bit(self, kdp_source, arm, flat_phase):
        jsa = replace(kdp_source, n_points=128, flat_phase=flat_phase).build_jsa()
        f = jsa.values if arm == "e" else jsa.values.T
        d_omega = jsa.grid.d_omega
        rho = f @ f.conj().T * d_omega
        tr = float(np.real(np.trace(rho)) * d_omega)
        assert_same_bits(heralded_density_matrix(jsa, arm).values, rho / tr)

    @pytest.mark.parametrize("n", [128, 200])
    @pytest.mark.parametrize("arm", ["e", "o"])
    def test_kept_phase_lower_triangle_is_the_conjugate_of_the_upper(self, kdp_source, arm, n):
        # Only the row blocks' upper parts are products; the rest is mirrored.
        jsa = replace(kdp_source, n_points=n, flat_phase=False).build_jsa()
        rho = heralded_density_matrix(jsa, arm).values
        lower = np.tril_indices(n, -1)
        np.testing.assert_array_equal(rho[lower], np.conjugate(rho.T[lower]))

    @pytest.mark.parametrize("n", [128, 200])
    @pytest.mark.parametrize("arm", ["e", "o"])
    def test_kept_phase_matches_the_full_product(self, kdp_source, arm, n):
        jsa = replace(kdp_source, n_points=n, flat_phase=False).build_jsa()
        f = jsa.values if arm == "e" else jsa.values.T
        d_omega = jsa.grid.d_omega
        expected = f @ f.conj().T * d_omega
        expected /= float(np.real(np.trace(expected)) * d_omega)
        rho = heralded_density_matrix(jsa, arm).values
        bound = n * np.finfo(float).eps * np.abs(expected).max()
        assert np.abs(rho - expected).max() <= bound

    @pytest.mark.parametrize("arm", ["e", "o"])
    def test_kept_phase_temporaries_are_one_row_block(self, kdp_source, arm):
        jsa = replace(kdp_source, n_points=256, flat_phase=False).build_jsa()
        tracemalloc.start()
        try:
            heralded_density_matrix(jsa, arm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rho and about two row blocks (1/16 of it each) of temporaries, as when
        # every block was a full-width product.
        assert peak <= 1.15 * jsa.values.nbytes

    def test_values_must_match_grid_size(self):
        grid = make_grid(n=33)
        for shape in ((32, 32), (33, 32), (33,)):
            with pytest.raises(ConfigError, match="does not match its grid"):
                ReducedDensityMatrix(grid=grid, values=np.zeros(shape))

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
        eigs = np.linalg.eigvalsh(rho.values * rho.grid.d_omega)
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
        lam_nm = 2e9 * math.pi * 299792458.0 / rho.grid.omega_e
        if shape == "gaussian":
            sigma_nm = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            t = np.exp(-(lam_nm - center_nm) ** 2 / (2.0 * sigma_nm ** 2))
        else:
            t = (np.abs(lam_nm - center_nm) <= fwhm_nm / 2.0).astype(float)
        expected = np.einsum("ih,jh,h->ij", f, f.conj(), t)
        expected /= np.trace(expected).real
        np.testing.assert_allclose(rho.values * rho.grid.d_omega, expected,
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


def other_arm(arm):
    return "e" if arm == "o" else "o"


@st.composite
def filtered_sources(draw):
    """A source from sources(), a herald arm, and a filter list holding on
    each arm either no filter or a Gaussian or rectangular one at the
    degenerate wavelength."""
    source = draw(sources())
    herald_arm = draw(st.sampled_from(["e", "o"]))
    center_nm = 2.0 * source.pump.center_nm

    def optional_filter(arm):
        shape = draw(st.sampled_from([None, "gaussian", "rectangular"]))
        if shape is None:
            return []
        # Wider than any drawn grid step (< 2.5 nm), so a rectangular
        # filter always passes some samples.
        return [FilterSpec(shape, arm, center_nm, draw(st.floats(5.0, 40.0)))]

    return source, herald_arm, optional_filter(herald_arm) + optional_filter(
        other_arm(herald_arm))


class TestPurityIdentity:
    # Tr rho^2 of either heralded photon is the Schmidt purity sum_k
    # lambda_k^2 (Law, Walmsley & Eberly 2000); filter_sweep relies on it.
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(sources(), st.sampled_from(["e", "o"]))
    def test_heralded_purity_is_schmidt_purity(self, source, arm):
        jsa = source.build_jsa()
        rho = heralded_density_matrix(jsa, arm)
        assert purity(rho) == pytest.approx(schmidt_decompose(jsa).purity, abs=1e-12)
        assert trace(rho) == pytest.approx(1.0, abs=1e-12)
        hermitian_err = np.max(np.abs(rho.values - rho.values.conj().T)) * rho.grid.d_omega
        assert hermitian_err <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(filtered_sources())
    def test_filtered_state_is_physical(self, case):
        source, herald_arm, filters = case
        jsa = source.build_jsa()
        filtered = apply_filters(jsa, filters)[0]
        rho = heralded_density_matrix(filtered, other_arm(herald_arm))
        assert trace(rho) == pytest.approx(1.0, abs=1e-12)
        weighted = rho.values * rho.grid.d_omega
        assert np.max(np.abs(weighted - weighted.conj().T)) <= 1e-12
        eigs = np.linalg.eigvalsh(weighted)
        assert eigs.min() >= -1e-12 * eigs.max()
        # The filter_sweep identity, with both filters in place.
        assert purity(rho) == pytest.approx(schmidt_decompose(filtered).purity,
                                            abs=1e-12)
        assert 0.0 <= heralding_efficiency(jsa, filters, herald_arm) <= 1.0

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(filtered_sources())
    def test_real_amplitude_matches_complex(self, case):
        # A flat-phase amplitude is real and takes the real BLAS/LAPACK
        # kernels; cast to complex it takes the complex ones. Both must give
        # the same state, Schmidt spectrum and HOM dip.
        source, herald_arm, filters = case
        real = replace(source, flat_phase=True).build_jsa()
        results = []
        for values in (real.values, real.values.astype(complex)):
            jsa = apply_filters(JointAmplitude(real.grid, values), filters)[0]
            rho = heralded_density_matrix(jsa, other_arm(herald_arm))
            half_period_fs = math.pi / rho.grid.d_omega * 1e15
            scan = hom_dip(rho, rho, np.linspace(-half_period_fs, half_period_fs, 201))
            results.append((rho, schmidt_decompose(jsa).coefficients, scan))
        (rho_r, coeff_r, scan_r), (rho_c, coeff_c, scan_c) = results
        assert rho_r.values.dtype == np.float64 and rho_c.values.dtype == np.complex128
        assert np.max(np.abs(rho_r.values - rho_c.values)) * rho_r.grid.d_omega <= 1e-12
        assert purity(rho_r) == pytest.approx(purity(rho_c), abs=1e-12)
        np.testing.assert_allclose(coeff_r, coeff_c, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scan_r.rates, scan_c.rates, rtol=0, atol=1e-12)
        assert scan_r.visibility == pytest.approx(scan_c.visibility, abs=1e-12)


class TestHeraldingEfficiency:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sources(), st.sampled_from(["e", "o"]), st.data())
    def test_matches_written_out_sums(self, source, herald_arm, data):
        # eta = sum T_e I T_o / sum m_h T_h, with each arm's T the product
        # of its filters written out here. Zero to three filters on drawn
        # arms, so one arm can carry two. Every filter is wider than any
        # drawn grid step (< 2.5 nm) and centred within 1 nm of the
        # degenerate wavelength, so the herald arm always passes something.
        center_nm = 2.0 * source.pump.center_nm
        filters = data.draw(st.lists(st.builds(
            FilterSpec, st.sampled_from(["gaussian", "rectangular"]),
            st.sampled_from(["e", "o"]), st.floats(center_nm - 1.0, center_nm + 1.0),
            st.floats(5.0, 40.0)), max_size=3))
        jsa = source.build_jsa()
        lam_nm = nm_from_omega(jsa.grid.omega_e)
        t = {"e": np.ones_like(lam_nm), "o": np.ones_like(lam_nm)}
        for filt in filters:
            if filt.shape == "gaussian":
                sigma_nm = filt.fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
                t[filt.arm] = t[filt.arm] * np.exp(
                    -(lam_nm - filt.center_nm) ** 2 / (2.0 * sigma_nm ** 2))
            else:
                t[filt.arm] = t[filt.arm] * (np.abs(lam_nm - filt.center_nm)
                                             <= filt.fwhm_nm / 2.0)
        intensity = np.abs(jsa.values) ** 2
        both = np.einsum("i,ij,j->", t["e"], intensity, t["o"])
        marginal = intensity.sum(axis=1 if herald_arm == "e" else 0)
        expected = min(both / np.dot(marginal, t[herald_arm]), 1.0)
        assert heralding_efficiency(jsa, filters, herald_arm) == pytest.approx(
            expected, abs=1e-12)

    def test_open_filters_give_unity(self, bbo_jsa):
        eff = heralding_efficiency(bbo_jsa, [], "o")
        assert eff == pytest.approx(1.0, abs=1e-12)

    def test_efficiency_bounded(self, bbo_jsa):
        herald = FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0)
        signal = FilterSpec(shape="gaussian", arm="e", center_nm=800.0, fwhm_nm=4.0)
        eff = heralding_efficiency(bbo_jsa, [herald, signal], "o")
        assert 0.0 < eff < 1.0

    def test_bbo_matched_filters_near_075(self, bbo_jsa):
        # Symmetric 4 nm Gaussian filters: the bandwidth at which the
        # heralded purity first reaches 0.95 for this source.
        herald = FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0)
        signal = FilterSpec(shape="gaussian", arm="e", center_nm=800.0, fwhm_nm=4.0)
        eff = heralding_efficiency(bbo_jsa, [herald, signal], "o")
        assert eff == pytest.approx(0.75, abs=0.10)

    def test_widening_signal_filter_monotone(self, bbo_jsa):
        herald = FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0)
        effs = []
        for bw in (1.0, 2.0, 4.0, 8.0, 16.0):
            signal = FilterSpec(shape="gaussian", arm="e", center_nm=800.0,
                                fwhm_nm=bw)
            effs.append(heralding_efficiency(bbo_jsa, [herald, signal], "o"))
        assert all(a < b for a, b in zip(effs, effs[1:]))

    def test_herald_arm_filters_only_give_unity(self, bbo_jsa):
        # With nothing on the signal arm, every heralded photon passes.
        filters = [FilterSpec(shape="gaussian", arm="o", center_nm=800.0, fwhm_nm=4.0),
                   FilterSpec(shape="rectangular", arm="o", center_nm=801.0,
                              fwhm_nm=6.0)]
        eff = heralding_efficiency(bbo_jsa, filters, "o")
        assert eff == pytest.approx(1.0, abs=1e-12)

    def test_bad_herald_arm_is_error(self, bbo_jsa):
        with pytest.raises(ConfigError):
            heralding_efficiency(bbo_jsa, [], "x")

    def test_empty_herald_is_error(self, bbo_jsa):
        herald = FilterSpec(shape="rectangular", arm="o", center_nm=400.0,
                            fwhm_nm=1.0)
        with pytest.raises(FilterSupportError):
            heralding_efficiency(bbo_jsa, [herald], "o")
