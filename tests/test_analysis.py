import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import least_squares, leastsq

from pairspec import analysis
from pairspec.analysis import (CountRecord, filter_sweep, fit_gaussian_dip,
                               simulate_counts, simulate_jsi_scan)
from pairspec.cli import load_config
from pairspec.crystals import get_crystal
from pairspec.errors import ConfigError, FilterSupportError
from pairspec.interference import HomScan, SourceSpec, two_source_experiment
from pairspec.jsa import (FWHM_PER_SIGMA, FilterSpec, PumpSpec, apply_filters, jsi_pearson,
                          nm_from_omega)
from pairspec.schmidt import heralded_density_matrix, schmidt_decompose

from conftest import assert_same_bits, count_calls, purity


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FOUR_LN2 = 4.0 * math.log(2.0)


def dip_curve(delays, baseline, visibility, center, fwhm):
    return baseline * (1.0 - visibility
                       * np.exp(-FOUR_LN2 * (delays - center) ** 2 / fwhm ** 2))


def make_scan(delays, rates):
    return HomScan(delays_fs=np.asarray(delays, dtype=float),
                   rates=np.asarray(rates, dtype=float),
                   visibility=float(1.0 - np.min(rates)),
                   dip_fwhm_fs=0.0, dip_center_fs=0.0)


class TestFilterSweep:
    def test_kdp_purity_insensitive_to_filtering(self, kdp_source):
        sweep = filter_sweep(kdp_source, np.linspace(20.0, 2.0, 10),
                             herald_arm="o")
        finite = sweep.purities[np.isfinite(sweep.purities)]
        assert finite.size == 10
        assert finite.max() - finite.min() < 0.03
        assert np.all(finite >= 0.95)

    def test_bbo_purity_efficiency_tradeoff(self, bbo_source):
        bandwidths = np.linspace(20.0, 1.0, 20)
        sweep = filter_sweep(bbo_source, bandwidths, herald_arm="o")
        crossing = np.where(sweep.purities >= 0.95)[0]
        assert crossing.size > 0
        eff = sweep.heralding_efficiencies[crossing[0]]
        assert eff == pytest.approx(0.75, abs=0.10)

    def test_narrowing_filters_monotone(self, bbo_source):
        bandwidths = np.array([16.0, 8.0, 4.0, 2.0, 1.0])
        sweep = filter_sweep(bbo_source, bandwidths, herald_arm="o")
        assert np.all(np.diff(sweep.purities) > 0)
        assert np.all(np.diff(sweep.heralding_efficiencies) < 0)

    def test_infinite_bandwidth_matches_unfiltered(self):
        # schmidt_meta.json's purity and the sweep's unfiltered row are one
        # expression, filtered_purity with both arms open, so they are equal.
        for name in ("kdp", "bbo"):
            source = load_config(CONFIGS / f"{name}.cfg")[0].source
            sweep = filter_sweep(source, np.array([np.inf, 4.0]))
            result = schmidt_decompose(source.build_jsa())
            assert source.n_points == 512
            assert sweep.purities[0] == result.purity
            assert result.schmidt_number == 1.0 / result.purity
            assert sweep.heralding_efficiencies[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("source_name", ["kdp_source", "bbo_source"])
    @pytest.mark.parametrize("shape,symmetric,herald_arm", [
        ("gaussian", True, "o"),
        ("gaussian", False, "e"),
        ("rectangular", True, "e"),
        ("rectangular", False, "o"),
    ])
    def test_purity_matches_schmidt_of_filtered_jsa(self, request, source_name,
                                                     shape, symmetric, herald_arm):
        source = request.getfixturevalue(source_name)
        jsa = source.build_jsa()
        center_nm = 2.0 * source.pump.center_nm
        signal_arm = "e" if herald_arm == "o" else "o"
        bandwidths = np.array([np.inf, 8.0, 3.0])
        sweep = filter_sweep(source, bandwidths, filter_shape=shape,
                             symmetric=symmetric, herald_arm=herald_arm)
        for bw, got in zip(bandwidths, sweep.purities):
            filters = []
            if not np.isinf(bw):
                filters = [FilterSpec(shape, herald_arm, center_nm, bw)]
                if symmetric:
                    filters.append(FilterSpec(shape, signal_arm, center_nm, bw))
            expected = schmidt_decompose(apply_filters(jsa, filters)[0]).purity
            assert got == pytest.approx(expected, abs=1e-12)

    def test_source_filters_do_not_apply(self, bbo_source):
        bandwidths = np.array([np.inf, 8.0, 4.0])
        plain = filter_sweep(bbo_source, bandwidths)
        filtered = filter_sweep(
            replace(bbo_source, filters=(FilterSpec("gaussian", "o", 800.0, 2.0),)),
            bandwidths)
        np.testing.assert_array_equal(filtered.purities, plain.purities)
        np.testing.assert_array_equal(filtered.heralding_efficiencies,
                                      plain.heralding_efficiencies)

    def test_sweep_decomposes_once_and_forms_no_rho(self, bbo_source, monkeypatch):
        # One Schmidt basis serves every point: no heralded rho and no
        # filtered amplitude per bandwidth. The one apply_filters call is the
        # source build, which passes its (empty) filter list through it.
        calls = count_calls(monkeypatch, ["schmidt.schmidt_decompose",
                                          "schmidt.heralded_density_matrix",
                                          "jsa.apply_filters"])
        sweep = filter_sweep(bbo_source, np.array([np.inf, 8.0, 4.0, 2.0]))
        assert np.all(np.isfinite(sweep.purities))
        assert calls == {"schmidt.schmidt_decompose": 1,
                         "schmidt.heralded_density_matrix": 0, "jsa.apply_filters": 1}

    @pytest.mark.parametrize("crystal,length_mm,pump_nm", [
        ("KDP", 5.0, 415.0), ("BBO", 2.0, 400.0)])
    @pytest.mark.parametrize("flat_phase", [True, False])
    @pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("herald_arm", ["e", "o"])
    def test_matches_dense_heralded_rho(self, crystal, length_mm, pump_nm, flat_phase,
                                        shape, symmetric, herald_arm):
        # The r x r purity on the Schmidt basis against the dense path: the
        # filtered amplitude, its n x n heralded rho, and Tr rho^2.
        source = SourceSpec(get_crystal(crystal, length_mm), PumpSpec(pump_nm, 4.0),
                            n_points=256, flat_phase=flat_phase)
        bandwidths = np.array([np.inf, 20.0, 8.0, 3.0, 1.0, 0.3, 0.1])
        sweep = filter_sweep(source, bandwidths, filter_shape=shape,
                             symmetric=symmetric, herald_arm=herald_arm)
        jsa = source.build_jsa()
        signal_arm = "e" if herald_arm == "o" else "o"
        arms = (herald_arm, signal_arm) if symmetric else (herald_arm,)
        dense_gaps = []
        for bw, got in zip(bandwidths, sweep.purities):
            filters = [] if np.isinf(bw) else [
                FilterSpec(shape, arm, 2.0 * pump_nm, bw) for arm in arms]
            try:
                filtered = apply_filters(jsa, filters)[0]
            except FilterSupportError as exc:
                dense_gaps.append((float(bw), str(exc)))
                continue
            expected = purity(heralded_density_matrix(filtered, signal_arm))
            assert got == pytest.approx(expected, abs=1e-12)
        assert list(sweep.gaps) == dense_gaps
        assert np.isnan(sweep.purities).sum() == len(dense_gaps)

    def test_unsupported_bandwidth_is_gap_not_crash(self, bbo_source):
        sweep = filter_sweep(bbo_source, np.array([4.0, 1e-6]),
                             filter_shape="rectangular")
        assert np.isfinite(sweep.purities[0])
        assert np.isnan(sweep.purities[1])
        assert np.isnan(sweep.heralding_efficiencies[1])
        assert len(sweep.gaps) == 1 and sweep.gaps[0][0] == pytest.approx(1e-6)

    def test_invalid_inputs(self, bbo_source):
        with pytest.raises(ConfigError, match="bogus"):
            filter_sweep(bbo_source, np.array([np.inf]), filter_shape="bogus")
        with pytest.raises(ConfigError):
            filter_sweep(bbo_source, np.array([-1.0]))
        with pytest.raises(ConfigError):
            filter_sweep(bbo_source, np.array([math.nan, 4.0]))
        with pytest.raises(ConfigError):
            filter_sweep(bbo_source, np.array([4.0]), herald_arm="x")


class TestSimulateCounts:
    delays = np.linspace(-1000, 1000, 41)

    def test_deterministic_for_fixed_seed(self):
        scan = make_scan(self.delays, dip_curve(self.delays, 1.0, 0.9, 0.0, 300.0))
        a = simulate_counts(scan, 500.0, seed=7)
        b = simulate_counts(scan, 500.0, seed=7)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = simulate_counts(scan, 500.0, seed=8)
        assert np.any(a.counts != c.counts)

    def test_mean_tracks_rate(self):
        scan = make_scan(self.delays, dip_curve(self.delays, 1.0, 0.9, 0.0, 300.0))
        record = simulate_counts(scan, 1e6, seed=3)
        expected = 1e6 * scan.rates
        # 5-sigma Poisson band per point
        assert np.all(np.abs(record.counts - expected) < 5.0 * np.sqrt(expected) + 5)

    def test_counts_are_nonnegative_integers(self):
        scan = make_scan(self.delays, dip_curve(self.delays, 1.0, 1.0, 0.0, 300.0))
        record = simulate_counts(scan, 20.0, seed=1)
        assert np.issubdtype(record.counts.dtype, np.integer)
        assert np.all(record.counts >= 0)

    def test_invalid_pairs(self):
        scan = make_scan(self.delays, np.ones_like(self.delays))
        with pytest.raises(ConfigError):
            simulate_counts(scan, 0.0, seed=1)
        with pytest.raises(ConfigError):
            simulate_counts(scan, math.nan, seed=1)

    def test_mean_past_numpy_poisson_limit_is_config_error(self):
        # numpy's Generator.poisson draws up to its limit and raises a bare
        # ValueError past it; the limit itself still draws.
        scan = make_scan(self.delays, np.ones_like(self.delays))
        assert simulate_counts(scan, analysis.POISSON_MAX_MEAN, seed=1).counts.min() > 0
        past = np.nextafter(analysis.POISSON_MAX_MEAN, math.inf)
        with pytest.raises(ConfigError, match="pair budget 1e\\+20 gives a largest Poisson mean "
                                              "of 1e\\+20, past numpy's limit of 9.22337201e\\+18"):
            simulate_counts(scan, 1e20, seed=1)
        with pytest.raises(ConfigError, match="past numpy's limit"):
            simulate_counts(scan, past, seed=1)

    def test_csv_roundtrip(self, tmp_path):
        scan = make_scan(self.delays, dip_curve(self.delays, 1.0, 0.9, 0.0, 300.0))
        record = simulate_counts(scan, 500.0, seed=11)
        path = tmp_path / "counts.csv"
        record.to_csv(path)
        back = CountRecord.from_csv(path)
        np.testing.assert_array_equal(back.counts, record.counts)
        np.testing.assert_allclose(back.delays_fs, record.delays_fs)
        assert back.seed == 11 and back.pairs_per_point == 500.0


class TestFitGaussianDip:
    delays = np.linspace(-1200, 1200, 61)

    def test_noiseless_recovery(self):
        truth = (1000.0, 0.944, 35.0, 440.0)
        counts = np.round(dip_curve(self.delays, *truth)).astype(int)
        fit = fit_gaussian_dip(CountRecord(self.delays, counts, truth[0], 0))
        assert fit.converged
        assert fit.baseline == pytest.approx(truth[0], rel=1e-3)
        assert fit.visibility == pytest.approx(truth[1], rel=1e-3)
        assert fit.center_fs == pytest.approx(truth[2], abs=1.0)
        assert fit.fwhm_fs == pytest.approx(truth[3], rel=1e-3)

    def test_high_count_noiseless_precision(self):
        # Without integer rounding the optimizer reaches the exact truth.
        truth = (1e6, 0.9, 0.0, 300.0)
        counts = dip_curve(self.delays, *truth)
        record = CountRecord(self.delays, np.round(counts).astype(int), truth[0], 0)
        fit = fit_gaussian_dip(record)
        assert fit.visibility == pytest.approx(truth[1], rel=1e-5)
        assert fit.fwhm_fs == pytest.approx(truth[3], rel=1e-5)

    def test_fit_is_a_fixed_point(self):
        truth = (2000.0, 0.8, -50.0, 350.0)
        counts = np.round(dip_curve(self.delays, *truth)).astype(int)
        record = CountRecord(self.delays, counts, truth[0], 0)
        first = fit_gaussian_dip(record)
        refit_counts = np.round(dip_curve(
            self.delays, first.baseline, first.visibility, first.center_fs,
            first.fwhm_fs)).astype(int)
        second = fit_gaussian_dip(CountRecord(self.delays, refit_counts, truth[0], 0))
        assert second.visibility == pytest.approx(first.visibility, abs=1e-3)
        assert second.fwhm_fs == pytest.approx(first.fwhm_fs, rel=1e-3)

    def test_flat_counts_give_zero_visibility(self):
        record = CountRecord(self.delays, np.full(self.delays.size, 250), 250.0, 0)
        fit = fit_gaussian_dip(record)
        assert fit.converged
        assert fit.visibility == 0.0

    def test_coverage_of_reported_uncertainties(self):
        # 200 noisy replicates: the true visibility should fall inside
        # +-3 sigma of the fitted value in >= 98% of them.
        truth = (800.0, 0.85, 0.0, 400.0)
        rates = dip_curve(self.delays, 1.0, truth[1], truth[2], truth[3])
        scan = make_scan(self.delays, rates)
        hits = 0
        trials = 200
        for trial in range(trials):
            record = simulate_counts(scan, truth[0], seed=1000 + 101 * trial)
            fit = fit_gaussian_dip(record)
            if not fit.converged or not np.isfinite(fit.uncertainties[1]):
                continue
            if abs(fit.visibility - truth[1]) <= 3.0 * fit.uncertainties[1]:
                hits += 1
        assert hits / trials >= 0.98

    def test_reaches_weighted_least_squares_optimum(self):
        # An independent solver (trust-region reflective, finite-difference
        # Jacobian) on the same weighted residual, started away from both
        # the truth and the fitter's own start, on acceptance 8's replicates.
        truth = (1000.0, 0.944, 0.0, 440.0)
        delays = np.linspace(-1500.0, 1500.0, 61)
        scan = make_scan(delays, dip_curve(delays, 1.0, *truth[1:]))
        start = np.array(truth) * [1.1, 0.9, 1.0, 1.2] + [0.0, 0.0, 30.0, 0.0]
        for trial in range(200):
            record = simulate_counts(scan, truth[0], seed=5000 + 997 * trial)
            counts = record.counts.astype(float)
            sqrt_w = 1.0 / np.sqrt(np.maximum(counts, 1.0))
            ref = least_squares(lambda p: sqrt_w * (counts - dip_curve(delays, *p)),
                                start, jac="3-point", method="trf",
                                xtol=1e-12, ftol=1e-12, gtol=1e-12)
            sigma = np.sqrt(np.diag(np.linalg.inv(ref.jac.T @ ref.jac)))
            fit = fit_gaussian_dip(record)
            got = np.array([fit.baseline, fit.visibility, fit.center_fs, fit.fwhm_fs])
            assert fit.converged
            assert np.all(np.abs(got - ref.x) <= 1e-3 * sigma)
            np.testing.assert_allclose(fit.uncertainties, sigma, rtol=1e-5)

    def test_iterations_are_minpack_evaluations(self):
        # n_iterations is the nfev that MINPACK reports through leastsq's
        # full output, and chi2_reduced comes from its final residual; a
        # direct full_output call must agree on every scipy the package takes.
        delays = np.linspace(-1500.0, 1500.0, 61)
        scan = make_scan(delays, dip_curve(delays, 1.0, 0.944, 0.0, 440.0))
        for pairs, seed in ((1000.0, 5000), (1e5, 11), (30.0, 7), (2.0, 13)):
            record = simulate_counts(scan, pairs, seed=seed)
            counts = record.counts.astype(float)
            sqrt_w = np.sqrt(1.0 / np.maximum(counts, 1.0))
            residual = lambda p: sqrt_w * (counts - analysis._dip_model(p, delays))
            params, _, info, _, ier = leastsq(
                residual, analysis._initial_guess(delays, counts),
                Dfun=lambda p: -sqrt_w[:, None] * analysis._dip_jacobian(p, delays),
                full_output=True)
            fit = fit_gaussian_dip(record)
            assert fit.n_iterations == info["nfev"]
            assert fit.converged == (ier in (1, 2, 3, 4))
            assert [fit.baseline, fit.visibility, fit.center_fs] == list(params[:3])
            assert fit.chi2_reduced == np.sum(residual(params) ** 2) / (delays.size - 4)

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            fit_gaussian_dip(CountRecord(np.arange(5.0), np.ones(5, dtype=int), 1.0, 0))

    def test_json_export(self, tmp_path):
        truth = (1000.0, 0.9, 0.0, 300.0)
        counts = np.round(dip_curve(self.delays, *truth)).astype(int)
        fit = fit_gaussian_dip(CountRecord(self.delays, counts, truth[0], 0))
        payload = fit.to_json(tmp_path / "fit.json")
        assert payload["visibility"] == fit.visibility
        assert (tmp_path / "fit.json").exists()


class TestEndToEndCounts:
    def test_fit_recovers_simulated_experiment(self, kdp_source):
        delays = np.linspace(-1500, 1500, 61)
        scan = two_source_experiment(kdp_source, kdp_source, "o", delays)
        record = simulate_counts(scan, 2000.0, seed=42)
        fit = fit_gaussian_dip(record)
        assert fit.converged
        # The true dip is not exactly Gaussian (sinc sidelobes), so allow a
        # model-mismatch margin beyond the statistical uncertainty.
        assert abs(fit.visibility - scan.visibility) <= 3.0 * fit.uncertainties[1] + 0.05
        assert fit.fwhm_fs == pytest.approx(scan.dip_fwhm_fs, rel=0.15)


class TestJsiScan:
    def test_zero_resolution_preserves_structure(self, kdp_jsa):
        result = simulate_jsi_scan(kdp_jsa, resolution_fwhm_nm=0.0, step_nm=0.1)
        assert result.counts is None
        assert _scan_purity(result) == pytest.approx(
            # flat-phase JSA: sqrt(JSI) recovers |f| exactly
            _reference_purity(kdp_jsa), abs=0.02)

    @pytest.mark.parametrize("step_nm", [0.1, 0.37])
    @pytest.mark.parametrize("jsa_name", ["kdp_jsa", "bbo_jsa"])
    def test_zero_resolution_is_bilinear_interpolation(self, jsa_name, step_nm, request):
        jsa = request.getfixturevalue(jsa_name)
        result = simulate_jsi_scan(jsa, resolution_fwhm_nm=0.0, step_nm=step_nm)
        lam = nm_from_omega(jsa.grid.omega_e)[::-1]
        interp = RegularGridInterpolator((lam, lam), jsa.intensity[::-1, ::-1],
                                         bounds_error=False, fill_value=0.0)
        ee, oo = np.meshgrid(result.lambda_nm, result.lambda_nm, indexing="ij")
        reference = interp(np.stack([ee, oo], axis=-1))
        np.testing.assert_allclose(result.expected, reference, rtol=0,
                                   atol=1e-15 * reference.max())
        if step_nm == 0.37:
            # The lattice overshoots the sampled window; past it the scan reads 0.
            assert result.lambda_nm[-1] > lam[-1]
            assert not result.expected[-1].any() and not result.expected[:, -1].any()

    def test_fine_scan_tracks_true_purity(self, kdp_jsa):
        result = simulate_jsi_scan(kdp_jsa, resolution_fwhm_nm=0.2, step_nm=0.1)
        assert _scan_purity(result) == pytest.approx(
            _reference_purity(kdp_jsa), abs=0.02)

    def test_coarse_resolution_washes_out_correlation(self, bbo_jsa):
        fine = simulate_jsi_scan(bbo_jsa, resolution_fwhm_nm=0.2, step_nm=0.1)
        coarse = simulate_jsi_scan(bbo_jsa, resolution_fwhm_nm=8.0, step_nm=0.5)
        assert abs(_lattice_pearson(coarse)) < abs(_lattice_pearson(fine))
        assert abs(_lattice_pearson(fine)) == pytest.approx(
            abs(jsi_pearson(bbo_jsa)), abs=0.05)

    @pytest.mark.parametrize("resolution_nm, step_nm", [(0.2, 0.1), (1.0, 0.05), (0.5, 0.5)])
    @pytest.mark.parametrize("name", ["kdp", "bbo"])
    def test_cut_response_gives_the_untruncated_scan(self, name, resolution_nm, step_nm):
        # On a shipped source every cell is far above what the 32-sigma cut drops.
        jsa = load_config(CONFIGS / f"{name}.cfg")[0].source.build_jsa()
        result = simulate_jsi_scan(jsa, resolution_nm, step_nm)
        np.testing.assert_array_equal(result.expected,
                                      _untruncated_scan(jsa, resolution_nm, step_nm))

    def test_cut_response_zeroes_what_a_rectangular_filter_leaves_dark(self):
        # Each cut weight is below e^-512 and each weight at most 1, so the cut
        # moves a cell by at most 2 e^-512 times the JSI's sum; the products
        # of nonnegative terms round within n eps of the cell.
        source = load_config(CONFIGS / "kdp.cfg")[0].source
        jsa = replace(source, filters=[FilterSpec("rectangular", arm, 830.0, 2.0)
                                       for arm in ("e", "o")]).build_jsa()
        reference = _untruncated_scan(jsa, 0.2, 0.1)
        expected = simulate_jsi_scan(jsa, 0.2, 0.1).expected
        bound = 2 * math.exp(-512) * jsa.intensity.sum()
        rounding = jsa.grid.omega_e.size * np.finfo(float).eps * reference
        assert np.all(np.abs(expected - reference) <= bound + rounding)
        assert np.any((expected == 0) & (reference > 0))

    @pytest.mark.parametrize("budget", [None, 1e6], ids=["noiseless", "budget"])
    @pytest.mark.parametrize("flat_phase", [True, False], ids=["flat", "kept"])
    def test_scan_squares_the_reversed_amplitude_once(self, flat_phase, budget):
        # The JSI enters the product as the contiguous array numpy's copy of
        # jsa.intensity[::-1, ::-1] was, so every cell keeps its bits, and the
        # scan neither caches the JSI nor holds a reversed copy of it.
        source = replace(load_config(CONFIGS / "kdp.cfg")[0].source, flat_phase=flat_phase)
        jsa = source.build_jsa()
        n = jsa.grid.omega_e.size
        tracemalloc.start()
        try:
            result = simulate_jsi_scan(jsa, 0.2, 0.1, pairs_budget=budget, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "intensity" not in jsa.__dict__
        assert n == 512 and peak <= 2.5 * 8 * n * n
        response = _scan_response(jsa, 0.2, 0.1, cut=True)
        smoothed = response @ np.ascontiguousarray(jsa.intensity[::-1, ::-1]) @ response.T
        if budget is None:
            assert_same_bits(result.expected, smoothed)
            assert result.counts is None
        else:
            expected = smoothed * (budget / float(smoothed.sum()))
            assert_same_bits(result.expected, expected)
            assert_same_bits(result.counts, analysis._poisson_draws(expected, 7, budget))

    def test_budget_scan_peaks_no_higher_than_noiseless(self):
        # The draws hold the expected counts, scaled in place, and the counts;
        # the response is gone by then.
        jsa = load_config(CONFIGS / "bbo.cfg")[0].source.build_jsa()
        peaks = []
        for budget in (None, 1e6):
            tracemalloc.start()
            try:
                simulate_jsi_scan(jsa, 0.2, 0.1, pairs_budget=budget, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert jsa.grid.omega_e.size == 512 and peaks[1] <= peaks[0]

    def test_budget_conserved_in_expectation(self, kdp_jsa):
        result = simulate_jsi_scan(kdp_jsa, resolution_fwhm_nm=0.5, step_nm=0.2,
                                   pairs_budget=1e5, seed=5)
        assert result.expected.sum() == pytest.approx(1e5, rel=1e-9)
        assert result.counts is not None
        assert result.counts.sum() == pytest.approx(1e5, rel=0.02)

    def test_sampling_deterministic(self, kdp_jsa):
        a = simulate_jsi_scan(kdp_jsa, 0.5, 0.2, pairs_budget=1e4, seed=9)
        b = simulate_jsi_scan(kdp_jsa, 0.5, 0.2, pairs_budget=1e4, seed=9)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_budget_past_numpy_poisson_limit_is_config_error(self, kdp_jsa):
        with pytest.raises(ConfigError, match=r"pair budget 1e\+24 gives a largest Poisson mean"):
            simulate_jsi_scan(kdp_jsa, 0.5, 0.2, pairs_budget=1e24, seed=1)

    def test_invalid_inputs(self, kdp_jsa):
        with pytest.raises(ConfigError):
            simulate_jsi_scan(kdp_jsa, 0.5, -1.0)
        with pytest.raises(ConfigError):
            simulate_jsi_scan(kdp_jsa, -0.5, 0.1)
        with pytest.raises(ConfigError):
            simulate_jsi_scan(kdp_jsa, 0.5, 0.1, pairs_budget=100.0, seed=None)
        for resolution, step, budget in ((0.5, math.nan, None), (math.nan, 0.1, None),
                                         (math.inf, 0.1, None), (0.5, 0.1, math.nan)):
            with pytest.raises(ConfigError):
                simulate_jsi_scan(kdp_jsa, resolution, step, pairs_budget=budget, seed=1)


def _scan_response(jsa, resolution_nm, step_nm, cut):
    """The scan's Gaussian response R, whole or (cut) 0 past 32 sigma."""
    lam = nm_from_omega(jsa.grid.omega_e)[::-1]
    lattice = np.arange(lam[0], lam[-1] + step_nm / 2.0, step_nm)
    s = resolution_nm / FWHM_PER_SIGMA
    exponent = -((lattice[:, None] - lam[None, :]) ** 2) / (2.0 * s ** 2)
    if cut:
        exponent[exponent < -512.0] = -np.inf
    return np.exp(exponent)


def _untruncated_scan(jsa, resolution_nm, step_nm):
    """The noiseless scan with the whole Gaussian response, R @ JSI @ R.T."""
    response = _scan_response(jsa, resolution_nm, step_nm, cut=False)
    return response @ jsa.intensity[::-1, ::-1] @ response.T


def _reference_purity(jsa):
    from pairspec.schmidt import schmidt_decompose
    return schmidt_decompose(jsa).purity


def _scan_purity(result):
    """Schmidt purity of the scanned intensity assuming flat spectral phase."""
    grid = result.counts if result.counts is not None else result.expected
    amp = np.sqrt(np.clip(np.asarray(grid, dtype=float), 0.0, None))
    sv = np.linalg.svd(amp, compute_uv=False)
    weights = sv ** 2 / np.sum(sv ** 2)
    return float(np.sum(weights ** 2))


def _lattice_pearson(result):
    density = result.expected / result.expected.sum()
    le, lo = result.lambda_nm, result.lambda_nm
    p_e, p_o = density.sum(axis=1), density.sum(axis=0)
    mu_e, mu_o = float(p_e @ le), float(p_o @ lo)
    var_e = float(p_e @ (le - mu_e) ** 2)
    var_o = float(p_o @ (lo - mu_o) ** 2)
    cov = float(((le - mu_e)[:, None] * (lo - mu_o)[None, :] * density).sum())
    return cov / math.sqrt(var_e * var_o)
