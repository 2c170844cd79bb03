"""Acceptance gate: one top-level test (and one printed verdict line) per
criterion. Shared heavyweight artifacts are module-scoped fixtures so the
stated runtime budgets cover only the work attributed to each criterion."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pairspec.analysis import (CountRecord, filter_sweep, fit_gaussian_dip,
                               simulate_counts)
from pairspec.dispersion import gvm_pump_wavelength
from pairspec.interference import HomScan, coherence_time, two_source_experiment
from pairspec.jsa import FrequencyGrid, export_metadata, normalize
from pairspec.schmidt import heralded_density_matrix, schmidt_decompose

from conftest import purity

FOUR_LN2 = 4.0 * math.log(2.0)


@pytest.fixture(scope="module")
def announce(pytestconfig):
    """Print verdict lines straight to the terminal, bypassing capture."""
    capmanager = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _print(criterion, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {criterion}: {verdict} -- {detail}"
        if capmanager is not None:
            with capmanager.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    return _print


@pytest.fixture(scope="module")
def kdp_purity_512(kdp_jsa):
    return schmidt_decompose(kdp_jsa).purity


@pytest.fixture(scope="module")
def kdp_hom_o(kdp_source):
    return two_source_experiment(kdp_source, kdp_source, "o",
                                 np.linspace(-1500.0, 1500.0, 301))


def test_criterion_1_gvm_wavelength(kdp, announce):
    start = time.perf_counter()
    solution = gvm_pump_wavelength(kdp, 830.0)
    elapsed = time.perf_counter() - start
    ok = abs(solution.pump_wavelength_nm - 415.0) <= 5.0 and elapsed < 1.0
    announce(1, ok, f"gvm pump = {solution.pump_wavelength_nm:.3f} nm "
                    f"(target 415 +/- 5), runtime {elapsed:.2f} s (< 1 s)")
    assert abs(solution.pump_wavelength_nm - 415.0) <= 5.0
    assert elapsed < 1.0


def test_criterion_2_kdp_factorability(kdp_source, announce):
    start = time.perf_counter()
    value = schmidt_decompose(kdp_source.build_jsa()).purity
    elapsed = time.perf_counter() - start
    ok = value >= 0.95 and elapsed < 30.0
    announce(2, ok, f"KDP 512^2 flat-phase Schmidt purity = {value:.7f} "
                    f"(>= 0.95), runtime {elapsed:.1f} s (< 30 s)")
    assert value >= 0.95
    assert elapsed < 30.0


def test_criterion_3_bbo_tradeoff(bbo_source, bbo_jsa, kdp_purity_512, announce):
    start = time.perf_counter()
    bandwidths = np.linspace(20.0, 1.0, 20)
    sweep = filter_sweep(bbo_source, bandwidths, herald_arm="o")
    elapsed = time.perf_counter() - start
    crossing = np.where(sweep.purities >= 0.95)[0]
    assert crossing.size > 0
    bw = sweep.bandwidths_nm[crossing[0]]
    eff = sweep.heralding_efficiencies[crossing[0]]
    bbo_purity = schmidt_decompose(bbo_jsa).purity
    ok = (abs(eff - 0.75) <= 0.10 and bbo_purity < kdp_purity_512
          and elapsed < 300.0)
    announce(3, ok, f"BBO purity >= 0.95 first at {bw:.2f} nm with heralding "
                    f"efficiency {eff:.3f} (0.75 +/- 0.10); unfiltered BBO "
                    f"purity {bbo_purity:.3f} < KDP {kdp_purity_512:.3f}; "
                    f"20-point sweep {elapsed:.1f} s (< 300 s)")
    assert abs(eff - 0.75) <= 0.10
    assert bbo_purity < kdp_purity_512
    assert elapsed < 300.0


def test_criterion_4_hom_identity(kdp_jsa, kdp_hom_o, announce):
    rho = heralded_density_matrix(kdp_jsa, "e")
    gap = abs(kdp_hom_o.visibility - purity(rho))
    vis = kdp_hom_o.visibility
    ok = gap < 1e-9 and vis >= 0.95
    announce(4, ok, f"|V - purity| = {gap:.2e} (< 1e-9); KDP herald-on-o "
                    f"V = {vis:.4f} (>= 0.95, lower bound for measured 94.4%)")
    assert gap < 1e-9
    assert vis >= 0.95


def test_criterion_5_dip_widths(kdp_source, kdp_hom_o, announce):
    wide = kdp_hom_o.dip_fwhm_fs
    narrow = two_source_experiment(kdp_source, kdp_source, "e",
                                   np.linspace(-400.0, 400.0, 401)).dip_fwhm_fs
    ratio = wide / narrow
    tc_wide = coherence_time(wide)
    tc_narrow = coherence_time(narrow)
    conversion_exact = (tc_wide == wide / math.sqrt(2.0)
                        and tc_narrow == narrow / math.sqrt(2.0))
    ok = (abs(wide - 440.0) <= 0.30 * 440.0
          and abs(narrow - 92.0) <= 0.30 * 92.0
          and abs(ratio - 4.8) <= 1.2 and conversion_exact)
    announce(5, ok, f"e-ray dip {wide:.1f} fs (440 +/- 30%), o-ray dip "
                    f"{narrow:.1f} fs (92 +/- 30%), ratio {ratio:.2f} "
                    f"(4.8 +/- 1.2); coherence times {tc_wide:.0f}/{tc_narrow:.0f} fs "
                    f"= FWHM/sqrt(2) exactly")
    assert abs(wide - 440.0) <= 0.30 * 440.0
    assert abs(narrow - 92.0) <= 0.30 * 92.0
    assert abs(ratio - 4.8) <= 1.2
    assert conversion_exact


def test_criterion_6_analytic_schmidt_oracle(announce):
    worst = 0.0
    sig_minus = 1e13
    for ratio in (0.2, 1.0, 5.0):
        sig_plus = ratio * sig_minus
        half = 8.0 * max(sig_plus, sig_minus)
        axis = np.linspace(2.27e15 - half, 2.27e15 + half, 257)
        grid = FrequencyGrid(axis, axis.copy())
        ve = axis[:, None] - 2.27e15
        vo = axis[None, :] - 2.27e15
        raw = np.exp(-((ve + vo) ** 2) / (4 * sig_plus**2)
                     - ((ve - vo) ** 2) / (4 * sig_minus**2))
        numeric = schmidt_decompose(normalize(grid, raw)).purity
        closed = 2 * sig_plus * sig_minus / (sig_plus**2 + sig_minus**2)
        worst = max(worst, abs(numeric - closed))
    ok = worst < 1e-4
    announce(6, ok, f"two-Gaussian purity vs closed form: max deviation "
                    f"{worst:.2e} over ratios 0.2/1/5 (< 1e-4)")
    assert worst < 1e-4


def test_criterion_7_grid_convergence(kdp_source, kdp_purity_512, kdp_hom_o,
                                      announce):
    coarse = replace(kdp_source, n_points=256)
    purity_256 = schmidt_decompose(coarse.build_jsa()).purity
    vis_256 = two_source_experiment(coarse, coarse, "o",
                                    np.linspace(-1500.0, 1500.0, 301)).visibility
    d_purity = abs(kdp_purity_512 - purity_256)
    d_vis = abs(kdp_hom_o.visibility - vis_256)
    ok = d_purity < 1e-3 and d_vis < 1e-3
    announce(7, ok, f"256 -> 512 grid doubling: |d purity| = {d_purity:.2e}, "
                    f"|d visibility| = {d_vis:.2e} (both < 1e-3)")
    assert d_purity < 1e-3
    assert d_vis < 1e-3


def test_criterion_8_fit_coverage(announce):
    truth_v, truth_w = 0.944, 440.0
    delays = np.linspace(-1500.0, 1500.0, 61)
    rates = 1.0 - truth_v * np.exp(-FOUR_LN2 * delays**2 / truth_w**2)
    scan = HomScan(delays_fs=delays, rates=rates, visibility=truth_v,
                   dip_fwhm_fs=truth_w, dip_center_fs=0.0)
    trials, hits = 200, 0
    for trial in range(trials):
        record = simulate_counts(scan, 1000.0, seed=5000 + 997 * trial)
        fit = fit_gaussian_dip(record)
        if not (fit.converged and np.all(np.isfinite(fit.uncertainties[1:4]))):
            continue
        if (abs(fit.visibility - truth_v) <= 3.0 * fit.uncertainties[1]
                and abs(fit.center_fs - 0.0) <= 3.0 * fit.uncertainties[2]
                and abs(fit.fwhm_fs - truth_w) <= 3.0 * fit.uncertainties[3]):
            hits += 1
    coverage = hits / trials

    baseline = 1e9  # large counts: integer rounding is ~1e-9 relative
    noiseless = np.round(baseline * rates).astype(np.int64)
    fit = fit_gaussian_dip(CountRecord(delays, noiseless, baseline, 0))
    rel_v = abs(fit.visibility - truth_v) / truth_v
    rel_w = abs(fit.fwhm_fs - truth_w) / truth_w
    ok = coverage >= 0.98 and rel_v < 1e-6 and rel_w < 1e-6
    announce(8, ok, f"3-sigma coverage {coverage:.1%} over 200 replicates "
                    f"(>= 98%); noiseless recovery rel errors V {rel_v:.1e}, "
                    f"FWHM {rel_w:.1e} (< 1e-6)")
    assert coverage >= 0.98
    assert rel_v < 1e-6
    assert rel_w < 1e-6


def test_criterion_9_out_of_model_quantities(kdp_source, kdp_jsa, tmp_path, announce):
    # Absolute pair rates and detector/loss-dependent heralding or
    # detection efficiencies are outside this model; the exported metadata
    # says so explicitly.
    path = tmp_path / "meta.json"
    export_metadata(path, kdp_source, kdp_jsa)
    meta = json.loads(path.read_text())
    note = meta.get("out_of_model", {})
    ok = ("absolute_pair_rate" in note
          and "not simulated" in note["absolute_pair_rate"]
          and "detector_and_collection_efficiency" in note
          and "not simulated" in note["detector_and_collection_efficiency"])
    announce(9, ok, "absolute pair rates and detector/loss heralding "
                    "efficiencies are declared out-of-model in exported "
                    "metadata (not simulated at desk scale)")
    assert ok
