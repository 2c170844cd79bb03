"""Experiment-level drivers: filter sweeps, synthetic counts, dip fits,
and simulated monochromator scans of the joint spectrum."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import leastsq

from .errors import ConfigError, FilterSupportError
from .interference import HomScan, SourceSpec
from .jsa import (FILTER_SHAPES, FWHM_PER_SIGMA, FilterSpec, JointAmplitude, arm_transmissions,
                  nm_from_omega, other_arm, write_csv, write_json)
from .schmidt import heralding_efficiency, schmidt_decompose

FOUR_LN2 = 4.0 * math.log(2.0)


@dataclass(frozen=True)
class SweepResult:
    """Purity and heralding efficiency versus filter bandwidth."""

    bandwidths_nm: np.ndarray
    purities: np.ndarray
    heralding_efficiencies: np.ndarray
    config: dict
    gaps: tuple = ()  # (bandwidth, reason) pairs where filtering failed

    def to_csv(self, path):
        columns = [self.bandwidths_nm, self.purities, self.heralding_efficiencies]
        write_csv(path, np.column_stack(columns), header="bandwidth_nm,purity,heralding_efficiency",
                  comments=[json.dumps(self.config, sort_keys=True)])


def filter_sweep(source: SourceSpec, bandwidths_nm, filter_shape="gaussian",
                 symmetric=True, herald_arm="o"):
    """Heralded-photon purity and heralding efficiency along a bandwidth ladder.

    The source is decomposed once (`schmidt_decompose`); the purity at each
    bandwidth is the Schmidt purity of the filtered amplitude, equal to
    Tr rho^2 of the heralded photon, taken as r x r algebra on that basis
    (`SchmidtResult.filtered_purity`). The heralding efficiency is the
    dense, exact `heralding_efficiency`. The sweep sets its own filters,
    centered on the degenerate wavelength; the source's filters do not
    apply. The herald arm is always filtered; with
    symmetric=True the signal arm gets an identical filter. A bandwidth of
    inf means no filter. Per-point filter failures are recorded as gaps
    (NaN in the arrays), not a global error.
    """
    signal_arm = other_arm(herald_arm, "herald_arm")
    if filter_shape not in FILTER_SHAPES:
        raise ConfigError(f"unknown filter shape {filter_shape!r}")
    bandwidths_nm = np.asarray(bandwidths_nm, dtype=float)
    if bandwidths_nm.ndim != 1 or not np.all(bandwidths_nm > 0):
        raise ConfigError("bandwidths must be a 1-d positive array")
    jsa = source.build_jsa(filtered=False)
    basis = schmidt_decompose(jsa)
    axis = jsa.grid.omega_e
    center_nm = 2.0 * source.pump.center_nm
    filtered_arms = (herald_arm, signal_arm) if symmetric else (herald_arm,)
    purities = np.empty_like(bandwidths_nm)
    efficiencies = np.empty_like(bandwidths_nm)
    gaps = []
    for i, bw in enumerate(bandwidths_nm):
        arms = () if math.isinf(bw) else filtered_arms
        filters = [FilterSpec(filter_shape, arm, center_nm, bw) for arm in arms]
        try:
            purities[i] = basis.filtered_purity(arm_transmissions(filters, axis))
            efficiencies[i] = heralding_efficiency(jsa, filters, herald_arm)
        except FilterSupportError as exc:
            purities[i] = np.nan
            efficiencies[i] = np.nan
            gaps.append((float(bw), str(exc)))
    config = {
        "crystal": source.crystal.name,
        "length_mm": source.crystal.length_mm,
        "pump_center_nm": source.pump.center_nm,
        "pump_fwhm_nm": source.pump.fwhm_nm,
        "filter_shape": filter_shape,
        "filter_center_nm": center_nm,
        "symmetric": symmetric,
        "herald_arm": herald_arm,
        "flat_phase": source.flat_phase,
        "n_points": source.n_points,
        "basis_rank": basis.rank,
        "basis_residual": basis.residual,
    }
    return SweepResult(
        bandwidths_nm=bandwidths_nm,
        purities=purities,
        heralding_efficiencies=efficiencies,
        config=config,
        gaps=tuple(gaps),
    )


@dataclass(frozen=True)
class CountRecord:
    """Integer coincidence counts over a delay scan."""

    delays_fs: np.ndarray
    counts: np.ndarray
    pairs_per_point: float
    seed: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if np.any(counts < 0) or not np.issubdtype(counts.dtype, np.integer):
            raise ConfigError("counts must be nonnegative integers")

    def to_csv(self, path):
        # Object rows keep each count a Python int, exact beyond 2**53.
        write_csv(path, np.array([self.delays_fs, self.counts], dtype=object).T,
                  comments=[f"pairs_per_point,{self.pairs_per_point:.9g}", f"seed,{self.seed}"],
                  header="delay_fs,counts", fmt=("%.9g", "%d"))

    @classmethod
    def from_csv(cls, path):
        pairs, seed, lineno = 0.0, 0, 1
        delays, counts = [], []
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    if line.startswith("#"):
                        _, _, rest = line.partition(" ")
                        key, _, value = rest.partition(",")
                        if key == "pairs_per_point":
                            pairs = float(value)
                        elif key == "seed":
                            seed = int(value)
                        continue
                    if line.startswith("delay_fs"):
                        continue
                    t, _, n = line.partition(",")
                    delay = float(t)
                    if not math.isfinite(delay):
                        raise ValueError(f"delay {t.strip()!r} is not finite")
                    delays.append(delay)
                    counts.append(int(n))
        except OSError as exc:
            raise ConfigError(f"cannot read counts file {path}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
        return cls(np.array(delays), np.array(counts, dtype=int), pairs, seed)


def _poisson_draws(means, seed):
    """Poisson counts of the given means, integer array of the same shape.

    Index i along the first axis (a scan point, or a scan row) draws from
    its own generator seeded with seed + i, so serial and parallel
    evaluations agree bit-exactly.
    """
    if seed is None or seed < 0:
        raise ConfigError(f"drawing counts needs a nonnegative seed, got {seed}")
    counts = np.empty(means.shape, dtype=int)
    for i in range(means.shape[0]):
        counts[i] = np.random.default_rng(seed + i).poisson(means[i])
    return counts


def simulate_counts(scan: HomScan, pairs_per_point, seed):
    """Draw Poissonian counts for each scan point, mean pairs_per_point * rate,
    one generator per point (`_poisson_draws`)."""
    if not 0 < pairs_per_point < math.inf:
        raise ConfigError("pairs_per_point must be positive and finite")
    return CountRecord(
        delays_fs=scan.delays_fs.copy(),
        counts=_poisson_draws(pairs_per_point * scan.rates, seed),
        pairs_per_point=float(pairs_per_point),
        seed=int(seed),
    )


@dataclass(frozen=True)
class FitResult:
    """Weighted-least-squares Gaussian dip fit parameters."""

    baseline: float
    visibility: float
    center_fs: float
    fwhm_fs: float
    uncertainties: np.ndarray  # sigma of (baseline, visibility, center, fwhm)
    chi2_reduced: float
    converged: bool
    n_iterations: int  # residual evaluations, not LM steps

    def to_json(self, path):
        """Write the fit to a JSON file; returns the written payload."""
        payload = {
            "baseline": self.baseline,
            "visibility": self.visibility,
            "center_fs": self.center_fs,
            "fwhm_fs": self.fwhm_fs,
            "uncertainties": {
                "baseline": float(self.uncertainties[0]),
                "visibility": float(self.uncertainties[1]),
                "center_fs": float(self.uncertainties[2]),
                "fwhm_fs": float(self.uncertainties[3]),
            },
            "chi2_reduced": self.chi2_reduced,
            "converged": self.converged,
            "n_iterations": self.n_iterations,
            "model": "counts = B * (1 - V * exp(-4 ln2 (t - t0)^2 / w^2))",
            "weights": "1 / max(counts, 1)",
        }
        write_json(path, payload)
        return payload


def _dip_model(params, t):
    b, v, t0, w = params
    return b * (1.0 - v * np.exp(-FOUR_LN2 * (t - t0) ** 2 / w ** 2))


def _dip_jacobian(params, t):
    b, v, t0, w = params
    g = np.exp(-FOUR_LN2 * (t - t0) ** 2 / w ** 2)
    d_b = 1.0 - v * g
    d_v = -b * g
    d_t0 = -b * v * g * (2.0 * FOUR_LN2 * (t - t0) / w ** 2)
    d_w = -b * v * g * (2.0 * FOUR_LN2 * (t - t0) ** 2 / w ** 3)
    return np.stack([d_b, d_v, d_t0, d_w], axis=1)


def _initial_guess(delays, counts):
    """Deterministic data-driven start for the dip fit."""
    n = delays.size
    n_tail = max(1, int(round(0.2 * n)))
    tail_idx = np.argsort(np.abs(delays))[-n_tail:]
    baseline = float(np.mean(counts[tail_idx]))
    if baseline <= 0:
        baseline = max(float(np.max(counts)), 1.0)
    i_min = int(np.argmin(counts))
    t0 = float(delays[i_min])
    v = min(max(1.0 - float(counts[i_min]) / baseline, 0.0), 1.0)
    half_level = baseline * (1.0 - v / 2.0)
    below = counts <= half_level
    idx = np.where(below)[0]
    if idx.size >= 2 and delays[idx[-1]] > delays[idx[0]]:
        w = float(delays[idx[-1]] - delays[idx[0]])
    else:
        w = float(np.ptp(delays)) / 4.0
    if w <= 0:
        w = max(float(np.ptp(delays)), 1.0)
    return np.array([baseline, v, t0, w])


def fit_gaussian_dip(record: CountRecord):
    """Fit B * (1 - V exp(-4 ln2 (t - t0)^2 / w^2)) by Levenberg-Marquardt.

    MINPACK's lmder (scipy.optimize.leastsq) minimizes the weighted
    residual sqrt(w) (counts - model) with weights 1 / max(count, 1)
    (Poisson variance with a floor at one count). Uncertainties come from
    the inverse of the weighted normal matrix at the solution;
    chi2_reduced uses n - 4 degrees of freedom and MINPACK's final residual.
    n_iterations is MINPACK's count of residual evaluations (nfev).
    """
    delays = np.asarray(record.delays_fs, dtype=float)
    counts = np.asarray(record.counts, dtype=float)
    if delays.size < 6:
        raise ConfigError("need at least 6 scan points to fit the dip")
    weights = 1.0 / np.maximum(counts, 1.0)

    if np.all(counts == counts[0]):
        # Flat data: the dip amplitude is zero and the width is undetermined.
        base = float(counts[0])
        return FitResult(
            baseline=base, visibility=0.0, center_fs=float(np.mean(delays)),
            fwhm_fs=float(np.ptp(delays)) / 4.0,
            uncertainties=np.array([math.sqrt(max(base, 1.0) / delays.size),
                                    np.nan, np.nan, np.nan]),
            chi2_reduced=0.0, converged=True, n_iterations=0,
        )

    sqrt_w = np.sqrt(weights)
    params, _, info, _, ier = leastsq(
        lambda p: sqrt_w * (counts - _dip_model(p, delays)), _initial_guess(delays, counts),
        Dfun=lambda p: -sqrt_w[:, None] * _dip_jacobian(p, delays), full_output=True)
    chi2 = float(np.sum(info["fvec"] ** 2))

    jac = _dip_jacobian(params, delays)
    normal = (jac * weights[:, None]).T @ jac
    try:
        cov = np.linalg.inv(normal)
        sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        sigma = np.full(4, np.nan)
    dof = max(delays.size - 4, 1)
    return FitResult(
        baseline=float(params[0]),
        visibility=float(params[1]),
        center_fs=float(params[2]),
        fwhm_fs=float(abs(params[3])),
        uncertainties=sigma,
        chi2_reduced=chi2 / dof,
        converged=ier in (1, 2, 3, 4),
        n_iterations=int(info["nfev"]),
    )


@dataclass(frozen=True)
class JsiScanResult:
    """Simulated monochromator scan of the joint spectral intensity."""

    lambda_nm: np.ndarray  # one ascending lattice, the same for both arms
    expected: np.ndarray  # mean counts per lattice cell, indexed [e, o]
    counts: np.ndarray | None  # Poisson sample, None for the noiseless sentinel
    resolution_fwhm_nm: float
    step_nm: float
    seed: int | None

    def to_csv(self, path):
        """Counts in %d, so a cell of 1e9 or more keeps every digit; the
        noiseless sentinel's expected counts in %.9g."""
        axis = ",".join(f"{x:.9g}" for x in self.lambda_nm)
        sampled = self.counts is not None
        write_csv(path, self.counts if sampled else self.expected, comments=[
            f"resolution_fwhm_nm,{self.resolution_fwhm_nm:.9g}", f"step_nm,{self.step_nm:.9g}",
            f"axis_e_nm,{axis}", f"axis_o_nm,{axis}"], fmt="%d" if sampled else "%.9g")


def simulate_jsi_scan(jsa: JointAmplitude, resolution_fwhm_nm, step_nm,
                      pairs_budget=None, seed=None):
    """Scan the JSI with two monochromators of Gaussian resolution.

    The true JSI is convolved with a separable Gaussian instrument
    response of the given intensity FWHM per axis and sampled on a
    wavelength lattice with the given step, the same for both arms:
    smoothed = R @ JSI @ R.T. pairs_budget is distributed over the
    lattice proportionally to the smoothed intensity and Poisson sampled;
    pass pairs_budget=None for the noiseless sentinel and
    resolution_fwhm_nm=0 for a delta-function instrument, which reads
    the JSI bilinearly interpolated (0 past the sampled window).
    """
    if not 0 < step_nm < math.inf:
        raise ConfigError("step_nm must be positive and finite")
    if not 0 <= resolution_fwhm_nm < math.inf:
        raise ConfigError("resolution_fwhm_nm must be nonnegative and finite")
    lam = nm_from_omega(jsa.grid.omega_e)[::-1]  # ascending
    lattice = np.arange(lam[0], lam[-1] + step_nm / 2.0, step_nm)
    # response[i, j]: weight of sample j in lattice point i.
    if resolution_fwhm_nm > 0.0:
        s = resolution_fwhm_nm / FWHM_PER_SIGMA
        response = np.exp(-((lattice[:, None] - lam[None, :]) ** 2) / (2.0 * s ** 2))
    else:
        # Hat functions of linear interpolation; rows of zeros past the samples.
        j = np.clip(np.searchsorted(lam, lattice) - 1, 0, lam.size - 2)
        frac = (lattice - lam[j]) / (lam[j + 1] - lam[j])
        rows = np.flatnonzero((lattice >= lam[0]) & (lattice <= lam[-1]))
        response = np.zeros((lattice.size, lam.size))
        response[rows, j[rows]] = 1.0 - frac[rows]
        response[rows, j[rows] + 1] = frac[rows]
    smoothed = response @ jsa.intensity[::-1, ::-1] @ response.T
    total = float(smoothed.sum())
    if total <= 0.0:
        raise FilterSupportError("scan sees no intensity on the lattice")
    if pairs_budget is None:
        counts = None
        expected = smoothed
    else:
        if not 0 < pairs_budget < math.inf:
            raise ConfigError("pairs_budget must be positive and finite (or None for noiseless)")
        expected = smoothed * (pairs_budget / total)
        counts = _poisson_draws(expected, seed)
    return JsiScanResult(
        lambda_nm=lattice,
        expected=expected,
        counts=counts,
        resolution_fwhm_nm=float(resolution_fwhm_nm),
        step_nm=float(step_nm),
        seed=None if seed is None else int(seed),
    )

