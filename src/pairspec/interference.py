"""Hong-Ou-Mandel interference between heralded photons from two sources.

The fourfold coincidence rate behind a balanced beamsplitter, normalized
to its large-delay baseline, is R(tau) = 1 - Re Tr[rho_a rho_b(tau)]
where rho_b(tau) picks up the phase exp(-i (w - w') tau). Detection is
not time-resolved, so the rate depends only on the spectral density
matrices of the two photons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crystals import CrystalSpec
from .dispersion import phasematching_angle
from .errors import ConfigError
from .jsa import (FilterSpec, FrequencyGrid, JointAmplitude, PumpSpec, build_grid,
                  joint_amplitude)
from .schmidt import ReducedDensityMatrix, heralded_density_matrix

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class HomScan:
    """Normalized fourfold coincidence rates over a delay scan."""

    delays_fs: np.ndarray
    rates: np.ndarray
    visibility: float
    dip_fwhm_fs: float
    dip_center_fs: float

    def to_csv(self, path, metadata_lines=()):
        with open(path, "w") as fh:
            for line in metadata_lines:
                fh.write(f"# {line}\n")
            fh.write(f"# visibility,{self.visibility:.9g}\n")
            fh.write(f"# dip_fwhm_fs,{self.dip_fwhm_fs:.9g}\n")
            fh.write(f"# dip_center_fs,{self.dip_center_fs:.9g}\n")
            fh.write(f"# coherence_time_fs,{coherence_time(self.dip_fwhm_fs):.9g}\n")
            fh.write("delay_fs,normalized_rate\n")
            for t, r in zip(self.delays_fs, self.rates):
                fh.write(f"{t:.9g},{r:.9g}\n")


def coherence_time(dip_fwhm_fs):
    """Heralded-photon coherence time from the dip FWHM (fs), FWHM / sqrt(2)."""
    if dip_fwhm_fs < 0:
        raise ConfigError("dip FWHM must be nonnegative")
    return dip_fwhm_fs / SQRT2


def _diagonal_sums(product):
    """Sums of the k-th diagonals of a square matrix, k in [-(n-1), n-1].

    Collapses the double sum over matrix entries into a single sum over
    frequency differences, so each delay evaluation is O(n).
    """
    n = product.shape[0]
    sums = np.zeros(2 * n - 1, dtype=complex)
    for k in range(-(n - 1), n):
        sums[k + n - 1] = np.trace(product, offset=k)
    return sums


class _Overlap:
    """Re Tr[rho_a rho_b(tau)] as a fast function of the delay."""

    def __init__(self, rho_a: ReducedDensityMatrix, rho_b: ReducedDensityMatrix):
        if rho_a.omega_axis.size != rho_b.omega_axis.size or not np.allclose(
            rho_a.omega_axis, rho_b.omega_axis, rtol=1e-12
        ):
            raise ConfigError("density matrices must share an identical frequency axis")
        d_omega = rho_a.d_omega
        # (rho_a * rho_b^T)_ij = rho_a_ij rho_b_ji; the phase depends only
        # on j - i on a uniform axis.
        product = rho_a.values * rho_b.values.T
        n = product.shape[0]
        self._diag = _diagonal_sums(product) * d_omega ** 2
        self._freq_steps = np.arange(-(n - 1), n) * d_omega

    def __call__(self, tau_s):
        tau_s = np.atleast_1d(np.asarray(tau_s, dtype=float))
        phases = np.exp(-1j * np.outer(tau_s, self._freq_steps))
        vals = np.real(phases @ self._diag)
        return vals if vals.size > 1 else float(vals[0])


def hom_dip(rho_a: ReducedDensityMatrix, rho_b: ReducedDensityMatrix, delays_fs):
    """Normalized coincidence rates over the given delays plus dip metrics.

    Visibility is the maximum overlap over a dense refinement of the
    delay range; the dip FWHM comes from linear interpolation of the
    scan's crossings of 1 - V/2.
    """
    delays_fs = np.asarray(delays_fs, dtype=float)
    if delays_fs.ndim != 1 or delays_fs.size < 3:
        raise ConfigError("need at least 3 delay points")
    overlap = _Overlap(rho_a, rho_b)
    tau_s = delays_fs * 1e-15
    rates = 1.0 - overlap(tau_s)

    # Refine the overlap maximum: coarse location from the scan, then two
    # rounds of dense local search.
    center = tau_s[int(np.argmax(overlap(tau_s)))]
    width = max(np.ptp(tau_s) / (delays_fs.size - 1), 1e-18)
    for _ in range(3):
        local = np.linspace(center - width, center + width, 401)
        vals = overlap(local)
        center = local[int(np.argmax(vals))]
        width /= 100.0
    visibility = float(overlap(center))
    visibility = min(max(visibility, 0.0), 1.0)
    dip_center_fs = float(center * 1e15)

    half_level = 1.0 - visibility / 2.0
    below = rates <= half_level
    idx = np.where(below)[0]
    if visibility < 1e-12:
        dip_fwhm_fs = 0.0
    else:
        if idx.size == 0 or idx[0] == 0 or idx[-1] == rates.size - 1:
            raise ConfigError(
                "widen delay range: scan does not bracket the half-depth crossings"
            )
        i0, i1 = idx[0], idx[-1]
        t_lo = np.interp(half_level, [rates[i0], rates[i0 - 1]],
                         [delays_fs[i0], delays_fs[i0 - 1]])
        t_hi = np.interp(half_level, [rates[i1], rates[i1 + 1]],
                         [delays_fs[i1], delays_fs[i1 + 1]])
        dip_fwhm_fs = float(t_hi - t_lo)
    return HomScan(
        delays_fs=delays_fs,
        rates=np.clip(rates, 0.0, None),
        visibility=visibility,
        dip_fwhm_fs=dip_fwhm_fs,
        dip_center_fs=dip_center_fs,
    )


@dataclass(frozen=True)
class SourceSpec:
    """Everything needed to build one downconversion source's JSA."""

    crystal: CrystalSpec
    pump: PumpSpec
    theta_deg: float | None = None  # None: solve degenerate phasematching
    n_points: int = 512
    span_sigmas: float = 4.0
    flat_phase: bool = False
    herald_filter: FilterSpec | None = None

    def resolve_theta(self):
        if self.theta_deg is not None:
            return self.theta_deg
        if self.crystal.cut_angle_deg is not None:
            return self.crystal.cut_angle_deg
        return phasematching_angle(
            self.crystal, self.pump.center_nm, 2.0 * self.pump.center_nm
        )

    def build_jsa(self) -> JointAmplitude:
        theta = self.resolve_theta()
        grid = build_grid(
            self.crystal, self.pump, n_points=self.n_points,
            span_sigmas=self.span_sigmas, theta_deg=theta,
        )
        return joint_amplitude(self.crystal, theta, self.pump, grid,
                               flat_phase=self.flat_phase)


def two_source_experiment(source_a: SourceSpec, source_b: SourceSpec,
                          herald_arm, delays_fs):
    """Full pipeline: JSA -> heralded state per source -> HOM scan.

    Heralding on one arm interferes the other arm's photons (herald on o
    interferes the e-rays and vice versa). Both JSAs are evaluated on one
    grid that covers both sources' windows, at the larger n_points, so the
    two heralded states share one frequency axis. For identical windows
    this is each source's own grid.
    """
    if herald_arm not in ("e", "o"):
        raise ConfigError(f"herald_arm must be 'e' or 'o', got {herald_arm!r}")
    interfered_arm = "e" if herald_arm == "o" else "o"
    sources = (source_a, source_b)
    thetas = [src.resolve_theta() for src in sources]
    windows = [
        build_grid(src.crystal, src.pump, n_points=src.n_points,
                   span_sigmas=src.span_sigmas, theta_deg=theta).omega_e
        for src, theta in zip(sources, thetas)
    ]
    axis = np.linspace(min(w[0] for w in windows), max(w[-1] for w in windows),
                       max(src.n_points for src in sources))
    grid = FrequencyGrid(omega_e=axis, omega_o=axis.copy())
    rho_a, rho_b = (
        heralded_density_matrix(
            joint_amplitude(src.crystal, theta, src.pump, grid,
                            flat_phase=src.flat_phase),
            heralded_arm=interfered_arm, herald_filter=src.herald_filter)
        for src, theta in zip(sources, thetas)
    )
    return hom_dip(rho_a, rho_b, delays_fs)
