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
from numpy.lib.stride_tricks import as_strided
from scipy.optimize import minimize_scalar

from .crystals import CrystalSpec
from .dispersion import phasematching_angle
from .errors import ConfigError
from .jsa import (FrequencyGrid, JointAmplitude, PumpSpec, apply_filters, build_grid,
                  joint_amplitude, lattice_axis)
from .schmidt import ReducedDensityMatrix, heralded_density_matrix

SQRT2 = math.sqrt(2.0)
# Relative slack on the alias limit pi/d_omega, so a scan computed to end
# exactly there is not refused for its last bits.
_ALIAS_SLACK = 1e-12


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


class _Overlap:
    """Re Tr[rho_a rho_b(tau)] as a fast function of the delay.

    On a uniform axis the phase exp(-i (w_j - w_i) tau) depends only on
    k = j - i, so the trace collapses to the diagonal sums D_k of
    P = rho_a * rho_b^T. Both states are Hermitian, so rho_b^T = conj(rho_b)
    and D_-k = conj(D_k): only the upper diagonals are summed, and

        overlap(tau) = D_0 + 2 sum_{k>=1} [Re D_k cos(k dw tau) + Im D_k sin(k dw tau)].

    For real states (flat phase) D is real and the sine term drops out.
    """

    def __init__(self, rho_a: ReducedDensityMatrix, rho_b: ReducedDensityMatrix):
        if rho_a.omega_axis.size != rho_b.omega_axis.size or not np.allclose(
            rho_a.omega_axis, rho_b.omega_axis, rtol=1e-12
        ):
            raise ConfigError("density matrices must share an identical frequency axis")
        n = rho_a.omega_axis.size
        d_omega = rho_a.d_omega
        # P fills the left n columns of a zero-padded n x (2n - 1) buffer;
        # with row stride (row + col) the view below reads P[i, i + k] at
        # [i, k], or a padding zero where i + k >= n.
        buf = np.zeros((n, 2 * n - 1), dtype=np.result_type(rho_a.values, rho_b.values))
        product = buf[:, :n]
        np.conjugate(rho_b.values, out=product)
        product *= rho_a.values
        row, col = buf.strides
        diag = as_strided(buf, shape=(n, n), strides=(row + col, col)).sum(axis=0)
        diag *= d_omega ** 2
        self._d0 = float(diag[0].real)
        self._cos_weights = 2.0 * diag[1:].real
        self._sin_weights = 2.0 * diag[1:].imag if np.iscomplexobj(diag) else None
        self._freq_steps = np.arange(1, n) * d_omega

    def __call__(self, tau_s):
        tau_s = np.atleast_1d(np.asarray(tau_s, dtype=float))
        phases = np.outer(tau_s, self._freq_steps)
        vals = self._d0
        if self._sin_weights is not None:
            vals = vals + np.sin(phases) @ self._sin_weights
        vals = vals + np.cos(phases, out=phases) @ self._cos_weights
        return vals if vals.size > 1 else float(vals[0])


def hom_dip(rho_a: ReducedDensityMatrix, rho_b: ReducedDensityMatrix, delays_fs):
    """Normalized coincidence rates over the given delays plus dip metrics.

    Both density matrices must be Hermitian, as every heralded state is,
    and share one uniform frequency axis. On that axis of step dw the
    overlap repeats every 2 pi / dw, so delays must lie within +-pi / dw
    (up to rounding).

    Visibility is the maximum overlap found by a bounded scalar search
    within one mean scan step of the best scan sample, and never less than
    that sample; the dip FWHM comes from linear interpolation of the scan's
    crossings of 1 - V/2.
    """
    delays_fs = np.asarray(delays_fs, dtype=float)
    if delays_fs.ndim != 1 or delays_fs.size < 3:
        raise ConfigError("need at least 3 delay points")
    if not np.all(np.isfinite(delays_fs)):
        raise ConfigError("delays must be finite")
    overlap = _Overlap(rho_a, rho_b)
    n, d_omega = rho_a.omega_axis.size, rho_a.d_omega
    half_period_fs = math.pi / d_omega * 1e15
    grid_text = f"the n={n} grid (d_omega = {d_omega:.6g} rad/s)"
    if np.max(np.abs(delays_fs)) > half_period_fs * (1.0 + _ALIAS_SLACK):
        raise ConfigError(
            f"delay {np.max(np.abs(delays_fs)):.6g} fs lies beyond the alias limit "
            f"pi/d_omega = {half_period_fs:.6g} fs of {grid_text}: the overlap "
            f"repeats every 2 pi/d_omega"
        )
    rates = 1.0 - overlap(delays_fs * 1e-15)

    i_peak = int(np.argmin(rates))
    center, visibility = delays_fs[i_peak], 1.0 - rates[i_peak]
    # In fs the solver's default absolute tolerance (1e-5) is meaningful.
    step = max(np.ptp(delays_fs) / (delays_fs.size - 1), 1e-3)
    best = minimize_scalar(lambda t: -overlap(t * 1e-15),
                           bounds=(center - step, center + step), method="bounded")
    if -best.fun > visibility:
        center, visibility = best.x, -best.fun
    visibility = min(max(float(visibility), 0.0), 1.0)
    dip_center_fs = float(center)

    half_level = 1.0 - visibility / 2.0
    below = rates <= half_level
    idx = np.where(below)[0]
    if visibility < 1e-12:
        dip_fwhm_fs = 0.0
    else:
        # Scan ends on the side of a missing crossing; widening helps only
        # where the scan stops short of the alias limit.
        open_ends = [end for end, is_open in (
            (-delays_fs[0], idx.size == 0 or idx[0] == 0),
            (delays_fs[-1], idx.size == 0 or idx[-1] == rates.size - 1),
        ) if is_open]
        if open_ends and min(open_ends) >= half_period_fs * (1.0 - _ALIAS_SLACK):
            raise ConfigError(
                f"grid too coarse: the scan reaches the alias limit "
                f"+-{half_period_fs:.6g} fs of {grid_text} but the dip is wider "
                f"than that; use more grid points"
            )
        if open_ends:
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
    """Everything needed to build one downconversion source's JSA.

    The phasematching angle is the crystal's cut angle, or solved for
    degenerate phasematching when the crystal has none. The filters act on
    the amplitude through `apply_filters`.
    """

    crystal: CrystalSpec
    pump: PumpSpec
    n_points: int = 512
    span_sigmas: float = 4.0
    flat_phase: bool = False
    filters: tuple = ()

    def resolve_theta(self):
        if self.crystal.cut_angle_deg is not None:
            return self.crystal.cut_angle_deg
        return phasematching_angle(
            self.crystal, self.pump.center_nm, 2.0 * self.pump.center_nm
        )

    def build_jsa(self, grid: FrequencyGrid | None = None) -> JointAmplitude:
        """The filtered JSA on the source's own grid, or on the given one."""
        theta = self.resolve_theta()
        if grid is None:
            grid = build_grid(
                self.crystal, self.pump, n_points=self.n_points,
                span_sigmas=self.span_sigmas, theta_deg=theta,
            )
        jsa = joint_amplitude(self.crystal, theta, self.pump, grid,
                              flat_phase=self.flat_phase)
        if self.filters:
            jsa, _ = apply_filters(jsa, self.filters)
        return jsa


def two_source_experiment(source_a: SourceSpec, source_b: SourceSpec,
                          herald_arm, delays_fs):
    """Full pipeline: JSA -> heralded state per source -> HOM scan.

    Heralding on one arm interferes the other arm's photons (herald on o
    interferes the e-rays and vice versa). Both JSAs are evaluated on one
    grid that covers both sources' windows, at the larger n_points, so the
    two heralded states share one frequency axis. For identical windows
    this is each source's own grid. Equal specs share one heralded state.
    """
    if herald_arm not in ("e", "o"):
        raise ConfigError(f"herald_arm must be 'e' or 'o', got {herald_arm!r}")
    interfered_arm = "e" if herald_arm == "o" else "o"
    # Specs compare by value, so a source given twice is built once.
    sources = (source_a,) if source_b == source_a else (source_a, source_b)
    windows = [
        build_grid(src.crystal, src.pump, n_points=src.n_points,
                   span_sigmas=src.span_sigmas).omega_e
        for src in sources
    ]
    axis = lattice_axis(min(w[0] for w in windows), max(w[-1] for w in windows),
                        max(src.n_points for src in sources))
    grid = FrequencyGrid(omega_e=axis, omega_o=axis)
    rhos = [heralded_density_matrix(src.build_jsa(grid), interfered_arm)
            for src in sources]
    return hom_dip(rhos[0], rhos[-1], delays_fs)
