"""Hong-Ou-Mandel interference between heralded photons from two sources.

The fourfold coincidence rate behind a balanced beamsplitter, normalized
to its large-delay baseline, is R(tau) = 1 - Re Tr[rho_a rho_b(tau)]
where rho_b(tau) picks up the phase exp(-i (w - w') tau). Detection is
not time-resolved, so the rate depends only on the spectral density
matrices of the two photons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .crystals import CrystalSpec
from .dispersion import phasematching_angle
from .errors import ConfigError
from .jsa import (FrequencyGrid, JointAmplitude, PumpSpec, apply_filters, build_grid,
                  check_grid, joint_amplitude, lattice_axis, other_arm, write_csv)
from .schmidt import ReducedDensityMatrix, heralded_density_matrix

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
        write_csv(path, np.column_stack([self.delays_fs, self.rates]), comments=[
            *metadata_lines, f"visibility,{self.visibility:.9g}",
            f"dip_fwhm_fs,{self.dip_fwhm_fs:.9g}", f"dip_center_fs,{self.dip_center_fs:.9g}",
            f"coherence_time_fs,{coherence_time(self.dip_fwhm_fs):.9g}",
        ], header="delay_fs,normalized_rate")


def coherence_time(dip_fwhm_fs):
    """Heralded-photon coherence time from the dip FWHM (fs), FWHM / sqrt(2)."""
    if dip_fwhm_fs < 0:
        raise ConfigError("dip FWHM must be nonnegative")
    return dip_fwhm_fs / math.sqrt(2.0)


class _Overlap:
    """Re Tr[rho_a rho_b(tau)] as a fast function of the delay.

    On a uniform axis the phase exp(-i (w_j - w_i) tau) depends only on
    k = j - i, so the trace collapses to the diagonal sums D_k of the
    elementwise product P = rho_a * rho_b^T. Both states are Hermitian, so
    rho_b^T = conj(rho_b) and D_-k = conj(D_k): P is formed in one n x n
    array, only its n upper diagonals are summed, and

        overlap(tau) = D_0 + 2 sum_{k>=1} [Re D_k cos(k dw tau) + Im D_k sin(k dw tau)].

    For real states (flat phase) D is real and the sine term drops out.
    """

    def __init__(self, rho_a: ReducedDensityMatrix, rho_b: ReducedDensityMatrix):
        axis_a, axis_b = rho_a.grid.omega_e, rho_b.grid.omega_e
        if axis_a.size != axis_b.size or not np.allclose(axis_a, axis_b, rtol=1e-12):
            raise ConfigError("density matrices must share an identical frequency axis")
        n, d_omega = axis_a.size, rho_a.grid.d_omega
        product = np.empty((n, n), dtype=np.result_type(rho_a.values, rho_b.values))
        np.conjugate(rho_b.values, out=product)
        product *= rho_a.values
        diag = np.array([product.diagonal(k).sum() for k in range(n)])
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
    that sample. The dip centre leaves that sample only where the search
    beats it by more than rounding. The dip FWHM comes from linear
    interpolation of the scan's crossings of 1 - V/2.
    """
    delays_fs = np.asarray(delays_fs, dtype=float)
    if delays_fs.ndim != 1 or delays_fs.size < 3:
        raise ConfigError("need at least 3 delay points")
    if not np.all(np.isfinite(delays_fs)):
        raise ConfigError("delays must be finite")
    overlap = _Overlap(rho_a, rho_b)
    n, d_omega = rho_a.grid.omega_e.size, rho_a.grid.d_omega
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
    # On a flat-topped overlap a gain within rounding is no better centre.
    if -best.fun > visibility + 8.0 * np.finfo(float).eps:
        center = best.x
    visibility = min(max(float(visibility), float(-best.fun), 0.0), 1.0)
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

    `theta` is the crystal's cut angle, or for a crystal without one the
    degenerate phasematching angle of this pump, solved when the spec is
    made. It is derived, so `dataclasses.replace` solves it again for the
    copy. The filters act on the amplitude through `apply_filters`.
    """

    crystal: CrystalSpec
    pump: PumpSpec
    n_points: int = 512
    span_sigmas: float = 4.0
    flat_phase: bool = False
    filters: tuple = ()
    theta: float = field(init=False)

    def __post_init__(self):
        check_grid(self.n_points, self.span_sigmas)
        theta = self.crystal.cut_angle_deg
        if theta is None:
            theta = phasematching_angle(self.crystal, self.pump.center_nm,
                                        2.0 * self.pump.center_nm)
        object.__setattr__(self, "theta", theta)

    def resolve_theta(self):
        return self.theta

    def grid(self) -> FrequencyGrid:
        """The source's own window at its n_points."""
        return build_grid(self.crystal, self.pump, n_points=self.n_points,
                          span_sigmas=self.span_sigmas, theta_deg=self.theta)

    def build_jsa(self, grid: FrequencyGrid | None = None, filtered=True) -> JointAmplitude:
        """The JSA on the source's own grid, or on the given one, through the
        source's filters unless filtered is False."""
        jsa = joint_amplitude(self.crystal, self.theta, self.pump,
                              grid or self.grid(), flat_phase=self.flat_phase)
        return apply_filters(jsa, self.filters if filtered else ())[0]


def two_source_experiment(source_a: SourceSpec, source_b: SourceSpec,
                          herald_arm, delays_fs):
    """Full pipeline: JSA -> heralded state per source -> HOM scan.

    Heralding on one arm interferes the other arm's photons (herald on o
    interferes the e-rays and vice versa). Both JSAs are evaluated on one
    grid that covers both sources' windows, at the larger n_points, so the
    two heralded states share one frequency axis. For identical windows
    this is each source's own grid. Equal specs share one heralded state.
    A covering step more than twice a source's own step is a ConfigError,
    raised before any JSA is built.
    """
    interfered_arm = other_arm(herald_arm, "herald_arm")
    # Specs compare by value, so a source given twice is built once.
    sources = (source_a,) if source_b == source_a else (source_a, source_b)
    windows = [src.grid().omega_e for src in sources]
    axis = lattice_axis(min(w[0] for w in windows), max(w[-1] for w in windows),
                        max(src.n_points for src in sources))
    grid = FrequencyGrid(omega_e=axis, omega_o=axis)
    finest = min(w[1] - w[0] for w in windows)
    if grid.d_omega > 2.0 * finest:
        raise ConfigError(
            f"covering grid too coarse: its step {grid.d_omega:.6g} rad/s is more than twice "
            f"a source's own step {finest:.6g} rad/s; give the wider window's config more "
            f"[grid] n_points and leave out --grid-points, which sets one n for both")
    rhos = [heralded_density_matrix(src.build_jsa(grid), interfered_arm)
            for src in sources]
    return hom_dip(rhos[0], rhos[-1], delays_fs)
