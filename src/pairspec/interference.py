"""Hong-Ou-Mandel interference between heralded photons from two sources.

The fourfold coincidence rate behind a balanced beamsplitter, normalized
to its large-delay baseline, is R(tau) = 1 - Re Tr[rho_a rho_b(tau)]
where rho_b(tau) picks up the phase exp(-i (w - w') tau). Detection is
not time-resolved, so the rate depends only on the spectral density
matrices of the two photons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import minimize_scalar

from .crystals import CrystalSpec
from .dispersion import phasematching_angle, row_blocks
from .errors import ConfigError
from .jsa import (FrequencyGrid, JointAmplitude, PumpSpec, apply_filters, build_grid,
                  check_grid, joint_amplitude, lattice_axis, other_arm)
from .schmidt import ReducedDensityMatrix, herald_rows, heralded_density_matrix
from .tables import write_csv

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
    rho_b^T = conj(rho_b) and D_-k = conj(D_k): only the n upper diagonals
    of P are summed, and

        overlap(tau) = D_0 + 2 sum_{k>=1} [Re D_k cos(k dw tau) + Im D_k sin(k dw tau)].

    With w_0 = D_0 and w_k = 2 conj(D_k), that is Re sum_k w_k exp(i k dw tau).
    Writing k = q b + r with b ~ sqrt(n), exp(i k x) = exp(i q b x) exp(i r x),
    so for m delays the sum takes two m x b tables of phase factors, one
    matrix product with w as a b x (n / b) matrix, and an elementwise
    product: O(m sqrt(n)) trigonometric evaluations in place of O(m n).
    The n sums D_k come from `_diagonal_sums`, which takes them from P's row
    blocks: `between` makes them from the two states, and
    `two_source_experiment` from rho_a and JSA_b (`_stream_product`).
    """

    def __init__(self, diag, d_omega):
        self.n, self.d_omega = diag.size, d_omega
        b = math.isqrt(self.n - 1) + 1  # b * b >= n
        weights = np.zeros(b * -(-self.n // b), dtype=diag.dtype)
        np.conjugate(diag, out=weights[:self.n])
        weights *= 2.0 * d_omega ** 2
        weights[0] = diag[0].real * d_omega ** 2
        self._weights = weights.reshape(-1, b).T
        self._steps = np.arange(b) * d_omega, np.arange(weights.size // b) * (b * d_omega)

    @classmethod
    def between(cls, rho_a: ReducedDensityMatrix, rho_b: ReducedDensityMatrix):
        """The overlap of two states on one axis, P made one row block at a
        time from the states' upper triangles."""
        axis_a, axis_b = rho_a.grid.omega_e, rho_b.grid.omega_e
        if axis_a.size != axis_b.size or not np.allclose(axis_a, axis_b, rtol=1e-12):
            raise ConfigError("density matrices must share an identical frequency axis")
        a, b = rho_a.values, rho_b.values

        def fill(rows, block):
            np.conjugate(b[rows, rows.start:], out=block)
            block *= a[rows, rows.start:]

        return cls(_diagonal_sums(a.shape[0], np.result_type(a, b), fill), rho_a.grid.d_omega)

    def __call__(self, tau_s):
        tau_s = np.atleast_1d(np.asarray(tau_s, dtype=float))
        fine, coarse = (np.exp(1j * np.outer(tau_s, steps)) for steps in self._steps)
        vals = np.sum(coarse * (fine @ self._weights), axis=1).real
        return vals if vals.size > 1 else float(vals[0])


def _delay_axis(delays_fs):
    """The delays as a 1-d float array; a ConfigError unless there are at
    least 3, all finite and increasing, which the dip's crossings need."""
    delays_fs = np.asarray(delays_fs, dtype=float)
    if delays_fs.ndim != 1 or delays_fs.size < 3:
        raise ConfigError("need at least 3 delay points")
    if not np.all(np.isfinite(delays_fs)):
        raise ConfigError("delays must be finite")
    stalled = np.flatnonzero(np.diff(delays_fs) <= 0.0)
    if stalled.size:
        i = stalled[0] + 1
        raise ConfigError(f"delays must increase: delay {i} ({delays_fs[i]:g} fs) does not "
                          f"exceed the one before it ({delays_fs[i - 1]:g} fs)")
    return delays_fs


def hom_dip(rho_a: ReducedDensityMatrix, rho_b: ReducedDensityMatrix, delays_fs):
    """Normalized coincidence rates over the given delays plus dip metrics.

    Both density matrices must be Hermitian, as every heralded state is,
    and share one uniform frequency axis. On that axis of step dw the
    overlap repeats every 2 pi / dw, so delays must lie within +-pi / dw
    (up to rounding). The inputs are left as they are.

    Visibility is the maximum overlap found by a bounded scalar search
    within one mean scan step of the best scan sample, and never less than
    that sample. The dip centre leaves that sample only where the search
    beats it by more than rounding. The dip FWHM comes from linear
    interpolation of the scan's crossings of 1 - V/2.
    """
    delays_fs = _delay_axis(delays_fs)
    return _dip_scan(_Overlap.between(rho_a, rho_b), delays_fs)


def _dip_scan(overlap: _Overlap, delays_fs):
    """`hom_dip`'s scan and dip metrics for an overlap over checked delays."""
    n, d_omega = overlap.n, overlap.d_omega
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

    def build_jsa(self, grid: FrequencyGrid | None = None, filtered=True) -> JointAmplitude:
        """The JSA on the source's own grid, or on the given one, through the
        source's filters (in the JSA's own array) unless filtered is False."""
        jsa = joint_amplitude(self.crystal, self.theta, self.pump,
                              grid or covering_grid(self), flat_phase=self.flat_phase)
        return apply_filters(jsa, self.filters if filtered else (), _in_place=True)[0]


def covering_grid(*sources: SourceSpec) -> FrequencyGrid:
    """The lattice covering the sources' own windows at their largest
    n_points; for one source, its own grid. A covering step more than twice
    a source's own step is a ConfigError."""
    windows = [build_grid(src.crystal, src.pump, n_points=src.n_points,
                          span_sigmas=src.span_sigmas, theta_deg=src.theta).omega_e
               for src in sources]
    axis = lattice_axis(min(w[0] for w in windows), max(w[-1] for w in windows),
                        max(src.n_points for src in sources))
    grid = FrequencyGrid(omega_e=axis, omega_o=axis)
    finest = min(w[1] - w[0] for w in windows)
    if grid.d_omega > 2.0 * finest:
        raise ConfigError(
            f"covering grid too coarse: its step {grid.d_omega:.6g} rad/s is more than twice "
            f"a source's own step {finest:.6g} rad/s; give the wider window's config more "
            f"[grid] n_points and leave out --grid-points, which sets one n for both")
    return grid


def two_source_experiment(source_a: SourceSpec, source_b: SourceSpec,
                          herald_arm, delays_fs):
    """Full pipeline: JSA -> heralded state per source -> HOM scan.

    Heralding on one arm interferes the other arm's photons (herald on o
    interferes the e-rays and vice versa). Both JSAs are evaluated on one
    grid, `covering_grid(source_a, source_b)`, so the two heralded states
    share one frequency axis. Its ConfigError for a step too coarse comes
    before any JSA is built.

    Sources equal but for their windows (n_points, span_sigmas) share one
    heralded state, scanned by `hom_dip`. Otherwise rho_a is formed and its
    JSA dropped, then JSA_b is built and rho_b is never formed:
    `_stream_product` takes the overlap's diagonal sums from rho_a and
    JSA_b one row block at a time. So while they are summed, only rho_a,
    JSA_b and one row block of about 1/16 n x n are alive.
    """
    interfered_arm = other_arm(herald_arm, "herald_arm")
    delays_fs = _delay_axis(delays_fs)
    grid = covering_grid(source_a, source_b)
    # A JSA on the covering grid depends on neither source's own window, so
    # sources that differ only in n_points or span_sigmas share one state.
    if all(getattr(source_a, f.name) == getattr(source_b, f.name)
           for f in fields(SourceSpec) if f.name not in ("n_points", "span_sigmas")):
        rho = heralded_density_matrix(source_a.build_jsa(grid), interfered_arm)
        return hom_dip(rho, rho, delays_fs)
    # Each JSA is an argument only, so it is freed as soon as it is used.
    overlap = _stream_product(heralded_density_matrix(source_a.build_jsa(grid), interfered_arm),
                              source_b.build_jsa(grid), interfered_arm)
    return _dip_scan(overlap, delays_fs)


def _stream_product(rho_a: ReducedDensityMatrix, jsa_b: JointAmplitude, heralded_arm):
    """The overlap of rho_a with jsa_b's heralded state, without forming it.

    With f = jsa_b's rows of the heralded photon, rho_b = f f^H dw / tr and
    tr = ||f||^2 dw^2 = jsa_b.norm_sq(). Each row block of P's upper part is
    made as conj(f[rows]) f[rows.start:]^T * scale * rho_a[rows, rows.start:],
    conj(rho_b)'s block times rho_a's. rho_a is only read, and neither a
    real rho_a nor a real f is copied.
    """
    f = herald_rows(jsa_b, heralded_arm)
    scale = jsa_b.grid.d_omega / jsa_b.norm_sq()
    a = rho_a.values

    def fill(rows, block):
        np.matmul(np.conjugate(f[rows]) if np.iscomplexobj(f) else f[rows], f[rows.start:].T,
                  out=block)
        block *= scale
        block *= a[rows, rows.start:]

    return _Overlap(_diagonal_sums(a.shape[0], np.result_type(a, f), fill), rho_a.grid.d_omega)


def _diagonal_sums(n, dtype, fill):
    """D_k = sum_i P[i, i + k] for k < n, of the n x n product P that
    `fill(rows, block)` writes, row block by row block, as P[rows, rows.start:]
    into a C-contiguous (m, w) block of the given dtype.

    The block is the head of one reused buffer of m (w + 1) elements. With
    the block's strictly-lower m x m triangle and the m elements after it
    zeroed, the buffer seen as (m, w + 1) holds diagonal k of the block in
    column k, so D[:w] gains the column sums of its first w columns. What
    `fill` writes below P's diagonal is overwritten, so it is never read.
    """
    diag = np.zeros(n, dtype)
    blocks = row_blocks(n)
    buffer = np.empty(blocks[0].stop * (n + 1), dtype)
    for rows in blocks:
        m, w = rows.stop - rows.start, n - rows.start
        flat = buffer[:m * (w + 1)]
        block = flat[:m * w].reshape(m, w)
        fill(rows, block)
        block[np.tril_indices(m, -1)] = 0
        flat[m * w:] = 0
        diag[:w] += flat.reshape(m, w + 1)[:, :w].sum(axis=0)
    return diag
