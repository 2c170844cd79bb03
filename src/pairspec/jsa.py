"""Joint spectral amplitude construction, filtering, and marginals.

The two-photon amplitude on a square frequency grid is the product
of a Gaussian pump envelope evaluated at the daughter-frequency sum and
the sinc-shaped phasematching response of the crystal, L2-normalized
with the grid measure. All internal math is in angular frequency;
wavelengths appear only at construction and export boundaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .crystals import CrystalSpec
from .dispersion import TWO_PI_C, _on_sums, delta_k, group_index, nm_from_omega, row_blocks
from .errors import ConfigError, FilterSupportError, NumericalError
from .tables import csv_cells, write_csv, write_json

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # a Gaussian's FWHM over its sigma
MIN_GRID_POINTS = 16

NORM_CONVENTION = "unit-L2-with-grid-measure"

FILTER_SHAPES = ("gaussian", "rectangular")
NO_SUPPORT = "filter removes all support of the joint amplitude"


def other_arm(arm, what="arm"):
    """The partner of photon arm 'e' or 'o'; a ConfigError naming `what`
    for any other value."""
    if arm not in ("e", "o"):
        raise ConfigError(f"{what} must be 'e' or 'o', got {arm!r}")
    return "o" if arm == "e" else "e"


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump pulse spectrum with flat spectral phase.

    fwhm_nm is the FWHM of the pump *intensity* spectrum in wavelength.
    """

    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        if not (0 < self.center_nm < math.inf and 0 < self.fwhm_nm < math.inf):
            raise ConfigError("pump center and FWHM must be positive and finite")

    @property
    def omega_p(self):
        return TWO_PI_C / (self.center_nm * 1e-9)

    @property
    def sigma_omega(self):
        """Standard deviation of the intensity spectrum in rad/s."""
        d_omega = TWO_PI_C * self.fwhm_nm * 1e-9 / (self.center_nm * 1e-9) ** 2
        return d_omega / FWHM_PER_SIGMA


def pump_envelope(pump: PumpSpec, omega_sum):
    """Pump amplitude at the daughter-frequency sum, peak value 1."""
    s = pump.sigma_omega
    return np.exp(-((np.asarray(omega_sum) - pump.omega_p) ** 2) / (4.0 * s ** 2))


def phasematching_function(crystal: CrystalSpec, theta_deg, omega_e, omega_o,
                           flat_phase=False):
    """sinc(dk L / 2) * exp(i dk L / 2); the phase factor is dropped in
    flat-phase mode, which leaves a real amplitude.

    The result is the one full-size array: `delta_k` writes into it (into
    its real part when the phase is kept), and the sinc runs over row
    blocks of it with temporaries of one block.
    """
    out = np.empty(np.broadcast_shapes(np.shape(omega_e), np.shape(omega_o)),
                   dtype=float if flat_phase else complex)
    delta_k(crystal, theta_deg, omega_e, omega_o, out=out.real)
    blocks = np.atleast_1d(out)  # a view, so a 0-d result is one block of one row
    for rows in row_blocks(len(blocks)):
        _phasematch_block(blocks[rows], crystal.length_mm * 1e-3)
    return out if out.ndim else out[()]


def _phasematch_block(block, length):
    """Overwrite a block of dk values (the real part of a complex block)
    with sinc(x) exp(i x), or sinc(x) for a real block, x = dk length / 2.
    Its temporaries are a block's and die with the call."""
    kept_phase = np.iscomplexobj(block)
    x = block.real.copy() if kept_phase else block
    x *= length
    x /= 2.0
    if kept_phase:
        phase = 1j * x
        np.exp(phase, out=phase)
    x[x == 0.0] = np.finfo(float).eps
    amp = np.sin(x)
    if kept_phase:
        amp /= x
        np.multiply(phase, amp, out=block)
    else:
        np.divide(amp, x, out=block)


@dataclass(frozen=True)
class FrequencyGrid:
    """One uniform ascending frequency axis shared by both daughter photons:
    omega_o must equal omega_e, and both names hold the same array."""

    omega_e: np.ndarray
    omega_o: np.ndarray

    def __post_init__(self):
        ax = np.asarray(self.omega_e, dtype=float)
        if ax.ndim != 1 or ax.size < MIN_GRID_POINTS:
            raise ConfigError(f"need a 1-d frequency axis with >= {MIN_GRID_POINTS} points")
        steps = np.diff(ax)
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ConfigError("frequency axis must be uniform and ascending")
        if not np.array_equal(np.asarray(self.omega_o, dtype=float), ax):
            raise ConfigError("omega_o must equal omega_e: both photons share one axis")
        object.__setattr__(self, "omega_e", ax)
        object.__setattr__(self, "omega_o", ax)

    @property
    def d_omega(self):
        return float(self.omega_e[1] - self.omega_e[0])

    @property
    def measure(self):
        return self.d_omega ** 2


@dataclass(frozen=True)
class JointAmplitude:
    """Two-photon amplitude, unit L2 norm with grid measure; float64 if flat-phase."""

    grid: FrequencyGrid
    values: np.ndarray  # indexed [e, o]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        if v.shape != (self.grid.omega_e.size,) * 2:
            raise ConfigError("values shape does not match the grid")
        if not np.all(np.isfinite(v)):
            raise NumericalError("joint amplitude contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def flat_phase(self):
        return not np.iscomplexobj(self.values)

    @functools.cached_property
    def intensity(self):
        """|f|^2, computed once per amplitude and read-only."""
        intensity = _abs_sq(self.values)
        intensity.flags.writeable = False
        return intensity

    def norm_sq(self):
        return float(_sum_abs_sq(self.values) * self.grid.measure)


def _abs_sq(values, out=None):
    """|v|^2, into `out` if given: np.square for real values (the same bits,
    one temporary fewer), squared in the array of |v| for complex ones."""
    if np.iscomplexobj(values):
        values = out = np.abs(values, out=out)
    return np.square(values, out=out)


def _sum_abs_sq(values):
    """sum |v|^2 of an array as one BLAS dot of its memory, real or complex,
    with no full-size square. Its last bits follow the BLAS build and its
    thread count."""
    flat = values.ravel(order="K")
    return np.vdot(flat, flat).real


def normalize(grid: FrequencyGrid, values):
    """Wrap raw amplitudes, left as they are, into a unit-norm JointAmplitude."""
    return _normalized(grid, np.array(values, dtype=complex if np.iscomplexobj(values) else float))


def _normalized(grid: FrequencyGrid, values):
    """A unit-norm JointAmplitude in `values`' own buffer, divided in place."""
    norm_sq = _sum_abs_sq(values) * grid.measure
    if not np.isfinite(norm_sq) or norm_sq == 0.0:
        raise NumericalError("cannot normalize: joint amplitude has zero norm")
    values /= math.sqrt(norm_sq)
    return JointAmplitude(grid, values)


def lattice_axis(lo, hi, n):
    """n points from round(lo) on a whole-rad/s step close to (hi - lo) / (n - 1).

    Every point, and every sum of two points of such axes below 2**53
    rad/s, is an exact float64 integer, so a grid of them has only
    n + m - 1 distinct sums omega_e + omega_o. The last point is within
    n / 2 rad/s of hi.
    """
    step = float(round((hi - lo) / (n - 1)))
    if step <= 0:
        raise ConfigError(
            f"frequency window [{lo:.9g}, {hi:.9g}] rad/s at {n} points gives a "
            f"step of {step:g} rad/s; it must be at least 1 rad/s"
        )
    return float(round(lo)) + step * np.arange(n)


def check_grid(n_points, span_sigmas):
    """ConfigError unless build_grid accepts these grid settings."""
    if n_points < MIN_GRID_POINTS:
        raise ConfigError(f"n_points must be at least {MIN_GRID_POINTS}, got {n_points}")
    if not 0 < span_sigmas < math.inf:
        raise ConfigError(f"span_sigmas must be positive and finite, got {span_sigmas:g}")


def build_grid(crystal: CrystalSpec, pump: PumpSpec, n_points=512,
               span_sigmas=4.0, *, theta_deg):
    """Square grid centered on the degenerate frequency omega_p / 2, for a
    crystal cut at theta_deg.

    The half-width is span_sigmas times a combined width estimate: the
    geometric mean of the pump's spectral sigma and the phasematching
    bandwidth 2*pi*c / (L * |group-index mismatch|), taken for the larger
    of the pump-e and pump-o mismatches. The geometric mean keeps the
    window tight enough that far sinc sidelobes do not dominate while
    still covering the broad (pump-limited) marginal.
    """
    check_grid(n_points, span_sigmas)
    daughter_nm = 2.0 * pump.center_nm
    ng_p = group_index(crystal, "e", pump.center_nm, theta_deg)
    ng_e = group_index(crystal, "e", daughter_nm, theta_deg)
    ng_o = group_index(crystal, "o", daughter_nm)
    mismatch = max(abs(ng_p - ng_e), abs(ng_p - ng_o))
    length = crystal.length_mm * 1e-3
    if mismatch < 1e-12 or pump.sigma_omega <= 0:
        raise ConfigError("degenerate width estimate: cannot size the grid")
    sigma_pm = TWO_PI_C / (length * mismatch)
    sigma_est = math.sqrt(pump.sigma_omega * sigma_pm)
    omega0 = pump.omega_p / 2.0
    half = span_sigmas * sigma_est
    axis = lattice_axis(omega0 - half, omega0 + half, n_points)
    return FrequencyGrid(omega_e=axis, omega_o=axis)


def joint_amplitude(crystal: CrystalSpec, theta_deg, pump: PumpSpec,
                    grid: FrequencyGrid, flat_phase=False):
    """f = pump envelope times phasematching function, unit-normalized, all
    in phi's one n x n array."""
    we = grid.omega_e[:, None]
    wo = grid.omega_o[None, :]
    alpha = _on_sums(lambda omega_sum: pump_envelope(pump, omega_sum), we, wo)
    phi = phasematching_function(crystal, theta_deg, we, wo, flat_phase=flat_phase)
    phi *= alpha
    return _normalized(grid, phi)


@dataclass(frozen=True)
class FilterSpec:
    """Spectral intensity filter on one arm."""

    shape: str  # one of FILTER_SHAPES
    arm: str  # e | o
    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        if self.shape not in FILTER_SHAPES:
            raise ConfigError(f"unknown filter shape {self.shape!r}")
        other_arm(self.arm, "filter arm")
        if not (self.fwhm_nm > 0 and self.center_nm > 0):
            raise ConfigError("filter center and FWHM must be positive")


def filter_transmission(filt: FilterSpec, omega):
    """Intensity transmission of a filter sampled on a frequency axis."""
    lam = nm_from_omega(omega)
    if filt.shape == "gaussian":
        s = filt.fwhm_nm / FWHM_PER_SIGMA
        return np.exp(-((lam - filt.center_nm) ** 2) / (2.0 * s ** 2))
    return (np.abs(lam - filt.center_nm) <= filt.fwhm_nm / 2.0).astype(float)


def arm_transmissions(filters, omega):
    """Intensity transmission of each arm, {"e": T_e, "o": T_o}: the product
    of that arm's filters, or ones where the arm has none."""
    t = {"e": np.ones_like(omega), "o": np.ones_like(omega)}
    for filt in filters:
        t[filt.arm] = t[filt.arm] * filter_transmission(filt, omega)
    return t


def apply_filters(jsa: JointAmplitude, filters, *, _in_place=False):
    """Multiply by the amplitude transmission sqrt(T) per arm and renormalize.

    Returns (filtered JointAmplitude, passed fraction), where the passed
    fraction is the intensity surviving the filters before renormalization.
    An empty list returns the amplitude itself and 1.0. _in_place filters
    jsa's own array, which the caller gives up.
    """
    if not filters:
        return jsa, 1.0
    t = arm_transmissions(filters, jsa.grid.omega_e)
    norm_sq = jsa.norm_sq()
    values = np.multiply(jsa.values, np.sqrt(t["e"])[:, None],
                         out=jsa.values if _in_place else None)
    values *= np.sqrt(t["o"])[None, :]
    kept = float(_sum_abs_sq(values) * jsa.grid.measure)
    if kept == 0.0:
        raise FilterSupportError(NO_SUPPORT)
    values /= math.sqrt(kept)
    return JointAmplitude(jsa.grid, values), kept / norm_sq


def marginal_spectrum(jsa: JointAmplitude, arm):
    """Single-arm intensity spectrum, peak-normalized.

    Returns (wavelength_nm ascending, intensity). The frequency marginal
    is relabeled in wavelength; no Jacobian is applied since the output
    is a peak-normalized shape on the sampled points.
    """
    other_arm(arm)
    intensity = np.sum(jsa.intensity, axis=1 if arm == "e" else 0) * jsa.grid.d_omega
    lam = nm_from_omega(jsa.grid.omega_e)
    order = np.argsort(lam)
    intensity = intensity[order]
    return lam[order], intensity / np.max(intensity)


def jsi_pearson(jsa: JointAmplitude):
    """Pearson correlation of the two frequencies under the JSI density. The
    covariance is (w - mu_e) @ JSI @ (w - mu_o) / sum(JSI), so no n x n
    array is formed beside the JSI."""
    intensity = jsa.intensity
    total = float(np.sum(intensity))
    p_e = intensity.sum(axis=1) / total
    p_o = intensity.sum(axis=0) / total
    w = jsa.grid.omega_e
    mu_e = float(p_e @ w)
    mu_o = float(p_o @ w)
    var_e = float(p_e @ (w - mu_e) ** 2)
    var_o = float(p_o @ (w - mu_o) ** 2)
    cov = float((w - mu_e) @ intensity @ (w - mu_o)) / total
    return cov / math.sqrt(var_e * var_o)


def export_jsi_csv(jsa: JointAmplitude, path):
    """Write the JSI matrix row-major with each arm's axis in nm and rad/s."""
    axis = jsa.grid.omega_e
    nm, rad_s = csv_cells(nm_from_omega(axis)), csv_cells(axis)
    write_csv(path, jsa.intensity, comments=[f"axis_e_nm,{nm}", f"axis_e_rad_s,{rad_s}",
                                             f"axis_o_nm,{nm}", f"axis_o_rad_s,{rad_s}"])


def export_metadata(path, source, jsa: JointAmplitude, *, extra=None):
    """Companion metadata: everything needed to reproduce the matrix of a
    `SourceSpec`, with its theta recorded as the crystal's cut angle."""
    crystal, pump = source.crystal, source.pump
    axis = jsa.grid.omega_e
    meta = {
        "crystal": {
            "name": crystal.name,
            "length_mm": crystal.length_mm,
            "cut_angle_deg": source.theta,
            "source_citation": crystal.source_citation,
        },
        "pump": {
            "center_nm": pump.center_nm,
            "fwhm_nm": pump.fwhm_nm,
        },
        "grid": {
            "n_e": axis.size,
            "n_o": axis.size,
            "omega_e_min": float(axis[0]),
            "omega_e_max": float(axis[-1]),
            "omega_o_min": float(axis[0]),
            "omega_o_max": float(axis[-1]),
        },
        "filters": [
            {"shape": f.shape, "arm": f.arm, "center_nm": f.center_nm, "fwhm_nm": f.fwhm_nm}
            for f in source.filters
        ],
        "flat_phase": jsa.flat_phase,
        "norm_convention": NORM_CONVENTION,
        "out_of_model": {
            "absolute_pair_rate": "not simulated",
            "detector_and_collection_efficiency": "not simulated; reported efficiencies are filter-limited",
        },
    }
    if extra:
        meta.update(extra)
    write_json(path, meta)
