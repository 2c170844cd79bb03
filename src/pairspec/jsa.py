"""Joint spectral amplitude construction, filtering, and marginals.

The two-photon amplitude on a square frequency grid is the product
of a Gaussian pump envelope evaluated at the daughter-frequency sum and
the sinc-shaped phasematching response of the crystal, L2-normalized
with the grid measure. All internal math is in angular frequency;
wavelengths appear only at construction and export boundaries.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_LIGHT

from .crystals import CrystalSpec
from .dispersion import _on_sums, delta_k, group_index, phasematching_angle
from .errors import ConfigError, FilterSupportError, NumericalError

TWO_PI_C = 2.0 * math.pi * C_LIGHT

NORM_CONVENTION = "unit-L2-with-grid-measure"


def nm_from_omega(omega):
    """Angular frequency (rad/s) to vacuum wavelength (nm)."""
    return TWO_PI_C / np.asarray(omega) * 1e9


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump pulse spectrum with flat spectral phase.

    fwhm_nm is the FWHM of the pump *intensity* spectrum in wavelength.
    eta scales the pair-generation amplitude and never affects normalized
    shapes.
    """

    center_nm: float
    fwhm_nm: float
    eta: float = 1.0

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
        return d_omega / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def pump_envelope(pump: PumpSpec, omega_sum):
    """Pump amplitude at the daughter-frequency sum, peak value 1."""
    s = pump.sigma_omega
    return np.exp(-((np.asarray(omega_sum) - pump.omega_p) ** 2) / (4.0 * s ** 2))


def phasematching_function(crystal: CrystalSpec, theta_deg, omega_e, omega_o,
                           flat_phase=False):
    """sinc(dk L / 2) * exp(i dk L / 2); the phase factor is dropped in
    flat-phase mode, which leaves a real amplitude."""
    length = crystal.length_mm * 1e-3
    x = delta_k(crystal, theta_deg, omega_e, omega_o) * length / 2.0
    amp = np.sinc(x / np.pi)
    if flat_phase:
        return amp
    return amp * np.exp(1j * x)


@dataclass(frozen=True)
class FrequencyGrid:
    """One uniform ascending frequency axis shared by both daughter photons:
    omega_o must equal omega_e, and both names hold the same array."""

    omega_e: np.ndarray
    omega_o: np.ndarray

    def __post_init__(self):
        ax = np.asarray(self.omega_e, dtype=float)
        if ax.ndim != 1 or ax.size < 16:
            raise ConfigError("need a 1-d frequency axis with >= 16 points")
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
        intensity = np.abs(self.values) ** 2
        intensity.flags.writeable = False
        return intensity

    def norm_sq(self):
        return float(np.sum(self.intensity) * self.grid.measure)


def normalize(grid: FrequencyGrid, values):
    """Wrap raw amplitudes into a unit-norm JointAmplitude."""
    values = np.asarray(values)
    norm_sq = np.sum(np.abs(values) ** 2) * grid.measure
    if not np.isfinite(norm_sq) or norm_sq == 0.0:
        raise NumericalError("cannot normalize: joint amplitude has zero norm")
    return JointAmplitude(grid, values / math.sqrt(norm_sq))


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


def build_grid(crystal: CrystalSpec, pump: PumpSpec, n_points=512,
               span_sigmas=4.0, theta_deg=None):
    """Square grid centered on the degenerate frequency omega_p / 2.

    The half-width is span_sigmas times a combined width estimate: the
    geometric mean of the pump's spectral sigma and the phasematching
    bandwidth 2*pi*c / (L * |group-index mismatch|), taken for the larger
    of the pump-e and pump-o mismatches. The geometric mean keeps the
    window tight enough that far sinc sidelobes do not dominate while
    still covering the broad (pump-limited) marginal.
    """
    if n_points < 16:
        raise ConfigError("n_points must be at least 16")
    if not 0 < span_sigmas < math.inf:
        raise ConfigError("span_sigmas must be positive and finite")
    if theta_deg is None:
        theta_deg = crystal.cut_angle_deg
    if theta_deg is None:
        theta_deg = phasematching_angle(crystal, pump.center_nm, 2.0 * pump.center_nm)
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
    """f = pump envelope times phasematching function, unit-normalized."""
    we = grid.omega_e[:, None]
    wo = grid.omega_o[None, :]
    alpha = _on_sums(lambda omega_sum: pump_envelope(pump, omega_sum), we, wo)
    phi = phasematching_function(crystal, theta_deg, we, wo, flat_phase=flat_phase)
    return normalize(grid, alpha * phi)


@dataclass(frozen=True)
class FilterSpec:
    """Spectral intensity filter on one arm."""

    shape: str  # gaussian | rectangular | none
    arm: str  # e | o
    center_nm: float = 0.0
    fwhm_nm: float = 0.0

    def __post_init__(self):
        if self.shape not in ("gaussian", "rectangular", "none"):
            raise ConfigError(f"unknown filter shape {self.shape!r}")
        if self.arm not in ("e", "o"):
            raise ConfigError(f"filter arm must be 'e' or 'o', got {self.arm!r}")
        if self.shape != "none" and not (self.fwhm_nm > 0 and self.center_nm > 0):
            raise ConfigError("filter center and FWHM must be positive")

    @classmethod
    def none(cls, arm):
        return cls(shape="none", arm=arm)


def filter_transmission(filt: FilterSpec, omega_axis):
    """Intensity transmission of a filter sampled on a frequency axis."""
    if filt.shape == "none":
        return np.ones_like(omega_axis)
    lam = nm_from_omega(omega_axis)
    if filt.shape == "gaussian":
        s = filt.fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return np.exp(-((lam - filt.center_nm) ** 2) / (2.0 * s ** 2))
    return (np.abs(lam - filt.center_nm) <= filt.fwhm_nm / 2.0).astype(float)


def apply_filters(jsa: JointAmplitude, filters):
    """Multiply by the amplitude transmission sqrt(T) per arm and renormalize.

    Returns (filtered JointAmplitude, passed fraction), where the passed
    fraction is the intensity surviving the filters before renormalization.
    """
    axis = jsa.grid.omega_e
    t = {"e": np.ones_like(axis), "o": np.ones_like(axis)}
    for filt in filters:
        t[filt.arm] = t[filt.arm] * filter_transmission(filt, axis)
    values = jsa.values * np.sqrt(t["e"])[:, None] * np.sqrt(t["o"])[None, :]
    kept = float(np.sum(np.abs(values) ** 2) * jsa.grid.measure)
    if kept == 0.0:
        raise FilterSupportError("filter removes all support of the joint amplitude")
    filtered = JointAmplitude(jsa.grid, values / math.sqrt(kept))
    return filtered, kept / jsa.norm_sq()


def marginal_spectrum(jsa: JointAmplitude, arm):
    """Single-arm intensity spectrum, peak-normalized.

    Returns (wavelength_nm ascending, intensity). The frequency marginal
    is relabeled in wavelength; no Jacobian is applied since the output
    is a peak-normalized shape on the sampled points.
    """
    if arm not in ("e", "o"):
        raise ConfigError(f"arm must be 'e' or 'o', got {arm!r}")
    intensity = np.sum(jsa.intensity, axis=1 if arm == "e" else 0) * jsa.grid.d_omega
    lam = nm_from_omega(jsa.grid.omega_e)
    order = np.argsort(lam)
    intensity = intensity[order]
    return lam[order], intensity / np.max(intensity)


def fwhm_of_curve(x, y):
    """FWHM of a peaked sampled curve by linear interpolation at half max."""
    y = np.asarray(y, dtype=float)
    half = np.max(y) / 2.0
    above = np.where(y >= half)[0]
    if above.size == 0:
        raise NumericalError("curve has no points above half maximum")
    i0, i1 = above[0], above[-1]
    if i0 == 0 or i1 == len(y) - 1:
        raise NumericalError("half-maximum crossings not bracketed by the axis")
    x_lo = np.interp(half, [y[i0 - 1], y[i0]], [x[i0 - 1], x[i0]])
    x_hi = np.interp(half, [y[i1 + 1], y[i1]], [x[i1 + 1], x[i1]])
    return float(abs(x_hi - x_lo))


def jsi_pearson(jsa: JointAmplitude):
    """Pearson correlation of the two frequencies under the JSI density."""
    density = jsa.intensity
    density = density / np.sum(density)
    p_e = density.sum(axis=1)
    p_o = density.sum(axis=0)
    w = jsa.grid.omega_e
    mu_e = float(p_e @ w)
    mu_o = float(p_o @ w)
    var_e = float(p_e @ (w - mu_e) ** 2)
    var_o = float(p_o @ (w - mu_o) ** 2)
    cov = float(((w - mu_e)[:, None] * (w - mu_o)[None, :] * density).sum())
    return cov / math.sqrt(var_e * var_o)


def export_jsi_csv(jsa: JointAmplitude, path):
    """Write the JSI matrix row-major with each arm's axis in nm and rad/s."""
    axis = jsa.grid.omega_e
    nm = ",".join(f"{x:.9g}" for x in nm_from_omega(axis))
    rad_s = ",".join(f"{x:.9g}" for x in axis)
    with open(path, "w") as fh:
        for arm in ("e", "o"):
            fh.write(f"# axis_{arm}_nm,{nm}\n# axis_{arm}_rad_s,{rad_s}\n")
        np.savetxt(fh, jsa.intensity, delimiter=",", fmt="%.9g")


def export_metadata(path, crystal: CrystalSpec, pump: PumpSpec, jsa: JointAmplitude,
                    theta_deg=None, filters=(), extra=None):
    """Companion metadata: everything needed to reproduce the matrix."""
    axis = jsa.grid.omega_e
    meta = {
        "crystal": {
            "name": crystal.name,
            "length_mm": crystal.length_mm,
            "cut_angle_deg": theta_deg if theta_deg is not None else crystal.cut_angle_deg,
            "source_citation": crystal.source_citation,
        },
        "pump": {
            "center_nm": pump.center_nm,
            "fwhm_nm": pump.fwhm_nm,
            "eta": pump.eta,
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
            for f in filters
        ],
        "flat_phase": jsa.flat_phase,
        "norm_convention": NORM_CONVENTION,
        "out_of_model": {
            "absolute_pair_rate": "not simulated; eta is a user-supplied scale only",
            "detector_and_collection_efficiency": "not simulated; reported efficiencies are filter-limited",
        },
    }
    if extra:
        meta.update(extra)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
