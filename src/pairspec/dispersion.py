"""Refractive-index, phasematching-angle, and group-velocity-matching solvers.

Geometry: collinear propagation at angle theta to the optic axis of a
uniaxial crystal. Type-II means an extraordinary-polarized pump decaying
into one e- and one o-polarized daughter (the negative-uniaxial KDP/BBO
configuration). All wavelengths at this interface are vacuum nanometres.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import brentq

from .crystals import CrystalSpec
from .errors import ConfigError, NoGvmPointError, NoPhasematchingError, NumericalError

C_LIGHT = 299792458.0  # speed of light in vacuum, m/s, exact by the SI definition
TWO_PI_C = 2.0 * math.pi * C_LIGHT
GVM_TOL_NM = 1e-4
GVM_SCAN_HALFWIDTH_NM = 50.0  # pump window of the GVM scan, about d/2
_ANGLE_BRACKET_DEG = (1e-9, 90.0)


@dataclass(frozen=True)
class GvmSolution:
    """Pump wavelength at which the e-pump and o-daughter group indices match."""

    pump_wavelength_nm: float
    phasematching_angle_deg: float
    group_index_pump_e: float
    group_index_daughter_o: float
    residual: float
    tolerance_nm: float = GVM_TOL_NM


def nm_from_omega(omega):
    """Angular frequency (rad/s) to vacuum wavelength (nm)."""
    return TWO_PI_C / np.asarray(omega) * 1e9


def index_o(crystal: CrystalSpec, wavelength_nm):
    """Ordinary refractive index n_o(lambda)."""
    return crystal.sellmeier_o.index(wavelength_nm, crystal.name)


def index_e(crystal: CrystalSpec, wavelength_nm, theta_deg):
    """Extraordinary index at propagation angle theta from the optic axis.

    Index ellipsoid: n(theta)^-2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2
    with n_e the principal extraordinary index. Wavelength may be an array.
    """
    n_o = crystal.sellmeier_o.index(wavelength_nm, crystal.name)
    n_e = crystal.sellmeier_e.index(wavelength_nm, crystal.name)
    return _ellipsoid(n_o, n_e, *_cos2_sin2(theta_deg))


def _cos2_sin2(theta_deg):
    """cos^2 and sin^2 of an angle in degrees: math keeps a scalar's bits, numpy takes arrays."""
    lib = np if np.ndim(theta_deg) else math
    th = lib.radians(theta_deg)
    return lib.cos(th) ** 2, lib.sin(th) ** 2


def _ellipsoid(n_o, n_e, cos2, sin2):
    return 1.0 / np.sqrt(cos2 / n_o ** 2 + sin2 / n_e ** 2)


def group_index(crystal: CrystalSpec, polarization, wavelength_nm, theta_deg=0.0):
    """Group index n_g = n - lambda * dn/dlambda from the analytic Sellmeier slope.

    For the e-wave, differentiating the index ellipsoid gives
    dn/dlambda = n^3 (cos^2(theta) n_o'/n_o^3 + sin^2(theta) n_e'/n_e^3).
    Wavelength and theta may be arrays of one shape.
    """
    if polarization == "o":
        return (index_o(crystal, wavelength_nm)
                - wavelength_nm * crystal.sellmeier_o.slope(wavelength_nm, crystal.name))
    if polarization != "e":
        raise ValueError(f"polarization must be 'o' or 'e', got {polarization!r}")
    n = index_e(crystal, wavelength_nm, theta_deg)
    slope = 0.0
    for weight, form in zip(_cos2_sin2(theta_deg), (crystal.sellmeier_o, crystal.sellmeier_e)):
        slope += (weight * form.slope(wavelength_nm, crystal.name)
                  / form.index(wavelength_nm, crystal.name) ** 3)
    return n - wavelength_nm * n ** 3 * slope


def _on_sums(fn, omega_e, omega_o):
    """fn(omega_e + omega_o) for an elementwise fn, once per distinct sum.

    When omega_e is an (n, 1) column and omega_o a (1, m) row of
    nonnegative whole rad/s on one common whole step, with sums below
    2**53, every sum is an exact float64 integer and the n*m sums take
    only n + m - 1 values, the sum at [i, j] depending on i + j alone.
    fn is evaluated on those values, taken from the grid's own entries,
    and read back through a zero-copy Hankel view, so the result equals
    the direct evaluation bit for bit. Any other input is evaluated
    directly.
    """
    e, o = np.asarray(omega_e), np.asarray(omega_o)
    if e.ndim == o.ndim == 2 and e.shape[1] == o.shape[0] == 1 and min(e.size, o.size) > 1:
        e, o = e[:, 0], o[0]
        step = e[1] - e[0]
        if (step > 0 and e[0] >= 0 and o[0] >= 0 and e[-1] + o[-1] < 2.0 ** 53
                and float(step).is_integer() and float(e[0]).is_integer()
                and float(o[0]).is_integer()
                and np.array_equal(e, e[0] + step * np.arange(e.size))
                and np.array_equal(o, o[0] + step * np.arange(o.size))):
            sums = np.concatenate([e + o[0], e[-1] + o[1:]])
            return sliding_window_view(fn(sums), o.size)
    return fn(omega_e + omega_o)


def delta_k(crystal: CrystalSpec, theta_deg, omega_e, omega_o):
    """Collinear wavevector mismatch k_p(w_e + w_o) - k_e(w_e) - k_o(w_o), rad/m.

    The pump and the e-daughter see the angle-dependent extraordinary
    index; the o-daughter sees the ordinary index. Frequencies may be
    broadcastable arrays (rad/s); an array result is the caller's to overwrite.
    """
    def pump_k(omega_p):
        return index_e(crystal, nm_from_omega(omega_p), theta_deg) * omega_p / C_LIGHT

    k_p = _on_sums(pump_k, omega_e, omega_o)
    k_e = index_e(crystal, nm_from_omega(omega_e), theta_deg) * omega_e / C_LIGHT
    k_o = index_o(crystal, nm_from_omega(omega_o)) * omega_o / C_LIGHT
    dk = k_p - k_e
    dk -= k_o
    return dk


def _angle_mismatch(crystal: CrystalSpec, degenerate_wavelength_nm):
    """delta_k(theta) = k0 (2 n_e(lambda0/2, theta) - n_e(lambda0, theta) - n_o(lambda0)), lambda0
    a scalar or an array; the principal indices are evaluated once, here."""
    lam0 = degenerate_wavelength_nm
    n_o_p, n_e_p, n_o_0, n_e_0 = (form.index(lam, crystal.name) for lam in (lam0 / 2.0, lam0)
                                  for form in (crystal.sellmeier_o, crystal.sellmeier_e))
    k0 = 2.0 * math.pi / (lam0 * 1e-9)

    def mismatch(theta):
        cos2, sin2 = _cos2_sin2(theta)
        return k0 * (2.0 * _ellipsoid(n_o_p, n_e_p, cos2, sin2)
                     - _ellipsoid(n_o_0, n_e_0, cos2, sin2) - n_o_0)

    return mismatch


def phasematching_angle(crystal: CrystalSpec, pump_wavelength_nm,
                        degenerate_wavelength_nm):
    """Angle theta (degrees) at which degenerate collinear type-II is phasematched.

    brentq solves `_angle_mismatch` on (0, 90) degrees. Raises
    NoPhasematchingError if delta_k does not change sign there.
    """
    if abs(degenerate_wavelength_nm - 2.0 * pump_wavelength_nm) > 1e-9 * degenerate_wavelength_nm:
        raise ValueError("degenerate wavelength must equal twice the pump wavelength")
    mismatch = _angle_mismatch(crystal, degenerate_wavelength_nm)
    lo, hi = _ANGLE_BRACKET_DEG
    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise NoPhasematchingError(
            f"no phasematching: delta_k has no sign change on (0, 90) deg for "
            f"{crystal.name} pumped at {pump_wavelength_nm:.6g} nm"
        )
    return brentq(mismatch, lo, hi, xtol=1e-13)


def _gvm_mismatch(crystal: CrystalSpec, pump_nm, theta):
    ng_pump = group_index(crystal, "e", pump_nm, theta)
    ng_daughter = group_index(crystal, "o", 2.0 * pump_nm)
    return ng_pump - ng_daughter, theta, ng_pump, ng_daughter


def _scan_mismatch(crystal: CrystalSpec, pump_nm):
    """GVM mismatch at an array of pumps, and which phasematch; theta bisected to 1e-13 deg
    (scipy before 1.15 has no elementwise bracketed root finder)."""
    mismatch = _angle_mismatch(crystal, 2.0 * pump_nm)
    lo, hi = (np.full(pump_nm.shape, end) for end in _ANGLE_BRACKET_DEG)
    f_lo = mismatch(lo)
    phasematched = f_lo * mismatch(hi) <= 0.0
    while np.max(hi - lo) > 1e-13:
        mid = 0.5 * (lo + hi)
        up = mismatch(mid) * f_lo > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return _gvm_mismatch(crystal, pump_nm, 0.5 * (lo + hi))[0], phasematched


def gvm_pump_wavelength(crystal: CrystalSpec, daughter_o_wavelength_nm):
    """Pump wavelength at which the e-pump group-matches its o-daughter.

    The mismatch n_g,e(pump, theta_pm) - n_g,o(2 pump) is scanned at 101
    pumps in d/2 +- GVM_SCAN_HALFWIDTH_NM in one array pass; a point with no
    phasematching angle breaks the bracket chain. brentq, one scalar angle
    solve per evaluation, refines only the first sign change, well inside
    GVM_TOL_NM: 6 angle solves for KDP at 830 nm, none for a miss. A scan
    that meets a point outside a validity window first raises its range error.
    """
    if not 0 < daughter_o_wavelength_nm < math.inf:
        raise ConfigError("daughter wavelength must be positive and finite")
    center = daughter_o_wavelength_nm / 2.0

    @functools.cache
    def mismatch(lam_p):
        return _gvm_mismatch(crystal, lam_p, phasematching_angle(crystal, lam_p, 2.0 * lam_p))

    n_coarse = 101
    lo, hi = center - GVM_SCAN_HALFWIDTH_NM, center + GVM_SCAN_HALFWIDTH_NM
    lam = lo + np.arange(n_coarse) * (2.0 * GVM_SCAN_HALFWIDTH_NM / (n_coarse - 1))
    inside = np.logical_and.reduce([
        (x * 1e-3 >= form.valid_um_min) & (x * 1e-3 <= form.valid_um_max)
        for x in (lam, 2.0 * lam) for form in (crystal.sellmeier_o, crystal.sellmeier_e)])
    # Scan up to the first point outside a validity window (point 0 raises in the scan).
    n_in = int(np.argmin(np.append(inside, False)))
    f, ok = _scan_mismatch(crystal, lam[:max(n_in, 1)])
    bracket = np.flatnonzero(ok[:-1] & ok[1:] & (f[:-1] * f[1:] <= 0.0))
    if not bracket.size:
        if n_in < n_coarse:  # the angle solve raises that point's range error
            phasematching_angle(crystal, float(lam[n_in]), 2.0 * float(lam[n_in]))
        raise NoGvmPointError(f"no GVM point: group-index mismatch has no sign change in "
                              f"[{lo:.6g}, {hi:.6g}] nm for {crystal.name}")
    a, b = float(lam[bracket[0]]), float(lam[bracket[0] + 1])
    if mismatch(a)[0] * mismatch(b)[0] > 0.0:
        raise NumericalError(f"GVM bracket [{a:.9g}, {b:.9g}] nm of the array scan has no "
                             f"sign change in the scalar mismatch for {crystal.name}")
    lam_p = brentq(lambda x: mismatch(x)[0], a, b, xtol=1e-12)
    residual, theta, ng_pump, ng_daughter = mismatch(lam_p)
    return GvmSolution(lam_p, theta, ng_pump, ng_daughter, residual)
