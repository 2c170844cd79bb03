"""Refractive-index, phasematching-angle, and group-velocity-matching solvers.

Geometry: collinear propagation at angle theta to the optic axis of a
uniaxial crystal. Type-II means an extraordinary-polarized pump decaying
into one e- and one o-polarized daughter (the negative-uniaxial KDP/BBO
configuration). All wavelengths at this interface are vacuum nanometres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.constants import c as C_LIGHT
from scipy.optimize import brentq

from .crystals import CrystalSpec
from .errors import ConfigError, NoGvmPointError, NoPhasematchingError

GVM_TOL_NM = 1e-4
GVM_SCAN_HALFWIDTH_NM = 50.0  # pump window of the GVM scan, about d/2


@dataclass(frozen=True)
class GvmSolution:
    """Pump wavelength at which the e-pump and o-daughter group indices match."""

    pump_wavelength_nm: float
    phasematching_angle_deg: float
    group_index_pump_e: float
    group_index_daughter_o: float
    residual: float
    tolerance_nm: float = GVM_TOL_NM


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
    return _ellipsoid(n_o, n_e, theta_deg)


def _ellipsoid(n_o, n_e, theta_deg):
    th = math.radians(theta_deg)
    return 1.0 / np.sqrt(math.cos(th) ** 2 / n_o ** 2 + math.sin(th) ** 2 / n_e ** 2)


def _index(crystal, polarization, wavelength_nm, theta_deg):
    if polarization == "o":
        return index_o(crystal, wavelength_nm)
    if polarization == "e":
        return index_e(crystal, wavelength_nm, theta_deg)
    raise ValueError(f"polarization must be 'o' or 'e', got {polarization!r}")


def group_index(crystal: CrystalSpec, polarization, wavelength_nm, theta_deg=0.0):
    """Group index n_g = n - lambda * dn/dlambda from the analytic Sellmeier slope.

    For the e-wave, differentiating the index ellipsoid gives
    dn/dlambda = n^3 (cos^2(theta) n_o'/n_o^3 + sin^2(theta) n_e'/n_e^3).
    """
    n = _index(crystal, polarization, wavelength_nm, theta_deg)
    if polarization == "o":
        return n - wavelength_nm * crystal.sellmeier_o.slope(wavelength_nm, crystal.name)
    th = math.radians(theta_deg)
    slope = 0.0
    for weight, form in ((math.cos(th) ** 2, crystal.sellmeier_o),
                         (math.sin(th) ** 2, crystal.sellmeier_e)):
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
    broadcastable arrays (rad/s).
    """
    def pump_k(omega_p):
        lam_p = 2.0 * math.pi * C_LIGHT / omega_p * 1e9
        return index_e(crystal, lam_p, theta_deg) * omega_p / C_LIGHT

    lam_e = 2.0 * math.pi * C_LIGHT / omega_e * 1e9
    lam_o = 2.0 * math.pi * C_LIGHT / omega_o * 1e9
    k_p = _on_sums(pump_k, omega_e, omega_o)
    k_e = index_e(crystal, lam_e, theta_deg) * omega_e / C_LIGHT
    k_o = index_o(crystal, lam_o) * omega_o / C_LIGHT
    return k_p - k_e - k_o


def phasematching_angle(crystal: CrystalSpec, pump_wavelength_nm,
                        degenerate_wavelength_nm):
    """Angle theta (degrees) at which degenerate collinear type-II is phasematched.

    At degeneracy delta_k = k0 (2 n_e(lambda0/2, theta) - n_e(lambda0, theta)
    - n_o(lambda0)) with k0 = 2 pi / lambda0. The four principal indices
    do not depend on theta, so they are evaluated once and brentq solves
    the ellipsoid mismatch on (0, 90) degrees. Raises NoPhasematchingError
    if delta_k does not change sign there.
    """
    if abs(degenerate_wavelength_nm - 2.0 * pump_wavelength_nm) > 1e-9 * degenerate_wavelength_nm:
        raise ValueError("degenerate wavelength must equal twice the pump wavelength")
    lam0 = degenerate_wavelength_nm
    n_o_p, n_e_p, n_o_0, n_e_0 = (form.index(lam, crystal.name) for lam in (lam0 / 2.0, lam0)
                                  for form in (crystal.sellmeier_o, crystal.sellmeier_e))
    k0 = 2.0 * math.pi / (lam0 * 1e-9)

    def mismatch(theta):
        return k0 * (2.0 * _ellipsoid(n_o_p, n_e_p, theta)
                     - _ellipsoid(n_o_0, n_e_0, theta) - n_o_0)

    lo, hi = 1e-9, 90.0
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


def gvm_pump_wavelength(crystal: CrystalSpec, daughter_o_wavelength_nm):
    """Pump wavelength at which the e-pump group-matches its o-daughter.

    Scans pump wavelengths in d/2 +- GVM_SCAN_HALFWIDTH_NM, re-solving the
    degenerate phasematching angle at each trial, and solves the
    group-index mismatch n_g,e(pump, theta_pm) - n_g,o(2*pump) with brentq
    in the first bracketed sign change, well inside GVM_TOL_NM. The
    daughter wavelength is tied to the pump by lambda_daughter =
    2 * lambda_pump throughout the scan.
    """
    if not 0 < daughter_o_wavelength_nm < math.inf:
        raise ConfigError("daughter wavelength must be positive and finite")
    center = daughter_o_wavelength_nm / 2.0

    def mismatch(lam_p):
        theta = phasematching_angle(crystal, lam_p, 2.0 * lam_p)
        ng_pump = group_index(crystal, "e", lam_p, theta)
        ng_daughter = group_index(crystal, "o", 2.0 * lam_p)
        return ng_pump - ng_daughter, theta, ng_pump, ng_daughter

    # Coarse scan first: parts of the window may have no phasematching
    # solution at all, so bracket the sign change between valid points only.
    n_coarse = 101
    lo, hi = center - GVM_SCAN_HALFWIDTH_NM, center + GVM_SCAN_HALFWIDTH_NM
    step = 2.0 * GVM_SCAN_HALFWIDTH_NM / (n_coarse - 1)
    prev = None
    for i in range(n_coarse):
        lam = lo + i * step
        try:
            f = mismatch(lam)[0]
        except NoPhasematchingError:
            prev = None
            continue
        if prev is not None and prev[1] * f <= 0.0:
            break
        prev = (lam, f)
    else:
        raise NoGvmPointError(
            f"no GVM point: group-index mismatch has no sign change in "
            f"[{lo:.6g}, {hi:.6g}] nm for {crystal.name}"
        )
    lam_p = brentq(lambda x: mismatch(x)[0], prev[0], lam, xtol=1e-12)
    residual, theta, ng_pump, ng_daughter = mismatch(lam_p)
    return GvmSolution(
        pump_wavelength_nm=lam_p,
        phasematching_angle_deg=theta,
        group_index_pump_e=ng_pump,
        group_index_daughter_o=ng_daughter,
        residual=residual,
    )
