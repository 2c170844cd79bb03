"""Write perfbench/reference.json: converged values of the checked outputs.

    python3 perfbench/make_reference.py

The references answer "what would the program report with an exact grid",
for the same physical inputs the workloads use:

* Purities (``schmidt`` and every ``sweep`` point) are computed on grids
  finer than the workloads' n=512, over the window the config selects
  (``span_sigmas``), as ||F^T F||_F^2 / ||F||_F^4 without an SVD, with
  trapezoid weights so that they converge to the integral over the window.
* HOM visibility and dip FWHM are computed from heralded density matrices on
  grids finer than the workloads' n=1024. For the mismatched-pump pair both
  JSAs are evaluated directly on one union grid instead of interpolating each
  heralded state. The FWHM is the exact half-depth crossing of the overlap,
  not an interpolation between scan delays.
* The GVM pump wavelength is re-solved with brentq on both levels and a
  Richardson-extrapolated group index.

Each grid quantity is computed at two resolutions; the file records the
larger one and the largest change between them, which bounds how far the
references themselves are from convergence.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy.optimize import brentq, minimize_scalar  # noqa: E402

from pairspec.cli import load_config  # noqa: E402
from pairspec.crystals import get_crystal  # noqa: E402
from pairspec.dispersion import delta_k, index_e, index_o  # noqa: E402
from pairspec.jsa import FrequencyGrid, build_grid, joint_amplitude, nm_from_omega  # noqa: E402

import workloads  # noqa: E402

PURITY_POINTS = (2048, 3072)
HOM_POINTS = (2048, 3072)
C_LIGHT = 299792458.0


def sources(tmp):
    out = {}
    for name, text in workloads.CONFIGS.items():
        path = Path(tmp) / f"{name}.cfg"
        path.write_text(text)
        out[name] = load_config(str(path))[0].source
    return out


def real_jsa(src, axis):
    """Flat-phase JSA on a square grid; it is real, so keep the real part."""
    theta = src.resolve_theta()
    grid = FrequencyGrid(axis, axis.copy())
    jsa = joint_amplitude(src.crystal, theta, src.pump, grid, flat_phase=True)
    assert np.max(np.abs(jsa.values.imag)) == 0.0
    return jsa.values.real


def own_axis(src, n):
    grid = build_grid(src.crystal, src.pump, n_points=n,
                      span_sigmas=src.span_sigmas, theta_deg=src.resolve_theta())
    return grid.omega_e


def trapezoid(axis):
    """Trapezoid weights: the window edges carry half a cell, so sums
    converge to the integral over the window at second order in the step."""
    w = np.full(axis.size, float(axis[1] - axis[0]))
    w[[0, -1]] *= 0.5
    return w


def purity(f, w):
    fw = np.sqrt(w)[:, None] * f * np.sqrt(w)[None, :]
    g = fw.T @ fw
    return float(np.sum(g * g) / np.trace(g) ** 2)


def gaussian_amplitude(axis, center_nm, fwhm_nm):
    lam = nm_from_omega(axis)
    s = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return np.exp(-((lam - center_nm) ** 2) / (4.0 * s ** 2))


def purities(src, n):
    axis = own_axis(src, n)
    f = real_jsa(src, axis)
    w = trapezoid(axis)
    sweep = []
    center = 2.0 * src.pump.center_nm
    for bw in workloads.SWEEP_BANDWIDTHS:
        t = gaussian_amplitude(axis, center, bw)
        sweep.append(purity(f * t[:, None] * t[None, :], w))
    return purity(f, w), sweep


def heralded(f, w, interfered_arm):
    """Unit-trace heralded density matrix of the interfered arm."""
    m = f if interfered_arm == "e" else f.T
    rho = (m * w[None, :]) @ m.T
    return rho / np.sum(w * np.diag(rho))


class Overlap:
    """Re Tr[rho_a rho_b(tau)] from sums over frequency differences."""

    def __init__(self, rho_a, rho_b, axis):
        n = axis.size
        w = trapezoid(axis)
        i, j = np.indices((n, n))
        product = w[:, None] * rho_a * rho_b.T * w[None, :]
        self.sums = np.bincount((j - i + n - 1).ravel(), weights=product.ravel(),
                                minlength=2 * n - 1)
        self.steps = np.arange(-(n - 1), n) * float(axis[1] - axis[0])

    def __call__(self, tau_fs):
        return float(np.sum(self.sums * np.cos(self.steps * tau_fs * 1e-15)))


def dip(overlap, delays_fs):
    scan = np.array([overlap(t) for t in delays_fs])
    k = int(np.argmax(scan))
    step = delays_fs[1] - delays_fs[0]
    best = minimize_scalar(lambda t: -overlap(t), bounds=(delays_fs[k] - step,
                           delays_fs[k] + step), method="bounded",
                           options={"xatol": 1e-9})
    vis, center = -best.fun, best.x
    half = vis / 2.0
    below = np.where(scan >= half)[0]
    lo, hi = below[0], below[-1]
    t_lo = brentq(lambda t: overlap(t) - half, delays_fs[lo - 1], delays_fs[lo], xtol=1e-10)
    t_hi = brentq(lambda t: overlap(t) - half, delays_fs[hi], delays_fs[hi + 1], xtol=1e-10)
    return vis, t_hi - t_lo, center


def hom(srcs, case, n):
    a, b, herald, delays = workloads.HOM_CASES[case]
    start, stop, count = delays.split(":")
    delays_fs = np.linspace(float(start), float(stop), int(count))
    axis_a, axis_b = own_axis(srcs[a], n), own_axis(srcs[b], n)
    axis = np.linspace(min(axis_a[0], axis_b[0]), max(axis_a[-1], axis_b[-1]), n)
    interfered = "e" if herald == "o" else "o"
    w = trapezoid(axis)
    rho_a = heralded(real_jsa(srcs[a], axis), w, interfered)
    rho_b = rho_a if a == b else heralded(real_jsa(srcs[b], axis), w, interfered)
    vis, fwhm, _ = dip(Overlap(rho_a, rho_b, axis), delays_fs)
    return {"visibility": vis, "fwhm_fs": fwhm}


def group_index(crystal, pol, lam_nm, theta):
    def n(lam):
        return index_o(crystal, lam) if pol == "o" else index_e(crystal, lam, theta)

    def central(h):
        return (n(lam_nm + h) - n(lam_nm - h)) / (2.0 * h)

    h = 1e-3 * lam_nm
    slope = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return n(lam_nm) - lam_nm * slope


def pm_angle(crystal, lam_p):
    omega = 2.0 * math.pi * C_LIGHT / (2.0 * lam_p * 1e-9)
    return brentq(lambda th: delta_k(crystal, th, omega, omega), 1e-6, 90.0,
                  xtol=1e-13, rtol=1e-15)


def gvm_pump(crystal, lo, hi):
    def mismatch(lam_p):
        theta = pm_angle(crystal, lam_p)
        return (group_index(crystal, "e", lam_p, theta)
                - group_index(crystal, "o", 2.0 * lam_p, 0.0))
    return brentq(mismatch, lo, hi, xtol=1e-12, rtol=1e-15)


def main():
    ref = {"generated_by": "perfbench/make_reference.py", "purity": {},
           "sweep_purity": {}, "hom": {}, "convergence": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        srcs = sources(tmp)
    for name in ("kdp", "bbo"):
        coarse = purities(srcs[name], PURITY_POINTS[0])
        fine = purities(srcs[name], PURITY_POINTS[1])
        ref["purity"][name] = fine[0]
        ref["sweep_purity"][name] = fine[1]
        ref["convergence"][f"purity.{name}"] = float(np.max(np.abs(
            np.array([fine[0]] + fine[1]) - np.array([coarse[0]] + coarse[1]))))
        print(name, "purity", fine[0], flush=True)
    for case in workloads.HOM_CASES:
        fine = hom(srcs, case, HOM_POINTS[1])
        coarse = hom(srcs, case, HOM_POINTS[0])
        ref["hom"][case] = fine
        ref["convergence"][f"hom.{case}"] = max(
            abs(fine[k] - coarse[k]) / abs(fine[k]) for k in fine)
        print(case, fine, flush=True)
    kdp = get_crystal("KDP", 5.0)
    ref["gvm_pump_nm"] = {"KDP": gvm_pump(kdp, 405.0, 425.0)}
    ref["grid_points"] = {"purity": list(PURITY_POINTS), "hom": list(HOM_POINTS)}
    ref["convergence_note"] = ("largest change between the two grid sizes: absolute "
                               "for purities, relative for HOM values")
    print("gvm", ref["gvm_pump_nm"], flush=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
