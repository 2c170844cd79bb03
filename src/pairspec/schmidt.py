"""Schmidt decomposition, heralded density matrices, purity, heralding efficiency.

The discretized joint amplitude is weighted by the square root of the
grid measure before the SVD so that Schmidt coefficients and purities
converge under grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FilterSupportError, NumericalError
from .jsa import FilterSpec, JointAmplitude, filter_transmission


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt spectrum of a joint amplitude."""

    coefficients: np.ndarray  # descending, sum of squares = 1
    purity: float
    schmidt_number: float
    mode_functions_e: np.ndarray | None = None  # columns, orthonormal w.r.t. grid measure
    mode_functions_o: np.ndarray | None = None


def schmidt_decompose(jsa: JointAmplitude, keep_modes=False):
    """Singular value decomposition of the measure-weighted amplitude."""
    d_omega = jsa.grid.d_omega
    if not np.all(np.isfinite(jsa.values)):
        raise NumericalError("cannot decompose non-finite joint amplitude")
    try:
        if keep_modes:
            u, s, vh = np.linalg.svd(jsa.values * d_omega, full_matrices=False)
        else:
            s = np.linalg.svd(jsa.values * d_omega, compute_uv=False)
            u = vh = None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    total = float(np.sum(s ** 2))
    if total == 0.0:
        raise NumericalError("joint amplitude has zero norm")
    coeff = s / math.sqrt(total)
    purity = float(np.sum(coeff ** 4))
    result = SchmidtResult(
        coefficients=coeff,
        purity=purity,
        schmidt_number=1.0 / purity,
        mode_functions_e=None if u is None else u / math.sqrt(d_omega),
        mode_functions_o=None if vh is None else vh.conj().T / math.sqrt(d_omega),
    )
    return result


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """Single-photon spectral density matrix, unit trace with grid measure.

    The values are Hermitian on a uniform axis; `heralded_density_matrix`
    builds them so, and `interference.hom_dip` relies on it.
    """

    omega_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        if v.shape != (self.omega_axis.size, self.omega_axis.size):
            raise ConfigError("density matrix shape does not match its axis")
        object.__setattr__(self, "values", v)

    @property
    def d_omega(self):
        return float(self.omega_axis[1] - self.omega_axis[0])

    def trace(self):
        return float(np.real(np.trace(self.values)) * self.d_omega)


def heralded_density_matrix(jsa: JointAmplitude, heralded_arm,
                            herald_filter: FilterSpec | None = None):
    """Reduced state of one photon after its partner heralds.

    rho(w, w') = sum_h f(w, w_h) f*(w', w_h) T_h(w_h) dw_h on the heralded
    arm's axis, normalized to unit trace. The herald filter, if present,
    must act on the non-heralded arm.
    """
    if heralded_arm not in ("e", "o"):
        raise ConfigError(f"heralded_arm must be 'e' or 'o', got {heralded_arm!r}")
    herald_arm = "o" if heralded_arm == "e" else "e"
    if herald_filter is None:
        herald_filter = FilterSpec.none(herald_arm)
    if herald_filter.shape != "none" and herald_filter.arm != herald_arm:
        raise ConfigError(
            f"herald filter must act on the {herald_arm!r} arm when heralding "
            f"the {heralded_arm!r} photon"
        )
    axis, d_omega = jsa.grid.omega_e, jsa.grid.d_omega
    f = jsa.values if heralded_arm == "e" else jsa.values.T
    if herald_filter.shape != "none":
        # The herald's intensity transmission T splits as sqrt(T) on each
        # factor, so rho = A A^dagger is Hermitian by construction (and, for
        # real amplitudes, bitwise symmetric from one SYRK).
        f = f * np.sqrt(filter_transmission(herald_filter, axis))[None, :]
    rho = f @ f.conj().T * d_omega
    tr = float(np.real(np.trace(rho)) * d_omega)
    if tr <= 0.0:
        raise FilterSupportError("filter removes all support: heralded state has zero trace")
    return ReducedDensityMatrix(omega_axis=axis, values=rho / tr)


def purity(rho: ReducedDensityMatrix):
    """Tr rho^2 with the grid measure."""
    return float(np.sum(np.abs(rho.values) ** 2) * rho.d_omega ** 2)


def heralding_efficiency(jsa: JointAmplitude, herald_filter: FilterSpec,
                         signal_filter: FilterSpec):
    """Probability the signal photon passes its filter given the herald passed.

    Unit collection and detection efficiency; both filters act on
    intensity and must sit on opposite arms.
    """
    if herald_filter.arm == signal_filter.arm:
        raise ConfigError("herald and signal filters must be on opposite arms")
    t = {filt.arm: filter_transmission(filt, jsa.grid.omega_e)
         for filt in (herald_filter, signal_filter)}
    intensity = jsa.intensity
    marginal = intensity.sum(axis=1 if herald_filter.arm == "e" else 0)
    herald_rate = float(marginal @ t[herald_filter.arm]) * jsa.grid.measure
    if herald_rate <= 0.0:
        raise FilterSupportError("herald filter passes nothing")
    both_rate = float(t["e"] @ intensity @ t["o"]) * jsa.grid.measure
    # The two rates are summed in different orders, so an open signal
    # filter can come out an ulp above the herald rate.
    return min(both_rate / herald_rate, 1.0)


def export_schmidt_csv(result: SchmidtResult, path, max_modes=None):
    """CSV (k, c_k, c_k^2), largest coefficient first."""
    coeff = result.coefficients
    if max_modes is not None:
        coeff = coeff[:max_modes]
    with open(path, "w") as fh:
        fh.write("k,c_k,c_k_squared\n")
        for k, c in enumerate(coeff, start=1):
            fh.write(f"{k},{c:.12g},{c ** 2:.12g}\n")
