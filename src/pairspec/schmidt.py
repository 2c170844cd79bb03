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
from .jsa import JointAmplitude, arm_transmissions


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt spectrum of a joint amplitude."""

    coefficients: np.ndarray  # descending, sum of squares = 1
    purity: float
    schmidt_number: float


def schmidt_decompose(jsa: JointAmplitude):
    """Singular values of the measure-weighted amplitude."""
    if not np.all(np.isfinite(jsa.values)):
        raise NumericalError("cannot decompose non-finite joint amplitude")
    try:
        s = np.linalg.svd(jsa.values * jsa.grid.d_omega, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    total = float(np.sum(s ** 2))
    if total == 0.0:
        raise NumericalError("joint amplitude has zero norm")
    coeff = s / math.sqrt(total)
    purity = float(np.sum(coeff ** 4))
    return SchmidtResult(coefficients=coeff, purity=purity, schmidt_number=1.0 / purity)


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


def heralded_density_matrix(jsa: JointAmplitude, heralded_arm):
    """Reduced state of one photon after its partner heralds.

    rho(w, w') = sum_h f(w, w_h) f*(w', w_h) dw_h on the heralded arm's
    axis, normalized to unit trace. A herald filter acts through
    `jsa.apply_filters` on the amplitude, as sqrt(T) on the herald's index,
    so rho = f f^dagger stays Hermitian by construction (and, for real
    amplitudes, bitwise symmetric from one SYRK).
    """
    if heralded_arm not in ("e", "o"):
        raise ConfigError(f"heralded_arm must be 'e' or 'o', got {heralded_arm!r}")
    axis, d_omega = jsa.grid.omega_e, jsa.grid.d_omega
    f = jsa.values if heralded_arm == "e" else jsa.values.T
    rho = f @ f.conj().T * d_omega
    tr = float(np.real(np.trace(rho)) * d_omega)
    if tr <= 0.0:
        raise FilterSupportError("heralded state has zero trace")
    return ReducedDensityMatrix(omega_axis=axis, values=rho / tr)


def purity(rho: ReducedDensityMatrix):
    """Tr rho^2 with the grid measure."""
    return float(np.sum(np.abs(rho.values) ** 2) * rho.d_omega ** 2)


def heralding_efficiency(jsa: JointAmplitude, filters, herald_arm):
    """Probability the signal photon passes its arm's filters given the
    herald passed its own: sum T_e I T_o / sum m_h T_h, with m_h the herald
    marginal. Unit collection and detection efficiency; filters act on
    intensity."""
    if herald_arm not in ("e", "o"):
        raise ConfigError(f"herald_arm must be 'e' or 'o', got {herald_arm!r}")
    t = arm_transmissions(filters, jsa.grid.omega_e)
    intensity = jsa.intensity
    marginal = intensity.sum(axis=1 if herald_arm == "e" else 0)
    herald_rate = float(marginal @ t[herald_arm]) * jsa.grid.measure
    if herald_rate <= 0.0:
        raise FilterSupportError("herald filter passes nothing")
    both_rate = float(t["e"] @ intensity @ t["o"]) * jsa.grid.measure
    # The two rates are summed in different orders, so an open signal
    # arm can come out an ulp above the herald rate.
    return min(both_rate / herald_rate, 1.0)


def export_schmidt_csv(result: SchmidtResult, path):
    """CSV (k, c_k, c_k^2) of the 64 largest coefficients, largest first."""
    with open(path, "w") as fh:
        fh.write("k,c_k,c_k_squared\n")
        for k, c in enumerate(result.coefficients[:64], start=1):
            fh.write(f"{k},{c:.12g},{c ** 2:.12g}\n")
