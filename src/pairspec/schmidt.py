"""Schmidt decomposition, heralded density matrices, purity, heralding efficiency.

The Schmidt decomposition is a certified truncated SVD of the sampled
joint amplitude (`schmidt_decompose`); one basis also gives the purity of
any filtered version of it (`SchmidtResult.filtered_purity`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import row_blocks
from .errors import ConfigError, FilterSupportError, NumericalError
from .jsa import NO_SUPPORT, FrequencyGrid, JointAmplitude, arm_transmissions, other_arm, write_csv


# A Schmidt basis is certified when ||F - Q Q^H F||_F / ||F||_F is at most this.
RESIDUAL_TOL = 1e-10
# Columns of the first range-finder block; each later block doubles the basis.
FIRST_BLOCK = 32


@dataclass(frozen=True)
class SchmidtResult:
    """Certified truncated Schmidt decomposition of a joint amplitude.

    The amplitude F[e, o] is sum_k c_k u_k[e] conj(v_k[o]) up to a
    relative Frobenius residual `residual`. The mode columns are
    orthonormal on the grid points (divide by sqrt(d_omega) for unit L2
    mode functions).
    """

    coefficients: np.ndarray  # descending, sum of squares = 1
    purity: float
    schmidt_number: float
    modes_e: np.ndarray  # n x rank, u_k as columns
    modes_o: np.ndarray  # n x rank, v_k as columns
    residual: float  # certified ||F - Q Q^H F||_F / ||F||_F

    @property
    def rank(self):
        return self.coefficients.size

    @property
    def resolved(self):
        """The coefficients above the residual; the rest sit at round-off."""
        return self.coefficients[self.coefficients > self.residual]

    def filtered_purity(self, transmissions):
        """Schmidt purity of the amplitude after intensity filters
        {"e": T_e, "o": T_o}, as r x r algebra on this basis.

        With N = U^H T_e U, M = V^H T_o V, S = diag(c) and D = sqrt(T),
        the filtered e photon's state is D_e U (S M S) U^H D_e up to its
        trace, so the purity (the same for both photons) is
        Tr[(N S M S)^2] / Tr[N S M S]^2.
        """
        u, v, c = self.modes_e, self.modes_o, self.coefficients
        n_e = u.conj().T @ (transmissions["e"][:, None] * u)
        m_o = v.conj().T @ (transmissions["o"][:, None] * v)
        a = n_e @ (c[:, None] * m_o * c[None, :])
        trace = float(np.trace(a).real)
        if trace <= 0.0:
            raise FilterSupportError(NO_SUPPORT)
        return float(np.sum(a * a.T).real) / trace ** 2


def _range_block(residual, width, rng, basis):
    """`width` orthonormal columns spanning the dominant range of
    `residual`, orthogonal to `basis`: a Gaussian sketch refined by one
    power iteration (Halko, Martinsson & Tropp 2011, alg. 4.4)."""
    y = residual @ rng.standard_normal((residual.shape[1], width))
    z = np.linalg.qr(residual.conj().T @ np.linalg.qr(y)[0])[0]
    y = residual @ z
    for q in basis:
        y -= q @ (q.conj().T @ y)
    return np.linalg.qr(y)[0]


def schmidt_decompose(jsa: JointAmplitude):
    """Schmidt spectrum and modes from a certified randomized range finder.

    Blocks of the range of F are added, each from the residual
    R = F - Q Q^H F left by the previous ones, until ||R||_F / ||F||_F is
    at most RESIDUAL_TOL or the basis spans the grid, where the result is
    exact. The small SVD of Q^H F then gives the coefficients and modes.
    The sketch is seeded, so the result is deterministic. Coefficients are
    normalized, so the grid measure drops out and they converge under grid
    refinement.
    """
    f = jsa.values
    norm = float(np.linalg.norm(f))
    if not math.isfinite(norm):
        raise NumericalError("cannot decompose non-finite joint amplitude")
    if norm == 0.0:
        raise NumericalError("joint amplitude has zero norm")
    n = f.shape[1]
    rng = np.random.default_rng(0)
    basis, rows = [], []
    residual, rank, width = f, 0, min(FIRST_BLOCK, n)
    try:
        while True:
            q = _range_block(residual, width, rng, basis)
            b = q.conj().T @ residual
            if residual is f:  # one n x n buffer holds every later residual
                residual = q @ b
                np.subtract(f, residual, out=residual)
            else:
                residual -= q @ b
            basis.append(q)
            rows.append(b)
            rank += width
            rel = float(np.linalg.norm(residual)) / norm
            if rel <= RESIDUAL_TOL or rank == n:
                break
            width = min(rank, n - rank)
        small_u, s, vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    coeff = s / math.sqrt(float(np.sum(s ** 2)))
    purity = float(np.sum(coeff ** 4))
    return SchmidtResult(
        coefficients=coeff, purity=purity, schmidt_number=1.0 / purity,
        modes_e=np.hstack(basis) @ small_u, modes_o=vh.conj().T, residual=rel,
    )


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """Single-photon spectral density matrix, unit trace with grid measure.

    The values are Hermitian on the grid's axis; `heralded_density_matrix`
    builds them so, and `interference.hom_dip` relies on it.
    """

    grid: FrequencyGrid
    values: np.ndarray  # indexed [w, w']

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        if v.shape != (self.grid.omega_e.size,) * 2:
            raise ConfigError("density matrix shape does not match its grid")
        object.__setattr__(self, "values", v)

    def trace(self):
        return float(np.real(np.trace(self.values)) * self.grid.d_omega)


def heralded_density_matrix(jsa: JointAmplitude, heralded_arm):
    """Reduced state of one photon after its partner heralds.

    rho(w, w') = sum_h f(w, w_h) f*(w', w_h) dw_h on the heralded arm's
    axis, normalized to unit trace. A herald filter acts through
    `jsa.apply_filters` on the amplitude, as sqrt(T) on the herald's index,
    so rho = f f^dagger stays Hermitian by construction. rho is the only
    n x n array made: for real amplitudes it comes from one SYRK (bitwise
    symmetric); for complex ones each row block is conj(conj(f[rows]) f^T),
    so no conjugated copy of f is made.
    """
    other_arm(heralded_arm, "heralded_arm")
    d_omega = jsa.grid.d_omega
    f = herald_rows(jsa, heralded_arm)
    if jsa.flat_phase:
        rho = f @ f.T
    else:
        rho = np.empty((f.shape[0],) * 2, dtype=complex)
        for rows in row_blocks(f.shape[0]):
            np.matmul(np.conjugate(f[rows]), f.T, out=rho[rows])
        np.conjugate(rho, out=rho)
    rho *= d_omega
    tr = float(np.real(np.trace(rho)) * d_omega)
    if tr <= 0.0:
        raise FilterSupportError("heralded state has zero trace")
    rho /= tr
    return ReducedDensityMatrix(grid=jsa.grid, values=rho)


def herald_rows(jsa: JointAmplitude, heralded_arm):
    """The amplitude indexed [heralded photon, herald]: a view, transposed
    when the heralded photon is the o photon."""
    return jsa.values if heralded_arm == "e" else jsa.values.T


def purity(rho: ReducedDensityMatrix):
    """Tr rho^2 with the grid measure."""
    return float(np.sum(np.abs(rho.values) ** 2) * rho.grid.d_omega ** 2)


def heralding_efficiency(jsa: JointAmplitude, filters, herald_arm):
    """Probability the signal photon passes its arm's filters given the
    herald passed its own: T_s . (I_h T_h) / sum(I_h T_h), with I_h the
    intensity indexed [signal, herald], so one matrix-vector product gives
    both rates. Unit collection and detection efficiency; filters act on
    intensity."""
    signal_arm = other_arm(herald_arm, "herald_arm")
    t = arm_transmissions(filters, jsa.grid.omega_e)
    intensity = jsa.intensity if herald_arm == "o" else jsa.intensity.T
    passed = intensity @ t[herald_arm]
    herald_rate = float(passed.sum())
    if herald_rate <= 0.0:
        raise FilterSupportError("herald filter passes nothing")
    # The two rates are summed in different orders, so an open signal
    # arm can come out an ulp above the herald rate.
    return min(float(t[signal_arm] @ passed) / herald_rate, 1.0)


def export_schmidt_csv(result: SchmidtResult, path):
    """CSV (k, c_k, c_k^2) of the resolved coefficients (those above the
    certified residual), at most 64, largest first."""
    c = result.resolved[:64]
    write_csv(path, np.column_stack([np.arange(1, c.size + 1), c, c ** 2]),
              header="k,c_k,c_k_squared", fmt=("%d", "%.12g", "%.12g"))
