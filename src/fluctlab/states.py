"""Thermal (Gibbs) states, free energies and the entropies built on them.

Natural logarithms throughout, so every entropy comes out in nats. For a
Hamiltonian H at inverse temperature beta the equilibrium state is
rho_eq = exp(-beta H)/Z with Z = tr exp(-beta H) and F = -log(Z)/beta.
The non-equilibrium entropy of a state rho against a thermal reference is

    S(rho) = -tr[rho log rho_eq] = S_R(rho || rho_eq) + S_V(rho),

which satisfies the Helmholtz-like identity tr[rho H] = F + S/beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidBeta, NotHermitian, SupportViolation
from .linalg import (
    HERMITICITY_TOL,
    SpectralDecomposition,
    as_complex_matrix,
    eigenbasis_diagonal,
    hermitian_eig,
    hermiticity_deviation,
)

# Eigenvalues below this are treated as exact zeros (0 log 0 = 0, support
# checks); it separates genuine rank deficiency from round-off.
EIG_CLAMP = 1e-12

DENSITY_TOL = 1e-10


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian energy operator with its spectral decomposition cached."""

    matrix: np.ndarray
    spectrum: SpectralDecomposition

    @classmethod
    def from_matrix(cls, m) -> "Hamiltonian":
        spec = hermitian_eig(m)
        a = as_complex_matrix(m)
        return cls(matrix=(a + a.conj().T) / 2, spectrum=spec)

    @classmethod
    def from_spectrum(cls, spec: SpectralDecomposition) -> "Hamiltonian":
        """Build the operator V diag(E) V^dag from a given decomposition."""
        return cls(matrix=spec.reconstruct(), spectrum=spec)

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @property
    def energies(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    def spectral_range(self) -> float:
        e = self.energies
        return float(e[-1] - e[0])


def _checked_spectrum(rho, tol: float = DENSITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """check_density_matrix, plus the ascending eigenvalues its positivity check found."""
    a = as_complex_matrix(rho)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"density matrix must be square, got {a.shape}")
    dev = hermiticity_deviation(a)
    if dev > tol:
        raise NotHermitian(f"density matrix deviation from Hermiticity {dev:.3e}")
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix trace {tr!r} differs from 1")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if w[0] < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    return a, w


def check_density_matrix(rho, tol: float = DENSITY_TOL) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    return _checked_spectrum(rho, tol)[0]


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state of a Hamiltonian at inverse temperature beta.

    ``populations`` are the eigenbasis weights exp(-beta E_m)/Z in ascending
    energy order; ``log_populations`` carries their exact logarithms
    -beta(E_m - E_min) - log(sum_k exp(-beta(E_k - E_min))), which stay
    finite even where the populations themselves underflow.
    """

    hamiltonian: Hamiltonian
    beta: float
    state: np.ndarray
    populations: np.ndarray
    log_populations: np.ndarray
    partition_function: float
    free_energy: float

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


def gibbs_state(h: Hamiltonian, beta: float) -> ThermalState:
    """Thermal state exp(-beta H)/Z with overflow-safe shifted exponents."""
    beta = float(beta)
    if not np.isfinite(beta) or beta <= 0.0:
        raise InvalidBeta(f"beta must be positive and finite, got {beta!r}")
    e = h.energies
    shifted = -beta * (e - e[0])
    weights = np.exp(shifted)
    norm = float(weights.sum())
    pops = weights / norm
    log_pops = shifted - np.log(norm)
    z = norm * float(np.exp(-beta * e[0]))
    f = float(e[0] - np.log(norm) / beta)
    v = h.spectrum.eigenvectors
    state = (v * pops) @ v.conj().T
    state = (state + state.conj().T) / 2
    return ThermalState(
        hamiltonian=h,
        beta=beta,
        state=state,
        populations=pops,
        log_populations=log_pops,
        partition_function=z,
        free_energy=f,
    )


def _entropy_of_spectrum(w: np.ndarray) -> float:
    """-sum w log w over the eigenvalues above EIG_CLAMP."""
    w = np.clip(w, 0.0, 1.0)
    nz = w > EIG_CLAMP
    return float(-(w[nz] * np.log(w[nz])).sum())


def von_neumann_entropy(rho) -> float:
    """S_V(rho) = -tr[rho log rho] with the convention 0 log 0 = 0."""
    return _entropy_of_spectrum(_checked_spectrum(rho)[1])


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy S_R(rho || sigma) = tr[rho log rho - rho log sigma].

    Raises SupportViolation (the divergent case) when rho carries weight
    outside sigma's support, detected at the EIG_CLAMP eigenvalue threshold.
    """
    r, rw = _checked_spectrum(rho)
    s = check_density_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"state dimensions differ: {r.shape} vs {s.shape}")
    sw, sv = np.linalg.eigh((s + s.conj().T) / 2)
    sw = np.clip(sw, 0.0, 1.0)
    diag = eigenbasis_diagonal(sv, r)
    kernel = sw <= EIG_CLAMP
    if kernel.any():
        leak = float(diag[kernel].sum())
        if leak > EIG_CLAMP:
            raise SupportViolation(
                f"rho carries weight {leak:.3e} outside sigma's support"
            )
    live = ~kernel
    tr_r_log_s = float((diag[live] * np.log(sw[live])).sum())
    return -_entropy_of_spectrum(rw) - tr_r_log_s


def _reference_entropy(r: np.ndarray, reference: ThermalState) -> float:
    """-tr[r log rho_eq] for a checked density matrix r."""
    if r.shape[0] != reference.dim:
        raise DimensionMismatch(
            f"state dimension {r.shape[0]} differs from reference {reference.dim}"
        )
    diag = eigenbasis_diagonal(reference.hamiltonian.spectrum.eigenvectors, r)
    return float(-(diag * reference.log_populations).sum())


def nonequilibrium_entropy(rho, reference: ThermalState) -> float:
    """-tr[rho log rho_eq] against a full-rank thermal reference.

    Evaluated through the reference's exact log-populations, so it stays
    accurate at large beta where the raw populations underflow the support
    threshold. Equals S_R(rho || rho_eq) + S_V(rho) and, by the Gibbs form
    of the reference, beta (tr[rho H] - F).
    """
    return _reference_entropy(check_density_matrix(rho), reference)


def state_entropies(rho, reference: ThermalState) -> tuple[float, float]:
    """(S_V(rho), -tr[rho log rho_eq]) from one validation and one spectrum of rho."""
    r, w = _checked_spectrum(rho)
    return _entropy_of_spectrum(w), _reference_entropy(r, reference)
