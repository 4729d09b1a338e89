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

from .errors import DimensionMismatch, InvalidBeta, NotDensityMatrix, NotHermitian
from .linalg import (
    SpectralDecomposition,
    _symmetrized_eig,
    as_complex_matrix,
    eigenbasis_diagonal,
    hermiticity_deviation,
)

# Eigenvalues below this are treated as exact zeros in S_V (0 log 0 = 0); it
# separates genuine rank deficiency from round-off.
EIG_CLAMP = 1e-12

DENSITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian energy operator with its spectral decomposition cached; compares by identity."""

    matrix: np.ndarray
    spectrum: SpectralDecomposition

    @classmethod
    def from_matrix(cls, m) -> "Hamiltonian":
        """(m + m^dag)/2 and its decomposition, checked and routed as by hermitian_eig."""
        return cls(*_symmetrized_eig(m))

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


def _checked_spectrum(rho) -> tuple[np.ndarray, np.ndarray]:
    """A density matrix checked for Hermiticity, unit trace and positivity (to
    DENSITY_TOL), with the ascending eigenvalues its positivity check found."""
    a = as_complex_matrix(rho)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"density matrix must be square, got {a.shape}")
    dev = hermiticity_deviation(a)
    if dev > DENSITY_TOL:
        raise NotHermitian(f"density matrix deviation from Hermiticity {dev:.3e}")
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > DENSITY_TOL:
        raise NotDensityMatrix(f"density matrix trace {tr!r} differs from 1")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if w[0] < -DENSITY_TOL:
        raise NotDensityMatrix(f"density matrix has negative eigenvalue {w[0]:.3e}")
    return a, w


@dataclass(frozen=True, eq=False)
class ThermalState:
    """Gibbs state of a Hamiltonian at inverse temperature beta.

    ``populations`` are the eigenbasis weights exp(-beta E_m)/Z in ascending
    energy order; ``log_populations`` carries their exact logarithms
    -beta(E_m - E_min) - log(sum_k exp(-beta(E_k - E_min))), which stay
    finite even where the populations themselves underflow. Compares by identity.
    """

    hamiltonian: Hamiltonian
    beta: float
    state: np.ndarray
    populations: np.ndarray
    log_populations: np.ndarray
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
        free_energy=f,
    )


def state_entropies(rho, reference: ThermalState) -> tuple[float, float]:
    """(S_V(rho), -tr[rho log rho_eq]) from one validation and one spectrum of rho.

    S_V = -sum w log w over the eigenvalues w of rho above EIG_CLAMP. The second
    entropy is read through the reference's exact log-populations, so it stays
    accurate at large beta where the raw populations underflow. It equals
    S_R(rho || rho_eq) + S_V(rho) and, by the Gibbs form of the reference,
    beta (tr[rho H] - F).
    """
    r, w = _checked_spectrum(rho)
    if r.shape[0] != reference.dim:
        raise DimensionMismatch(
            f"state dimension {r.shape[0]} differs from reference {reference.dim}"
        )
    w = np.clip(w, 0.0, 1.0)
    nz = w > EIG_CLAMP
    diag = eigenbasis_diagonal(reference.hamiltonian.spectrum.eigenvectors, r)
    return float(-(w[nz] * np.log(w[nz])).sum()), float(-(diag * reference.log_populations).sum())
