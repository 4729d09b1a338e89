"""Hamiltonians and their eigenbases, thermal (Gibbs) states, free energies and entropies.

Natural logarithms throughout, so every entropy comes out in nats. For a
Hamiltonian H at inverse temperature beta the equilibrium state is
rho_eq = exp(-beta H)/Z with Z = tr exp(-beta H) and F = -log(Z)/beta.
The non-equilibrium entropy of a state rho against a thermal reference is

    S(rho) = -tr[rho log rho_eq] = S_R(rho || rho_eq) + S_V(rho),

which satisfies the Helmholtz-like identity tr[rho H] = F + S/beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, InvalidBeta, NonFinite, NotDensityMatrix, NotHermitian,
                     NotSquare)
from .linalg import HERMITICITY_TOL, as_complex_matrix, eigenbasis_diagonal, hermiticity_deviation

# Eigenvalues below this are treated as exact zeros in S_V (0 log 0 = 0); it
# separates genuine rank deficiency from round-off.
EIG_CLAMP = 1e-12

DENSITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian energy operator with its eigendecomposition; compares by identity.

    ``energies`` ascend, and column k of ``eigenvectors`` belongs to
    ``energies[k]``. Within a degenerate cluster the basis is an internal
    detail; nothing downstream may depend on it. Only from_matrix of a diagonal
    matrix sets ``permutation``: eigenvector k is then standard basis vector
    permutation[k].
    """

    matrix: np.ndarray
    energies: np.ndarray
    eigenvectors: np.ndarray
    permutation: np.ndarray | None = field(default=None, init=False)

    @classmethod
    def from_matrix(cls, m) -> "Hamiltonian":
        """h = (m + m^dag)/2 and its decomposition.

        Symmetrizing leaves the diagonal exactly real. A deviation beyond
        HERMITICITY_TOL * max(1, max |m|) raises NotHermitian, and an entry
        beyond half the float range, where m + m^dag or m - m^dag would
        overflow, raises NonFinite. A matrix with no nonzero off-diagonal entry
        is read as its diagonal in stable sorted order, with no LAPACK call;
        any other goes through eigh.
        """
        a = as_complex_matrix(m)
        if a.shape[0] != a.shape[1] or not a.size:
            raise NotSquare(f"expected a non-empty square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.max(np.abs(a))))
        if scale > np.finfo(float).max / 2:
            raise NonFinite(f"max |m| = {scale:.3e} exceeds half the float range:"
                            " m +/- m^dag would overflow")
        dev = hermiticity_deviation(a)
        if dev > HERMITICITY_TOL * scale:
            raise NotHermitian(f"max |m - m^dag| = {dev:.3e} exceeds tolerance"
                               f" {HERMITICITY_TOL:.0e} * max(1, max |m|)"
                               f" = {HERMITICITY_TOL * scale:.3e}")
        h = (a + a.conj().T) / 2
        e = np.diagonal(h).real
        if np.count_nonzero(h) != np.count_nonzero(e):
            return cls(h, *np.linalg.eigh(h))
        order = np.argsort(e, kind="stable")
        ham = cls(h, e[order], np.eye(len(e), dtype=complex)[:, order])
        object.__setattr__(ham, "permutation", order)  # frozen, and no __init__ argument
        return ham

    @classmethod
    def from_spectrum(cls, energies: np.ndarray, eigenvectors: np.ndarray) -> "Hamiltonian":
        """The operator V diag(E) V^dag of given ascending energies E and eigenvectors V."""
        return cls((eigenvectors * energies) @ eigenvectors.conj().T, energies, eigenvectors)

    @property
    def dim(self) -> int:
        return len(self.energies)

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
    v = h.eigenvectors
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
    diag = eigenbasis_diagonal(reference.hamiltonian.eigenvectors, r)
    return float(-(w[nz] * np.log(w[nz])).sum()), float(-(diag * reference.log_populations).sum())
