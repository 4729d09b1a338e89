"""Dense complex-matrix kernel used by every other module.

Input coercion, Hermiticity checks and Hermitian eigendecompositions. All
routines are pure functions of ndarray inputs and never mutate their
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotHermitian, NotSquare

# Kernel accuracy target; downstream identities are checked at 1e-8, so
# 1e-10 here leaves two orders of headroom.
HERMITICITY_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NotSquare(f"expected a matrix, got array of ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains non-finite entries")
    return a


def eigenbasis_diagonal(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Re diag(V^dag M V): <v_k|M|v_k> for each column v_k of v.

    One matrix product and an elementwise reduction, O(d^3) in BLAS rather
    than a three-operand contraction.
    """
    return (v.conj() * (m @ v)).sum(axis=0).real


def hermiticity_deviation(m: np.ndarray) -> float:
    """Max-abs deviation of m from its own adjoint."""
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``. Within a
    degenerate cluster the basis is an internal detail; nothing downstream
    may depend on it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        """V diag(lambda) V^dag."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def unitarity_deviation(self) -> float:
        v = self.eigenvectors
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))


def hermitian_eig(m) -> SpectralDecomposition:
    """Decompose a Hermitian matrix, eigenvalues sorted ascending.

    The input is symmetrized ((m + m^dag)/2) before the solve to suppress
    round-off; a deviation beyond HERMITICITY_TOL raises NotHermitian.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    dev = hermiticity_deviation(a)
    if dev > HERMITICITY_TOL:
        raise NotHermitian(
            f"max |m - m^dag| = {dev:.3e} exceeds tolerance {HERMITICITY_TOL:.0e}"
        )
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)
