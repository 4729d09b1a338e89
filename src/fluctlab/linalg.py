"""Dense complex-matrix kernel used by every other module.

Input coercion, Hermiticity checks and Hermitian eigendecompositions. All
routines are pure functions of ndarray inputs and never mutate their
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite, NotHermitian, NotSquare

# Kernel accuracy target, relative to the largest entry (or 1, if larger);
# downstream identities are checked at 1e-8, so 1e-10 leaves two orders of headroom.
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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``. Within a
    degenerate cluster the basis is an internal detail; nothing downstream
    may depend on it. Only hermitian_eig of a diagonal matrix sets ``permutation``:
    eigenvector k is then standard basis vector permutation[k]. Compares by identity.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    permutation: np.ndarray | None = field(default=None, init=False)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        """V diag(lambda) V^dag."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _symmetrized_eig(m) -> tuple[np.ndarray, SpectralDecomposition]:
    """(h, the decomposition of h) for h = (m + m^dag)/2; see hermitian_eig."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1] or not a.size:
        raise NotSquare(f"expected a non-empty square matrix, got shape {a.shape}")
    dev = hermiticity_deviation(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    if dev > HERMITICITY_TOL * scale:
        raise NotHermitian(f"max |m - m^dag| = {dev:.3e} exceeds tolerance {HERMITICITY_TOL:.0e}"
                           f" * max(1, max |m|) = {HERMITICITY_TOL * scale:.3e}")
    h = (a + a.conj().T) / 2
    e = np.diagonal(h).real
    if np.count_nonzero(h) != np.count_nonzero(e):
        return h, SpectralDecomposition(*np.linalg.eigh(h))
    order = np.argsort(e, kind="stable")
    spec = SpectralDecomposition(e[order], np.eye(len(e), dtype=complex)[:, order])
    object.__setattr__(spec, "permutation", order)  # frozen, and no __init__ argument
    return h, spec


def hermitian_eig(m) -> SpectralDecomposition:
    """Decompose a Hermitian matrix, eigenvalues sorted ascending.

    The input is symmetrized ((m + m^dag)/2), which leaves its diagonal exactly
    real; a deviation beyond HERMITICITY_TOL * max(1, max |m|) raises NotHermitian.
    A matrix with no nonzero off-diagonal entry is read as its diagonal in stable
    sorted order, with no LAPACK call; any other goes through eigh.
    """
    return _symmetrized_eig(m)[1]
