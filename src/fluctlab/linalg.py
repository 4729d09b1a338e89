"""Dense complex-matrix kernel used by every other module.

Input coercion and Hermiticity checks. All routines are pure functions of
ndarray inputs and never mutate their arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NotSquare

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
