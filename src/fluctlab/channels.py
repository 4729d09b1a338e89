"""CPTP channels in Kraus form.

Validation, unitality detection, application to density matrices and a
preset catalog including non-unital cooling channels.

Channels are built and validated as one (n_kraus, d, d) array, kept
read-only as the channel's ``stack``. Every sum over the operators (the
channel action, sum A A^dag, sum A^dag A, the TPM transition table) is
taken KRAUS_BLOCK operators at a time by batched matmuls, with the running
total entering each block as its first term: the operators are added
strictly in order, so the sums are bit for bit those of a loop over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotSquare,
    NotTracePreserving,
    ParamOutOfRange,
    UnknownPreset,
)
from .linalg import as_complex_matrix

TP_TOL = 1e-10
UNITAL_TOL = 1e-10

# Kraus operators per batched matmul: bounds the temporaries at
# KRAUS_BLOCK * d^2 complex entries for channels with hundreds of operators.
KRAUS_BLOCK = 64


def _kraus_block_sum(stack: np.ndarray, term: Callable[[np.ndarray], np.ndarray]):
    """sum_l term(A_l), where term maps a (n, d, d) slice of the stack to its n terms."""
    total = 0.0
    for k in range(0, len(stack), KRAUS_BLOCK):
        t = term(stack[k:k + KRAUS_BLOCK])
        # the running total (0 at first) enters as the first term, so the
        # operators are summed strictly in order, as by a loop over them
        t[0] += total
        total = t.sum(axis=0)
    return total


def _dag(a: np.ndarray) -> np.ndarray:
    """Adjoint of every matrix in a stack."""
    return a.conj().transpose(0, 2, 1)


def _tp_sum(stack: np.ndarray) -> np.ndarray:
    """sum_l A_l^dag A_l, the identity for a trace-preserving channel."""
    return _kraus_block_sum(stack, lambda k: _dag(k) @ k)


@dataclass(frozen=True)
class KrausChannel:
    """Validated trace-preserving channel rho -> sum_l A_l rho A_l^dag.

    Built by validate_channel. ``stack`` holds the operators as one
    read-only (n_kraus, dim, dim) array.
    """

    stack: np.ndarray
    label: str = ""

    @property
    def kraus_ops(self) -> tuple:
        """The operators A_l as (dim, dim) views into the stack."""
        return tuple(self.stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def n_kraus(self) -> int:
        return self.stack.shape[0]

    def apply(self, rho) -> np.ndarray:
        """Channel action on a density matrix (linear, trace preserving)."""
        a = as_complex_matrix(rho)
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"state shape {a.shape} does not match channel dimension {self.dim}"
            )
        return _kraus_block_sum(self.stack, lambda k: k @ a @ _dag(k))

    def kraus_sum(self) -> np.ndarray:
        """sum_l A_l A_l^dag, the operator whose identity-deviation measures non-unitality."""
        return _kraus_block_sum(self.stack, lambda k: k @ _dag(k))


class UnitalityCheck(NamedTuple):
    unital: bool
    deviation: float


def validate_channel(ops, label: str = "") -> KrausChannel:
    """Check a copy of a Kraus list or (n, d, d) array for trace preservation.

    Complete positivity is automatic for any Kraus list; only
    sum_l A_l^dag A_l = identity needs verifying. Minimality is not
    required: lists longer than dim^2 are accepted as-is.
    """
    try:
        stack = np.array(ops, dtype=complex, order="C")
    except ValueError as exc:
        raise DimensionMismatch(f"cannot stack the Kraus operators: {exc}") from exc
    return _channel(stack, label)


def _channel(stack: np.ndarray, label: str) -> KrausChannel:
    """validate_channel without the copy, for a complex stack built here."""
    if stack.ndim == 0 or len(stack) == 0:
        raise DimensionMismatch("a channel needs at least one Kraus operator")
    if stack.ndim != 3:
        raise NotSquare(f"Kraus operators must be matrices, got ndim={stack.ndim - 1}")
    d = stack.shape[1]
    if stack.shape[2] != d:
        raise DimensionMismatch(
            f"Kraus operators must all be {d}x{d}, got shape {stack.shape[1:]}"
        )
    if not np.isfinite(stack).all():
        raise NonFinite("Kraus operators contain non-finite entries")
    stack.flags.writeable = False
    dev = float(np.max(np.abs(_tp_sum(stack) - np.eye(d))))
    if dev > TP_TOL:
        raise NotTracePreserving(
            f"sum A^dag A deviates from identity by {dev:.3e} (tolerance {TP_TOL:.0e})"
        )
    return KrausChannel(stack=stack, label=label)


def is_unital(c: KrausChannel) -> UnitalityCheck:
    """True iff sum_l A_l A_l^dag = identity; the deviation is always reported."""
    return unitality_of_sum(c.kraus_sum())


def unitality_of_sum(kraus_sum: np.ndarray) -> UnitalityCheck:
    """is_unital from a channel's sum_l A_l A_l^dag, already computed."""
    dev = float(np.max(np.abs(kraus_sum - np.eye(len(kraus_sum)))))
    return UnitalityCheck(unital=dev < UNITAL_TOL, deviation=dev)


# ---------------------------------------------------------------------------
# Preset catalog
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a seeded complex Gaussian matrix.

    The R diagonal is phase-fixed, which makes the distribution exactly
    Haar and the draw reproducible for a given seed.
    """
    rng = np.random.default_rng(int(seed))
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def random_channel(dim: int, n_kraus: int, seed: int) -> KrausChannel:
    """Seeded random channel from the <l|U|0> blocks of a Haar unitary.

    Trace preservation is automatic because the blocks are the orthonormal
    columns of a unitary on dim * n_kraus dimensions.
    """
    if n_kraus < 1:
        raise ParamOutOfRange(f"n_kraus must be >= 1, got {n_kraus}")
    u = haar_unitary(dim * n_kraus, seed)
    u4 = u.reshape(dim, n_kraus, dim, n_kraus)
    # validate_channel copies the blocks, so the channel does not keep u alive
    return validate_channel(u4[:, :, :, 0].transpose(1, 0, 2),
                            label=f"random(seed={seed}, n_kraus={n_kraus})")


def unitary_mixture(dim: int, n_ops: int, seed: int) -> KrausChannel:
    """Random mixture of Haar unitaries: sqrt(w_k) U_k, always unital."""
    if n_ops < 1:
        raise ParamOutOfRange(f"n_ops must be >= 1, got {n_ops}")
    rng = np.random.default_rng(int(seed))
    weights = rng.random(n_ops) + 0.1
    weights /= weights.sum()
    sub_seeds = rng.integers(0, 2**63 - 1, size=n_ops)
    ops = [np.sqrt(w) * haar_unitary(dim, s) for w, s in zip(weights, sub_seeds)]
    return validate_channel(ops, label=f"unitary_mixture(seed={seed}, n_ops={n_ops})")


def _check_probability(p: float, name: str) -> float:
    p = float(p)
    if not np.isfinite(p) or not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"{name} must lie in [0, 1], got {p!r}")
    return p


def _weyl_powers(dim: int):
    """Stacks of the shift powers X^a and the clock powers Z^b, a, b < dim.

    One matrix_power per clock power: exp(2 pi i k b / dim) differs in the last bit.
    """
    k = np.arange(dim)
    shifts = np.zeros((dim, dim, dim), dtype=complex)
    shifts[k[:, np.newaxis], (k + k[:, np.newaxis]) % dim, k] = 1.0
    z = np.diag(np.exp(2j * np.pi * k / dim))
    clocks = np.array([np.linalg.matrix_power(z, b) for b in range(dim)])
    return shifts, clocks


def _need_params(params: Sequence[float], n: int, name: str) -> Sequence[float]:
    if len(params) != n:
        raise ParamOutOfRange(
            f"preset '{name}' takes {n} parameter(s), got {len(params)}"
        )
    return params


def preset(name: str, params: Sequence[float] = (), dim: int = 2) -> KrausChannel:
    """Channel catalog.

    identity                 no params
    unitary                  (seed,)           seeded Haar unitary
    dephasing                (p,)              off-diagonal decay, unital
    depolarizing             (p,)              rho -> (1-p) rho + p I/d, unital
    amplitude_damping        (p,)              decay towards the ground state
    thermal_attenuator       (p, nbar)         qubit damping towards a thermal
                                               environment with mean occupation
                                               nbar (nbar=0 is pure damping)
    random                   (seed, n_kraus)   Haar dilation blocks

    Probabilities must lie in [0, 1]; nbar must be >= 0. Seeded presets are
    bit-reproducible for a fixed seed on a given build.
    """
    if dim < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {dim}")
    eye = np.eye(dim, dtype=complex)

    if name == "identity":
        _need_params(params, 0, name)
        return _channel(eye[np.newaxis], label="identity")

    if name == "unitary":
        _need_params(params, 1, name)
        return _channel(haar_unitary(dim, int(params[0]))[np.newaxis],
                        label=f"unitary(seed={int(params[0])})")

    if name == "dephasing":
        (p,) = _need_params(params, 1, name)
        p = _check_probability(p, "p")
        if dim < 2:
            raise ParamOutOfRange("dephasing needs dim >= 2")
        _, ops = _weyl_powers(dim)
        ops[0] *= np.sqrt(1.0 - p)
        ops[1:] *= np.sqrt(p / (dim - 1))
        return _channel(ops, label=f"dephasing(p={p})")

    if name == "depolarizing":
        (p,) = _need_params(params, 1, name)
        p = _check_probability(p, "p")
        x, z = _weyl_powers(dim)
        # operator a * dim + b is X^a Z^b
        ops = (x[:, np.newaxis] @ z).reshape(dim * dim, dim, dim)
        ops *= np.sqrt(p) / dim
        ops[0] = np.sqrt(1.0 - p + p / dim**2) * eye
        return _channel(ops, label=f"depolarizing(p={p})")

    if name == "amplitude_damping":
        (p,) = _need_params(params, 1, name)
        p = _check_probability(p, "p")
        ops = np.zeros((dim, dim, dim), dtype=complex)
        ops[0] = eye
        ops[0, 1:, 1:] *= np.sqrt(1.0 - p)
        k = np.arange(1, dim)
        ops[k, 0, k] = np.sqrt(p)
        return _channel(ops, label=f"amplitude_damping(p={p})")

    if name == "thermal_attenuator":
        p, nbar = _need_params(params, 2, name)
        p = _check_probability(p, "p")
        nbar = float(nbar)
        if not np.isfinite(nbar) or nbar < 0.0:
            raise ParamOutOfRange(f"nbar must be >= 0, got {nbar!r}")
        if dim != 2:
            raise DimensionMismatch("thermal_attenuator is a qubit preset (dim=2)")
        # excited-level occupation of the attached two-level environment
        q = nbar / (2.0 * nbar + 1.0)
        down = np.sqrt(1.0 - q)
        up = np.sqrt(q)
        ops = [
            down * np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex),
            down * np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex),
            up * np.array([[np.sqrt(1.0 - p), 0.0], [0.0, 1.0]], dtype=complex),
            up * np.array([[0.0, 0.0], [np.sqrt(p), 0.0]], dtype=complex),
        ]
        return validate_channel(ops, label=f"thermal_attenuator(p={p}, nbar={nbar})")

    if name == "random":
        seed, n_kraus = _need_params(params, 2, name)
        return random_channel(dim, int(n_kraus), int(seed))

    raise UnknownPreset(f"unknown channel preset '{name}'")
