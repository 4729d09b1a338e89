"""CPTP channels in Kraus form.

Validation, unitality detection, application to density matrices and a
preset catalog including non-unital cooling channels.

A channel has one of two constructors. From its operators (validate_channel,
which the random and unitary presets and every document's Kraus list go
through), it is checked and kept as one read-only (n_kraus, d, d) array, its
``stack``. The presets whose operators are monomial by construction
(identity, dephasing, depolarizing, amplitude damping, thermal attenuation)
are built from each row's one entry, their ``monomial`` form, in
O(n_kraus * d): sum A^dag A is then diagonal, so the trace-preservation
check reads the entries alone. Their stack is scattered from the entries
only when a dense route first asks for it.

Each Kraus pass of a report (the action on a state, sum A A^dag and the
TPM transition table) has two routes. The entry route runs for a channel
built from its entries when the inputs are in energy bases (a real
diagonal state; two Hamiltonians given diagonal). It sums each row's one entry
in operator order from +0.0: O(n_kraus * d) instead of O(n_kraus * d^3).
Its two diagonal sums keep that order by summing the rows of an
(n_kraus, 2d) float view, which numpy adds row after row because the inner
width is at least 2; over a single column numpy would sum pairwise.
Otherwise the dense route sums the matrix products in order by
_kraus_block_sum, a loop's bits except at d = 1. The entry table adds the
dense terms in the same order, so it keeps their bits. The two diagonal
sums round each complex product as two separate real products, so they can
differ in the last bit from a BLAS kernel that fuses the two (a complex
operator, some d); their off-diagonals, and the imaginary part of
sum A A^dag, are exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
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
from .states import Hamiltonian

TP_TOL = 1e-10
UNITAL_TOL = 1e-10

# most Kraus operators of a random preset: the longest minimal form at dim 64
MAX_KRAUS = 64**2

# Kraus operators per batched matmul: bounds the temporaries at
# KRAUS_BLOCK * d^2 complex entries for channels with hundreds of operators.
KRAUS_BLOCK = 64


def _kraus_block_sum(stack: np.ndarray, term: Callable[[np.ndarray], np.ndarray]):
    """sum_l term(A_l), where term maps a (n, d, d) slice of the stack to its n terms.

    Bit for bit a loop's sum, except at d = 1: numpy sums a (n, 1, 1) block
    over its one column pairwise once n > 8. A 1x1 Kraus list from
    validate_channel sums that way in every dense pass; documents need
    dim >= 2, so only the Python API reaches it.
    """
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


class MonomialForm(NamedTuple):
    """The one entry in each row of each operator: A_l[i, cols[l, i]] = vals[l, i].

    All three are (n_kraus, d) and read-only; an empty row has column 0 and
    value 0. ``weights`` is |vals|^2, which the trace-preservation check and
    the entry transition table add up.
    """

    cols: np.ndarray
    vals: np.ndarray
    weights: np.ndarray


def _diagonal_sum(terms: np.ndarray) -> np.ndarray:
    """diag(sum_l terms[l]) for complex (n_kraus, d) terms, added strictly in
    operator order from +0.0, as _kraus_block_sum does.

    The sum runs over the rows of the (n_kraus, 2d) float view: numpy adds
    the rows of a 2-D reduction in order when the inner width is at least 2,
    which 2d is even at d = 1. Over a single column it would sum pairwise.
    """
    terms[0] += 0.0
    return np.diag(terms.view(float).sum(axis=0).view(complex))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Validated trace-preserving channel rho -> sum_l A_l rho A_l^dag.

    Built by validate_channel from the operators, or by a monomial preset
    from its entries. ``stack`` holds the operators as one read-only
    (n_kraus, dim, dim) array; ``dense`` builds it on first use.
    ``monomial`` is the entries of a channel built from them, which the
    entry route reads, and None for one built from its operators.

    A channel compares and hashes by identity; compare two channels'
    operators with ``np.array_equal(a.stack, b.stack)``.
    """

    n_kraus: int
    dim: int
    dense: Callable[[], np.ndarray] = field(repr=False)
    label: str = ""
    monomial: MonomialForm | None = field(default=None, repr=False)

    @cached_property
    def stack(self) -> np.ndarray:
        stack = self.dense()
        stack.flags.writeable = False
        return stack

    @property
    def kraus_ops(self) -> tuple:
        """The operators A_l as (dim, dim) views into the stack."""
        return tuple(self.stack)

    def apply(self, rho) -> np.ndarray:
        """Channel action on a density matrix (linear, trace preserving).

        Entry route, for a channel built from its entries and a real diagonal
        rho: the diagonal of the terms (a rho_cc) conj(a), a = A_l[i, c] and
        c = cols[l, i], each part rounded as two separate real products.
        Its temporaries are four (n_kraus, dim) float arrays.
        Dense route otherwise: sum_l A_l rho A_l^dag.
        """
        a = as_complex_matrix(rho)
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"state shape {a.shape} does not match channel dimension {self.dim}"
            )
        diag = np.diagonal(a)
        real_diagonal = np.count_nonzero(a) == np.count_nonzero(diag) and not diag.imag.any()
        form = self.monomial if real_diagonal else None
        if form is None:
            return _kraus_block_sum(self.stack, lambda k: k @ a @ _dag(k))
        re, im = form.vals.real, form.vals.imag
        r = diag.real[form.cols]
        br = re * r
        bi = np.multiply(im, r, out=r)  # br + i bi: the entries of A_l rho
        terms = np.empty(r.shape, dtype=complex)
        # real part br re + bi im, imaginary part bi re - br im; the imaginary
        # half holds bi im until it is added to the real part
        t_re, t_im = terms.real, terms.imag
        np.multiply(br, re, out=t_re)
        t_re += np.multiply(bi, im, out=t_im)
        np.multiply(bi, re, out=t_im)
        t_im -= np.multiply(br, im, out=br)
        return _diagonal_sum(terms)

    def kraus_sum(self) -> np.ndarray:
        """sum_l A_l A_l^dag, the operator whose identity-deviation measures non-unitality.

        Entry route, for a channel built from its entries: the diagonal
        sum_l (Re a)^2 + (Im a)^2 over each row's entry a. Dense route otherwise.
        """
        form = self.monomial
        if form is not None:
            # computed from vals, not read from weights: backward_mass_vs_gamma
            # compares this route with the transition table's
            re, im = form.vals.real, form.vals.imag
            terms = np.empty(re.shape, dtype=complex)
            t_re = np.multiply(re, re, out=terms.real)
            t_re += np.multiply(im, im, out=terms.imag)
            terms.imag = 0.0
            return _diagonal_sum(terms)
        return _kraus_block_sum(self.stack, lambda k: k @ _dag(k))

    def transition_table(self, final: Hamiltonian, initial: Hamiltonian) -> np.ndarray:
        """p(n|m) = sum_l |<f_n| A_l |i_m>|^2, f_n and i_m the eigenvectors of the
        final and initial Hamiltonians in ascending energy order.

        Entry route (a channel built from its entries, two Hamiltonians given
        diagonal): a bincount of the weights |vals[l, i]|^2 at (i, cols[l, i]),
        which adds the dense route's terms in operator order from +0.0,
        reordered by the two permutations. Dense route otherwise: |V_f^dag A_l V_i|^2.
        """
        rows, cols = final.permutation, initial.permutation
        form = self.monomial if rows is not None and cols is not None else None
        if form is None:
            vf_dag, vi = final.eigenvectors.conj().T, initial.eigenvectors
            return _kraus_block_sum(self.stack, lambda k: np.abs(vf_dag @ k @ vi) ** 2)
        d = self.dim
        probs = np.bincount((form.cols + d * np.arange(d)).ravel(),
                            weights=form.weights.ravel(), minlength=d * d)
        return probs.reshape(d, d)[rows][:, cols]


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
    # the largest absolute row sum bounds the spectral norm of the Hermitian
    # deviation, so a passing channel moves any state's trace by <= TP_TOL.
    # Entries of a TP channel are at most 1, so only a failing one overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        _check_trace_preserving(float(np.abs(_tp_sum(stack) - np.eye(d)).sum(axis=1).max()))
    return KrausChannel(len(stack), d, lambda: stack, label)


def _monomial_channel(cols: np.ndarray, vals: np.ndarray, label: str) -> KrausChannel:
    """A preset's channel from its entries A_l[i, cols[l, i]] = vals[l, i], each
    (n_kraus, d), which every operator's one nonzero per row and per column
    must hold (zero entries may sit anywhere).

    sum_l A_l^dag A_l is then diagonal, the bincount of |vals|^2 at cols, so
    trace preservation is checked in O(n_kraus * d). The stack is built by
    scattering the entries into zeros when a dense route first asks for it.
    """
    empty = vals == 0
    cols[empty], vals[empty] = 0, 0  # MonomialForm's empty row
    weights = np.abs(vals) ** 2
    cols.flags.writeable = vals.flags.writeable = weights.flags.writeable = False
    n, d = cols.shape
    diag = np.bincount(cols.ravel(), weights=weights.ravel(), minlength=d)
    _check_trace_preserving(float(np.abs(diag - 1.0).max()))
    form = MonomialForm(cols, vals, weights)
    return KrausChannel(n, d, partial(_scattered, form), label, form)


def _scattered(form: MonomialForm) -> np.ndarray:
    """The (n_kraus, d, d) stack that holds a monomial form's entries and zeros elsewhere."""
    n, d = form.cols.shape
    stack = np.zeros((n, d, d), dtype=complex)
    op, row = np.indices((n, d))
    stack[op, row, form.cols] = form.vals
    return stack


def _check_trace_preserving(dev: float) -> None:
    """Refuse a channel whose sum A^dag A deviates from the identity by more
    than TP_TOL in its largest absolute row sum (NaN included)."""
    if not dev <= TP_TOL:
        raise NotTracePreserving(
            f"sum A^dag A deviates from identity by {dev:.3e} (tolerance {TP_TOL:.0e})"
        )


def unitality_of_sum(kraus_sum: np.ndarray) -> UnitalityCheck:
    """Whether a channel is unital, from its sum_l A_l A_l^dag (``kraus_sum()``):
    unital iff that sum is the identity; the deviation is always reported."""
    dev = float(np.max(np.abs(kraus_sum - np.eye(len(kraus_sum)))))
    return UnitalityCheck(unital=dev < UNITAL_TOL, deviation=dev)


# ---------------------------------------------------------------------------
# Preset catalog
# ---------------------------------------------------------------------------

def _haar_isometries(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Isometries of shape (..., rows, cols): one batched reduced QR of complex Gaussians
    drawn from rng. Each R diagonal is phase-fixed, which makes every slice exactly Haar
    (the first cols columns of a Haar unitary on rows dimensions)."""
    rows, cols = shape[-2:]
    if not 0 <= cols <= rows:
        raise ParamOutOfRange(f"an isometry needs 0 <= cols <= rows, got ({rows}, {cols})")
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def haar_isometry(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded Haar-random (rows, cols) isometry, reproducible for a given seed."""
    return _haar_isometries(np.random.default_rng(int(seed)), (rows, cols))


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary: the square case of haar_isometry."""
    return haar_isometry(dim, dim, seed)


def random_channel(dim: int, n_kraus: int, seed: int) -> KrausChannel:
    """Seeded random channel from the blocks of a Haar isometry.

    V = haar_isometry(dim * n_kraus, dim, seed) is cut into the operators
    A_l[i, j] = V[i * n_kraus + l, j]. Trace preservation is automatic,
    since sum_l A_l^dag A_l = V^dag V is the identity. A Haar isometry is
    any dim columns of a Haar unitary, so the channel is distributed as the
    Stinespring blocks <l|U|0> of a Haar unitary on dim * n_kraus
    dimensions; with n_kraus = 1 it is haar_unitary(dim, seed) itself.
    """
    return _random_channel(np.random.default_rng(int(seed)), dim, n_kraus, f"seed={seed}")


def _random_channel(rng: np.random.Generator, dim: int, n_kraus: int, tag: str) -> KrausChannel:
    """random_channel drawn from rng, labelled random(<tag>, n_kraus=...)."""
    if n_kraus < 1:
        raise ParamOutOfRange(f"n_kraus must be >= 1, got {n_kraus}")
    v = _haar_isometries(rng, (dim * n_kraus, dim))
    # validate_channel copies the blocks into one C-ordered stack
    return validate_channel(v.reshape(dim, n_kraus, dim).transpose(1, 0, 2),
                            label=f"random({tag}, n_kraus={n_kraus})")


def unitary_mixture(dim: int, n_ops: int, seed: int) -> KrausChannel:
    """Random mixture of Haar unitaries: sqrt(w_k) U_k, always unital."""
    return _unitary_mixture(np.random.default_rng(int(seed)), dim, n_ops, f"seed={seed}")


def _unitary_mixture(rng: np.random.Generator, dim: int, n_ops: int, tag: str) -> KrausChannel:
    """unitary_mixture drawn from rng, labelled unitary_mixture(<tag>, n_ops=...)."""
    if n_ops < 1:
        raise ParamOutOfRange(f"n_ops must be >= 1, got {n_ops}")
    weights = rng.random(n_ops) + 0.1
    weights /= weights.sum()
    stack = np.sqrt(weights)[:, np.newaxis, np.newaxis] * _haar_isometries(rng, (n_ops, dim, dim))
    return validate_channel(stack, label=f"unitary_mixture({tag}, n_ops={n_ops})")


def _clock_powers(dim: int) -> np.ndarray:
    """The diagonals of the clock powers Z^b, b < dim, of Z = diag(exp(2 pi i k / dim)):
    row b holds exp(2 pi i (k b mod dim) / dim), read from one table of roots at exact
    indices, so no entry depends on a BLAS kernel."""
    k = np.arange(dim)
    return np.exp(2j * np.pi * k / dim)[np.outer(k, k) % dim]


# each preset's parameters as (name, low, high, integer), the one description
# of them: documents may leave out a leading _SEED, and channel.p sweeps a leading _P
_P, _SEED = ("p", 0, 1, False), ("seed", 0, math.inf, True)
_PRESET_PARAMS = {
    "identity": (), "unitary": (_SEED,), "dephasing": (_P,), "depolarizing": (_P,),
    "amplitude_damping": (_P,), "thermal_attenuator": (_P, ("nbar", 0, math.inf, False)),
    "random": (_SEED, ("n_kraus", 1, MAX_KRAUS, True)),
}


def _checked_params(name: str, params: Sequence[float]) -> list:
    """A preset's parameters: real numbers, finite, in range and integral where
    they are seeds or counts; floats, with seeds and counts as exact ints."""
    if name not in _PRESET_PARAMS:
        raise UnknownPreset(f"unknown channel preset '{name}'")
    kinds = _PRESET_PARAMS[name]
    if len(params) != len(kinds):
        raise ParamOutOfRange(f"preset '{name}' takes {len(kinds)} parameter(s), "
                              f"got {len(params)}")
    for v, (label, low, high, integer) in zip(params, kinds):
        try:  # NaN, strings, None and arrays fail here or compare False
            ok = low <= v <= high and (v == int(v) if integer else math.isfinite(v))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            kind = "an integer" if integer else "a number"
            raise ParamOutOfRange(f"preset '{name}': {label} must be {kind} in [{low}, {high}], "
                                  f"got {v!r}")
    return [int(v) if integer else float(v) for v, (*_, integer) in zip(params, kinds)]


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
    random                   (seed, n_kraus)   blocks of a Haar isometry

    Probabilities must lie in [0, 1] and nbar must be >= 0; seeds must be
    integers >= 0 and n_kraus an integer in [1, MAX_KRAUS]. Seeded presets
    are bit-reproducible for a fixed seed on a given build.
    """
    params = _checked_params(name, params)
    if dim < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {dim}")
    if name == "identity":
        return _monomial_channel(np.arange(dim)[np.newaxis], np.ones((1, dim), dtype=complex),
                                 label="identity")

    if name == "unitary":
        (seed,) = params
        return validate_channel(haar_unitary(dim, seed)[np.newaxis], label=f"unitary(seed={seed})")

    if name == "dephasing":
        (p,) = params
        if dim < 2:
            raise ParamOutOfRange("dephasing needs dim >= 2")
        # operator b is a multiple of Z^b, whose entries are its diagonal
        vals = _clock_powers(dim)
        vals[0] *= np.sqrt(1.0 - p)
        vals[1:] *= np.sqrt(p / (dim - 1))
        return _monomial_channel(np.tile(np.arange(dim), (dim, 1)), vals,
                                 label=f"dephasing(p={p})")

    if name == "depolarizing":
        (p,) = params
        # operator a * dim + b is a multiple of X^a Z^b, whose row i holds the
        # phase Z^b[j, j] at j = i - a (mod dim)
        k = np.arange(dim)
        shift_cols = (k - k[:, np.newaxis]) % dim  # [a, i] -> j
        vals = _clock_powers(dim)[:, shift_cols].swapaxes(0, 1).reshape(dim * dim, dim)
        vals *= np.sqrt(p) / dim
        vals[0] = np.sqrt(1.0 - p + p / dim**2)  # operator 0 is a multiple of the identity
        return _monomial_channel(np.repeat(shift_cols, dim, axis=0), vals,
                                 label=f"depolarizing(p={p})")

    if name == "amplitude_damping":
        (p,) = params
        # operator 0 is diag(1, sqrt(1 - p), ...); operator k >= 1 moves level k to 0
        k = np.arange(dim)
        cols = np.zeros((dim, dim), dtype=k.dtype)
        cols[0], cols[1:, 0] = k, k[1:]
        vals = np.zeros((dim, dim), dtype=complex)
        vals[0], vals[1:, 0] = np.sqrt(1.0 - p), np.sqrt(p)
        vals[0, 0] = 1.0
        return _monomial_channel(cols, vals, label=f"amplitude_damping(p={p})")

    if name == "thermal_attenuator":
        p, nbar = params
        if dim != 2:
            raise DimensionMismatch("thermal_attenuator is a qubit preset (dim=2)")
        # excited-level occupation of the attached two-level environment
        q = nbar / (2.0 * nbar + 1.0)
        down = np.sqrt(1.0 - q)
        up = np.sqrt(q)
        # down diag(1, sqrt(1 - p)), down sqrt(p) |0><1|, up diag(sqrt(1 - p), 1), up sqrt(p) |1><0|
        cols = np.array([[0, 1], [1, 0], [0, 1], [0, 0]])
        vals = np.array([[down, down * np.sqrt(1.0 - p)], [down * np.sqrt(p), 0.0],
                         [up * np.sqrt(1.0 - p), up], [0.0, up * np.sqrt(p)]], dtype=complex)
        return _monomial_channel(cols, vals, label=f"thermal_attenuator(p={p}, nbar={nbar})")

    seed, n_kraus = params  # random
    return random_channel(dim, n_kraus, seed)
