"""Two-point-measurement energy-change distributions.

The forward process measures the initial energy, applies the channel and
measures the final energy; the induced change DeltaU = E'_n - E_m carries a
delta-atom of weight p(n|m) <E_m|rho_eq|E_m> with

    p(n|m) = sum_l |<E'_n| A_l |E_m>|^2.

The canonical backward process reuses the forward Kraus operators
(B_l = A_l), so its transition table is the forward one re-weighted by the
final thermal populations: p(n|m) <E'_n|rho'_eq|E'_n>. Both distributions
therefore come from one table and one binning, live on the same DeltaU axis
and align index-to-index; the backward total mass is gamma, the
non-unitality correction tr[sum_l A_l A_l^dag rho'_eq].

Delta-distributions are represented as finite atom lists. Floating-point
gaps are merged deterministically: sorted values chain into one bin while
consecutive gaps stay within the bin tolerance, and each bin sits at the
mass-weighted mean of its members (which keeps first moments exact).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import KrausChannel, _kraus_block_sum
from .errors import DimensionMismatch, SupportMismatch, ZeroMass
from .states import Hamiltonian, ThermalState

# An atom mass below ABSENT_MASS counts as zero, above PRESENT_MASS as
# definitely there; the gap between the two prevents flapping near round-off.
ABSENT_MASS = 1e-14
PRESENT_MASS = 1e-12

BIN_TOL_BASE = 1e-9


@dataclass(frozen=True)
class EnergyDistribution:
    """Discrete distribution over energy-change atoms, sorted ascending.

    Zero-mass atoms are kept: they record the transition lattice shared by
    the forward and backward constructions, where a mass vanishes on one
    side iff it vanishes on the other.
    """

    delta_u: np.ndarray
    mass: np.ndarray
    total_mass: float
    bin_tolerance: float

    @property
    def n_atoms(self) -> int:
        return int(self.delta_u.shape[0])

    def first_moment(self) -> float:
        return float((self.delta_u * self.mass).sum())


def default_bin_tolerance(h_initial: Hamiltonian, h_final: Hamiltonian,
                          scale: float = 1.0) -> float:
    span = h_initial.spectral_range() + h_final.spectral_range()
    return BIN_TOL_BASE * max(1.0, span) * float(scale)


def _bin_sums(a: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Sum a along axis 0 over the bins that start at heads.

    reduceat starts each bin from its first element, ndarray.sum from 0; a
    zero put ahead of every bin makes the two agree to the last bit.
    """
    padded = np.insert(a, heads, 0.0, axis=0)
    return np.add.reduceat(padded, heads + np.arange(len(heads)), axis=0)


def _bin_atoms(gaps: np.ndarray, weights: np.ndarray, tol: float):
    """Merge delta-atoms whose positions chain within tol of each other.

    weights has one column per distribution; every column shares the bins,
    and each keeps its own mass-weighted bin positions.
    """
    order = np.argsort(gaps, kind="stable")
    g = gaps[order]
    w = weights[order]
    heads = np.concatenate(([0], np.flatnonzero(np.diff(g) > tol) + 1))
    masses = _bin_sums(w, heads)
    moments = _bin_sums(g[:, np.newaxis] * w, heads)
    means = _bin_sums(g, heads) / np.diff(np.append(heads, len(g)))
    with np.errstate(divide="ignore", invalid="ignore"):
        positions = np.where(masses > 0.0, moments / masses, means[:, np.newaxis])
    return positions, masses


def _distribution(positions: np.ndarray, masses: np.ndarray,
                  tol: float) -> EnergyDistribution:
    return EnergyDistribution(
        delta_u=positions,
        mass=masses,
        total_mass=float(masses.sum()),
        bin_tolerance=tol,
    )


def tpm_distributions(c: KrausChannel, init_eq: ThermalState, final_eq: ThermalState,
                      bin_tol_scale: float = 1.0
                      ) -> tuple[EnergyDistribution, EnergyDistribution]:
    """Forward P_F (total mass 1) and the unnormalized backward distribution.

    Both come from one table p(n|m) and one binning of its gaps, so their
    atoms line up index-to-index. The backward atoms are stored on the
    forward DeltaU axis (at E'_n - E_m, not its negative); their total mass
    is gamma.
    """
    if c.dim != init_eq.dim or c.dim != final_eq.dim:
        raise DimensionMismatch(
            f"channel dim {c.dim}, initial state dim {init_eq.dim}, "
            f"final state dim {final_eq.dim} must agree"
        )
    h_i, h_f = init_eq.hamiltonian, final_eq.hamiltonian
    vf_dag = h_f.spectrum.eigenvectors.conj().T
    vi = h_i.spectrum.eigenvectors
    probs = _kraus_block_sum(c.stack, lambda k: np.abs(vf_dag @ k @ vi) ** 2)
    weights = np.stack([
        (probs * init_eq.populations[np.newaxis, :]).ravel(),
        (probs * final_eq.populations[:, np.newaxis]).ravel(),
    ], axis=1)
    gaps = np.subtract.outer(h_f.energies, h_i.energies).ravel()
    tol = default_bin_tolerance(h_i, h_f, bin_tol_scale)
    positions, masses = _bin_atoms(gaps, weights, tol)
    return (_distribution(positions[:, 0], masses[:, 0], tol),
            _distribution(positions[:, 1], masses[:, 1], tol))


def gamma_of(c: KrausChannel, final_eq: ThermalState) -> float:
    """gamma = tr[sum_l A_l A_l^dag rho'_eq]; equals 1 for unital channels."""
    return gamma_of_sum(c.kraus_sum(), final_eq)


def gamma_of_sum(kraus_sum: np.ndarray, final_eq: ThermalState) -> float:
    """gamma_of from a channel's sum_l A_l A_l^dag, already computed."""
    if len(kraus_sum) != final_eq.dim:
        raise DimensionMismatch(
            f"channel dim {len(kraus_sum)} does not match state dim {final_eq.dim}"
        )
    return float(np.trace(kraus_sum @ final_eq.state).real)


def renormalize_backward(p: EnergyDistribution) -> EnergyDistribution:
    """Divide the backward masses by gamma so they sum to one."""
    if p.total_mass <= 0.0:
        raise ZeroMass("cannot renormalize a distribution with no mass")
    mass = p.mass / p.total_mass
    return replace(p, delta_u=p.delta_u.copy(), mass=mass, total_mass=float(mass.sum()))


def exp_average(p: EnergyDistribution, coefficient: float, offset: float = 0.0) -> float:
    """sum over atoms of mass * exp(coefficient * DeltaU + offset).

    With coefficient -beta and offset beta DeltaF on P_F this evaluates the
    exponential average that equals gamma; with +beta and -beta DeltaF on
    the raw backward distribution it equals 1.
    """
    live = p.mass > 0.0
    if not live.any():
        return 0.0
    return float((p.mass[live] * np.exp(coefficient * p.delta_u[live] + offset)).sum())


def _check_aligned(pf: EnergyDistribution, pb: EnergyDistribution) -> None:
    if pf.n_atoms != pb.n_atoms:
        raise SupportMismatch(
            f"forward and backward distributions have {pf.n_atoms} and "
            f"{pb.n_atoms} atoms; they must come from one tpm_distributions call"
        )


def crooks_residual(pf: EnergyDistribution, pb: EnergyDistribution,
                    beta: float, delta_f: float, x: float) -> float:
    """Max over common atoms of |log(P_F/P_B) - beta (DeltaU - DeltaF - X)|.

    pb must be the renormalized backward distribution, aligned atom for
    atom with pf. Atoms absent on both sides are skipped; an atom clearly
    present on one side but absent on the other raises SupportMismatch,
    which signals either a bug or a mass that underflowed the thresholds.
    """
    if abs(pb.total_mass - 1.0) > 1e-6:
        raise ZeroMass(
            f"backward distribution must be renormalized, total mass {pb.total_mass!r}"
        )
    _check_aligned(pf, pb)
    f, b = pf.mass, pb.mass
    absent_f, absent_b = f < ABSENT_MASS, b < ABSENT_MASS
    one_sided = (absent_f != absent_b) & (np.maximum(f, b) > PRESENT_MASS)
    if one_sided.any():
        i = int(np.argmax(one_sided))
        raise SupportMismatch(
            f"atom at DeltaU={float(pf.delta_u[i])!r} has mass "
            f"{max(f[i], b[i]):.3e} on one side only"
        )
    both = ~absent_f & ~absent_b
    if not both.any():
        return 0.0
    residual = np.abs(np.log(f[both] / b[both])
                      - beta * (pf.delta_u[both] - delta_f - x))
    return float(residual.max())


def kl_divergence(pf: EnergyDistribution, pb: EnergyDistribution) -> float:
    """K[P_F || P_B] = sum P_F log(P_F/P_B) over atoms with forward mass.

    Both inputs must be normalized and aligned atom for atom. Forward mass
    where the backward side is absent raises SupportMismatch (the
    divergence would be infinite).
    """
    _check_aligned(pf, pb)
    f, b = pf.mass, pb.mass
    live = f >= ABSENT_MASS
    unsupported = live & (b < ABSENT_MASS)
    missing = unsupported & (f > PRESENT_MASS)
    if missing.any():
        i = int(np.argmax(missing))
        raise SupportMismatch(
            f"forward mass {f[i]:.3e} at DeltaU={float(pf.delta_u[i])!r} "
            f"without backward support"
        )
    use = live & ~unsupported
    terms = f[use] * np.log(f[use] / b[use])
    if terms.size == 0:
        return 0.0
    # a running sum in atom order; a pairwise .sum() moves the last digit
    return float(np.cumsum(terms)[-1])


def write_distribution_csv(p: EnergyDistribution, path) -> None:
    """Two-column CSV (delta_u, mass) at 17 significant digits."""
    rows = "".join(f"{x:.17g},{w:.17g}\n"
                   for x, w in zip(p.delta_u.tolist(), p.mass.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("delta_u,mass\n" + rows)
