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

Delta-distributions are finite atom lists of log masses. An entry
p(n|m) = 0 is -inf on both sides and every other entry's forward/backward
log ratio is beta (DeltaU - DeltaF), so support comes from the table: an
atom has mass on one side iff on the other, at any beta > 0. Floating-point
gaps are merged deterministically: sorted values chain into one bin while
consecutive gaps stay within the bin tolerance, and each bin sits at the
mass-weighted mean of its members (which keeps first moments exact). The
CLI writes them out as pf.csv and pb.csv.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import KrausChannel
from .errors import DimensionMismatch, SupportMismatch, ZeroMass
from .states import Hamiltonian, ThermalState

BIN_TOL_BASE = 1e-9


@dataclass(frozen=True, eq=False)
class EnergyDistribution:
    """Discrete distribution over energy-change atoms, sorted ascending; compares by identity.

    ``log_mass`` is the natural log of each atom's mass. Atoms at -inf are
    kept: they record the transition lattice shared by the forward and
    backward constructions, where a mass vanishes on one side iff on the other.
    """

    delta_u: np.ndarray
    log_mass: np.ndarray

    @cached_property
    def mass(self) -> np.ndarray:
        """exp(log_mass), computed once and read-only."""
        mass = np.exp(self.log_mass)
        mass.flags.writeable = False
        return mass

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    @property
    def n_atoms(self) -> int:
        return int(self.delta_u.shape[0])

    def first_moment(self) -> float:
        return float((self.delta_u * self.mass).sum())


def default_bin_tolerance(h_initial: Hamiltonian, h_final: Hamiltonian,
                          scale: float = 1.0) -> float:
    span = h_initial.spectral_range() + h_final.spectral_range()
    return BIN_TOL_BASE * max(1.0, span) * float(scale)


def _bin_atoms(gaps: np.ndarray, log_weights: np.ndarray, tol: float):
    """Merge delta-atoms whose positions chain within tol of each other.

    log_weights has one column per distribution; every column shares the
    bins, and each keeps its own mass-weighted bin positions. Each bin is
    summed relative to its largest weight, so no weight underflows.
    """
    order = np.argsort(gaps, kind="stable")
    g = gaps[order]
    lw = log_weights[order]
    # bin edges: 0, each index after a gap wider than tol, and len(g)
    (breaks,) = ((g[1:] - g[:-1]) > tol).nonzero()
    edges = np.empty(len(breaks) + 2, dtype=breaks.dtype)
    edges[0], edges[1:-1], edges[-1] = 0, breaks + 1, len(g)
    heads, sizes = edges[:-1], edges[1:] - edges[:-1]
    top = np.maximum.reduceat(lw, heads, axis=0)
    top[top == -np.inf] = 0.0  # empty bins: every member is exp(-inf) = 0
    w = np.exp(lw - np.repeat(top, sizes, axis=0))
    masses = np.add.reduceat(w, heads, axis=0)
    moments = np.add.reduceat(g[:, np.newaxis] * w, heads, axis=0)
    means = np.add.reduceat(g, heads) / sizes
    with np.errstate(divide="ignore", invalid="ignore"):
        positions = np.where(masses > 0.0, moments / masses, means[:, np.newaxis])
        return positions, top + np.log(masses)


def tpm_distributions(c: KrausChannel, init_eq: ThermalState, final_eq: ThermalState,
                      bin_tol_scale: float = 1.0
                      ) -> tuple[EnergyDistribution, EnergyDistribution]:
    """Forward P_F (total mass 1) and the unnormalized backward distribution.

    Both come from one table p(n|m) and one binning of its gaps, so their
    atoms line up index-to-index and carry mass on exactly the same atoms.
    The backward atoms are stored on the forward DeltaU axis (at
    E'_n - E_m, not its negative); their total mass is gamma.
    The table comes from KrausChannel.transition_table.
    """
    if c.dim != init_eq.dim or c.dim != final_eq.dim:
        raise DimensionMismatch(
            f"channel dim {c.dim}, initial state dim {init_eq.dim}, "
            f"final state dim {final_eq.dim} must agree"
        )
    h_i, h_f = init_eq.hamiltonian, final_eq.hamiltonian
    probs = c.transition_table(h_f, h_i)
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    d = c.dim
    log_weights = np.empty((d, d, 2))
    np.add(log_probs, init_eq.log_populations[np.newaxis, :], out=log_weights[..., 0])
    np.add(log_probs, final_eq.log_populations[:, np.newaxis], out=log_weights[..., 1])
    gaps = np.subtract.outer(h_f.energies, h_i.energies).ravel()
    tol = default_bin_tolerance(h_i, h_f, bin_tol_scale)
    positions, log_masses = _bin_atoms(gaps, log_weights.reshape(d * d, 2), tol)
    return (EnergyDistribution(positions[:, 0], log_masses[:, 0]),
            EnergyDistribution(positions[:, 1], log_masses[:, 1]))


def gamma_of_sum(kraus_sum: np.ndarray, final_eq: ThermalState) -> float:
    """gamma = tr[sum_l A_l A_l^dag rho'_eq] from a channel's ``kraus_sum()``;
    equals 1 for unital channels."""
    if len(kraus_sum) != final_eq.dim:
        raise DimensionMismatch(
            f"channel dim {len(kraus_sum)} does not match state dim {final_eq.dim}"
        )
    return float((kraus_sum @ final_eq.state).trace().real)


def _log_total(log_mass: np.ndarray) -> float:
    """log of sum exp(log_mass), summed relative to the largest term."""
    top = float(log_mass.max(initial=-np.inf))
    return top if top == -np.inf else top + float(np.log(np.exp(log_mass - top).sum()))


def renormalize_backward(p: EnergyDistribution) -> EnergyDistribution:
    """Divide the backward masses by gamma so they sum to one."""
    log_total = _log_total(p.log_mass)
    if log_total == -np.inf:
        raise ZeroMass("cannot renormalize a distribution with no mass")
    return EnergyDistribution(p.delta_u.copy(), p.log_mass - log_total)


def exp_average(p: EnergyDistribution, coefficient: float, offset: float = 0.0) -> float:
    """sum over atoms of mass * exp(coefficient * DeltaU + offset).

    With coefficient -beta and offset beta DeltaF on P_F this evaluates the
    exponential average that equals gamma; with +beta and -beta DeltaF on
    the raw backward distribution it equals 1. Evaluated as a log-sum-exp,
    so no term overflows or underflows on its way to the sum.
    """
    return float(np.exp(_log_total(p.log_mass + coefficient * p.delta_u + offset)))


def _common_support(pf: EnergyDistribution, pb: EnergyDistribution) -> np.ndarray:
    """Mask of the atoms with mass; SupportMismatch unless both sides agree on it.

    Distributions from one tpm_distributions call always agree exactly.
    """
    if pf.n_atoms != pb.n_atoms:
        raise SupportMismatch(
            f"forward and backward distributions have {pf.n_atoms} and "
            f"{pb.n_atoms} atoms; they must come from one tpm_distributions call"
        )
    live_f, live_b = pf.log_mass > -np.inf, pb.log_mass > -np.inf
    one_sided = live_f != live_b
    if one_sided.any():
        i = int(np.argmax(one_sided))
        side, other = ("forward", "backward") if live_f[i] else ("backward", "forward")
        raise SupportMismatch(f"atom at DeltaU={float(pf.delta_u[i])!r} has {side} "
                              f"mass without {other} support")
    return live_f


def crooks_residual(pf: EnergyDistribution, pb: EnergyDistribution,
                    beta: float, delta_f: float, x: float) -> float:
    """Max over live atoms of |log P_F - log P_B - beta (DeltaU - DeltaF - X)|.

    pb must be the renormalized backward distribution, aligned atom for
    atom with pf. Atoms without mass on either side are skipped; an atom
    with mass on one side only raises SupportMismatch. Both are read from
    the log masses exactly, so the residual holds at any beta > 0.
    """
    if abs(pb.total_mass - 1.0) > 1e-6:
        raise ZeroMass(
            f"backward distribution must be renormalized, total mass {pb.total_mass!r}"
        )
    live = _common_support(pf, pb)
    residual = np.abs(pf.log_mass[live] - pb.log_mass[live]
                      - beta * (pf.delta_u[live] - delta_f - x))
    return float(residual.max(initial=0.0))


def kl_divergence(pf: EnergyDistribution, pb: EnergyDistribution) -> float:
    """K[P_F || P_B] = sum P_F (log P_F - log P_B) over the live atoms.

    Both inputs must be normalized and aligned atom for atom. An atom with
    mass on one side only raises SupportMismatch (with forward mass alone
    the divergence would be infinite).
    """
    live = _common_support(pf, pb)
    lf, lb = pf.log_mass[live], pb.log_mass[live]
    terms = np.exp(lf) * (lf - lb)
    # a running sum in atom order; a pairwise .sum() moves the last digit
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0

