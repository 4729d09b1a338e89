"""Brute-force reference implementations used to freeze expected test values.

Everything here is deliberately naive: scipy.linalg.expm for Gibbs weights,
explicit triple loops over Kraus operators and energy eigenstates, and a
greedy sort-and-merge for delta-atoms. Nothing imports the package under
test, so these routines stay an independent check on it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.stats


def gibbs_matrix(h, beta):
    """exp(-beta H) / Z via scipy's expm."""
    m = scipy.linalg.expm(-beta * np.asarray(h, dtype=complex))
    return m / np.trace(m).real


def partition_function(h, beta):
    return float(np.trace(scipy.linalg.expm(-beta * np.asarray(h, dtype=complex))).real)


def free_energy(h, beta):
    return -np.log(partition_function(h, beta)) / beta


def apply_kraus(kraus, rho):
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for a in kraus:
        out += a @ rho @ a.conj().T
    return out


def merge_atoms(pairs, tol):
    """Greedy chain-merge of (position, weight) pairs into sorted atoms."""
    pairs = sorted(pairs, key=lambda t: t[0])
    atoms = []
    for x, w in pairs:
        if atoms and x - atoms[-1][0][-1] <= tol:
            atoms[-1][0].append(x)
            atoms[-1][1].append(w)
        else:
            atoms.append(([x], [w]))
    out = []
    for xs, ws in atoms:
        total = sum(ws)
        pos = sum(x * w for x, w in zip(xs, ws)) / total if total > 0 else sum(xs) / len(xs)
        out.append((pos, total))
    return out


def forward_atoms(kraus, h_init, h_final, beta, tol=1e-9):
    """Two-point-measurement energy-change atoms of the forward process."""
    ei, vi = np.linalg.eigh(np.asarray(h_init, dtype=complex))
    ef, vf = np.linalg.eigh(np.asarray(h_final, dtype=complex))
    rho = gibbs_matrix(h_init, beta)
    d = len(ei)
    pairs = []
    for m in range(d):
        pop = float((vi[:, m].conj() @ rho @ vi[:, m]).real)
        for n in range(d):
            p = 0.0
            for a in kraus:
                p += abs(vf[:, n].conj() @ a @ vi[:, m]) ** 2
            pairs.append((float(ef[n] - ei[m]), p * pop))
    return merge_atoms(pairs, tol)


def backward_atoms(kraus, h_init, h_final, beta, tol=1e-9):
    """Unnormalized backward atoms for the adjoint process (B_l = A_l)."""
    ei, vi = np.linalg.eigh(np.asarray(h_init, dtype=complex))
    ef, vf = np.linalg.eigh(np.asarray(h_final, dtype=complex))
    rho_f = gibbs_matrix(h_final, beta)
    d = len(ei)
    pairs = []
    for n in range(d):
        pop = float((vf[:, n].conj() @ rho_f @ vf[:, n]).real)
        for m in range(d):
            p = 0.0
            for b in kraus:
                p += abs(vf[:, n].conj() @ b @ vi[:, m]) ** 2
            pairs.append((float(ef[n] - ei[m]), p * pop))
    return merge_atoms(pairs, tol)


def gamma_value(kraus, h_final, beta):
    s = np.zeros_like(np.asarray(kraus[0], dtype=complex))
    for a in kraus:
        s += a @ a.conj().T
    return float(np.trace(s @ gibbs_matrix(h_final, beta)).real)


def internal_energy_change(kraus, h_init, h_final, beta):
    rho = gibbs_matrix(h_init, beta)
    rho_out = apply_kraus(kraus, rho)
    return float(np.trace(np.asarray(h_final, dtype=complex) @ rho_out).real
                 - np.trace(np.asarray(h_init, dtype=complex) @ rho).real)


def vn_entropy(rho):
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = np.clip(w.real, 0.0, 1.0)
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum())


def rel_entropy(rho, sigma):
    """tr[rho log rho] - tr[rho log sigma], assuming sigma full rank."""
    rho = np.asarray(rho, dtype=complex)
    sw, sv = np.linalg.eigh(np.asarray(sigma, dtype=complex))
    cross = 0.0
    for k in range(len(sw)):
        cross += np.log(sw[k].real) * float((sv[:, k].conj() @ rho @ sv[:, k]).real)
    return float(-vn_entropy(rho) - cross)


def kl_from_atoms(pf, pb_raw, tol=1e-9):
    """KL of forward atoms against renormalized backward atoms."""
    gamma = sum(w for _, w in pb_raw)
    total = 0.0
    for x, w in pf:
        if w <= 1e-14:
            continue
        match = [wb for xb, wb in pb_raw if abs(xb - x) <= tol]
        if not match:
            raise ValueError(f"no backward atom at {x}")
        total += w * np.log(w / (match[0] / gamma))
    return float(total)


def atom_moment(atoms):
    return float(sum(x * w for x, w in atoms))


def exp_average(atoms, coefficient, offset):
    return float(sum(w * np.exp(coefficient * x + offset) for x, w in atoms if w > 0))


def haar_unitary(n, seed):
    """Haar-random n x n unitary from scipy's own sampler."""
    return scipy.stats.unitary_group.rvs(n, random_state=seed)


def random_density_matrix(n, seed):
    """Mixed state G G^dag / tr(G G^dag) for a complex Gaussian G (full rank)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def stinespring_output(u, rho, ancilla):
    """tr_E[U (rho x ancilla) U^dag]: the joint state evolved in full, then the
    ancilla traced out entry by entry. The system is the first tensor factor."""
    d, e = len(rho), len(ancilla)
    joint = u @ np.kron(rho, ancilla) @ u.conj().T
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for a in range(e):
                out[i, j] += joint[i * e + a, j * e + a]
    return out


def stinespring_energetics(u, ancilla, h_init, h_final, beta):
    """(DeltaU, DeltaS_V) of the Gibbs state of h_init sent through the dilation."""
    rho = gibbs_matrix(h_init, beta)
    rho_out = stinespring_output(u, rho, ancilla)
    du = (np.trace(np.asarray(h_final, dtype=complex) @ rho_out).real
          - np.trace(np.asarray(h_init, dtype=complex) @ rho).real)
    return float(du), vn_entropy(rho_out) - vn_entropy(rho)


# ---------------------------------------------------------------------------
# Named scenarios whose numbers get frozen into the tests
# ---------------------------------------------------------------------------

AMP_DAMP_FULL = [np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
                 np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
H01 = np.diag([0.0, 1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def golden_amplitude_damping(beta=1.0):
    """Full set of report quantities for the cooling witness scenario."""
    kraus, h = AMP_DAMP_FULL, H01
    pf = forward_atoms(kraus, h, h, beta)
    pb = backward_atoms(kraus, h, h, beta)
    gamma = gamma_value(kraus, h, beta)
    x = -np.log(gamma) / beta
    kl = kl_from_atoms(pf, pb)
    du = internal_energy_change(kraus, h, h, beta)
    df = free_energy(h, beta) - free_energy(h, beta)
    rho = gibbs_matrix(h, beta)
    rho_out = apply_kraus(kraus, rho)
    s_r_final = rel_entropy(rho_out, gibbs_matrix(h, beta))
    return {
        "pf": pf,
        "pb": pb,
        "gamma": gamma,
        "x": float(x),
        "kl": kl,
        "delta_u": du,
        "delta_u_moment": atom_moment(pf),
        "delta_f": df,
        "excess_energy": kl / beta + x,
        "delta_s": kl + beta * x,
        "delta_s_v": vn_entropy(rho_out) - vn_entropy(rho),
        "s_r_final": s_r_final,
    }


if __name__ == "__main__":
    np.set_printoptions(precision=17)
    beta = 1.0

    print("== gibbs diag(0,1), beta=1 ==")
    rho = gibbs_matrix(H01, beta)
    print("pops:", np.diag(rho).real)
    print("Z:", partition_function(H01, beta))
    print("F:", free_energy(H01, beta))
    print("S_V(gibbs):", vn_entropy(rho))
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    print("S_R(|0><0| || gibbs):", rel_entropy(ket0, rho))

    print("\n== full amplitude damping golden ==")
    g = golden_amplitude_damping()
    for k, v in g.items():
        if k in ("pf", "pb"):
            print(f"{k}: {[(format(x, '.17g'), format(w, '.17g')) for x, w in v]}")
        else:
            print(f"{k}: {format(v, '.17g')}")

    print("\n== unitary flip (sigma_x) ==")
    flip = [SIGMA_X]
    pf = forward_atoms(flip, H01, H01, beta)
    pb = backward_atoms(flip, H01, H01, beta)
    rho_out = apply_kraus(flip, gibbs_matrix(H01, beta))
    print("pf:", [(format(x, '.17g'), format(w, '.17g')) for x, w in pf])
    print("delta_u:", format(internal_energy_change(flip, H01, H01, beta), ".17g"))
    print("kl:", format(kl_from_atoms(pf, pb), ".17g"))
    print("S_R(rho'||gibbs'):", format(rel_entropy(rho_out, gibbs_matrix(H01, beta)), ".17g"))

    print("\n== depolarizing p=1 (uniform final measurement) ==")
    # oracle for the preset: channel rho -> I/2 has p(n|m) = 1/2 for all n,m
    p0, p1 = np.diag(gibbs_matrix(H01, beta)).real
    print("atoms: (-1, p1/2), (0, 1/2), (+1, p0/2) =",
          format(p1 / 2, ".17g"), format(0.5, ".17g"), format(p0 / 2, ".17g"))

    print("\n== spot identities on the golden scenario ==")
    print("jarzynski_forward:", format(exp_average(g["pf"], -beta, beta * g["delta_f"]), ".17g"))
    print("jarzynski_backward:", format(exp_average(g["pb"], beta, -beta * g["delta_f"]), ".17g"))
    print("eq11 residual:", abs(g["delta_u"] - g["kl"] / beta - g["x"] - g["delta_f"]))
    print("eq17 residual:", abs(g["delta_s_v"] - (g["kl"] + beta * g["x"] - g["s_r_final"])))
