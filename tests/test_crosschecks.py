"""Cross-checks that need no binning and no particular Kraus set.

The paper's expressions depend only on the state and the dynamical map.
Two routes test that without the ten report residuals, which all read the
same binned atoms:

- the characteristic function G_F(u) = tr[e^{iuH_f} Phi(e^{-iuH_i} rho_eq)]
  (Talkner, Lutz & Hanggi, PRE 75, 050102, 2007) uses the channel action and
  never the transition table, and must equal sum P_F e^{iu DeltaU} over the
  atoms, which tests every moment of the binned positions;
- a unitary remix A'_k = sum_l U_kl A_l of the Kraus operators, with zero
  operators padded in, is the same channel and must leave the report as it is;
- an explicit ancilla of any dimension in any mixed state, evolved jointly
  with the system by the oracle, must give the report's DeltaU and DeltaS_V
  through the Kraus operators sqrt(s_k) <j|U|phi_k> of the same dilation.

Each runs on Haar eigenbases and on energy bases (diagonal Hamiltonians),
where monomial presets take the entry route of every Kraus pass and other
channels multiply by 0/1 eigenbases and a diagonal Gibbs state.
"""

import ast
import pathlib

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab import (
    Hamiltonian,
    Scenario,
    build_report,
    gibbs_state,
    haar_unitary,
    preset,
    random_hamiltonian,
    random_scenario,
    scenario_artifacts,
    validate_channel,
)
from fluctlab.thermo import REPORT_FIELDS

U_GRID = (0.3, 1.0, 3.0, 10.0)


def in_energy_basis(scenario: Scenario, seed: int) -> Scenario:
    """The scenario with both Hamiltonians diagonal, their spectra shuffled."""
    rng = np.random.default_rng(seed)
    h_i, h_f = (Hamiltonian.from_matrix(np.diag(rng.permutation(h.energies)))
                for h in (scenario.h_initial, scenario.h_final))
    return Scenario(name=scenario.name + "-energy", dim=scenario.dim, beta=scenario.beta,
                    h_initial=h_i, h_final=h_f, channel=scenario.channel)


def ladder_scenario(beta: float) -> Scenario:
    h = Hamiltonian.from_matrix(np.diag(np.linspace(0.0, 1.0, 24)))
    return Scenario(name=f"ladder-{beta}", dim=24, beta=beta, h_initial=h, h_final=h,
                    channel=preset("depolarizing", [0.3], 24))


def evolution(h: Hamiltonian, t: float) -> np.ndarray:
    """e^{itH} from the cached eigendecomposition."""
    v = h.eigenvectors
    return (v * np.exp(1j * t * h.energies)) @ v.conj().T


def scenarios() -> list:
    haar = [random_scenario(seed, dim_range=(2, 8), n_kraus_range=(1, 70),
                            unital_only=seed % 3 == 0) for seed in range(12)]
    energy = [in_energy_basis(s, seed) for seed, s in enumerate(haar)]
    return haar + energy + [ladder_scenario(0.2), ladder_scenario(5.0)]


@pytest.mark.parametrize("scenario", scenarios(), ids=lambda s: s.name)
def test_characteristic_function_matches_the_atoms(scenario):
    rho_eq = gibbs_state(scenario.h_initial, scenario.beta).state
    pf = scenario_artifacts(scenario).forward
    diagonal = scenario.h_initial.permutation is not None
    for u in U_GRID:
        start = evolution(scenario.h_initial, -u) @ rho_eq
        if diagonal:  # a complex diagonal: apply keeps the matrix product
            assert np.count_nonzero(start) == np.count_nonzero(np.diagonal(start))
        trace = np.trace(evolution(scenario.h_final, u) @ scenario.channel.apply(start))
        atoms = np.sum(pf.mass * np.exp(1j * u * pf.delta_u))
        assert abs(trace - atoms) <= 1e-12, (u, trace, atoms)


def remixed(scenario: Scenario, n_zero: int, seed: int) -> Scenario:
    """The same channel as the Kraus set A'_k = sum_l U_kl A_l over the operators
    and n_zero zero operators, for a Haar unitary U."""
    stack = scenario.channel.stack
    padded = np.concatenate([stack, np.zeros((n_zero, *stack.shape[1:]), dtype=complex)])
    mix = haar_unitary(len(padded), seed)
    channel = validate_channel(np.einsum("kl,lij->kij", mix, padded))
    return Scenario(name=scenario.name, dim=scenario.dim, beta=scenario.beta,
                    h_initial=scenario.h_initial, h_final=scenario.h_final, channel=channel)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_kraus=st.integers(1, 6),
    n_zero=st.integers(0, 3),
    energy_basis=st.booleans(),
    unital=st.booleans(),
)
def test_kraus_freedom_leaves_the_report_unchanged(seed, n_kraus, n_zero, energy_basis,
                                                   unital):
    scenario = random_scenario(seed, dim_range=(2, 6), n_kraus_range=(n_kraus, n_kraus),
                               unital_only=unital)
    if energy_basis:
        scenario = in_energy_basis(scenario, seed)
    before = scenario_artifacts(scenario).report
    after = scenario_artifacts(remixed(scenario, n_zero, seed)).report
    for name in REPORT_FIELDS:
        assert abs(getattr(after, name) - getattr(before, name)) <= 1e-12, name
    for name, value in before.residuals.items():
        assert abs(after.residuals[name] - value) <= 1e-12, name


def dilation_kraus(u: np.ndarray, ancilla: np.ndarray, dim: int) -> list:
    """A_jk = sqrt(s_k) <j|U|phi_k> for the ancilla state sum_k s_k |phi_k><phi_k|,
    with U on system x ancilla (system first)."""
    e = len(ancilla)
    s, phi = np.linalg.eigh(ancilla)
    blocks = u.reshape(dim, e, dim, e)
    return [np.sqrt(max(s[k], 0.0)) * blocks[:, j] @ phi[:, k] for j in range(e) for k in range(e)]


@pytest.mark.parametrize("beta", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("dim,ancilla_dim", [(2, 1), (2, 2), (3, 3), (2, 4), (4, 2), (5, 4)])
def test_explicit_ancilla_matches_the_oracle(dim, ancilla_dim, beta):
    seed = 100 * dim + 10 * ancilla_dim + int(beta * 10)
    u = oracle.haar_unitary(dim * ancilla_dim, seed)
    ancilla = oracle.random_density_matrix(ancilla_dim, seed)
    # one Haar eigenbasis and one energy basis: the dense table, exact on the 0/1 side
    h_i = random_hamiltonian(dim, seed)
    h_f = Hamiltonian.from_matrix(np.diag(np.random.default_rng(seed).random(dim)))
    report = build_report(Scenario(name="dilation", dim=dim, beta=beta, h_initial=h_i,
                                   h_final=h_f,
                                   channel=validate_channel(dilation_kraus(u, ancilla, dim))))
    du, dsv = oracle.stinespring_energetics(u, ancilla, h_i.matrix, h_f.matrix, beta)
    assert abs(report.delta_u - du) <= 1e-12
    assert abs(report.delta_s_v - dsv) <= 1e-12


def test_oracle_never_imports_the_package():
    # the oracle is an independent reference only while no fluctlab code runs in it
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            modules = [node.module]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] != "fluctlab", f"imports {module} at line {node.lineno}"
