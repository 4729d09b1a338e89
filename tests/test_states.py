import numpy as np
import pytest

import oracle
from fluctlab import (
    DimensionMismatch,
    FluctLabError,
    Hamiltonian,
    InvalidBeta,
    NotHermitian,
    SupportViolation,
    gibbs_state,
    nonequilibrium_entropy,
    random_hamiltonian,
    relative_entropy,
    state_entropies,
    von_neumann_entropy,
)

# frozen against the brute-force expm oracle (tests/oracle.py)
GIBBS_P0 = 0.7310585786300049
GIBBS_P1 = 0.26894142136999516
GIBBS_Z = 1.3678794411714423
GIBBS_SV = 0.5822031088882179
PURE_VS_GIBBS = 0.3132616875182228

H01 = Hamiltonian.from_matrix(np.diag([0.0, 1.0]))
KET0 = np.diag([1.0, 0.0]).astype(complex)


class TestGibbsState:
    def test_infinite_temperature_limit(self):
        ts = gibbs_state(H01, 1e-9)
        np.testing.assert_allclose(ts.populations, [0.5, 0.5], atol=1e-6)

    def test_qubit_at_beta_one(self):
        ts = gibbs_state(H01, 1.0)
        np.testing.assert_allclose(ts.populations, [GIBBS_P0, GIBBS_P1], atol=1e-14)
        assert abs(ts.partition_function - GIBBS_Z) < 1e-14
        assert abs(ts.free_energy - (-np.log(GIBBS_Z))) < 1e-14

    @pytest.mark.parametrize("beta", [0.3, 1.0, 7.0])
    def test_degenerate_spectrum(self, beta):
        h = Hamiltonian.from_matrix(np.zeros((2, 2)))
        ts = gibbs_state(h, beta)
        np.testing.assert_allclose(ts.state, np.eye(2) / 2.0, atol=1e-14)

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_beta(self, beta):
        with pytest.raises(InvalidBeta):
            gibbs_state(H01, beta)

    def test_state_invariants(self):
        import scipy.linalg

        rng = np.random.default_rng(23)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            h = random_hamiltonian(dim, int(rng.integers(2**63 - 1)))
            beta = float(rng.uniform(0.1, 5.0))
            ts = gibbs_state(h, beta)
            exact = scipy.linalg.expm(-beta * h.matrix)
            exact /= np.trace(exact).real
            assert np.max(np.abs(ts.state - exact)) < 1e-10
            assert abs(ts.free_energy + np.log(ts.partition_function) / beta) < 1e-12
            assert abs(ts.populations.sum() - 1.0) < 1e-12
            assert np.all(np.diff(ts.populations) <= 1e-15)  # non-increasing in energy


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(KET0) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2.0) - np.log(2.0)) < 1e-14

    def test_gibbs_qubit(self):
        value = von_neumann_entropy(np.diag([GIBBS_P0, GIBBS_P1]))
        assert abs(value - GIBBS_SV) < 1e-14

    def test_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            s = von_neumann_entropy(rho)
            assert -1e-10 <= s <= np.log(d) + 1e-10


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = np.diag([GIBBS_P0, GIBBS_P1]).astype(complex)
        assert abs(relative_entropy(rho, rho)) < 1e-12

    def test_pure_versus_gibbs(self):
        sigma = np.diag([GIBBS_P0, GIBBS_P1]).astype(complex)
        assert abs(relative_entropy(KET0, sigma) - PURE_VS_GIBBS) < 1e-14

    def test_orthogonal_supports(self):
        with pytest.raises(SupportViolation):
            relative_entropy(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))

    def test_klein_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            states = []
            for _ in range(2):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                rho = z @ z.conj().T + 0.05 * np.eye(d)
                states.append(rho / np.trace(rho).real)
            value = relative_entropy(states[0], states[1])
            assert value >= -1e-10
            if np.linalg.norm(states[0] - states[1]) > 1e-8:
                assert value > 0.0


class TestNonequilibriumEntropy:
    def test_equilibrium_reduces_to_von_neumann(self):
        ts = gibbs_state(H01, 1.0)
        value = nonequilibrium_entropy(ts.state, ts)
        assert abs(value - von_neumann_entropy(ts.state)) < 1e-12

    def test_pure_state_against_gibbs(self):
        ts = gibbs_state(H01, 1.0)
        assert abs(nonequilibrium_entropy(KET0, ts) - PURE_VS_GIBBS) < 1e-14

    def test_maximally_mixed_reference(self):
        h = Hamiltonian.from_matrix(np.zeros((2, 2)))
        ts = gibbs_state(h, 2.0)
        value = nonequilibrium_entropy(np.eye(2) / 2.0, ts)
        assert abs(value - np.log(2.0)) < 1e-14

    def test_dimension_mismatch(self):
        ts = gibbs_state(H01, 1.0)
        with pytest.raises(DimensionMismatch):
            nonequilibrium_entropy(np.eye(3) / 3.0, ts)

    def test_helmholtz_identity(self):
        # -tr[rho log rho_eq] = beta (tr[rho H] - F) for any state rho
        rng = np.random.default_rng(53)
        for _ in range(40):
            dim = int(rng.integers(2, 7))
            h = random_hamiltonian(dim, int(rng.integers(2**63 - 1)))
            ts = gibbs_state(h, float(rng.uniform(0.1, 5.0)))
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            lhs = nonequilibrium_entropy(rho, ts)
            rhs = ts.beta * (float(np.trace(rho @ h.matrix).real) - ts.free_energy)
            assert abs(lhs - rhs) < 1e-10


class TestStateEntropies:
    def test_equals_the_single_entropies(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            ts = gibbs_state(random_hamiltonian(dim, int(rng.integers(2**63 - 1))), 1.0)
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            expected = (von_neumann_entropy(rho), nonequilibrium_entropy(rho, ts))
            assert state_entropies(rho, ts) == expected

    @pytest.mark.parametrize("rho, error, message", [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), NotHermitian, "Hermiticity"),
        (np.diag([0.5, 0.6]), ValueError, "trace"),
        (np.diag([1.5, -0.5]), ValueError, "negative eigenvalue"),
    ])
    def test_keeps_the_density_checks(self, rho, error, message):
        ts = gibbs_state(H01, 1.0)
        with pytest.raises(error, match=message) as raised:
            state_entropies(rho, ts)
        assert isinstance(raised.value, FluctLabError)
        with pytest.raises(error, match=message) as raised:
            von_neumann_entropy(rho)
        assert isinstance(raised.value, FluctLabError)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            state_entropies(np.eye(3) / 3.0, gibbs_state(H01, 1.0))


def random_density(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", [24, 64])
def test_entropies_match_oracle_at_large_dim(dim):
    rng = np.random.default_rng(dim)
    h = random_hamiltonian(dim, int(rng.integers(2**63 - 1)))
    ts = gibbs_state(h, 1.5)
    rho_eq = oracle.gibbs_matrix(h.matrix, 1.5)
    for rho in (random_density(rng, dim), ts.state):
        rel = oracle.rel_entropy(rho, rho_eq)
        assert abs(relative_entropy(rho, rho_eq) - rel) < 1e-12
        assert abs(nonequilibrium_entropy(rho, ts) - (rel + oracle.vn_entropy(rho))) < 1e-12
