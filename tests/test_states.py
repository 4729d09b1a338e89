import numpy as np
import pytest

import oracle
from fluctlab import (
    DimensionMismatch,
    FluctLabError,
    Hamiltonian,
    InvalidBeta,
    NotHermitian,
    gibbs_state,
    random_hamiltonian,
    state_entropies,
)

# frozen against the brute-force expm oracle (tests/oracle.py)
GIBBS_P0 = 0.7310585786300049
GIBBS_P1 = 0.26894142136999516
GIBBS_Z = 1.3678794411714423
GIBBS_SV = 0.5822031088882179
PURE_VS_GIBBS = 0.3132616875182228

H01 = Hamiltonian.from_matrix(np.diag([0.0, 1.0]))
KET0 = np.diag([1.0, 0.0]).astype(complex)


def von_neumann(rho):
    """S_V(rho) through state_entropies; the reference does not enter S_V."""
    flat = Hamiltonian.from_matrix(np.zeros((len(rho), len(rho))))
    return state_entropies(rho, gibbs_state(flat, 1.0))[0]


def relative(rho, sigma):
    """S_R(rho || sigma) through state_entropies: a full-rank sigma is the Gibbs
    state of -log sigma at beta = 1, and S_R = -tr[rho log sigma] - S_V(rho)."""
    w, v = np.linalg.eigh(sigma)
    minus_log_sigma = Hamiltonian.from_matrix(-(v * np.log(w)) @ v.conj().T)
    s_v, s_neq = state_entropies(rho, gibbs_state(minus_log_sigma, 1.0))
    return s_neq - s_v


class TestGibbsState:
    def test_infinite_temperature_limit(self):
        ts = gibbs_state(H01, 1e-9)
        np.testing.assert_allclose(ts.populations, [0.5, 0.5], atol=1e-6)

    def test_qubit_at_beta_one(self):
        ts = gibbs_state(H01, 1.0)
        np.testing.assert_allclose(ts.populations, [GIBBS_P0, GIBBS_P1], atol=1e-14)
        assert abs(oracle.partition_function(H01.matrix, 1.0) - GIBBS_Z) < 1e-14
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
            z = oracle.partition_function(h.matrix, beta)
            assert abs(ts.free_energy + np.log(z) / beta) < 1e-12
            assert abs(ts.populations.sum() - 1.0) < 1e-12
            assert np.all(np.diff(ts.populations) <= 1e-15)  # non-increasing in energy


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann(KET0) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann(np.eye(2) / 2.0) - np.log(2.0)) < 1e-14

    def test_gibbs_qubit(self):
        value = von_neumann(np.diag([GIBBS_P0, GIBBS_P1]))
        assert abs(value - GIBBS_SV) < 1e-14

    def test_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            s = von_neumann(rho)
            assert -1e-10 <= s <= np.log(d) + 1e-10


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(37)
        for d in (2, 3, 5):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = z @ z.conj().T + 0.05 * np.eye(d)
            rho /= np.trace(rho).real
            assert abs(relative(rho, rho)) < 1e-12

    def test_pure_versus_gibbs(self):
        assert abs(relative(KET0, np.diag([GIBBS_P0, GIBBS_P1])) - PURE_VS_GIBBS) < 1e-14

    def test_klein_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            states = []
            for _ in range(2):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                rho = z @ z.conj().T + 0.05 * np.eye(d)
                states.append(rho / np.trace(rho).real)
            value = relative(states[0], states[1])
            assert abs(value - oracle.rel_entropy(states[0], states[1])) < 1e-10
            assert value >= -1e-10
            if np.linalg.norm(states[0] - states[1]) > 1e-8:
                assert value > 0.0


class TestNonequilibriumEntropy:
    def test_equilibrium_reduces_to_von_neumann(self):
        ts = gibbs_state(H01, 1.0)
        s_v, s_neq = state_entropies(ts.state, ts)
        assert abs(s_neq - s_v) < 1e-12
        assert abs(s_neq - oracle.vn_entropy(ts.state)) < 1e-12

    def test_pure_state_against_gibbs(self):
        ts = gibbs_state(H01, 1.0)
        assert abs(state_entropies(KET0, ts)[1] - PURE_VS_GIBBS) < 1e-14

    def test_maximally_mixed_reference(self):
        h = Hamiltonian.from_matrix(np.zeros((2, 2)))
        ts = gibbs_state(h, 2.0)
        value = state_entropies(np.eye(2) / 2.0, ts)[1]
        assert abs(value - np.log(2.0)) < 1e-14

    def test_dimension_mismatch(self):
        # a qubit state against a qutrit reference
        ts = gibbs_state(Hamiltonian.from_matrix(np.diag([0.0, 1.0, 2.0])), 1.0)
        with pytest.raises(DimensionMismatch):
            state_entropies(KET0, ts)

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
            lhs = state_entropies(rho, ts)[1]
            rhs = ts.beta * (float(np.trace(rho @ h.matrix).real) - ts.free_energy)
            assert abs(lhs - rhs) < 1e-10


class TestStateEntropies:
    def test_equals_the_single_entropies(self):
        # S_V and -tr[rho log rho_eq] = S_R(rho || rho_eq) + S_V, each against the oracle
        rng = np.random.default_rng(59)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            h = random_hamiltonian(dim, int(rng.integers(2**63 - 1)))
            ts = gibbs_state(h, 1.0)
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            s_v, s_neq = state_entropies(rho, ts)
            want_v = oracle.vn_entropy(rho)
            assert abs(s_v - want_v) < 1e-12
            rel = oracle.rel_entropy(rho, oracle.gibbs_matrix(h.matrix, 1.0))
            assert abs(s_neq - (rel + want_v)) < 1e-12

    @pytest.mark.parametrize("rho, error, message", [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), NotHermitian, "Hermiticity"),
        (np.diag([0.5, 0.6]), ValueError, "trace"),
        (np.diag([1.5, -0.5]), ValueError, "negative eigenvalue"),
        (np.ones((2, 3)) / 2, DimensionMismatch, "square"),
    ])
    def test_keeps_the_density_checks(self, rho, error, message):
        ts = gibbs_state(H01, 1.0)
        with pytest.raises(error, match=message) as raised:
            state_entropies(rho, ts)
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
        rel, s_v = oracle.rel_entropy(rho, rho_eq), oracle.vn_entropy(rho)
        got_v, got_neq = state_entropies(rho, ts)
        assert abs(got_neq - got_v - rel) < 1e-12
        assert abs(got_neq - (rel + s_v)) < 1e-12
