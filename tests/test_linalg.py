import numpy as np
import pytest

from fluctlab import Hamiltonian, NonFinite, NotHermitian, NotSquare, random_hamiltonian
from fluctlab.states import as_complex_matrix, eigenbasis_diagonal

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2


class TestHermitianEig:
    """The check and eigendecomposition of Hamiltonian.from_matrix."""

    def test_identity(self):
        dec = Hamiltonian.from_matrix(np.eye(2))
        np.testing.assert_allclose(dec.energies, [1.0, 1.0], atol=1e-14)

    def test_diagonal_sorted_ascending(self):
        dec = Hamiltonian.from_matrix(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.energies, [1.0, 3.0], atol=1e-14)
        # basis vectors swapped to ascending order
        assert abs(dec.eigenvectors[1, 0]) > 0.99
        assert abs(dec.eigenvectors[0, 1]) > 0.99

    def test_pauli_x(self):
        # characteristic polynomial x^2 - 1 by hand
        dec = Hamiltonian.from_matrix(PAULI_X)
        np.testing.assert_allclose(dec.energies, [-1.0, 1.0], atol=1e-12)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            Hamiltonian.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_complex_diagonal_is_not_hermitian(self):
        # refused before the diagonal is read: symmetrizing would drop the 1e-6j
        with pytest.raises(NotHermitian, match=r"2\.000e-06 exceeds"):
            Hamiltonian.from_matrix(np.diag([1.0 + 1e-6j, 0.0]))

    def test_eigh_only_for_a_matrix_with_off_diagonal_entries(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for m in (np.diag([3.0, 1.0, 2.0]), np.zeros((4, 4)), np.eye(1), np.diag([1.0, 2.0]) + 0j):
            Hamiltonian.from_matrix(m)
        assert calls == []
        Hamiltonian.from_matrix(PAULI_X)
        assert calls == [(2, 2)]

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 24, 33, 64])
    def test_diagonal_eigenvalues_keep_the_bytes_of_eigh(self, d):
        # generic and integer-degenerate spectra at scales 1e-9 to 1e99; LAPACK
        # rescales a matrix whose entries reach about 1e150, so |E| < 1e100
        rng = np.random.default_rng(d)
        for scale in (1e-9, 1e-3, 1.0, 1e6, 1e99):
            for e in (scale * rng.standard_normal(d), scale * rng.integers(0, 4, d)):
                h = Hamiltonian.from_matrix(np.diag(e))
                assert h.energies.tobytes() == np.linalg.eigh(h.matrix)[0].tobytes()

    def test_large_entries_are_checked_relative_to_their_size(self):
        # deviation 1.1e-10 in absolute terms, Hermitian to rounding
        m = random_hamiltonian(5, 41).matrix * 1e6
        assert Hamiltonian.from_matrix(m).dim == 5
        for d in (2, 5, 16, 32, 64):
            for seed in range(20):
                Hamiltonian.from_matrix(random_hamiltonian(d, seed).matrix * 1e7)

    def test_relative_asymmetry_beyond_tolerance_is_refused(self):
        m = np.array([[1.0, 1.0], [1.0 + 1e-8, 0.0]]) * 1e6
        with pytest.raises(NotHermitian, match=r"1\.000e-02 exceeds .* = 1\.000e-04"):
            Hamiltonian.from_matrix(m)

    @pytest.mark.parametrize("m", [
        np.diag([1.7e308, 0.0]),
        [[0.0, 1.7e308], [-1.7e308, 0.0]],   # m - m^dag overflows
        [[1.7e308, 1e308], [1e308, 0.0]],
        np.diag([1e308 + 1e308j, 0.0]),      # |m| beyond the bound, each part below it
        np.diag([1.7e308 + 1.7e308j, 0.0]),  # |m| itself overflows
    ])
    def test_symmetrization_overflow_is_refused(self, m):
        # refused before m + m^dag or m - m^dag is formed, so with no RuntimeWarning
        with pytest.raises(NonFinite, match=r"exceeds half the float range: m \+/- m\^dag would"):
            Hamiltonian.from_matrix(m)

    def test_entries_up_to_half_the_float_range_are_accepted(self):
        half = np.finfo(float).max / 2
        assert Hamiltonian.from_matrix(np.diag([half, -half])).energies.tolist() == [-half, half]
        assert Hamiltonian.from_matrix([[0.0, half], [half, 0.0]]).dim == 2

    def test_not_square(self):
        with pytest.raises(NotSquare):
            Hamiltonian.from_matrix(np.zeros((2, 3)))

    def test_reconstruction_and_unitarity_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            m = random_hermitian(rng, d)
            dec = Hamiltonian.from_matrix(m)
            scale = max(np.linalg.norm(m), 1.0)
            rebuilt = Hamiltonian.from_spectrum(dec.energies, dec.eigenvectors).matrix
            assert np.linalg.norm(rebuilt - m) / scale < 1e-10
            v = dec.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10


class TestPermutation:
    """The row of each eigenvector's single 1, set for a diagonal matrix only."""

    @pytest.mark.parametrize("diag", [
        [0.0, 0.25, 0.5, 1.0],               # ascending
        [1.0, 0.5, 0.25, 0.0],               # reversed
        [0.5, 1.0, 0.0, 0.25, 0.75],         # shuffled
        [0.0, 1.0, 1.0, 2.0, 0.0, 1.0],      # degenerate
        [1.0, -0.0, 0.0, -0.0],              # signed zeros, equal under the sort
        [1.0, 5e-324, 0.0, -5e-324],         # subnormal
        [0.0, 0.0, 0.0],                     # the zero matrix
        [3.0],
    ])
    def test_set_for_a_diagonal_hamiltonian(self, diag):
        dec = Hamiltonian.from_matrix(np.diag(diag))
        perm = dec.permutation
        assert np.array_equal(perm, np.argsort(diag, kind="stable"))
        # eigenvector k is the standard basis vector perm[k]
        assert np.array_equal(dec.eigenvectors, np.eye(len(diag))[:, perm])
        assert np.array_equal(np.asarray(diag)[perm], dec.energies)

    def test_none_for_a_haar_basis(self):
        assert random_hamiltonian(6, 2).permutation is None
        assert Hamiltonian.from_matrix(PAULI_X).permutation is None

    def test_none_for_a_given_decomposition(self):
        # a Hamiltonian built from its arrays takes the dense route, even
        # when its eigenvectors are the standard basis
        h = Hamiltonian.from_spectrum(np.arange(3.0), np.eye(3, dtype=complex))
        assert h.permutation is None


class TestEigenbasisDiagonal:
    @pytest.mark.parametrize("d", [1, 2, 5, 24, 64])
    def test_matches_per_column_products(self, d):
        rng = np.random.default_rng(d)
        v = np.linalg.eigh(random_hermitian(rng, d))[1]
        m = random_hermitian(rng, d)
        expected = np.array([(v[:, k].conj() @ m @ v[:, k]).real for k in range(d)])
        got = eigenbasis_diagonal(v, m)
        assert got.shape == (d,) and got.dtype == float
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * d)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_refused(bad):
    with pytest.raises(NonFinite, match="non-finite") as err:
        as_complex_matrix(np.diag([1.0, bad]))
    # still a ValueError for callers that catch the numpy-style error
    assert isinstance(err.value, ValueError)
