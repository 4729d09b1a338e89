import numpy as np
import pytest

from fluctlab import NotHermitian, NotSquare, hermitian_eig

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0], atol=1e-14)

    def test_diagonal_sorted_ascending(self):
        dec = hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)
        # basis vectors swapped to ascending order
        assert abs(dec.eigenvectors[1, 0]) > 0.99
        assert abs(dec.eigenvectors[0, 1]) > 0.99

    def test_pauli_x(self):
        # characteristic polynomial x^2 - 1 by hand
        dec = hermitian_eig(PAULI_X)
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_not_square(self):
        with pytest.raises(NotSquare):
            hermitian_eig(np.zeros((2, 3)))

    def test_reconstruction_and_unitarity_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            m = random_hermitian(rng, d)
            dec = hermitian_eig(m)
            scale = max(np.linalg.norm(m), 1.0)
            assert np.linalg.norm(dec.reconstruct() - m) / scale < 1e-10
            assert dec.unitarity_deviation() < 1e-10
