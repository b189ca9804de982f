import numpy as np
import pytest

from pentagram.linalg import (
    BELL_KINDS,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    _exp_i_eigen,
    _frobenius_norms,
    bell_matrix,
    frobenius_norm,
    matrix_from_json,
    matrix_to_json,
)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_unitary(rng, n):
    q, r = np.linalg.qr(_rand_complex(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rand_hermitian(rng, n):
    g = _rand_complex(rng, (n, n))
    return (g + g.conj().T) / 2


class TestFrobenius:
    def test_normalized_identity(self):
        assert frobenius_norm(np.eye(8) / np.sqrt(8)) == pytest.approx(1.0, abs=1e-15)

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_pauli(self):
        assert frobenius_norm(PAULI_X) == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = _rand_complex(rng, (6, 6))
            u, v = _rand_unitary(rng, 6), _rand_unitary(rng, 6)
            assert abs(frobenius_norm(u @ a @ v) - frobenius_norm(a)) < 1e-12


class TestExpIHermitian:
    """exp(i scale h) as the package computes it: _exp_i_eigen of np.linalg.eigh."""

    def test_zero_scale(self):
        u = _exp_i_eigen(*np.linalg.eigh(HADAMARD), 0.0)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)

    def test_pi_z(self):
        u = _exp_i_eigen(*np.linalg.eigh(PAULI_Z), np.pi)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)

    def test_taylor_remainder(self):
        rng = np.random.default_rng(8)
        delta = 1e-4
        for n in (2, 8):
            h = _rand_hermitian(rng, n)
            h /= np.max(np.abs(np.linalg.eigvalsh(h)))
            u = _exp_i_eigen(*np.linalg.eigh(h), delta)
            remainder = frobenius_norm(u - np.eye(n) - 1j * delta * h)
            assert remainder < 10 * delta**2

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        h = _rand_hermitian(rng, 8)
        u = _exp_i_eigen(*np.linalg.eigh(h), 0.37)
        assert frobenius_norm(u.conj().T @ u - np.eye(8)) < 1e-10

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(11)
        h = np.stack([_rand_hermitian(rng, 8) for _ in range(6)])
        u = _exp_i_eigen(*np.linalg.eigh(h), 0.3)
        each = [_exp_i_eigen(*np.linalg.eigh(h[i]), 0.3) for i in range(6)]
        assert all(np.array_equal(u[i], each[i]) for i in range(6))


class TestStackedNorms:
    def test_bitwise_equal_to_frobenius_norm(self):
        rng = np.random.default_rng(12)
        for shape in ((7, 8, 8), (3, 4, 32, 32), (2, 5, 3), (4, 1, 1), (8, 8)):
            a = _rand_complex(rng, shape)
            norms = _frobenius_norms(a)
            assert norms.shape == shape[:-2]
            for idx in np.ndindex(shape[:-2]):
                assert norms[idx] == frobenius_norm(a[idx])


class TestBellMatrices:
    def test_entries(self):
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(bell_matrix("phi+"), [[s, 0], [0, s]], atol=1e-15)
        np.testing.assert_allclose(bell_matrix("phi-"), [[s, 0], [0, -s]], atol=1e-15)
        np.testing.assert_allclose(bell_matrix("psi+"), [[0, s], [s, 0]], atol=1e-15)
        np.testing.assert_allclose(bell_matrix("psi-"), [[0, s], [-s, 0]], atol=1e-15)

    def test_orthonormal(self):
        for a in BELL_KINDS:
            for b in BELL_KINDS:
                inner = np.vdot(bell_matrix(a), bell_matrix(b))
                expected = 1.0 if a == b else 0.0
                assert abs(inner - expected) < 1e-15

    def test_pauli_conjugation_signs(self):
        x, z = PAULI_X, PAULI_Z
        np.testing.assert_allclose(x @ bell_matrix("phi+") @ x, bell_matrix("phi+"), atol=1e-15)
        np.testing.assert_allclose(x @ bell_matrix("phi-") @ x, -bell_matrix("phi-"), atol=1e-15)
        np.testing.assert_allclose(z @ bell_matrix("psi+") @ z, -bell_matrix("psi+"), atol=1e-15)
        np.testing.assert_allclose(z @ bell_matrix("psi-") @ z, -bell_matrix("psi-"), atol=1e-15)
        np.testing.assert_allclose(z @ bell_matrix("phi+") @ z, bell_matrix("phi+"), atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bell_matrix("sigma+")


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        obj = matrix_to_json(a)
        assert obj["rows"] == 3 and obj["cols"] == 5 and len(obj["data"]) == 15
        np.testing.assert_array_equal(matrix_from_json(obj), a)

    def test_malformed(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "data": []})

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": float("inf"), "cols": 1, "data": [[1.0, 0.0]]},
            {"rows": "two", "cols": 1, "data": [[1.0, 0.0]]},
            {"rows": 1, "cols": 1, "data": 5},
            {"rows": 1, "cols": 2, "data": None},
            # sizes that int() would truncate or convert, with data to match
            {"rows": 2.7, "cols": 1, "data": [[1.0, 0.0], [0.0, 0.0]]},
            {"rows": 1, "cols": True, "data": [[1.0, 0.0]]},
        ],
    )
    def test_malformed_header(self, obj):
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    @pytest.mark.parametrize("entry", [["0.35", 0.0], [0.0, None], [1.0], 7])
    def test_bad_entry_named(self, entry):
        data = [[1.0, 0.0], [0.0, 0.0], entry, [1.0, 0.0]]
        with pytest.raises(ValueError, match="^entry 2 is not a"):
            matrix_from_json({"rows": 2, "cols": 2, "data": data})
