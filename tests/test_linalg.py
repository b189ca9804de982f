import numpy as np
import pytest

from pentagram.linalg import (
    BELL_KINDS,
    HADAMARD,
    ID2,
    PAULI_X,
    PAULI_Z,
    add,
    adjoint,
    bell_matrix,
    controlled,
    embed_factor,
    embed_on_register,
    exp_i_hermitian,
    frobenius_norm,
    hermitian_eigendecomposition,
    kron,
    matrix_from_json,
    matrix_to_json,
    mul,
    scale,
)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_unitary(rng, n):
    q, r = np.linalg.qr(_rand_complex(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rand_reflection(rng, n):
    v = _rand_unitary(rng, n)
    signs = rng.choice([-1.0, 1.0], size=n)
    return (v * signs) @ v.conj().T


def _rand_hermitian(rng, n):
    g = _rand_complex(rng, (n, n))
    return (g + g.conj().T) / 2


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(ID2, ID2), np.eye(4))

    def test_x_times_z_entries(self):
        m = kron(PAULI_X, PAULI_Z)
        assert m[0, 2] == 1
        assert m[1, 3] == -1
        np.testing.assert_array_equal(m[:2, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(m[2:, 2:], np.zeros((2, 2)))

    def test_norm_multiplies(self):
        phi = bell_matrix("phi+")
        assert frobenius_norm(kron(phi, phi)) == pytest.approx(1.0, abs=1e-14)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = _rand_complex(rng, (2, 2)), _rand_complex(rng, (3, 3))
            c, d = _rand_complex(rng, (2, 2)), _rand_complex(rng, (3, 3))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert frobenius_norm(lhs - rhs) < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(11)
        a, b, c = (_rand_complex(rng, (2, 2)), _rand_complex(rng, (3, 3)), _rand_complex(rng, (2, 2)))
        assert frobenius_norm(kron(kron(a, b), c) - kron(a, kron(b, c))) < 1e-12


class TestArithmetic:
    def test_adjoint_involution(self):
        rng = np.random.default_rng(1)
        a = _rand_complex(rng, (4, 5))
        np.testing.assert_array_equal(adjoint(adjoint(a)), a)

    def test_pauli_reflection(self):
        np.testing.assert_allclose(mul(PAULI_X, PAULI_X), ID2, atol=1e-15)

    def test_pauli_anticommutation(self):
        np.testing.assert_allclose(mul(PAULI_Z, PAULI_X), -mul(PAULI_X, PAULI_Z), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mul(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            add(np.eye(2), np.eye(3))

    def test_add_scale(self):
        np.testing.assert_array_equal(add(PAULI_X, PAULI_X), 2 * PAULI_X)
        np.testing.assert_array_equal(scale(PAULI_Z, 1j), 1j * PAULI_Z)


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


class TestControlled:
    def test_identity_case(self):
        np.testing.assert_allclose(controlled(np.eye(3)), np.eye(6), atol=1e-15)

    def test_block_structure(self):
        rng = np.random.default_rng(3)
        u = _rand_unitary(rng, 4)
        c = controlled(u)
        np.testing.assert_array_equal(c[:4, :4], np.eye(4))
        np.testing.assert_array_equal(c[4:, 4:], u)
        np.testing.assert_array_equal(c[:4, 4:], np.zeros((4, 4)))

    def test_unitary_for_unitary_input(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = controlled(_rand_unitary(rng, 4))
            assert frobenius_norm(c.conj().T @ c - np.eye(8)) < 1e-12

    def test_x_conjugation_identity(self):
        # X on the control satisfies X C(U) X = C(U) (I (x) U) for reflections U
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = _rand_reflection(rng, 4)
            c = controlled(u)
            xc = kron(PAULI_X, np.eye(4))
            lhs = xc @ c @ xc
            rhs = c @ kron(ID2, u)
            assert frobenius_norm(lhs - rhs) < 1e-12
            assert frobenius_norm(lhs - kron(ID2, u) @ c) < 1e-12

    def test_z_multiplication_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = _rand_unitary(rng, 4)
            c = controlled(u)
            zc = kron(PAULI_Z, np.eye(4))
            assert frobenius_norm(zc @ c - controlled(-u)) < 1e-12
            assert frobenius_norm(c @ zc - controlled(-u)) < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            controlled(np.ones((2, 3)))


class TestEmbed:
    def test_first_slot(self):
        np.testing.assert_array_equal(embed_on_register(PAULI_X, 1, 3), kron(PAULI_X, np.eye(4)))

    def test_last_slot(self):
        np.testing.assert_array_equal(embed_on_register(PAULI_Z, 3, 3), kron(np.eye(4), PAULI_Z))

    def test_hadamard_action(self):
        state = np.zeros(4)
        state[0] = 1.0
        out = embed_on_register(HADAMARD, 2, 2) @ state
        expected = np.array([1, 1, 0, 0]) / np.sqrt(2)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            embed_on_register(PAULI_X, 0, 3)
        with pytest.raises(ValueError):
            embed_on_register(PAULI_X, 4, 3)

    def test_general_dims(self):
        m = embed_factor(np.eye(3) * 2, 1, [2, 3, 2])
        np.testing.assert_array_equal(m, 2 * np.eye(12))


class TestEigendecomposition:
    def test_pauli_z(self):
        w, _ = hermitian_eigendecomposition(PAULI_Z)
        np.testing.assert_allclose(w, [-1, 1], atol=1e-15)

    def test_pauli_x_eigenvectors(self):
        w, v = hermitian_eigendecomposition(PAULI_X)
        np.testing.assert_allclose(w, [-1, 1], atol=1e-15)
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(v[:, 0], minus)) - 1) < 1e-12
        assert abs(abs(np.vdot(v[:, 1], plus)) - 1) < 1e-12

    def test_identity(self):
        w, _ = hermitian_eigendecomposition(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4), atol=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for n in (2, 8, 32, 64):
            h = _rand_hermitian(rng, n)
            w, v = hermitian_eigendecomposition(h)
            assert frobenius_norm((v * w) @ v.conj().T - h) < 1e-10
            assert frobenius_norm(v.conj().T @ v - np.eye(n)) < 1e-10
            assert np.all(np.diff(w) >= -1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigendecomposition(np.array([[0, 1], [0, 0]], dtype=complex))


class TestExpIHermitian:
    def test_zero_scale(self):
        np.testing.assert_allclose(exp_i_hermitian(HADAMARD, 0.0), np.eye(2), atol=1e-15)

    def test_pi_z(self):
        np.testing.assert_allclose(exp_i_hermitian(PAULI_Z, np.pi), -np.eye(2), atol=1e-12)

    def test_taylor_remainder(self):
        rng = np.random.default_rng(8)
        delta = 1e-4
        for n in (2, 8):
            h = _rand_hermitian(rng, n)
            h /= np.max(np.abs(np.linalg.eigvalsh(h)))
            u = exp_i_hermitian(h, delta)
            remainder = frobenius_norm(u - np.eye(n) - 1j * delta * h)
            assert remainder < 10 * delta**2

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        h = _rand_hermitian(rng, 8)
        u = exp_i_hermitian(h, 0.37)
        assert frobenius_norm(u.conj().T @ u - np.eye(8)) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            exp_i_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


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

    @pytest.mark.parametrize("entry", [["0.35", 0.0], [0.0, None], [1.0], 7])
    def test_bad_entry_named(self, entry):
        data = [[1.0, 0.0], [0.0, 0.0], entry, [1.0, 0.0]]
        with pytest.raises(ValueError, match="^entry 2 is not a"):
            matrix_from_json({"rows": 2, "cols": 2, "data": data})
