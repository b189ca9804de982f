import json
import pickle
import re
from functools import partial, reduce
from itertools import product

import numpy as np
import pytest

from pentagram import linalg, rigidity
from pentagram.game import STANDARD_GAME
from pentagram.linalg import BELL_KINDS, PAULI_X, PAULI_Z, _one_blas_thread, bell_matrix, frobenius_norm, kron_all
from pentagram.optimize import (
    PerturbationSpec,
    perturb_ideal,
    random_reflection,
    random_strategy,
    scaling_study,
)
from pentagram.rigidity import (
    DISTINGUISHED_CONTEXT,
    PHI_TRIPLE,
    X_PRIME_VERTEX,
    Z_PRIME_VERTEX,
    build_isometry,
    certify,
    consistency_residuals,
    extract_state,
    report_to_json,
    word_residual,
)
from pentagram.strategies import ReflectionStrategy, StrategyValidationError, ideal_strategy, losing_terms, score
from rebuild import replaced
from test_loop_references import junk_register_strategy, ref_select_distinguished


@pytest.fixture()
def ideal():
    return ideal_strategy()


def side_isometry(r, side):
    """build_isometry on the simulated Paulis of one side's three registers."""
    dist = ref_select_distinguished(r)
    regs = (1, 2, 3) if side == "alice" else (4, 5, 6)
    return build_isometry([dist.x_prime[i] for i in regs], [dist.z_prime[i] for i in regs])


class TestIsometry:
    def test_shape(self, ideal):
        assert side_isometry(ideal, "alice").shape == (64, 8)

    def test_exact_isometry_for_ideal(self, ideal):
        for iso in (side_isometry(ideal, "alice"), side_isometry(ideal, "bob")):
            gram = iso.conj().T @ iso
            assert frobenius_norm(gram - np.eye(8)) <= 1e-12

    def test_exact_isometry_for_random_reflections(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            d = int(rng.choice([2, 4, 8]))
            x_ops = [random_reflection(rng, d) for _ in range(3)]
            z_ops = [random_reflection(rng, d) for _ in range(3)]
            iso = build_isometry(x_ops, z_ops)
            gram = iso.conj().T @ iso
            assert frobenius_norm(gram - np.eye(d)) <= 1e-12

    def test_non_reflection_rejected(self):
        good = [np.eye(4, dtype=complex)] * 3
        with pytest.raises(ValueError):
            build_isometry([0.5 * np.eye(4)] + good[:2], good)
        with pytest.raises(ValueError):
            build_isometry(good[:2], good)
        # symmetric, but its square overflows to a NaN involution deviation
        g = np.random.default_rng(0).standard_normal((4, 4))
        with pytest.raises(ValueError, match="not a reflection"):
            build_isometry([(g + g.T) * 1e200] + good[:2], good)


class TestDistinguished:
    """The simulated Paulis rigidity._primes gathers, against the vertex tables they come from."""

    def test_ideal_table(self, ideal):
        primes = rigidity._primes(*ideal._rows()[1:])
        np.testing.assert_allclose(primes["alice"][0, 0], kron_all([PAULI_X, np.eye(2), np.eye(2)]), atol=1e-15)
        np.testing.assert_allclose(primes["alice"][0, 1], kron_all([PAULI_Z, np.eye(2), np.eye(2)]), atol=1e-15)
        for i in (1, 2, 3):
            x = X_PRIME_VERTEX[i]
            np.testing.assert_array_equal(primes["alice"][0, 2 * i - 2], ideal.alice[DISTINGUISHED_CONTEXT[x]][x])
            np.testing.assert_array_equal(primes["bob"][0, 2 * i - 2], ideal.bob[X_PRIME_VERTEX[i + 3]])

    def test_pair_adjacency_pattern(self):
        # each register's X/Z pair sits on non-adjacent vertices, all other
        # pairs among the six simulated operators on adjacent ones
        game = STANDARD_GAME
        for i in (1, 2, 3):
            assert not game.adjacent(X_PRIME_VERTEX[i], Z_PRIME_VERTEX[i])
        verts = {X_PRIME_VERTEX[i] for i in (1, 2, 3)} | {Z_PRIME_VERTEX[i] for i in (1, 2, 3)}
        pairs = [frozenset((X_PRIME_VERTEX[i], Z_PRIME_VERTEX[i])) for i in (1, 2, 3)]
        for v in verts:
            for w in verts:
                if v < w and frozenset((v, w)) not in pairs:
                    assert game.adjacent(v, w)

    def test_selection_uses_designated_contexts(self):
        r = perturb_ideal(PerturbationSpec(0.05, 3, "context-unitaries"))
        primes = rigidity._primes(*r._rows()[1:])
        for k, key in enumerate(rigidity._OP_KEYS):
            i = int(key[1])
            v = (X_PRIME_VERTEX if key[0] == "X" else Z_PRIME_VERTEX)[i]
            side, op = ("alice", r.alice[DISTINGUISHED_CONTEXT[v]][v]) if i <= 3 else ("bob", r.bob[v])
            np.testing.assert_array_equal(primes[side][0, k % 6], op)
        # Alice's anticommutators read every vertex's distinguished reflection
        questions, seen = r.game.questions(), set()
        for key, i, j in rigidity._ANTI_PAIRS["alice"]:
            v, w = map(int, key.split("|"))
            assert (questions[i], questions[j]) == ((DISTINGUISHED_CONTEXT[v], v), (DISTINGUISHED_CONTEXT[w], w))
            seen |= {v, w}
        assert seen == set(r.game.vertices)


class TestOperatorResiduals:
    def test_ideal_residuals_vanish(self, ideal):
        res = certify(ideal).op_residuals
        assert set(res) == {f"{w}{i}" for w in "XZ" for i in range(1, 7)}
        assert max(res.values()) <= 1e-12

    def test_bounded_by_two(self):
        for seed in (0, 1):
            res = certify(random_strategy(seed)).op_residuals
            assert max(res.values()) <= 2.0 + 1e-12

    def test_scales_with_perturbation(self):
        r = perturb_ideal(PerturbationSpec(1e-2, 5))
        eps = 1.0 - score(r)
        res = certify(r).op_residuals
        assert 0 < max(res.values()) <= 100 * np.sqrt(eps)


class TestWordResiduals:
    def test_ideal_pair_word(self, ideal):
        assert word_residual(ideal, ["X1", "X2"]) <= 1e-10
        assert word_residual(ideal, ["Z1", "X2", "Z3"]) <= 1e-10
        assert word_residual(ideal, ["X4", "Z5"]) <= 1e-10

    def test_single_word_matches_operator_residual(self):
        r = perturb_ideal(PerturbationSpec(1e-2, 8))
        res = certify(r).op_residuals
        for label in ("X1", "Z2", "X3", "X4", "Z5", "Z6"):
            assert word_residual(r, [label]) == pytest.approx(res[label], abs=1e-12)

    def test_mixed_side_rejected(self, ideal):
        with pytest.raises(ValueError):
            word_residual(ideal, ["X1", "X4"])

    def test_empty_word_rejected(self, ideal):
        with pytest.raises(ValueError):
            word_residual(ideal, [])

    def test_bad_label_rejected(self, ideal):
        with pytest.raises(ValueError):
            word_residual(ideal, ["Y1"])
        with pytest.raises(ValueError):
            word_residual(ideal, ["X7"])
        # a bare string would be read character by character, as the labels "X" and "1"
        with pytest.raises(ValueError, match=re.escape("word 'X1' is a bare string, expected a sequence of labels")):
            word_residual(ideal, "X1")

    @pytest.mark.parametrize("label", ["", 5, "X 1", "Z+2", "X01", "x1", None])
    def test_only_the_twelve_labels_accepted(self, ideal, label):
        with pytest.raises(ValueError, match=re.escape(f"bad operator label {label!r}, expected one of X1, Z1, ")):
            word_residual(ideal, ["X1", label])

    def test_word_from_any_iterable(self):
        # a word is read once, so an iterator or a generator gives the list's residual
        r = perturb_ideal(PerturbationSpec(1e-2, 8))
        listed = word_residual(r, ["X1", "Z2"])
        assert word_residual(r, iter(["X1", "Z2"])) == listed
        assert word_residual(r, (label for label in ["X1", "Z2"])) == listed
        with pytest.raises(ValueError, match="word must be nonempty"):
            word_residual(r, iter([]))

    def test_repeated_word_linear_growth(self):
        # a word repeating one reflection grows at most linearly, exactly
        r = perturb_ideal(PerturbationSpec(1e-2, 21))
        for label in ("X1", "Z2", "X5"):
            base = word_residual(r, [label])
            for n in (2, 4, 6):
                assert word_residual(r, [label] * n) <= n * (base + 1e-9)


class TestExtraction:
    def test_ideal_concentrates_on_bell_triple(self, ideal):
        ext = extract_state(ideal)
        assert ext.bell_weights[PHI_TRIPLE] == pytest.approx(1.0, abs=1e-10)
        assert ext.state_residual <= 1e-10
        assert abs(np.linalg.norm(ext.junk) - 1.0) <= 1e-10

    def test_weights_sum_to_one(self):
        for seed in (3, 4):
            ext = extract_state(random_strategy(seed))
            assert abs(sum(ext.bell_weights.values()) - 1.0) <= 1e-12
            assert abs(ext.state_residual**2 + np.linalg.norm(ext.junk) ** 2 - 1.0) <= 1e-12

    def test_x_conjugated_strategy_moves_bell_component(self, ideal):
        # conjugating Alice by X on register 1 flips her Z'-type operator
        # there, so the extracted pair on that register becomes psi+
        x1 = np.kron(PAULI_X, np.eye(4))
        alice = {j: {v: x1 @ m @ x1 for v, m in ctx.items()} for j, ctx in ideal.alice.items()}
        ext = extract_state(replaced(ideal, alice=alice))
        assert ext.bell_weights[("psi+", "phi+", "phi+")] == pytest.approx(1.0, abs=1e-10)
        assert ext.bell_weights[PHI_TRIPLE] <= 1e-10

    def test_residual_continuity(self):
        residuals = [
            extract_state(perturb_ideal(PerturbationSpec(d, 13))).state_residual
            for d in (1e-2, 1e-3, 1e-4)
        ]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] <= 1e-2


class TestCertify:
    def test_ideal_certificate(self, ideal):
        report = certify(ideal)
        assert report.epsilon <= 1e-12
        assert report.state_residual <= 1e-10
        assert report.max_op_residual <= 1e-10
        assert report.max_consistency_residual <= 1e-10
        assert max(report.context_change_residuals.values()) <= 1e-10
        assert max(report.commutator_residuals["alice"].values()) <= 1e-10
        assert max(report.commutator_residuals["bob"].values()) <= 1e-10
        assert max(report.anticommutator_residuals["alice"].values()) <= 1e-10
        assert max(report.anticommutator_residuals["bob"].values()) <= 1e-10
        assert max(report.change_word_residuals.values()) <= 1e-10
        assert report.consistency_bound_ok
        assert report.bell_weights[PHI_TRIPLE] == pytest.approx(1.0, abs=1e-10)

    def test_residual_family_sizes(self, ideal):
        report = certify(ideal)
        assert len(report.consistency_residuals) == 20
        assert len(report.context_change_residuals) == 10
        assert len(report.bell_weights) == 64
        assert len(report.op_residuals) == 12
        assert len(report.anticommutator_residuals["alice"]) == 15
        assert len(report.anticommutator_residuals["bob"]) == 15
        assert len(report.commutator_residuals["alice"]) == 60
        assert len(report.commutator_residuals["bob"]) == 30
        assert sorted(report.change_word_residuals) == [2, 3, 4, 5, 6]

    def test_change_words_drawn_once(self, ideal, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("certify drew its change-word sample again")

        first = certify(ideal)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert certify(ideal_strategy()).change_word_residuals == first.change_word_residuals

    def test_invalid_strategy_rejected(self, ideal):
        with pytest.raises(StrategyValidationError):
            certify(replaced(ideal, bob={1: 0.5 * ideal.bob[1]}))

    def test_consistency_bound_hard(self):
        for seed in range(5):
            report = certify(perturb_ideal(PerturbationSpec(3e-2, seed)))
            assert report.consistency_bound_ok
            bound = np.sqrt(80 * report.epsilon) + 1e-9
            assert report.max_consistency_residual <= bound

    def test_anticommutator_chain_constant(self):
        # the chain proving anti-commutation of the (3, 7) pair has a handful
        # of context switches, so its residual stays within a small multiple
        # of the worst single-step residual (empirically about 1x)
        for seed in range(5):
            report = certify(perturb_ideal(PerturbationSpec(1e-2, seed)))
            max_step = max(
                report.max_consistency_residual,
                max(report.context_change_residuals.values()),
            )
            assert report.anticommutator_residuals["alice"]["3|7"] <= 12 * max_step + 1e-9

    def test_report_serializes(self, ideal):
        obj = report_to_json(certify(ideal))
        encoded = json.dumps(obj, sort_keys=True)
        decoded = json.loads(encoded)
        assert decoded["consistency_bound_ok"] is True
        assert decoded["bell_weights"]["phi+,phi+,phi+"] == pytest.approx(1.0, abs=1e-10)
        assert "C:2" in decoded["consistency_residuals"]
        assert set(decoded["op_residuals"]) == {f"{w}{i}" for w in "XZ" for i in range(1, 7)}
        assert decoded["junk"]["rows"] == 8
        assert decoded["validation"]["passed"] is True


class TestConsistencyFamilies:
    def test_consistency_residuals_match_terms(self, ideal):
        res = consistency_residuals(ideal)
        assert len(res) == 20
        assert max(res.values()) <= 1e-14

    def test_context_change_for_perturbed(self):
        r = perturb_ideal(PerturbationSpec(1e-2, 11, "context-unitaries"))
        change = certify(r).context_change_residuals
        assert len(change) == 10
        assert max(change.values()) > 0
        eps = 1.0 - score(r)
        # one switch costs at most two consistency terms
        assert max(change.values()) <= 2 * np.sqrt(80 * eps) + 1e-9


# Dense reference: the isometry circuit and the ancilla Paulis as explicit
# 8d x 8d Kronecker products, the construction the contraction replaced.
_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_PAULIS = {"X": np.array([[0, 1], [1, 0]]), "Z": np.diag([1, -1])}


def _dense_factor(op, k, d):
    factors = [np.eye(d), np.eye(2), np.eye(2), np.eye(2)]
    factors[k] = op
    return reduce(np.kron, factors)


def _dense_controlled(u, k, d):
    idle = [np.eye(d), np.eye(2), np.eye(2), np.eye(2)]
    active = [u, np.eye(2), np.eye(2), np.eye(2)]
    idle[k], active[k] = np.diag([1, 0]), np.diag([0, 1])
    return reduce(np.kron, idle) + reduce(np.kron, active)


def dense_isometry(x_ops, z_ops):
    d = x_ops[0].shape[0]
    total = np.eye(8 * d, dtype=complex)
    for k in (1, 2, 3):
        total = (
            total
            @ _dense_controlled(x_ops[k - 1], k, d)
            @ _dense_factor(_H, k, d)
            @ _dense_controlled(z_ops[k - 1], k, d)
        )
    plus3 = np.ones((8, 1)) / np.sqrt(8)
    return total @ np.kron(np.eye(d), plus3)


class DenseReference:
    """Residuals and state extraction computed from dense isometries."""

    def __init__(self, r):
        self.r = r
        self.dist = ref_select_distinguished(r)
        self.va = dense_isometry(
            [self.dist.x_prime[i] for i in (1, 2, 3)], [self.dist.z_prime[i] for i in (1, 2, 3)]
        )
        self.vb = dense_isometry(
            [self.dist.x_prime[i] for i in (4, 5, 6)], [self.dist.z_prime[i] for i in (4, 5, 6)]
        )

    def word_residual(self, word):
        r, prime = self.r, {"X": self.dist.x_prime, "Z": self.dist.z_prime}
        parsed = [(label[0], int(label[1:])) for label in word]
        rhs = r.L
        if parsed[0][1] <= 3:
            lhs = self.va @ r.L
            for which, idx in reversed(parsed):
                lhs = _dense_factor(_PAULIS[which], idx, r.dim_a) @ lhs
                rhs = prime[which][idx] @ rhs
            return np.linalg.norm(lhs - self.va @ rhs)
        vb_dag = self.vb.conj().T
        lhs = r.L @ vb_dag
        for which, idx in reversed(parsed):
            lhs = lhs @ _dense_factor(_PAULIS[which], idx - 3, r.dim_b)
            rhs = rhs @ prime[which][idx]
        return np.linalg.norm(lhs - rhs @ vb_dag)

    def operator_residuals(self):
        return {f"{w}{i}": self.word_residual([f"{w}{i}"]) for w in "XZ" for i in range(1, 7)}

    def state(self):
        P = self.va @ self.r.L @ self.vb.conj().T
        blocks = P.reshape(self.r.dim_a, 8, self.r.dim_b, 8)
        bell = {k: bell_matrix(k) for k in BELL_KINDS}
        comps = {
            kinds: np.einsum("asbt,st->ab", blocks, reduce(np.kron, [bell[k] for k in kinds]).conj())
            for kinds in product(BELL_KINDS, repeat=3)
        }
        return P, comps


def _enlarged_strategy(seed, k):
    """random_strategy(seed) tensored with a k-dimensional junk space on each side."""
    r = random_strategy(seed)
    ik = np.eye(k)
    alice = {j: {v: np.kron(m, ik) for v, m in ctx.items()} for j, ctx in r.alice.items()}
    bob = {v: np.kron(m, ik) for v, m in r.bob.items()}
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((8 * k, 8 * k)) + 1j * rng.standard_normal((8 * k, 8 * k))
    return ReflectionStrategy(L=L / np.linalg.norm(L), alice=alice, bob=bob)


class TestAgainstDenseReference:
    """The contraction matches the dense Kronecker construction to 1e-12."""

    TOL = 1e-12

    def test_isometry_random_reflections(self):
        rng = np.random.default_rng(31)
        for d in (1, 2, 4, 8, 16, 32):
            x_ops = [random_reflection(rng, d) for _ in range(3)]
            z_ops = [random_reflection(rng, d) for _ in range(3)]
            iso = build_isometry(x_ops, z_ops)
            assert np.max(np.abs(iso - dense_isometry(x_ops, z_ops))) <= self.TOL

    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 1), (2, 2), (3, 4)])
    def test_residuals_and_state(self, seed, k):
        r = _enlarged_strategy(seed, k) if k > 1 else random_strategy(seed)
        ref = DenseReference(r)
        assert np.max(np.abs(side_isometry(r, "alice") - ref.va)) <= self.TOL
        assert np.max(np.abs(side_isometry(r, "bob") - ref.vb)) <= self.TOL

        res, want = certify(r).op_residuals, ref.operator_residuals()
        assert set(res) == set(want)
        assert all(abs(res[key] - want[key]) <= self.TOL for key in want)
        for word in (["X1", "Z2", "X3"], ["Z1", "Z1", "X2"], ["X4", "Z6"], ["Z5", "X6", "Z4", "X5"]):
            assert abs(word_residual(r, word) - ref.word_residual(word)) <= self.TOL

        ext = extract_state(r)
        _, comps = ref.state()
        assert np.max(np.abs(ext.junk - comps[PHI_TRIPLE])) <= self.TOL
        for kinds, block in comps.items():
            assert abs(ext.bell_weights[kinds] - np.linalg.norm(block) ** 2) <= self.TOL
        off = sum(np.linalg.norm(b) ** 2 for kinds, b in comps.items() if kinds != PHI_TRIPLE)
        assert abs(ext.state_residual - np.sqrt(off)) <= self.TOL


def _double_state(r):
    return replaced(r, L=2 * r.L)


def _negate_g1(r):
    return replaced(r, alice={"G": {1: -r.alice["G"][1]}})


def _zero_state(r):
    return replaced(r, L=0 * r.L)


@pytest.mark.parametrize(
    "breaks", [_double_state, _negate_g1, _zero_state], ids=["L-doubled", "G1-negated", "L-zero"]
)
@pytest.mark.parametrize(
    "measure",
    [
        certify,
        extract_state,
        lambda r: word_residual(r, ["Z4", "X5"]),
        consistency_residuals,
        score,
        losing_terms,
    ],
    ids=[
        "certify",
        "extract_state",
        "word_residual",
        "consistency_residuals",
        "score",
        "losing_terms",
    ],
)
def test_every_residual_requires_a_valid_strategy(ideal, measure, breaks):
    # no defect touches Bob's simulated Paulis, which the word uses
    with pytest.raises(StrategyValidationError):
        measure(breaks(ideal))


@pytest.fixture()
def isometry_builds(monkeypatch):
    """The side of each isometry build, told by its first simulated Pauli, X'_1 or X'_4, as the builds run."""
    r = perturb_ideal(PerturbationSpec(1e-2, 3))
    dist = ref_select_distinguished(r)
    sides = []
    original = rigidity._isometries

    def counting(primes):
        side = "alice" if np.array_equal(primes[0, 0], dist.x_prime[1]) else "bob"
        assert np.array_equal(primes[0, 0], dist.x_prime[1 if side == "alice" else 4])
        sides.append(side)
        return original(primes)

    monkeypatch.setattr(rigidity, "_isometries", counting)
    return r, sides


def test_certify_builds_each_isometry_once(isometry_builds):
    r, sides = isometry_builds
    certify(r)
    assert sorted(sides) == ["alice", "bob"]
    sides.clear()
    word_residual(r, ["Z4", "X5"])
    assert sides == ["bob"]


def test_word_residual_builds_each_isometry_once_per_strategy(isometry_builds):
    r, sides = isometry_builds
    # the junk benchmark's eight words: an X and a Z on each side, once and three times
    words = [[label] * n for label in ("X1", "Z3", "X4", "Z6") for n in (1, 3)]
    residuals = [word_residual(r, word) for word in words]
    extract_state(r)
    assert sorted(sides) == ["alice", "bob"]
    # a fresh copy and a pickled one build their own, once each, and measure the same floats
    for copy in (ReflectionStrategy(r.L, r.alice, r.bob), pickle.loads(pickle.dumps(r))):
        assert [word_residual(copy, word) for word in words] == residuals
    assert sorted(sides) == ["alice"] * 3 + ["bob"] * 3


def test_single_field_measures_build_only_their_isometries(isometry_builds):
    r, sides = isometry_builds
    consistency_residuals(r)
    assert sides == []
    extract_state(r)
    assert sorted(sides) == ["alice", "bob"]


@pytest.mark.parametrize(
    "build", [partial(perturb_ideal, PerturbationSpec(1e-2, 3)), junk_register_strategy], ids=["d8", "d32"]
)
def test_single_field_measures_match_certify(build):
    r = build()
    report, ext = certify(r), extract_state(r)
    assert (ext.bell_weights, ext.state_residual) == (report.bell_weights, report.state_residual)
    assert np.array_equal(ext.junk, report.junk)
    assert consistency_residuals(r) == report.consistency_residuals


@pytest.fixture()
def blas_threads():
    """numpy's OpenBLAS (get, set), its thread count at 2 for the test and restored after it."""
    threads = linalg._openblas_threads()
    if threads is None:
        pytest.skip("numpy links no OpenBLAS, so there is no thread count to limit")
    get, set_ = threads
    before = get()
    set_(2)
    yield get, set_
    set_(before)


def test_measures_restore_the_blas_thread_count(blas_threads, ideal):
    get, _ = blas_threads
    certify(junk_register_strategy())
    assert get() == 2
    with pytest.raises(StrategyValidationError):
        word_residual(replaced(ideal, bob={1: 0.5 * ideal.bob[1]}), ["X1"])
    assert get() == 2
    with _one_blas_thread():
        with _one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_measures_multiply_on_one_blas_thread(blas_threads, monkeypatch):
    get, _ = blas_threads
    seen = {"_bell_expand": [], "_word_residual": []}
    for name, counts in seen.items():

        def spy(*args, original=getattr(rigidity, name), counts=counts):
            counts.append(get())
            return original(*args)

        monkeypatch.setattr(rigidity, name, spy)
    certify(junk_register_strategy())
    scaling_study([0.01, 0.1], 2, seed=1)
    # certify's one state and 12 operator words, then the study's four rows' in one pass
    assert {name: (len(counts), set(counts)) for name, counts in seen.items()} == {
        "_bell_expand": (5, {1}),
        "_word_residual": (24, {1}),
    }
    assert get() == 2


def test_certify_without_openblas_matches(monkeypatch):
    # at d = 8 no product is large enough for OpenBLAS to share, so this holds on every kernel
    r = perturb_ideal(PerturbationSpec(1e-2, 3))
    default = report_to_json(certify(r))
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    assert report_to_json(certify(ReflectionStrategy(r.L, r.alice, r.bob))) == default
