import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest
from rebuild import replaced
from test_loop_references import junk_register_strategy

from pentagram import strategies
from pentagram.game import STANDARD_GAME, PentagramGame, best_classical_strategy, parity_assignments
from pentagram.linalg import PAULI_Z, frobenius_norm, kron_all
from pentagram.optimize import PerturbationSpec, calibrate_delta, haar_unitary, perturb_ideal, random_strategy
from pentagram.rigidity import certify, word_residual
from pentagram.strategies import (
    IDEAL_OBSERVABLES,
    InvalidStrategyError,
    ProjectiveStrategy,
    ReflectionStrategy,
    StrategyValidationError,
    classical_embedding,
    ideal_strategy,
    losing_terms,
    score,
    strategy_from_json,
    strategy_to_json,
    to_projective,
    to_reflection,
    validate,
)


@pytest.fixture()
def ideal():
    return ideal_strategy()


def score_projective(p: ProjectiveStrategy) -> float:
    """Winning probability computed directly from projective outcome weights."""
    L = np.asarray(p.psi, dtype=complex).reshape(p.dim_a, p.dim_b)
    win = 0.0
    for j in p.game.context_names:
        vs = p.game.contexts[j]
        for i, v in enumerate(vs):
            for t, M in p.alice[j].items():
                N = p.bob[v][t[i]]
                win += float(np.linalg.norm(M @ L @ N) ** 2)
    return win / 20.0


@pytest.fixture(scope="module")
def game():
    return PentagramGame()


class TestIdealStrategy:
    def test_validates_tightly(self, ideal):
        report = validate(ideal, 1e-12)
        assert report.passed
        assert max(report.deviations().values()) <= 1e-14

    def test_perfect_score(self, ideal):
        assert abs(score(ideal) - 1.0) <= 1e-12

    def test_losing_terms_vanish(self, ideal):
        assert max(losing_terms(ideal).values()) <= 1e-14

    def test_odd_context_product(self, ideal):
        prod = np.eye(8, dtype=complex)
        for v in ideal.game.contexts["G"]:
            prod = prod @ ideal.alice["G"][v]
        np.testing.assert_allclose(prod, -np.eye(8), atol=1e-14)

    def test_non_adjacent_observables_anticommute(self, ideal, game):
        obs = {v: ideal.bob[v] for v in game.vertices}
        anti = obs[1] @ obs[7] + obs[7] @ obs[1]
        assert frobenius_norm(anti) <= 1e-14
        for v in game.vertices:
            for w in game.vertices:
                if v < w and not game.adjacent(v, w):
                    acomm = obs[v] @ obs[w] + obs[w] @ obs[v]
                    assert frobenius_norm(acomm) <= 1e-14

    def test_adjacent_observables_commute(self, ideal, game):
        obs = {v: ideal.bob[v] for v in game.vertices}
        for v in game.vertices:
            for w in game.vertices:
                if v < w and game.adjacent(v, w):
                    comm = obs[v] @ obs[w] - obs[w] @ obs[v]
                    assert frobenius_norm(comm) <= 1e-14

    def test_state_is_normalized_identity(self, ideal):
        np.testing.assert_allclose(ideal.L, np.eye(8) / np.sqrt(8), atol=1e-15)


class TestScore:
    def test_classical_witness_embedding(self, game):
        witness, value = best_classical_strategy(game)
        r = classical_embedding(witness)
        assert validate(r, 1e-12).passed
        assert abs(score(r) - float(value)) <= 1e-12

    def test_single_flipped_bob_reflection(self, ideal):
        r = replaced(ideal, bob={6: -ideal.bob[6]})
        assert abs(score(r) - (1.0 - 2.0 / 20.0)) <= 1e-12
        terms = losing_terms(r)
        assert terms[("E", 6)] == pytest.approx(1.0, abs=1e-12)
        assert terms[("F", 6)] == pytest.approx(1.0, abs=1e-12)

    def test_terms_in_unit_interval(self):
        r = random_strategy(17)
        terms = losing_terms(r)
        assert all(-1e-12 <= t <= 1 + 1e-12 for t in terms.values())
        assert abs((1.0 - score(r)) - sum(terms.values()) / 20.0) <= 1e-14

    def test_quarter_identity_per_term(self):
        r = random_strategy(23)
        terms = losing_terms(r)
        for (j, v), term in terms.items():
            resid = frobenius_norm(r.alice[j][v] @ r.L - r.L @ r.bob[v])
            assert abs(term - 0.25 * resid**2) <= 1e-10

    def test_norm_identity_audit(self):
        # projector form == (1/4)||L - R L S||^2 == (1/4)||R L - L S||^2
        rng = np.random.default_rng(4)
        for _ in range(100):
            da = int(rng.integers(2, 9))
            db = int(rng.integers(2, 9))
            R = _random_reflection(rng, da)
            S = _random_reflection(rng, db)
            L = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
            L /= np.linalg.norm(L)
            up = ((np.eye(da) + R) / 2) @ L @ ((np.eye(db) - S) / 2)
            dn = ((np.eye(da) - R) / 2) @ L @ ((np.eye(db) + S) / 2)
            proj = np.linalg.norm(up) ** 2 + np.linalg.norm(dn) ** 2
            mid = 0.25 * np.linalg.norm(L - R @ L @ S) ** 2
            swap = 0.25 * np.linalg.norm(R @ L - L @ S) ** 2
            assert abs(proj - mid) <= 1e-10
            assert abs(proj - swap) <= 1e-10

    def test_consistency_bound_on_generated_strategies(self):
        for seed, delta in ((0, 1e-3), (1, 1e-2), (2, 1e-1)):
            r = perturb_ideal(PerturbationSpec(delta, seed))
            eps = 1.0 - score(r)
            bound = np.sqrt(80.0 * eps) + 1e-9
            for j in r.game.context_names:
                for v in r.game.contexts[j]:
                    assert frobenius_norm(r.alice[j][v] @ r.L - r.L @ r.bob[v]) <= bound


def _random_reflection(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    signs = rng.choice([-1.0, 1.0], size=n)
    return (q * signs) @ q.conj().T


def _joint_probabilities(p):
    """All (question, alice outcome, bob outcome) probabilities."""
    L = np.asarray(p.psi).reshape(p.dim_a, p.dim_b)
    table = {}
    for j in p.game.context_names:
        vs = p.game.contexts[j]
        for i, v in enumerate(vs):
            for t, M in p.alice[j].items():
                for s in (0, 1):
                    table[(j, v, t, s)] = float(np.linalg.norm(M @ L @ p.bob[v][s]) ** 2)
    return table


class TestConversions:
    def test_ideal_projective_state(self, ideal):
        p = to_projective(ideal)
        expected = (np.eye(8, dtype=complex) / np.sqrt(8)).ravel()
        np.testing.assert_allclose(p.psi, expected, atol=1e-15)
        back = to_reflection(p)
        np.testing.assert_allclose(back.L, np.eye(8) / np.sqrt(8), atol=1e-12)

    def test_z_measurement_reflection(self, ideal):
        # vertex 8 measures Z on the third register; its projectors are the
        # Z eigenprojectors and the difference recovers the observable
        p = to_projective(ideal)
        n0, n1 = p.bob[8]
        np.testing.assert_allclose(n0 - n1, kron_all([np.eye(2)] * 2 + [PAULI_Z]), atol=1e-12)

    def test_ideal_has_rank_one_projectors(self, ideal):
        p = to_projective(ideal)
        for j in p.game.context_names:
            assert len(p.alice[j]) == 8
            for M in p.alice[j].values():
                assert abs(np.trace(M).real - 1.0) <= 1e-12

    def test_identity_context_collapses_to_single_outcome(self, ideal):
        p = to_projective(replaced(ideal, alice={"C": {v: np.eye(8, dtype=complex) for v in ideal.game.contexts["C"]}}))
        all_zero = (0, 0, 0, 0)
        np.testing.assert_allclose(p.alice["C"][all_zero], np.eye(8), atol=1e-14)
        for t, M in p.alice["C"].items():
            if t != all_zero:
                assert frobenius_norm(M) <= 1e-14

    def test_parity_mismatched_outcome_vanishes(self, ideal, game):
        vs = game.contexts["C"]
        valid = set(parity_assignments(game, "C"))
        for t in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0)]:
            assert t not in valid
            M = np.eye(8, dtype=complex)
            for bit, v in zip(t, vs):
                sign = 1.0 if bit == 0 else -1.0
                M = M @ ((np.eye(8) + sign * ideal.alice["C"][v]) / 2)
            assert frobenius_norm(M) <= 1e-14

    def test_round_trip_preserves_probabilities(self):
        r = random_strategy(31)
        p = to_projective(r)
        p2 = to_projective(to_reflection(p))
        t1, t2 = _joint_probabilities(p), _joint_probabilities(p2)
        assert t1.keys() == t2.keys()
        assert max(abs(t1[k] - t2[k]) for k in t1) <= 1e-12

    def test_round_trip_preserves_score(self):
        for seed in range(20):
            r = random_strategy(100 + seed)
            s0 = score(r)
            r2 = to_reflection(to_projective(r))
            assert abs(score(r2) - s0) <= 1e-12

    def test_projective_score_matches(self):
        for seed in (5, 6):
            r = random_strategy(seed)
            assert abs(score_projective(to_projective(r)) - score(r)) <= 1e-12

    def test_probability_rule_normalization(self):
        r = random_strategy(41)
        p = to_projective(r)
        L = np.asarray(p.psi).reshape(p.dim_a, p.dim_b)
        for j in p.game.context_names:
            total = sum(np.linalg.norm(M @ L) ** 2 for M in p.alice[j].values())
            assert abs(total - 1.0) <= 1e-12
        for v in p.game.vertices:
            total = sum(np.linalg.norm(L @ p.bob[v][s]) ** 2 for s in (0, 1))
            assert abs(total - 1.0) <= 1e-12

    def test_invalid_reflection_strategy_rejected(self, ideal):
        with pytest.raises(ValueError):
            to_projective(replaced(ideal, alice={"C": {2: 0.5 * ideal.alice["C"][2]}}))

    def test_invalid_projective_strategy_rejected(self, ideal):
        p = to_projective(ideal)
        first = next(iter(p.alice["C"]))
        p = replaced(p, alice={"C": {first: 0.5 * p.alice["C"][first]}})
        with pytest.raises(InvalidStrategyError, match="^invalid projective strategy"):
            to_reflection(p)


class TestEitherForm:
    """validate and to_reflection take either form; a projective strategy is measured through its reflection form."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.5, 1.0])
    def test_projective_validates_as_its_reflection_form(self, tol):
        for r in (ideal_strategy(), perturb_ideal(PerturbationSpec(0.02, 9)), random_strategy(3)):
            p = to_projective(r)
            report, expected = validate(p, tol), validate(to_reflection(p), tol)
            assert report == expected and report.worst == expected.worst

    def test_projective_axioms_held_to_tol(self, ideal):
        p = to_projective(ideal)
        first = next(iter(p.alice["C"]))
        halved = replaced(p, alice={"C": {first: 0.5 * p.alice["C"][first]}})
        with pytest.raises(InvalidStrategyError, match=r"^invalid projective strategy \(max deviation 5.000e-01\)$"):
            validate(halved, 1e-10)
        report = validate(halved, 1.0)
        assert report.passed and report.involution == pytest.approx(0.75, abs=1e-12)
        with pytest.raises(ValueError, match="^tol must be finite and non-negative, got nan$"):
            validate(p, float("nan"))

    def test_reflection_strategy_is_its_own_reflection_form(self, ideal):
        r = perturb_ideal(PerturbationSpec(0.02, 9))
        assert to_reflection(r) is r and to_reflection(ideal) is ideal


class TestValidationReport:
    def test_halved_reflection_deviation(self, ideal):
        report = validate(replaced(ideal, bob={3: 0.5 * ideal.bob[3]}), 1e-10)
        assert not report.passed
        assert report.involution == pytest.approx(0.75 * np.sqrt(8), abs=1e-12)

    def test_negated_context_product(self, ideal):
        report = validate(replaced(ideal, alice={"C": {2: -ideal.alice["C"][2]}}), 1e-10)
        assert not report.passed
        # reported on the per-entry scale: ||I - (-I)||_F / sqrt(dim) = 2
        assert report.context_product == pytest.approx(2.0, abs=1e-12)

    def test_state_norm_deviation(self, ideal):
        report = validate(replaced(ideal, L=2.0 * ideal.L), 1e-10)
        assert report.state_norm == pytest.approx(1.0, abs=1e-12)


def round_trip(s):
    """s through strategy_to_json, JSON text and strategy_from_json, its stacks checked byte for byte."""
    s2 = strategy_from_json(json.loads(json.dumps(strategy_to_json(s))))
    assert type(s2) is type(s)
    for a, b in zip((s._L, s._alice, s._bob), (s2._L, s2._alice, s2._bob)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return s2


class TestSerialization:
    def test_reflection_round_trip(self):
        # d = 8 and the d = 32 junk-register strategy
        for r in (perturb_ideal(PerturbationSpec(0.02, 9)), junk_register_strategy()):
            r2 = round_trip(r)
            assert all(np.array_equal(r2.alice[j][v], m) for j, ctx in r.alice.items() for v, m in ctx.items())

    def test_projective_round_trip(self, ideal):
        p = to_projective(ideal)
        p2 = round_trip(p)
        assert p2.alice["C"].keys() == p.alice["C"].keys()
        assert abs(score_projective(p2) - 1.0) <= 1e-12
        for r in (perturb_ideal(PerturbationSpec(0.02, 9)), junk_register_strategy()):
            round_trip(to_projective(r))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            strategy_from_json({"foo": 1})

    def test_ideal_observable_table(self, ideal):
        # frozen overview of the per-vertex Pauli words
        assert IDEAL_OBSERVABLES == {
            1: "ZZZ", 2: "ZXX", 3: "XXZ", 4: "XZX", 5: "IXI",
            6: "XII", 7: "IIX", 8: "IIZ", 9: "IZI", 10: "ZII",
        }


class TestStandardGame:
    """Every strategy is over STANDARD_GAME; none takes a game."""

    def test_game_is_not_settable(self, ideal):
        witness, _ = best_classical_strategy(STANDARD_GAME)
        obj = strategy_to_json(ideal)
        with pytest.raises(TypeError):
            ReflectionStrategy(L=ideal.L, alice=ideal.alice, bob=ideal.bob, game=STANDARD_GAME)
        with pytest.raises(TypeError):
            strategy_from_json(obj, game=STANDARD_GAME)
        with pytest.raises(TypeError):
            classical_embedding(witness, game=STANDARD_GAME)

    def test_every_strategy_shares_the_standard_game(self, ideal):
        witness, _ = best_classical_strategy(STANDARD_GAME)
        p = to_projective(ideal)
        built = [
            ideal,
            p,
            to_reflection(p),
            to_reflection(strategy_from_json(json.loads(json.dumps(strategy_to_json(p))))),
            strategy_from_json(json.loads(json.dumps(strategy_to_json(ideal)))),
            perturb_ideal(PerturbationSpec(0.02, 9)),
            classical_embedding(witness),
        ]
        assert all(s.game is STANDARD_GAME for s in built)

    def test_classical_embedding_certifies(self):
        # the 1x1 path that failed with a KeyError over relabelled games
        report = certify(classical_embedding(best_classical_strategy(STANDARD_GAME)[0]))
        assert report.epsilon == pytest.approx(0.05, abs=1e-15)


class TestValidationGate:
    """One check at STRUCTURE_TOL, one error, for every caller that refuses."""

    def test_halved_reflection_refused_alike(self, ideal):
        r = replaced(ideal, bob={1: 0.5 * ideal.bob[1]})
        messages = set()
        for refuse in (to_projective, certify):
            with pytest.raises(StrategyValidationError) as caught:
                refuse(r)
            messages.add(str(caught.value))
        assert messages == {"strategy failed validation at tol=1e-10: involution 2.121e+00 at Bob vertex 1"}

    def test_commutation_failure_names_its_pair(self, ideal):
        u = haar_unitary(np.random.default_rng(0), 8)
        r = replaced(ideal, alice={"C": {2: u @ ideal.alice["C"][2] @ u.conj().T}})
        with pytest.raises(StrategyValidationError) as caught:
            score(r)
        assert str(caught.value).endswith(
            "commutation 4.293e+00 at context C vertices 2, 5, context_product 1.384e+00 at context C"
        )

    def test_generated_strategies_go_through_the_gate(self, monkeypatch):
        measure = strategies._validate_rows

        def failing(L, alice, bob, tol):
            return [dataclasses.replace(report, involution=1.0, passed=False) for report in measure(L, alice, bob, tol)]

        monkeypatch.setattr(strategies, "_validate_rows", failing)
        with pytest.raises(StrategyValidationError, match="involution 1.000e[+]00"):
            perturb_ideal(PerturbationSpec(0.01, 5))
        with pytest.raises(StrategyValidationError, match="involution 1.000e[+]00"):
            calibrate_delta(1e-3, seed=3)


def _parts(s):
    """s's constructor arguments, its alice and bob as fresh, writable dicts of copies."""
    if isinstance(s, ProjectiveStrategy):
        state = {"psi": s.psi.copy(), "dim_a": s.dim_a, "dim_b": s.dim_b}
    else:
        state = {"L": s.L.copy()}
    alice = {j: {k: m.copy() for k, m in ctx.items()} for j, ctx in s.alice.items()}
    return {**state, "alice": alice, "bob": {v: m.copy() for v, m in s.bob.items()}}


# Each edit breaks the structure of _parts' arguments in place.
def _drop_vertex(args):
    del args["bob"][7]


def _extra_context(args):
    args["alice"]["H"] = dict(args["alice"]["C"])


def _extra_vertex(args):
    args["alice"]["G"][5] = args["alice"]["G"][4]


def _small_operator(args):
    args["alice"]["E"][6] = np.eye(4)


def _vector_state(args):
    args["L"] = args["L"].ravel()


def _nan_entry(args):
    args["bob"][9][2, 3] = np.nan


def _inf_state(args):
    args["L"][0, 0] = np.inf


def _string_operator(args):
    args["bob"][3] = "abc"


def _string_state(args):
    args["L"] = "abc"


def _scalar_alice(args):
    args["alice"] = 5


def _list_context(args):
    args["alice"]["D"] = list(args["alice"]["D"].values())


def _short_psi(args):
    args["psi"] = np.ones(3) / np.sqrt(3)


def _wrong_dim(args):
    args["dim_a"] = 4


def _float_dim(args):
    args["dim_b"] = 8.0


def _bool_dim(args):
    args["dim_a"] = True


def _small_projector(args):
    args["alice"]["C"][(0, 0, 1, 1)] = np.eye(4)


def _nan_projector(args):
    args["alice"]["E"][(0, 0, 0, 0)][1, 2] = np.nan


def _ragged_pair(args):
    args["bob"][7] = (args["bob"][7][0], np.eye(4))


class TestConstructor:
    """The constructors parse keys, shapes and entries; the axioms wait for the gate or the projective check."""

    @pytest.mark.parametrize(
        "form, edit, message",
        [
            (ReflectionStrategy, _drop_vertex, r"bob: missing keys \[7\], unexpected keys \[\]"),
            (ReflectionStrategy, _extra_context, r"alice: missing keys \[\], unexpected keys \['H'\]"),
            (ReflectionStrategy, _extra_vertex, r"alice\[G\]: missing keys \[\], unexpected keys \[5\]"),
            (ReflectionStrategy, _small_operator, r"alice\[E\]\[6\]: shape \(4, 4\), expected \(8, 8\)"),
            (ReflectionStrategy, _vector_state, r"L: shape \(64,\), expected a nonempty matrix"),
            (ReflectionStrategy, _nan_entry, r"bob\[9\]: non-finite entries"),
            (ReflectionStrategy, _inf_state, r"L: non-finite entries"),
            (ReflectionStrategy, _string_operator, r"bob\[3\]: not an array of numbers"),
            (ReflectionStrategy, _string_state, r"L: not an array of numbers"),
            (ReflectionStrategy, _scalar_alice, r"alice: int, expected a mapping"),
            (ReflectionStrategy, _list_context, r"alice\[D\]: list, expected a mapping"),
            (ProjectiveStrategy, _short_psi, r"psi: shape \(3,\), expected \(64,\)"),
            (ProjectiveStrategy, _wrong_dim, r"psi: shape \(64,\), expected \(32,\)"),
            (ProjectiveStrategy, _float_dim, r"dim_a, dim_b: 8, 8.0, expected positive integers"),
            (ProjectiveStrategy, _bool_dim, r"dim_a, dim_b: True, 8, expected positive integers"),
            (ProjectiveStrategy, _small_projector, r"alice\[C\]\[\(0, 0, 1, 1\)\]: shape \(4, 4\), expected \(8, 8\)"),
            (ProjectiveStrategy, _nan_projector, r"alice\[E\]\[\(0, 0, 0, 0\)\]: non-finite entries"),
            (ProjectiveStrategy, _ragged_pair, r"bob\[7\]: not an array of numbers"),
        ],
        ids=[
            "missing-vertex",
            "extra-context",
            "extra-vertex",
            "wrong-shape",
            "vector-state",
            "nan",
            "inf",
            "string-entry",
            "string-state",
            "scalar-alice",
            "list-context",
            "psi-length",
            "dim",
            "float-dim",
            "bool-dim",
            "projector-shape",
            "projective-nan",
            "ragged-pair",
        ],
    )
    def test_structure_named(self, ideal, form, edit, message):
        args = _parts(ideal if form is ReflectionStrategy else to_projective(ideal))
        edit(args)
        with pytest.raises(InvalidStrategyError, match=f"^{message}$"):
            form(**args)

    def test_views_are_read_only(self, ideal):
        p, t = to_projective(ideal), (0, 0, 1, 1)
        with pytest.raises(AttributeError):
            ideal.L = 2 * ideal.L
        for s, name in ((ideal, "alice"), (p, "psi"), (p, "alice"), (p, "bob"), (p, "dim_a")):
            with pytest.raises(AttributeError):
                setattr(s, name, {})
        with pytest.raises(TypeError):
            ideal.alice["C"][2] = np.eye(8)
        with pytest.raises(TypeError):
            ideal.alice["C"] = {}
        with pytest.raises(TypeError):
            ideal.bob[3] = np.eye(8)
        with pytest.raises(TypeError):
            p.alice["C"][t] = np.eye(8)
        with pytest.raises(TypeError):
            p.bob[3] = p.bob[4]
        for m in (ideal.L, ideal.alice["C"][2], ideal.bob[3], p.psi, p.alice["C"][t], p.bob[3], p.bob[3][1]):
            with pytest.raises(ValueError, match="read-only"):
                m[0] = 1.0

    def test_inputs_are_copied(self, ideal):
        args = _parts(ideal)
        r, other = ReflectionStrategy(**args), ReflectionStrategy(**args)
        assert score(r) == 1.0
        args["L"][0, 0] = 0.0
        args["alice"]["C"][2][0, 0] = 5.0
        args["bob"][3] *= 0.5
        # neither the strategy gated before the writes nor the one gated after sees them
        assert score(r) == score(other) == 1.0
        assert validate(r, 1e-10).passed
        assert np.array_equal(r.L, ideal.L) and np.array_equal(r.bob[3], ideal.bob[3])
        assert np.array_equal(r.alice["C"][2], ideal.alice["C"][2])
        ideal_p = to_projective(ideal)
        args = _parts(ideal_p)
        p = ProjectiveStrategy(**args)
        args["psi"][0] = 0.0
        args["alice"]["C"][(0, 0, 1, 1)][0, 0] = 5.0
        args["bob"][3] *= 0.5
        assert score(to_reflection(p)) == 1.0
        assert np.array_equal(p.psi, ideal_p.psi) and np.array_equal(p.bob[3], ideal_p.bob[3])
        assert np.array_equal(p.alice["C"][(0, 0, 1, 1)], ideal_p.alice["C"][(0, 0, 1, 1)])

    def test_copy_and_pickle_round_trip(self):
        r = perturb_ideal(PerturbationSpec(0.01, 5))
        assert r.alice["C"][2] is r.alice["C"][2]
        for other in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert other is not r and score(other) == score(r)
            assert np.array_equal(other.L, r.L) and np.array_equal(other.bob[4], r.bob[4])
            assert all(np.array_equal(other.alice[j][v], m) for j, ctx in r.alice.items() for v, m in ctx.items())
            with pytest.raises(ValueError, match="read-only"):
                other.alice["C"][2][0, 0] = 1.0
        p = to_projective(r)
        for other in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(other) is ProjectiveStrategy and other is not p
            assert np.array_equal(other.psi, p.psi) and all(np.array_equal(other.bob[v], m) for v, m in p.bob.items())
            assert all(np.array_equal(other.alice[j][t], m) for j, ctx in p.alice.items() for t, m in ctx.items())
            assert score(to_reflection(other)) == score(to_reflection(p))
            with pytest.raises(ValueError, match="read-only"):
                other.alice["C"][(0, 0, 1, 1)][0, 0] = 1.0


class TestGateOnce:
    """A strategy passes the gate once, when a measure first needs it, and remembers the verdict."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls, measure = [], strategies._validate_rows

        def counting(L, alice, bob, tol):
            calls.append(len(L))
            return measure(L, alice, bob, tol)

        monkeypatch.setattr(strategies, "_validate_rows", counting)
        return calls

    def test_eight_words_gate_once(self, calls):
        r = perturb_ideal(PerturbationSpec(0.01, 5))
        assert calls == [1]
        for label in ("X1", "Z3", "X4", "Z6"):
            for n in (1, 3):
                word_residual(r, [label] * n)
        assert calls == [1]

    def test_certify_then_score_gate_once(self, calls):
        r = random_strategy(3)
        report = certify(r)
        assert score(r) == 1.0 - report.epsilon
        losing_terms(r)
        to_projective(r)
        assert calls == [1]
        assert certify(r).validation is report.validation

    def test_failing_verdict_remembered(self, calls, ideal):
        r = replaced(ideal, alice={"G": {1: -ideal.alice["G"][1]}})
        for _ in range(2):
            with pytest.raises(StrategyValidationError, match="context_product 2.000e[+]00 at context G$"):
                score(r)
        assert calls == [1]
