import json

import numpy as np
import pytest

from pentagram import strategies
from pentagram.game import STANDARD_GAME, PentagramGame, best_classical_strategy, parity_assignments
from pentagram.linalg import PAULI_Z, frobenius_norm, kron_all
from pentagram.optimize import PerturbationSpec, calibrate_delta, perturb_ideal, random_strategy
from pentagram.rigidity import certify
from pentagram.strategies import (
    IDEAL_OBSERVABLES,
    ProjectiveStrategy,
    ReflectionStrategy,
    StrategyValidationError,
    classical_embedding,
    ideal_strategy,
    load_reflection,
    losing_terms,
    projective_to_json,
    reflection_to_json,
    score,
    strategy_from_json,
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
        ideal.bob[6] = -ideal.bob[6]
        assert abs(score(ideal) - (1.0 - 2.0 / 20.0)) <= 1e-12
        terms = losing_terms(ideal)
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
        for v in ideal.game.contexts["C"]:
            ideal.alice["C"][v] = np.eye(8, dtype=complex)
        p = to_projective(ideal)
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
        ideal.alice["C"][2] = 0.5 * ideal.alice["C"][2]
        with pytest.raises(ValueError):
            to_projective(ideal)

    def test_invalid_projective_strategy_rejected(self, ideal):
        p = to_projective(ideal)
        first = next(iter(p.alice["C"]))
        p.alice["C"][first] = 0.5 * p.alice["C"][first]
        with pytest.raises(ValueError):
            to_reflection(p)


class TestValidationReport:
    def test_halved_reflection_deviation(self, ideal):
        ideal.bob[3] = 0.5 * ideal.bob[3]
        report = validate(ideal, 1e-10)
        assert not report.passed
        assert report.involution == pytest.approx(0.75 * np.sqrt(8), abs=1e-12)

    def test_negated_context_product(self, ideal):
        ideal.alice["C"][2] = -ideal.alice["C"][2]
        report = validate(ideal, 1e-10)
        assert not report.passed
        # reported on the per-entry scale: ||I - (-I)||_F / sqrt(dim) = 2
        assert report.context_product == pytest.approx(2.0, abs=1e-12)

    def test_state_norm_deviation(self, ideal):
        ideal.L = 2.0 * ideal.L
        report = validate(ideal, 1e-10)
        assert report.state_norm == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_reflection_round_trip(self):
        r = perturb_ideal(PerturbationSpec(0.02, 9))
        obj = json.loads(json.dumps(reflection_to_json(r)))
        r2 = strategy_from_json(obj)
        np.testing.assert_array_equal(r2.L, r.L)
        for j in r.game.context_names:
            for v in r.game.contexts[j]:
                np.testing.assert_array_equal(r2.alice[j][v], r.alice[j][v])
        for v in r.game.vertices:
            np.testing.assert_array_equal(r2.bob[v], r.bob[v])

    def test_projective_round_trip(self, ideal):
        p = to_projective(ideal)
        obj = json.loads(json.dumps(projective_to_json(p)))
        p2 = strategy_from_json(obj)
        np.testing.assert_array_equal(p2.psi, p.psi)
        assert p2.alice["C"].keys() == p.alice["C"].keys()
        assert abs(score_projective(p2) - 1.0) <= 1e-12

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
        obj = reflection_to_json(ideal)
        with pytest.raises(TypeError):
            ReflectionStrategy(L=ideal.L, alice=ideal.alice, bob=ideal.bob, game=STANDARD_GAME)
        with pytest.raises(TypeError):
            strategy_from_json(obj, game=STANDARD_GAME)
        with pytest.raises(TypeError):
            load_reflection(obj, game=STANDARD_GAME)
        with pytest.raises(TypeError):
            classical_embedding(witness, game=STANDARD_GAME)

    def test_every_strategy_shares_the_standard_game(self, ideal):
        witness, _ = best_classical_strategy(STANDARD_GAME)
        p = to_projective(ideal)
        built = [
            ideal,
            p,
            to_reflection(p),
            load_reflection(json.loads(json.dumps(projective_to_json(p)))),
            load_reflection(json.loads(json.dumps(reflection_to_json(ideal)))),
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
        ideal.bob[1] = 0.5 * ideal.bob[1]
        messages = set()
        for refuse in (to_projective, certify):
            with pytest.raises(StrategyValidationError) as caught:
                refuse(ideal)
            messages.add(str(caught.value))
        assert messages == {"strategy failed validation at tol=1e-10: involution 2.121e+00"}

    def test_generated_strategies_go_through_the_gate(self, monkeypatch):
        measure = strategies._validate_rows

        def failing(L, alice, bob, tol):
            reports = measure(L, alice, bob, tol)
            for report in reports:
                report.involution, report.passed = 1.0, False
            return reports

        monkeypatch.setattr(strategies, "_validate_rows", failing)
        with pytest.raises(StrategyValidationError, match="involution 1.000e[+]00"):
            perturb_ideal(PerturbationSpec(0.01, 5))
        with pytest.raises(StrategyValidationError, match="involution 1.000e[+]00"):
            calibrate_delta(1e-3, seed=3)
