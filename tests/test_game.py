import copy
import pickle
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagram.game import (
    STANDARD_CONTEXTS,
    STANDARD_GAME,
    ClassicalStrategy,
    PentagramGame,
    best_classical_strategy,
    classical_value,
    evaluate_classical,
    parity_assignments,
)


@pytest.fixture(scope="module")
def game():
    return PentagramGame()


class TestStructure:
    def test_questions(self, game):
        qs = game.questions()
        assert len(qs) == 20
        assert len(set(qs)) == 20
        assert [q for q in qs if q[1] == 10] == [("C", 10), ("D", 10)]

    def test_double_counting(self, game):
        assert sum(len(game.contexts[j]) for j in game.context_names) == 20
        assert len(game.vertices) == 10

    def test_every_vertex_in_two_contexts(self, game):
        for v in game.vertices:
            assert len(game.contexts_of(v)) == 2

    def test_labels(self, game):
        assert [game.labels[j] for j in "CDEFG"] == [1, 1, 1, 1, -1]

    def test_adjacency_examples(self, game):
        assert not game.adjacent(7, 3)
        assert game.adjacent(1, 2)

    def test_neighbor_counts(self, game):
        for v in game.vertices:
            assert len(game.neighbors(v)) == 6
            assert len(game.non_neighbors(v)) == 3

    def test_adjacency_same_vertex_rejected(self, game):
        with pytest.raises(ValueError):
            game.adjacent(4, 4)

    def test_contexts_pairwise_intersect_once(self, game):
        names = game.context_names
        for i, j in product(names, names):
            if i < j:
                shared = set(game.contexts[i]) & set(game.contexts[j])
                assert len(shared) == 1

    def test_invalid_incidence_rejected(self):
        contexts = dict(PentagramGame().contexts)
        contexts["C"] = (1, 2, 3, 4)  # reuses G's vertices
        with pytest.raises(ValueError):
            PentagramGame(contexts=contexts, labels=dict(PentagramGame().labels))
        # every vertex on two contexts, but C and D share two vertices
        contexts = dict(zip("CDEFG", [(1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 7, 8), (5, 6, 9, 10), (7, 8, 9, 10)]))
        with pytest.raises(ValueError, match="contexts C and D must share exactly one vertex"):
            PentagramGame(contexts=contexts, labels=dict(PentagramGame().labels))

    def test_relabeled_game_is_isomorphic(self):
        # shifting every vertex id leaves all game quantities unchanged
        base = PentagramGame()
        contexts = {j: tuple(v + 10 for v in vs) for j, vs in base.contexts.items()}
        shifted = PentagramGame(contexts=contexts, labels=dict(base.labels))
        assert classical_value(shifted) == Fraction(19, 20)
        assert not shifted.adjacent(17, 13)


class TestParity:
    def test_eight_valid_assignments(self, game):
        for j in game.context_names:
            ts = parity_assignments(game, j)
            assert len(ts) == 8
            want = 0 if game.labels[j] == 1 else 1
            assert all(sum(t) % 2 == want for t in ts)

    def test_obstruction_over_all_bob_tables(self, game):
        # any global sign table violates an odd number of context labels
        for signs in product((1, -1), repeat=10):
            bob = dict(zip(game.vertices, signs))
            mismatched = 0
            for j in game.context_names:
                prod_signs = 1
                for v in game.contexts[j]:
                    prod_signs *= bob[v]
                if prod_signs != game.labels[j]:
                    mismatched += 1
            assert mismatched % 2 == 1
            assert mismatched >= 1


class TestClassical:
    def test_value_is_exact(self, game):
        value = classical_value(game)
        assert value == Fraction(19, 20)
        assert value < 1
        assert value.denominator == 20

    def test_witness_achieves_value(self, game):
        witness, value = best_classical_strategy(game)
        assert value == Fraction(19, 20)
        assert evaluate_classical(game, witness) == Fraction(19, 20)

    def test_all_plus_bob_best_response(self, game):
        # Bob all +1: four contexts copied perfectly, G loses one vertex
        bob = {v: 1 for v in game.vertices}
        alice = {}
        for j in game.context_names:
            table = {v: 1 for v in game.contexts[j]}
            if game.labels[j] == -1:
                table[game.contexts[j][0]] = -1
            alice[j] = table
        value = evaluate_classical(game, ClassicalStrategy(alice, bob))
        assert value == Fraction(19, 20)

    def test_score_counts_agreements_only(self, game):
        witness, _ = best_classical_strategy(game)
        flipped_bob = {v: -witness.bob[v] for v in game.vertices}
        mirrored = ClassicalStrategy(witness.alice, flipped_bob)
        # the witness agrees on 19 questions, so the mirror agrees on 1
        assert evaluate_classical(game, mirrored) == Fraction(1, 20)

    def test_no_valid_strategy_disagrees_everywhere(self, game):
        # full enumeration of the adversarial minimum: the parity obstruction
        # forces at least one agreement, and the floor 1/20 mirrors the 19/20 cap
        worst = Fraction(1)
        for signs in product((1, -1), repeat=10):
            bob = dict(zip(game.vertices, signs))
            agree = 0
            for j in game.context_names:
                vs = game.contexts[j]
                agree += min(
                    sum(1 for bit, v in zip(t, vs) if (1 - 2 * bit) == bob[v])
                    for t in parity_assignments(game, j)
                )
            worst = min(worst, Fraction(agree, 20))
        assert worst == Fraction(1, 20)

    def test_parity_violation_rejected(self, game):
        alice = {j: {v: 1 for v in game.contexts[j]} for j in game.context_names}
        bob = {v: 1 for v in game.vertices}
        with pytest.raises(ValueError):
            evaluate_classical(game, ClassicalStrategy(alice, bob))


def _reference_best_classical_strategy(game):
    """The nested-loop enumeration the array version replaced, kept verbatim."""

    def best_context_table(j, bob):
        vs = game.contexts[j]
        best_t, best_agree = None, -1
        for t in parity_assignments(game, j):
            agree = sum(1 for bit, v in zip(t, vs) if (1 - 2 * bit) == bob[v])
            if agree > best_agree:
                best_t, best_agree = t, agree
        return {v: 1 - 2 * bit for bit, v in zip(best_t, vs)}, best_agree

    verts = game.vertices
    best_strategy, best_agree = None, -1
    for signs in product((1, -1), repeat=len(verts)):
        bob = dict(zip(verts, signs))
        alice = {}
        agree = 0
        for j in game.context_names:
            alice[j], a = best_context_table(j, bob)
            agree += a
        if agree > best_agree:
            best_strategy, best_agree = ClassicalStrategy(alice, bob), agree
    return best_strategy, Fraction(best_agree, 20)


def _assert_same_witness(game):
    witness, value = best_classical_strategy(game)
    ref_witness, ref_value = _reference_best_classical_strategy(game)
    assert value == ref_value
    for j in game.context_names:
        for v in game.contexts[j]:
            assert witness.alice[j][v] == ref_witness.alice[j][v]
    for v in game.vertices:
        assert witness.bob[v] == ref_witness.bob[v]
    return value


@st.composite
def relabelled_games(draw):
    """A vertex permutation (with shifted ids) plus labels of either parity."""
    perm = draw(st.permutations(range(1, 11)))
    shift = draw(st.integers(0, 20))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4))
    product_sign = draw(st.sampled_from([1, -1]))
    contexts = {j: tuple(perm[v - 1] + shift for v in vs) for j, vs in STANDARD_CONTEXTS.items()}
    labels = dict(zip("CDEFG", signs + [product_sign * prod(signs)]))
    return PentagramGame(contexts=contexts, labels=labels), product_sign


class TestAgainstNestedLoops:
    def test_standard_game(self, game):
        assert _assert_same_witness(game) == Fraction(19, 20)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(relabelled_games())
    def test_relabelled_games(self, drawn):
        game, product_sign = drawn
        expected = Fraction(19, 20) if product_sign == -1 else Fraction(1)
        assert _assert_same_witness(game) == expected


class TestTables:
    """The tables built with a game against a fresh sorted recomputation."""

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(relabelled_games())
    def test_relabelled_games(self, drawn):
        game, _ = drawn
        names = tuple(sorted(game.contexts))
        verts = tuple(sorted({v for vs in game.contexts.values() for v in vs}))
        assert game.context_names == names
        assert game.vertices == verts
        assert game.questions() == [(j, v) for j in names for v in sorted(game.contexts[j])]
        for v in verts:
            assert game.contexts_of(v) == tuple(j for j in names if v in game.contexts[j])
        with pytest.raises(ValueError, match="unknown vertex"):
            game.contexts_of(max(verts) + 1)

    def test_tables_are_read_only(self):
        # an edit would leave the tables built with the game stale; the same
        # value is written back, so a game that accepts it stays intact
        for table in (STANDARD_GAME.contexts, STANDARD_GAME.labels):
            with pytest.raises(TypeError):
                table["C"] = table["C"]

    def test_labels_are_copied(self):
        labels = {"C": 1, "D": 1, "E": 1, "F": 1, "G": -1}
        game = PentagramGame(labels=labels)
        labels["C"] = -1
        assert game.labels["C"] == 1

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(relabelled_games())
    def test_copy_and_pickle_round_trip(self, drawn):
        game, _ = drawn
        for other in (copy.deepcopy(game), pickle.loads(pickle.dumps(game))):
            assert other == game
            assert other.questions() == game.questions()
            with pytest.raises(TypeError):
                other.contexts["C"] = (1, 2, 3, 4)
