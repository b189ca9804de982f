"""Structural invariants as properties over seeded random strategies.

Each property runs a small derandomized budget of examples, so the suite
stays deterministic and fast.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentagram.game import STANDARD_GAME
from pentagram.linalg import STRUCTURE_TOL, frobenius_norm, matrix_to_json
from pentagram.optimize import (
    MODES,
    PerturbationSpec,
    bob_best_response,
    haar_unitary,
    perturb_ideal,
    random_reflection,
    random_strategy,
)
from pentagram.rigidity import build_isometry, certify, consistency_residuals, report_to_json
from pentagram.strategies import ReflectionStrategy, losing_terms, score, to_projective, to_reflection, validate
from test_loop_references import junk_register_strategy

seeds = st.integers(0, 2**32 - 1)
budget = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@budget
@given(seeds)
def test_score_in_unit_interval(seed):
    r = random_strategy(seed)
    assert 0.0 <= score(r) <= 1.0
    assert all(0.0 <= t <= 1.0 for t in losing_terms(r).values())


@budget
@given(seeds)
def test_projective_round_trip_reproduces_strategy(seed):
    r = random_strategy(seed)
    back = to_reflection(to_projective(r))
    assert np.max(np.abs(back.L - r.L)) <= 1e-12
    for j in r.game.context_names:
        for v in r.game.contexts[j]:
            assert np.max(np.abs(back.alice[j][v] - r.alice[j][v])) <= 1e-12
    for v in r.game.vertices:
        assert np.max(np.abs(back.bob[v] - r.bob[v])) <= 1e-12


@budget
@given(seeds)
def test_bob_best_response_never_lowers_score(seed):
    r = random_strategy(seed)
    assert score(bob_best_response(r)) >= score(r) - 1e-12


@budget
@given(seeds, st.sampled_from([1, 2, 4, 8]))
def test_isometry_gram_is_identity(seed, dim):
    rng = np.random.default_rng(seed)
    x_ops = [random_reflection(rng, dim) for _ in range(3)]
    z_ops = [random_reflection(rng, dim) for _ in range(3)]
    m = build_isometry(x_ops, z_ops)
    assert m.shape == (8 * dim, dim)
    assert frobenius_norm(m.conj().T @ m - np.eye(dim)) <= 1e-12


perturbed = st.builds(
    lambda delta, seed, mode: perturb_ideal(PerturbationSpec(delta, seed, mode)),
    st.floats(0.0, 1.0),
    seeds,
    st.sampled_from(MODES),
)


def conjugated(r: ReflectionStrategy) -> ReflectionStrategy:
    """r with L and every operator complex-conjugated."""
    return ReflectionStrategy(
        L=r.L.conj(),
        alice={j: {v: m.conj() for v, m in ctx.items()} for j, ctx in r.alice.items()},
        bob={v: m.conj() for v, m in r.bob.items()},
    )


@budget
@given(st.one_of(perturbed, st.builds(random_strategy, seeds)))
@example(junk_register_strategy())
def test_certify_commutes_with_conjugation(r):
    """Conjugating L and every operator conjugates the junk state exactly and leaves every other field equal.

    Conjugation commutes with every rounded product and sum, and the Bell basis, Hadamard and |+> are real, so
    this holds whichever BLAS kernel runs.
    """
    report = certify(r)
    plain, mirrored = report_to_json(report), report_to_json(certify(conjugated(r)))
    del plain["junk"]
    assert mirrored.pop("junk") == matrix_to_json(report.junk.conj())
    assert mirrored == plain


def rotated(r: ReflectionStrategy, u_a: np.ndarray, u_b: np.ndarray) -> ReflectionStrategy:
    """r under local unitaries: L -> U_A L U_B^T, R -> U_A R U_A^dagger, S -> conj(U_B) S U_B^T."""
    return ReflectionStrategy(
        L=u_a @ r.L @ u_b.T,
        alice={j: {v: u_a @ m @ u_a.conj().T for v, m in ctx.items()} for j, ctx in r.alice.items()},
        bob={v: u_b.conj() @ m @ u_b.T for v, m in r.bob.items()},
    )


def close_fields(a, b, tol: float) -> bool:
    """Two report_to_json trees with the same keys, equal booleans and floats within tol."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(close_fields(a[k], b[k], tol) for k in a)
    if isinstance(a, bool):
        return a is b
    return abs(a - b) <= tol


@budget
@given(st.one_of(perturbed, st.builds(random_strategy, seeds)), seeds)
@example(junk_register_strategy(), 0)
def test_certify_invariant_under_local_unitaries(r, seed):
    """Local unitaries leave every certificate field but junk unchanged, and carry junk to U_A junk U_B^T.

    They commute with both isometries, V_A -> (U_A (x) I) V_A U_A^dagger and V_B likewise with conj(U_B), so the
    image of the state becomes (U_A (x) I) P (U_B^T (x) I); the equality holds to rounding, on any BLAS kernel.
    """
    rng = np.random.default_rng(seed)
    u_a, u_b = haar_unitary(rng, r.dim_a), haar_unitary(rng, r.dim_b)
    report, moved = certify(r), certify(rotated(r, u_a, u_b))
    plain, turned = report_to_json(report), report_to_json(moved)
    del plain["junk"], turned["junk"]
    assert close_fields(plain, turned, 1e-13)
    assert np.max(np.abs(moved.junk - u_a @ report.junk @ u_b.T)) <= 1e-13


# fixed seeds: W[v] with an eigenvalue near zero, which a generated case could give, may flip a sign
@pytest.mark.parametrize("r", [random_strategy(s) for s in (0, 1, 2)] + [perturb_ideal(PerturbationSpec(0.3, 4))])
def test_bob_best_response_commutes_with_local_unitaries(r):
    """Bob's best response to the rotated strategy is his rotated best response: W[v] -> conj(U_B) W[v] U_B^T."""
    rng = np.random.default_rng(7)
    u_a, u_b = haar_unitary(rng, r.dim_a), haar_unitary(rng, r.dim_b)
    best, moved = bob_best_response(r), bob_best_response(rotated(r, u_a, u_b))
    for v in r.game.vertices:
        assert frobenius_norm(moved.bob[v] - u_b.conj() @ best.bob[v] @ u_b.T) <= 1e-12


# fixed seeds, as above
@pytest.mark.parametrize("r", [random_strategy(s) for s in (0, 1, 2)] + [perturb_ideal(PerturbationSpec(0.3, 4))])
def test_bob_best_response_commutes_with_conjugation(r):
    """Bob's best response to the conjugated strategy is his conjugated best response, bit for bit.

    A conjugated Hermitian W[v] has conjugated eigenvectors up to phase, and the sign projector does not depend on
    the phase.
    """
    best, mirrored = bob_best_response(r), bob_best_response(conjugated(r))
    for v in r.game.vertices:
        assert np.array_equal(mirrored.bob[v], best.bob[v].conj())


def relabellings():
    """The 24 label-preserving automorphisms as (context map, vertex map): each permutation of C, D, E and F, fixing G.

    A vertex is where its two contexts meet, so it goes to where their images meet.
    """
    game = STANDARD_GAME
    meet = {frozenset(game.contexts_of(v)): v for v in game.vertices}
    for image in permutations("CDEF"):
        pi = {**dict(zip("CDEF", image)), "G": "G"}
        yield pi, {v: meet[frozenset(pi[j] for j in game.contexts_of(v))] for v in game.vertices}


def relabelled(r: ReflectionStrategy, pi: dict, sigma: dict) -> ReflectionStrategy:
    """r with R[j][v] moved to R[pi[j]][sigma[v]] and S[v] to S[sigma[v]]; L is unchanged."""
    return ReflectionStrategy(
        L=r.L,
        alice={pi[j]: {sigma[v]: m for v, m in ctx.items()} for j, ctx in r.alice.items()},
        bob={sigma[v]: m for v, m in r.bob.items()},
    )


# fixed cases, as measured on the default, Haswell and Prescott kernels
@pytest.mark.parametrize(
    "r",
    [
        perturb_ideal(PerturbationSpec(delta, seed, mode))
        for delta in (0.01, 0.3)
        for seed in (1, 2)
        for mode in ("combined", "context-unitaries")
    ]
    + [random_strategy(s) for s in (0, 1, 2)],
)
def test_relabelling_permutes_the_measures(r):
    """Relabelling by an automorphism permutes the per-question and per-vertex measures and keeps the rest.

    Each losing term, consistency residual and context change is computed alone from the operators it names, and
    each validation maximum over the same matrices up to order (a commutator may change sign), so these are exact.
    The context product multiplies in another order and the score sums in another, so those agree to rounding.
    Residuals that depend on the register choice (state and operator residuals) do not permute.
    """
    terms, consistency, changes = losing_terms(r), consistency_residuals(r), certify(r).context_change_residuals
    validation, win = validate(r, STRUCTURE_TOL), score(r)
    exact = ("hermiticity", "involution", "commutation", "state_norm")
    for pi, sigma in relabellings():
        moved = relabelled(r, pi, sigma)
        assert losing_terms(moved) == {(pi[j], sigma[v]): t for (j, v), t in terms.items()}
        assert consistency_residuals(moved) == {(pi[j], sigma[v]): x for (j, v), x in consistency.items()}
        assert certify(moved).context_change_residuals == {sigma[v]: x for v, x in changes.items()}
        report = validate(moved, STRUCTURE_TOL)
        assert [getattr(report, f) for f in exact] == [getattr(validation, f) for f in exact]
        assert abs(report.context_product - validation.context_product) <= 1e-15
        assert abs(score(moved) - win) <= 1e-15
