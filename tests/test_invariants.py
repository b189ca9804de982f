"""Structural invariants as properties over seeded random strategies.

Each property runs a small derandomized budget of examples, so the suite
stays deterministic and fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagram.linalg import frobenius_norm
from pentagram.optimize import bob_best_response, random_reflection, random_strategy
from pentagram.rigidity import build_isometry
from pentagram.strategies import losing_terms, score, to_projective, to_reflection

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
