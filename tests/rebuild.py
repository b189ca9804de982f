"""A changed copy of a strategy, built through the public constructor, for tests that break one part of it."""

from pentagram.strategies import ProjectiveStrategy, ReflectionStrategy


def replaced(s, alice=None, bob=None, **state):
    """s with the given alice {j: {key: m}} and bob {v: m} entries and state fields replaced.

    The state fields are a reflection strategy's L, or a projective strategy's psi, dim_a and dim_b.
    """
    alice, bob = alice or {}, bob or {}
    if isinstance(s, ProjectiveStrategy):
        state = {"psi": s.psi, "dim_a": s.dim_a, "dim_b": s.dim_b, **state}
    else:
        state = {"L": s.L, **state}
    return type(s)(
        **state,
        alice={j: {**ctx, **alice.get(j, {})} for j, ctx in s.alice.items()},
        bob={**s.bob, **bob},
    )
