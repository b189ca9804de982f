"""A changed copy of a strategy, built through the public constructor, for tests that break one part of it."""

from pentagram.strategies import ReflectionStrategy


def replaced(r, L=None, alice=None, bob=None):
    """r with L and the given alice {j: {v: m}} and bob {v: m} entries replaced."""
    alice, bob = alice or {}, bob or {}
    return ReflectionStrategy(
        L=r.L if L is None else L,
        alice={j: {**ctx, **alice.get(j, {})} for j, ctx in r.alice.items()},
        bob={**r.bob, **bob},
    )
