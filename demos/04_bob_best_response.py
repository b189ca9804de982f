"""Bob's closed-form best response: a one-shot see-saw half-step.

Holding Alice and the shared state fixed, Bob's optimum decouples per vertex
and is the matrix sign of W[v], the sum over the vertex's two contexts of
L^dagger R[j][v] L.  Against the ideal Alice this recovers the perfect score
from completely random Bob reflections in one step; on arbitrary strategies
it never lowers the score and is idempotent.
"""

import numpy as np

from pentagram import ReflectionStrategy, bob_best_response, ideal_strategy, random_strategy, score
from pentagram.optimize import random_reflection


def main():
    rng = np.random.default_rng(0)

    ideal = ideal_strategy()
    r = ReflectionStrategy(L=ideal.L, alice=ideal.alice, bob={v: random_reflection(rng, 8) for v in ideal.game.vertices})
    print(f"ideal Alice, random Bob:      score = {score(r):.6f}")
    print(f"after one best response:      score = {score(bob_best_response(r)):.6f}")

    print()
    print("Random strategies, before -> after -> after twice:")
    for seed in range(5):
        s = random_strategy(seed)
        once = bob_best_response(s)
        twice = bob_best_response(once)
        print(f"  seed {seed}: {score(s):.6f} -> {score(once):.6f} -> {score(twice):.6f}")


if __name__ == "__main__":
    main()
