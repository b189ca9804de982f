"""Score the perfect quantum strategy and inspect its operator algebra.

Alice and Bob share three EPR pairs and measure real Pauli words: single
Paulis on six of the vertices, three-letter words on the vertices of the odd
context.  Observables inside a context commute and multiply to the context
label, while observables of non-adjacent vertices anticommute; that
anticommutation is what the self-test later leans on.
"""

import numpy as np

from pentagram import ideal_strategy, losing_terms, score, validate
from pentagram.rigidity import X_PRIME_VERTEX, Z_PRIME_VERTEX
from pentagram.strategies import IDEAL_OBSERVABLES


def main():
    r = ideal_strategy()

    print("Per-vertex Pauli words:")
    for v in r.game.vertices:
        print(f"  vertex {v:2d}: {IDEAL_OBSERVABLES[v]}")

    report = validate(r, 1e-12)
    print()
    print(f"Validation at 1e-12: {'PASS' if report.passed else 'FAIL'}")
    for name, dev in report.deviations().items():
        print(f"  {name:16s} {dev:.3e}")

    print()
    print(f"score = {score(r):.12f}")
    worst = max(losing_terms(r).values())
    print(f"largest losing term = {worst:.3e}")

    obs = {v: r.bob[v] for v in r.game.vertices}
    print()
    print("Sample anticommutators of non-adjacent observables (all vanish):")
    for v, w in ((1, 7), (3, 7), (2, 8)):
        acomm = obs[v] @ obs[w] + obs[w] @ obs[v]
        print(f"  {{O{v}, O{w}}} has norm {np.linalg.norm(acomm):.1e}")

    print()
    print("Simulated Pauli assignment (register, X-type vertex word, Z-type):")
    for i in (1, 2, 3):
        x_word = IDEAL_OBSERVABLES[X_PRIME_VERTEX[i]]
        z_word = IDEAL_OBSERVABLES[Z_PRIME_VERTEX[i]]
        print(f"  register {i}: X' = {x_word}, Z' = {z_word}")


if __name__ == "__main__":
    main()
