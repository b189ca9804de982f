"""Plain-numpy references the benchmark checks the package against.

Nothing here imports ``pentagram``: the game tables, the ideal observables,
epsilon, the consistency residuals, the best-response optimality condition
and the classical value are recomputed from their definitions, so a fault in
the package cannot hide behind the same fault in its check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

import numpy as np

CONTEXTS = {
    "C": (2, 5, 7, 10),
    "D": (1, 8, 9, 10),
    "E": (3, 5, 6, 8),
    "F": (4, 6, 7, 9),
    "G": (1, 2, 3, 4),
}
LABELS = {"C": 1, "D": 1, "E": 1, "F": 1, "G": -1}
VERTICES = tuple(range(1, 11))

# Real Pauli words of the perfect strategy, one per vertex (three qubits).
IDEAL_OBSERVABLES = {
    1: "ZZZ", 2: "ZXX", 3: "XXZ", 4: "XZX", 5: "IXI",
    6: "XII", 7: "IIX", 8: "IIZ", 9: "IZI", 10: "ZII",
}
_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}

# Slack on the hard per-question bound sqrt(80 epsilon), as the package states it.
BOUND_SLACK = 1e-9


def pauli_word(word: str) -> np.ndarray:
    return reduce(np.kron, [_PAULI[c] for c in word]).astype(complex)


def residuals(L, alice, bob) -> dict[tuple[str, int], float]:
    """|| R[j][v] L - L S[v] || for the 20 questions."""
    return {
        (j, v): float(np.linalg.norm(alice[j][v] @ L - L @ bob[v]))
        for j, vs in CONTEXTS.items()
        for v in vs
    }


def epsilon(L, alice, bob) -> float:
    """Losing probability (1/80) * sum || R L - L S ||^2."""
    return sum(res**2 for res in residuals(L, alice, bob).values()) / 80.0


def bound(eps: float) -> float:
    return float(np.sqrt(80.0 * max(eps, 0.0))) + BOUND_SLACK


def best_response_gap(L, alice, bob) -> float:
    """Largest |Re tr(W S[v]) - ||W||_1| over vertices, W = sum_j L^dag R[j][v] L.

    A reflection S attains the maximum ||W||_1 of Re tr(W S) exactly when it
    is Bob's optimal answer at vertex v.
    """
    gap = 0.0
    for v in VERTICES:
        w = sum(L.conj().T @ alice[j][v] @ L for j, vs in CONTEXTS.items() if v in vs)
        w = (w + w.conj().T) / 2
        trace_norm = float(np.abs(np.linalg.eigvalsh(w)).sum())
        gap = max(gap, abs(float(np.trace(w @ bob[v]).real) - trace_norm))
    return gap


def classical_value(contexts: dict, labels: dict) -> Fraction:
    """Exact classical value by enumerating all 1,024 Bob sign tables at once.

    Against a fixed Bob table Alice wins all four questions of a context when
    Bob's signs there multiply to its label, and three of four otherwise (she
    flips one sign to meet the parity constraint).
    """
    verts = sorted({v for vs in contexts.values() for v in vs})
    col = {v: i for i, v in enumerate(verts)}
    bits = (np.arange(2 ** len(verts))[:, None] >> np.arange(len(verts))) & 1
    signs = 1 - 2 * bits
    agree = sum(
        np.where(np.prod(signs[:, [col[v] for v in vs]], axis=1) == labels[j], 4, 3)
        for j, vs in contexts.items()
    )
    return Fraction(int(agree.max()), 20)
