"""The magic pentagram hypergraph and classical analysis of the game.

Ten vertices sit on five four-vertex hyperedges (the contexts).  Every vertex
lies on exactly two contexts and every pair of contexts meets in exactly one
vertex.  A referee draws a context j for Alice and a vertex v in j for Bob,
uniformly over the 20 such pairs.  Alice answers with a sign for each vertex
of j whose product must equal the context label; the round is won when her
sign for v matches Bob's.

The labels make the constraint system classically unsatisfiable: the product
of all five labels is -1, yet each vertex appears twice, so any global sign
assignment violates an odd number of contexts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from types import MappingProxyType

import numpy as np

# Vertex incidence of the pentagram.  Relabelled games serve the classical
# analysis; strategies are over STANDARD_GAME only.
STANDARD_CONTEXTS = {
    "C": (2, 5, 7, 10),
    "D": (1, 8, 9, 10),
    "E": (3, 5, 6, 8),
    "F": (4, 6, 7, 9),
    "G": (1, 2, 3, 4),
}
STANDARD_LABELS = {"C": 1, "D": 1, "E": 1, "F": 1, "G": -1}


@dataclass(frozen=True)
class PentagramGame:
    """Hypergraph of the game: context sets plus their parity labels.

    contexts and labels are read-only mappings, so the name, vertex, question
    and vertex-to-context tables built with the game cannot go stale.
    """

    contexts: Mapping[str, tuple[int, ...]] = field(default_factory=lambda: dict(STANDARD_CONTEXTS))
    labels: Mapping[str, int] = field(default_factory=lambda: dict(STANDARD_LABELS))
    context_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    vertices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _questions: tuple[tuple[str, int], ...] = field(init=False, repr=False, compare=False)
    _contexts_of: dict[int, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.contexts) != set(self.labels):
            raise ValueError("contexts and labels must use the same context names")
        if len(self.contexts) != 5:
            raise ValueError(f"expected 5 contexts, got {len(self.contexts)}")
        norm = {j: tuple(sorted(int(v) for v in vs)) for j, vs in self.contexts.items()}
        object.__setattr__(self, "contexts", MappingProxyType(norm))
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        for j, vs in norm.items():
            if len(set(vs)) != 4:
                raise ValueError(f"context {j} must contain 4 distinct vertices")
        counts: dict[int, int] = {}
        for vs in norm.values():
            for v in vs:
                counts[v] = counts.get(v, 0) + 1
        if any(c != 2 for c in counts.values()):
            raise ValueError("every vertex must appear in exactly 2 contexts")
        for j, k in combinations(sorted(norm), 2):
            if len(set(norm[j]) & set(norm[k])) != 1:
                raise ValueError(f"contexts {j} and {k} must share exactly one vertex")
        if any(l not in (-1, 1) for l in self.labels.values()):
            raise ValueError("labels must be +1 or -1")
        names = tuple(sorted(norm))
        verts = tuple(sorted(counts))
        object.__setattr__(self, "context_names", names)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_questions", tuple((j, v) for j in names for v in norm[j]))
        object.__setattr__(
            self, "_contexts_of", {v: tuple(j for j in names if v in norm[j]) for v in verts}
        )

    def __reduce__(self):
        # the read-only mappings do not pickle; rebuild from plain dicts
        return type(self), (dict(self.contexts), dict(self.labels))

    def contexts_of(self, v: int) -> tuple[str, ...]:
        """The two contexts containing vertex v, in name order."""
        try:
            return self._contexts_of[v]
        except (KeyError, TypeError):
            raise ValueError(f"unknown vertex {v}") from None

    def questions(self) -> list[tuple[str, int]]:
        """All 20 (context, vertex) question pairs, each of weight 1/20."""
        return list(self._questions)

    def adjacent(self, v: int, w: int) -> bool:
        """True when some context contains both vertices."""
        if v == w:
            raise ValueError("adjacency is only defined for distinct vertices")
        return any(v in vs and w in vs for vs in self.contexts.values())

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for w in self.vertices if w != v and self.adjacent(v, w))

    def non_neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for w in self.vertices if w != v and not self.adjacent(v, w))


# The one game of every strategy, the ideal strategy included.
STANDARD_GAME = PentagramGame()


def parity_assignments(game: PentagramGame, j: str) -> list[tuple[int, ...]]:
    """Valid Alice answers for context j as bit tuples over the sorted vertices.

    Bit b stands for the sign (-1)**b; a tuple is valid when the product of
    its signs equals the context label.  Each context has 8 valid tuples.
    """
    label = game.labels[j]
    want = 0 if label == 1 else 1
    return [t for t in product((0, 1), repeat=4) if sum(t) % 2 == want]


@dataclass
class ClassicalStrategy:
    """Deterministic strategy: one sign table per context for Alice, one for Bob.

    alice[j][v] and bob[v] are signs in {+1, -1}; each Alice table must
    multiply to the context label.
    """

    alice: dict[str, dict[int, int]]
    bob: dict[int, int]


def evaluate_classical(game: PentagramGame, strategy: ClassicalStrategy) -> Fraction:
    """Exact winning probability of a deterministic strategy.

    Raises ValueError if any Alice table violates its parity constraint
    (such strategies lose their context automatically and are excluded by
    definition of the answer format).
    """
    agree = 0
    for j in game.context_names:
        table = strategy.alice[j]
        prod = 1
        for v in game.contexts[j]:
            if table[v] not in (-1, 1):
                raise ValueError(f"alice[{j}][{v}] must be +1 or -1")
            prod *= table[v]
        if prod != game.labels[j]:
            raise ValueError(f"alice table for context {j} violates its parity constraint")
        agree += sum(1 for v in game.contexts[j] if table[v] == strategy.bob[v])
    return Fraction(agree, 20)


def best_classical_strategy(game: PentagramGame) -> tuple[ClassicalStrategy, Fraction]:
    """Optimal deterministic strategy by full enumeration.

    Enumerates Bob's 2^10 sign tables; for each, Alice's contexts decouple and
    the best of the 8 parity-valid tables is selected independently.  Mixed
    strategies cannot beat this (the value is linear over the strategy
    polytope, so the maximum sits at a deterministic vertex).

    The enumeration is one integer array product: row b of `bob` is the b-th
    table of product((1, -1), repeat=10), and a table t of context j agrees
    with it on (4 + bob[b, cols(j)] . t) / 2 vertices.  argmax keeps the first
    maximiser, both over Alice's tables and over Bob's, so the witness is the
    first optimum in enumeration order.
    """
    verts = game.vertices
    n = len(verts)
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    bob = 1 - 2 * bits
    agree = np.zeros(2**n, dtype=np.int64)
    choices = {}
    for j in game.context_names:
        tabs = 1 - 2 * np.array(parity_assignments(game, j))
        cols = [verts.index(v) for v in game.contexts[j]]
        table_agree = (4 + bob[:, cols] @ tabs.T) // 2
        best = table_agree.argmax(axis=1)
        agree += table_agree[np.arange(2**n), best]
        choices[j] = (tabs, best)
    b = int(agree.argmax())
    alice = {
        j: dict(zip(game.contexts[j], tabs[best[b]].tolist()))
        for j, (tabs, best) in choices.items()
    }
    strategy = ClassicalStrategy(alice, dict(zip(verts, bob[b].tolist())))
    return strategy, Fraction(int(agree[b]), 20)


def classical_value(game: PentagramGame) -> Fraction:
    """Exact classical value of the game (19/20 for the standard pentagram)."""
    _, value = best_classical_strategy(game)
    return value
