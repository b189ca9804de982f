"""Self-testing machinery: isometry extraction and rigidity certificates.

Any valid strategy can be fed through a pair of local isometries built only
from its own operators.  Each side adjoins three ancilla qubits; ancilla i is
prepared in |+>, entangled with the strategy space by a controlled Z'-type
reflection, Hadamard-rotated, then entangled again by a controlled X'-type
reflection.  The composite map is an exact isometry regardless of the
strategy's quality.

For a strategy winning with probability 1 - epsilon, the isometry images
approximately intertwine the strategy's distinguished reflections with real
Pauli operators on the ancillas, and the image of the shared state is
approximately a product of three Bell pairs with an arbitrary leftover
("junk") state.  All approximation errors scale as sqrt(epsilon) times
constants this module measures empirically rather than certifies.

Register conventions: Alice's output space is ordered (original space, Q1,
Q2, Q3) and Bob's (original space, Q4, Q5, Q6); ancilla Qi pairs with ancilla
Q(i+3) in the Bell decomposition.

Every residual is measured only on a strategy that passes the one gate,
which runs once, when a measure first reads the strategy's rows; anything
else raises StrategyValidationError.  build_isometry's bare operators pass
the gate's own deviation kernel.  Measures read a strategy's read-only
stacks, and stacked (B, ...) strategies that passed the gate go through one
certificate core: a sweep passes many rows and certify one, while
extract_state builds both isometries, word_residual only its side's and
consistency_residuals none; a strategy remembers the images it builds.
No row depends on its batch.  certify's certify-only families (context
changes, pair commutators and anticommutators, a fixed sample of change
words) read the same stacks in stacked products in the loops' order, each
stack within _STACK_BYTES: a pair family through index tables built at
import, the words of one length (the context changes among them) factor by
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

import numpy as np

from .game import STANDARD_GAME
from .linalg import (
    BELL_KINDS,
    BOUND_SLACK,
    HADAMARD,
    PLUS,
    STRUCTURE_TOL,
    _dagger,
    _frobenius_norms,
    _one_blas_thread,
    as_matrix,
    bell_matrix,
    matrix_to_json,
)
from .strategies import (
    _QUESTION_INDEX,
    _VERTEX_QUESTIONS,
    ReflectionStrategy,
    ValidationReport,
    _by_question,
    _losing_terms,
    _deviations,
)

PHI_TRIPLE = ("phi+", "phi+", "phi+")


@dataclass
class StateExtraction:
    """Bell decomposition of the isometry image of the shared state."""

    bell_weights: dict[tuple[str, str, str], float]
    junk: np.ndarray
    state_residual: float


@dataclass
class RigidityReport:
    """Everything the certificate measures about one strategy."""

    epsilon: float
    state_residual: float
    bell_weights: dict[tuple[str, str, str], float]
    junk: np.ndarray
    op_residuals: dict[str, float]
    consistency_residuals: dict[tuple[str, int], float]
    context_change_residuals: dict[int, float]
    commutator_residuals: dict[str, dict[str, float]]
    anticommutator_residuals: dict[str, dict[str, float]]
    change_word_residuals: dict[int, float]
    consistency_bound_ok: bool
    validation: ValidationReport

    @property
    def max_op_residual(self) -> float:
        return max(self.op_residuals.values())

    @property
    def max_consistency_residual(self) -> float:
        return max(self.consistency_residuals.values())


def _controlled(t: np.ndarray, k: int, u: np.ndarray) -> None:
    """Apply each row's u to the original-space axis of t where ancilla k is |1>, in place."""
    one = (slice(None),) * (k + 1) + (1,)
    sub = t[one]
    t[one] = (u @ sub.reshape(*sub.shape[:2], -1)).reshape(sub.shape)


def _isometries(primes: np.ndarray) -> np.ndarray:
    """(B, 8d, d) isometries of (B, 6, d, d) stacks X'_1, Z'_1, ..., Z'_3, by build_isometry's circuit unchecked."""
    n, d = primes.shape[0], primes.shape[-1]
    t = np.einsum("ab,i,j,k->aijkb", np.eye(d, dtype=complex), PLUS, PLUS, PLUS)
    t = np.broadcast_to(t, (n, *t.shape)).copy()
    for k in (3, 2, 1):
        _controlled(t, k, primes[:, 2 * k - 1])
        t = np.moveaxis(np.tensordot(HADAMARD, t, axes=(1, k + 1)), 0, k + 1)
        _controlled(t, k, primes[:, 2 * k - 2])
    return t.reshape(n, 8 * d, d)


def build_isometry(x_ops: list[np.ndarray], z_ops: list[np.ndarray]) -> np.ndarray:
    """Compose the three single-ancilla maps into one (8d x d) isometry.

    Ancilla k is processed last-to-first, so the constructed matrix is
    U_1 U_2 U_3 (I (x) |+++>) with U_k = C_k(x_ops[k]) H_k C_k(z_ops[k]).
    The circuit runs on a (d, 2, 2, 2, d) tensor with axes (original space,
    Q1, Q2, Q3, input space): each controlled reflection multiplies the
    ancilla-k = 1 slice and the Hadamard mixes the two slices of axis k.
    """
    if len(x_ops) != 3 or len(z_ops) != 3:
        raise ValueError("expected exactly 3 X-type and 3 Z-type reflections")
    ops = [as_matrix(m) for pair in zip(x_ops, z_ops) for m in pair]
    d = ops[0].shape[0]
    if any(m.shape != (d, d) for m in ops):
        raise ValueError(f"reflections must be square and share one dimension, got {[m.shape for m in ops]}")
    primes = np.array(ops)
    dev = np.max(_deviations(primes, np.eye(d)))  # np.max, unlike max(), keeps a NaN, which then fails
    if not dev <= STRUCTURE_TOL:
        raise ValueError(f"input is not a reflection (deviation {dev:.3e})")
    return _isometries(primes[None])[0]


# Context hosting the distinguished reflection of each vertex (each vertex
# lies on two contexts; one is singled out so that statements about "the"
# reflection of a vertex are unambiguous).
DISTINGUISHED_CONTEXT = {
    1: "G", 2: "G", 3: "E", 4: "F", 5: "E",
    6: "E", 7: "F", 8: "D", 9: "D", 10: "C",
}

# Vertex assignments of the simulated Pauli pairs.  Indices 1..3 are Alice's
# registers (operators drawn from the distinguished reflections), 4..6 Bob's
# (operators drawn from S).  For each register the X/Z pair sits on
# non-adjacent vertices, every cross pair on adjacent ones, which is exactly
# the (anti)commutation pattern of the Paulis they emulate.
X_PRIME_VERTEX = {1: 6, 2: 5, 3: 7, 4: 6, 5: 5, 6: 7}
Z_PRIME_VERTEX = {1: 10, 2: 9, 3: 8, 4: 10, 5: 9, 6: 8}

# The twelve operator residuals' keys, register by register, X before Z, and in that order each
# simulated Pauli's index: Alice's into her question stack, Bob's into his vertex stack.
_OP_KEYS = tuple(f"{which}{i}" for i in range(1, 7) for which in "XZ")
_PRIME_INDEX = [
    _QUESTION_INDEX[DISTINGUISHED_CONTEXT[v], v] if i < 4 else STANDARD_GAME.vertices.index(v)
    for i in range(1, 7)
    for v in (X_PRIME_VERTEX[i], Z_PRIME_VERTEX[i])
]


def _primes(alice: np.ndarray, bob: np.ndarray) -> dict:
    """Each side's (B, 6, d, d) stack X'_i, Z'_i of its three registers, gathered by _PRIME_INDEX."""
    return {"alice": _by_question(alice, bob)[0][:, _PRIME_INDEX[:6]], "bob": bob[:, _PRIME_INDEX[6:]]}


def _images(L: np.ndarray, primes: dict, sides=("alice", "bob")) -> dict:
    """Each side's stacked (V_A, V_A L) or (V_B^dagger, L V_B^dagger), its isometries built once."""
    v = {side: _isometries(primes[side]) for side in sides}
    v = {side: m if side == "alice" else _dagger(m) for side, m in v.items()}
    return {side: (m, m @ L if side == "alice" else L @ m) for side, m in v.items()}


def consistency_residuals(r: ReflectionStrategy) -> dict[tuple[str, int], float]:
    """|| R[j][v] L - L S[v] || for each of the 20 questions.

    For a strategy with score 1 - epsilon each entry is at most
    sqrt(80 epsilon): the corresponding losing term is (1/4) times the
    squared residual and no term exceeds 20 times the losing probability.
    Raises StrategyValidationError unless r validates at STRUCTURE_TOL.
    """
    return dict(zip(r.game.questions(), map(float, _consistency(*r._rows())[0])))


def _consistency(L: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """(B, 20) consistency residuals of stacked strategies, in game.questions() order."""
    R, S = _by_question(alice, bob)
    consistency = R @ L[:, None]
    consistency -= L[:, None] @ S
    return _frobenius_norms(consistency)


def _ancilla_pauli(t: np.ndarray, which: str, axis: int) -> np.ndarray:
    """Pauli X or Z on the ancilla axis `axis` of a register tensor.

    Both Paulis are real symmetric, so this one map is left multiplication
    on Alice's row registers and right multiplication on Bob's column ones.
    """
    if which == "X":
        return np.flip(t, axis)
    return t * np.array([1.0, -1.0]).reshape((2,) + (1,) * (t.ndim - axis - 1))


def _word_residual(side: str, L: np.ndarray, primes: dict, images: dict, word) -> np.ndarray:
    """(B,) residuals of one parsed word, its k indexing X'_1, Z'_1, ..., Z'_3 in primes[side], on one side's images."""
    (v, image), n, (da, db) = images[side], len(L), L.shape[1:]
    # a row of V_A L is (Alice's space, Q1, Q2, Q3), a column of L V_B^dagger (Bob's space, Q4, Q5, Q6)
    regs, first = ((da, 2, 2, 2, db), 2) if side == "alice" else ((da, db, 2, 2, 2), 3)
    lhs, rhs = image.reshape(n, *regs), L
    for k in reversed(word):
        lhs = _ancilla_pauli(lhs, "XZ"[k % 2], first + k // 2)
        op = primes[side][:, k]
        rhs = op @ rhs if side == "alice" else rhs @ op
    out = v @ rhs if side == "alice" else rhs @ v
    # V (O' L) - P (V L) in place: the residual's negation, with the same norm to the bit
    out.reshape(n, *regs)[...] -= lhs
    return _frobenius_norms(out)


def _parse_word(word) -> tuple[str, list[int]]:
    """A word's side and each label's index k into that side's six simulated Paulis, the word read once."""
    if isinstance(word, str):
        raise ValueError(f"word {word!r} is a bare string, expected a sequence of labels such as ['X1']")
    indices = []
    for label in word:
        if label not in _OP_KEYS:
            raise ValueError(f"bad operator label {label!r}, expected one of {', '.join(_OP_KEYS)}")
        indices.append(_OP_KEYS.index(label))
    if not indices:
        raise ValueError("word must be nonempty")
    if len({k // 6 for k in indices}) > 1:
        raise ValueError("word mixes Alice and Bob operators")
    return ("alice", "bob")[indices[0] // 6], [k % 6 for k in indices]


# The twelve operator residuals' one-operator words, parsed, in _OP_KEYS order.
_OP_WORDS = [_parse_word([key]) for key in _OP_KEYS]


@_one_blas_thread()
def word_residual(r: ReflectionStrategy, word) -> float:
    """Simulation error of a sequence of same-side measurements.

    `word` lists operator labels such as ("X1", "Z3") drawn from one side
    (indices 1..3 for Alice, 4..6 for Bob).  For Alice the residual is
    || P_1 ... P_n (V_A L) - V_A (O'_1 ... O'_n L) ||; Bob's is mirrored with
    right multiplication and reversed application order.  Raises
    StrategyValidationError unless r validates at STRUCTURE_TOL.
    """
    side, word = _parse_word(word)
    return float(_word_residual(side, *_remembered(r, (side,)), word)[0])


def _remembered(r: ReflectionStrategy, sides) -> tuple[np.ndarray, dict, dict]:
    """r's one-row L, primes and images of `sides`, each built on first use and remembered: r's stacks are read-only."""
    L, alice, bob = r._rows()
    if r._primes is None:
        r._primes, r._images = _primes(alice, bob), {}
    r._images.update(_images(L, r._primes, [side for side in sides if side not in r._images]))
    return L, r._primes, r._images


# The conjugated Bell basis as a (4, 4) matrix: row x holds bell_matrix(BELL_KINDS[x]).conj(), flattened.
_BELL = np.stack([bell_matrix(k) for k in BELL_KINDS]).conj().reshape(4, 4)


def _bell_expand(P: np.ndarray) -> np.ndarray:
    """(4, 4, 4, da, db) coefficients of P (8da, 8db) over the Bell basis on each ancilla pair (Qi, Q(i+3)).

    Three products, _BELL @ P(il, rest), then T(rest, jm) @ _BELL.T, then T(rest, kn) @ _BELL.T: the order and operand
    order of np.einsum's optimal path, so the result equals its einsum bit for bit.
    """
    da, db = P.shape[0] // 8, P.shape[1] // 8
    # axes (a, i, j, k, b, l, m, n), Alice's ancillas i, j, k and Bob's l, m, n
    t = _BELL @ P.reshape(da, 2, 2, 2, db, 2, 2, 2).transpose(1, 5, 0, 2, 3, 4, 6, 7).reshape(4, -1)
    # (x, a, j, k, b, m, n) -> (x, a, k, b, n, y)
    t = t.reshape(4, da, 2, 2, db, 2, 2).transpose(0, 1, 3, 4, 6, 2, 5).reshape(-1, 4) @ _BELL.T
    # (x, a, k, b, n, y) -> (x, y, a, b, z)
    t = t.reshape(4, da, 2, db, 2, 4).transpose(0, 5, 1, 3, 2, 4).reshape(-1, 4) @ _BELL.T
    return t.reshape(4, 4, da, db, 4).transpose(0, 1, 4, 2, 3)


def _extract_states(images: dict) -> list[StateExtraction]:
    """StateExtraction of each row, from both sides' stacked images."""
    out = []
    # row by row, so that one row's P (8da, 8db) is alive at a time
    for image, v in zip(images["alice"][1], images["bob"][0]):
        comps = _bell_expand(image @ v)
        norms = _frobenius_norms(comps).ravel()
        weights = dict(zip(product(BELL_KINDS, repeat=3), (float(x**2) for x in norms)))
        # sqrt(||P||^2 - ||junk||^2) evaluated as the off-target weight sum, which
        # is the same by Parseval but avoids catastrophic cancellation near zero
        off_target = sum(w for key, w in weights.items() if key != PHI_TRIPLE)
        residual = float(np.sqrt(max(off_target, 0.0)))
        out.append(StateExtraction(weights, comps[0, 0, 0].copy(), residual))
    return out


@_one_blas_thread()
def extract_state(r: ReflectionStrategy) -> StateExtraction:
    """Bell-decompose the isometry image of the shared state.

    P = V_A L V_B^dagger is expanded over the orthonormal Bell basis on each
    ancilla pair (Qi, Q(i+3)); the weight of a triple is the squared
    Frobenius norm of its coefficient block.  The junk state is the
    (phi+, phi+, phi+) block, which among all product candidates minimizes
    || junk (x) phi+ (x) phi+ (x) phi+ - P ||; the minimum is the reported
    state_residual = sqrt(||P||^2 - ||junk||^2).  Raises
    StrategyValidationError unless r validates at STRUCTURE_TOL.
    """
    return _extract_states(_remembered(r, ("alice", "bob"))[2])[0]


def _pair_tables() -> tuple[dict, dict]:
    """Each side's commutator and anticommutator (key, i, j) tables, in vertex-pair order.

    Alice's i, j index game.questions(), Bob's the vertices.  An adjacent pair v < w gives Alice's commutators
    a^shared|b^other for (a, b) = (v, w), (w, v) and Bob's v|w; any other pair gives both sides' v|w
    anticommutator, Alice's on distinguished reflections.
    """
    game, q = STANDARD_GAME, _QUESTION_INDEX
    comm, anti = {"alice": [], "bob": []}, {"alice": [], "bob": []}
    for (iv, v), (iw, w) in combinations(enumerate(game.vertices), 2):
        shared = set(game.contexts_of(v)) & set(game.contexts_of(w))
        if shared:
            (s,) = shared
            for a, b in ((v, w), (w, v)):
                (other,) = set(game.contexts_of(b)) - shared
                comm["alice"].append((f"{a}^{s}|{b}^{other}", q[s, a], q[other, b]))
            comm["bob"].append((f"{v}|{w}", iv, iw))
        else:
            anti["alice"].append((f"{v}|{w}", q[DISTINGUISHED_CONTEXT[v], v], q[DISTINGUISHED_CONTEXT[w], w]))
            anti["bob"].append((f"{v}|{w}", iv, iw))
    return comm, anti


_COMM_PAIRS, _ANTI_PAIRS = _pair_tables()


# The pair and word families run in stacked products over at most this many bytes of operators: at d = 32 a larger
# stack's temporaries are mostly faulted in fresh, page by page, on every call, which costs more than the products.
_STACK_BYTES = 2**17


def _pair_residuals(L: np.ndarray, R: np.ndarray, S: np.ndarray):
    """Commutator and anticommutator families over vertex pairs, from one row's L, R (20, da, da) and S (10, db, db).

    Each entry is || AB -+ BA || on L, as (A @ B) @ L for Alice and (L @ B) @ A for Bob, in stacked products over as
    many of a family's pairs as _STACK_BYTES holds of the side's operators: the whole family at d = 8.
    """
    comm, anti = {}, {}
    for side, ops in (("alice", R), ("bob", S)):
        k = max(1, _STACK_BYTES // ops[0].nbytes)
        for out, table, combine in ((comm, _COMM_PAIRS, np.subtract), (anti, _ANTI_PAIRS, np.add)):
            keys, i, j = map(list, zip(*table[side]))
            out[side] = {}
            for s in range(0, len(keys), k):
                A, B = ops[i[s : s + k]], ops[j[s : s + k]]
                pairs = combine(A @ B @ L, B @ A @ L) if side == "alice" else combine(L @ B @ A, L @ A @ B)
                out[side].update(zip(keys[s : s + k], _frobenius_norms(pairs).tolist()))
    return comm, anti


@cache
def _change_words() -> tuple[tuple[int, np.ndarray], ...]:
    """certify's fixed change-word sample (all words are too many): per length n, (n, (20, 2, n) (left, right) words).

    A word lists its question indices in the order _word_gaps applies them.  A sample draws n vertices uniformly, then
    (n, 2) bits: row k holds the left and right context choice of the k-th factor applied, on the vertex drawn at
    n-1-k, bit 1 picking its first context.  Drawn once, on first use.
    """
    rng = np.random.default_rng(0)

    def word_pair(n: int) -> np.ndarray:
        vs, bits = rng.choice(len(_VERTEX_QUESTIONS), size=n), rng.integers(2, size=(n, 2))
        return _VERTEX_QUESTIONS[vs[::-1, None], 1 - bits].T

    return tuple((n, np.array([word_pair(n) for _ in range(20)])) for n in (2, 3, 4, 5, 6))


def _word_gaps(RL: np.ndarray, R: np.ndarray, words: np.ndarray) -> list[float]:
    """|| left L - right L || per (left, right) pair of (m, 2, n) words; a context change is a vertex's two questions.

    A word (q_1, ..., q_n) is R[q_n] @ (... @ (R[q_1] @ L)) from RL = R @ L, factor by factor in _STACK_BYTES stacks.
    """
    gaps, k = [], max(1, _STACK_BYTES // (2 * R[0].nbytes))
    for s in range(0, len(words), k):
        piece = words[s : s + k].reshape(-1, words.shape[-1])
        x = RL[piece[:, 0]]
        for q in piece.T[1:]:
            x = R[q] @ x
        gaps += _frobenius_norms(x[::2] - x[1::2]).tolist()
    return gaps


@_one_blas_thread()
def _core(L: np.ndarray, alice: np.ndarray, bob: np.ndarray):
    """Measure epsilon, consistency, operators and state of B stacked strategies that have passed the gate.

    Returns lists of epsilons and extractions, and (B, 20) consistency and (B, 12) operator residuals in key
    order.  Isometries skip the reflection checks the gate has made.  No row's value depends on the batch.
    """
    primes = _primes(alice, bob)
    images = _images(L, primes)
    epsilon = [sum(terms) / 20.0 for terms in _losing_terms(L, alice, bob)]
    ops = np.stack([_word_residual(side, L, primes, images, word) for side, word in _OP_WORDS], axis=1)
    return epsilon, _consistency(L, alice, bob), ops, _extract_states(images)


@_one_blas_thread()
def certify(r: ReflectionStrategy) -> RigidityReport:
    """Assemble the full rigidity certificate for one strategy.

    Validates the strategy at STRUCTURE_TOL first (raising
    StrategyValidationError on failure), then gathers every residual family
    along with the state extraction, and checks the hard per-question bound
    consistency <= sqrt(80 epsilon) + BOUND_SLACK.  The families a scaling
    sweep reports come from _core, run here on one row; the context-change,
    pair and change-word families are added here.  The change words are one
    fixed sample, so a report depends only on r and the package version.
    """
    report = r._gate()
    (epsilon,), consistency, ops, (extraction,) = _core(*r._rows())
    consistency = dict(zip(r.game.questions(), map(float, consistency[0])))
    L, R, S = r._L, _by_question(r._alice, r._bob)[0], r._bob
    comm, anti = _pair_residuals(L, R, S)
    RL = R @ L
    bound = np.sqrt(80.0 * max(epsilon, 0.0)) + BOUND_SLACK

    return RigidityReport(
        epsilon=epsilon,
        state_residual=extraction.state_residual,
        bell_weights=extraction.bell_weights,
        junk=extraction.junk,
        op_residuals=dict(zip(_OP_KEYS, map(float, ops[0]))),
        consistency_residuals=consistency,
        context_change_residuals=dict(zip(r.game.vertices, _word_gaps(RL, R, _VERTEX_QUESTIONS[:, :, None]))),
        commutator_residuals=comm,
        anticommutator_residuals=anti,
        change_word_residuals={n: max(0.0, *_word_gaps(RL, R, words)) for n, words in _change_words()},
        consistency_bound_ok=all(res <= bound for res in consistency.values()),
        validation=report,
    )


def report_to_json(report: RigidityReport) -> dict:
    return {
        "epsilon": report.epsilon,
        "state_residual": report.state_residual,
        "bell_weights": {",".join(k): w for k, w in report.bell_weights.items()},
        "junk": matrix_to_json(report.junk),
        "op_residuals": dict(report.op_residuals),
        "consistency_residuals": {f"{j}:{v}": res for (j, v), res in report.consistency_residuals.items()},
        "context_change_residuals": {str(v): res for v, res in report.context_change_residuals.items()},
        "commutator_residuals": report.commutator_residuals,
        "anticommutator_residuals": report.anticommutator_residuals,
        "change_word_residuals": {str(n): res for n, res in report.change_word_residuals.items()},
        "consistency_bound_ok": report.consistency_bound_ok,
        "max_op_residual": report.max_op_residual,
        "max_consistency_residual": report.max_consistency_residual,
        "validation": {**report.validation.deviations(), "tol": report.validation.tol, "passed": report.validation.passed},
    }
