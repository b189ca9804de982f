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
which a strategy runs on itself once; anything else raises
StrategyValidationError.  build_isometry's bare operators pass the gate's own
reflection test.  Measures read a strategy's read-only stacks directly, and
stacked (B, ...) strategies that passed the gate go through one certificate
core: a sweep passes many rows and certify one, while extract_state builds
both isometries, word_residual only its side's and consistency_residuals
none.  No row depends on its batch.  certify's certify-only families
(context changes, pair commutators and anticommutators, a fixed sample of
change words) read the same stacks, through index tables built at import.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    as_matrix,
    bell_matrix,
    frobenius_norm,
    matrix_to_json,
)
from .strategies import (
    _QUESTION_INDEX,
    _VERTEX_QUESTIONS,
    ReflectionStrategy,
    ValidationReport,
    _by_question,
    _losing_terms,
    _reflection_deviations,
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


# OpenBLAS 0.3.31 with 2 threads runs a complex gemm of 64x32x32 = 65,536 multiply-adds on its second thread, which
# then spins at full CPU for about 100 ms; a 32x32x32 gemm stays on the calling thread.  _matmul and _bell_expand
# split their products into BLAS calls of at most this many multiply-adds.
_ONE_THREAD_WORK = 32**3


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (..., m, k) and (..., k, n) stacks of one batch shape, in small BLAS calls.

    A product above _ONE_THREAD_WORK runs as one batched matmul over r x w tiles, each written in place in the
    result.  Starting from the whole product, the larger of r and w halves while a tile exceeds the limit, r only
    while the half stays even and w only while it stays a multiple of 4: zgemm kernels take a row-major product's
    rows in pairs and its columns in groups of up to 4, and round a part group differently.  At d = 32 every tile is
    32 x 32 x 32; where m or n cannot be halved so, a tile may exceed the limit.

    Checked at the call sites' shapes for every d up to 48 and for unequal da and db up to 40: the tiles equal a @ b
    on one thread bit for bit on OpenBLAS 0.3.31's SkylakeX, Sandybridge, Nehalem and Prescott kernels, and on
    SkylakeX at two threads too (on the others, a product that two threads share, whole or a tile above the limit,
    can round differently from one thread's).  They do not on its Haswell kernel, which Zen also uses: it takes rows
    in groups of 6, so there the last bits move.
    """
    (m, k), n = a.shape[-2:], b.shape[-1]
    if m * n * k <= _ONE_THREAD_WORK:
        return a @ b
    r, w = m, n
    while r * k * w > _ONE_THREAD_WORK:
        if w % 8 == 0 and (w >= r or r % 4):
            w //= 2
        elif r % 4 == 0:
            r //= 2
        else:
            break
    batch = a.shape[:-2]
    out = np.empty((*batch, m, n), dtype=np.result_type(a, b))
    rows = a.reshape(*batch, m // r, 1, r, k)
    cols = b.reshape(*batch, 1, k, n // w, w).swapaxes(-3, -2)
    np.matmul(rows, cols, out=out.reshape(*batch, m // r, r, n // w, w).swapaxes(-3, -2))
    return out


def _controlled(t: np.ndarray, k: int, u: np.ndarray) -> None:
    """Apply each row's u to the original-space axis of t where ancilla k is |1>, in place."""
    one = (slice(None),) * (k + 1) + (1,)
    sub = t[one]
    t[one] = _matmul(u, sub.reshape(*sub.shape[:2], -1)).reshape(sub.shape)


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
    dev = np.max(_reflection_deviations(primes))  # np.max, unlike max(), keeps a NaN, which then fails
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

# Indices of the simulated Pauli pairs each side's isometry extracts.
_REGISTERS = {"alice": (1, 2, 3), "bob": (4, 5, 6)}

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


def _images(L: np.ndarray, primes: dict, sides=tuple(_REGISTERS)) -> dict:
    """Each side's stacked (V_A, V_A L) or (V_B^dagger, L V_B^dagger), its isometries built once."""
    v = {side: _isometries(primes[side]) for side in sides}
    v = {side: m if side == "alice" else _dagger(m) for side, m in v.items()}
    return {side: (m, _matmul(m, L) if side == "alice" else _matmul(L, m)) for side, m in v.items()}


def consistency_residuals(r: ReflectionStrategy) -> dict[tuple[str, int], float]:
    """|| R[j][v] L - L S[v] || for each of the 20 questions.

    For a strategy with score 1 - epsilon each entry is at most
    sqrt(80 epsilon): the corresponding losing term is (1/4) times the
    squared residual and no term exceeds 20 times the losing probability.
    Raises StrategyValidationError unless r validates at STRUCTURE_TOL.
    """
    r._gate()
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
    """(B,) residuals of one parsed word on one side's stacked images."""
    (v, image), n, (da, db) = images[side], len(L), L.shape[1:]
    # a row of V_A L is (Alice's space, Q1, Q2, Q3), a column of L V_B^dagger (Bob's space, Q4, Q5, Q6)
    regs, shift = ((da, 2, 2, 2, db), 1) if side == "alice" else ((da, db, 2, 2, 2), -1)
    lhs, rhs = image.reshape(n, *regs), L
    for which, idx in reversed(word):
        lhs = _ancilla_pauli(lhs, which, idx + shift)
        op = primes[side][:, _OP_KEYS.index(f"{which}{idx}") % 6]
        rhs = op @ rhs if side == "alice" else rhs @ op
    out = _matmul(v, rhs) if side == "alice" else _matmul(rhs, v)
    # V (O' L) - P (V L) in place: the residual's negation, with the same norm to the bit
    out.reshape(n, *regs)[...] -= lhs
    return _frobenius_norms(out)


def _operator_residuals(L: np.ndarray, primes: dict, images: dict) -> np.ndarray:
    """(B, 12) operator residuals in _OP_KEYS order."""
    words = [(side, [(w, i)]) for side, regs in _REGISTERS.items() for i in regs for w in "XZ"]
    return np.stack([_word_residual(side, L, primes, images, word) for side, word in words], axis=1)


def _parse_word(word) -> tuple[str, list[tuple[str, int]]]:
    if not word:
        raise ValueError("word must be nonempty")
    for label in word:
        if label not in _OP_KEYS:
            raise ValueError(f"bad operator label {label!r}, expected one of {', '.join(_OP_KEYS)}")
    sides = {"alice" if _OP_KEYS.index(label) < 6 else "bob" for label in word}
    if len(sides) > 1:
        raise ValueError("word mixes Alice and Bob operators")
    return sides.pop(), [(label[0], int(label[1])) for label in word]


def word_residual(r: ReflectionStrategy, word) -> float:
    """Simulation error of a sequence of same-side measurements.

    `word` lists operator labels such as ("X1", "Z3") drawn from one side
    (indices 1..3 for Alice, 4..6 for Bob).  For Alice the residual is
    || P_1 ... P_n (V_A L) - V_A (O'_1 ... O'_n L) ||; Bob's is mirrored with
    right multiplication and reversed application order.  Raises
    StrategyValidationError unless r validates at STRUCTURE_TOL.
    """
    side, parsed = _parse_word(word)
    r._gate()
    L, alice, bob = r._rows()
    primes = _primes(alice, bob)
    return float(_word_residual(side, L, primes, _images(L, primes, (side,)), parsed)[0])


# The conjugated Bell basis as a (4, 4) matrix: row x holds bell_matrix(BELL_KINDS[x]).conj(), flattened.
_BELL = np.stack([bell_matrix(k) for k in BELL_KINDS]).conj().reshape(4, 4)


def _bell_expand(P: np.ndarray) -> np.ndarray:
    """(4, 4, 4, da, db) coefficients of P (8da, 8db) over the Bell basis on each ancilla pair (Qi, Q(i+3)).

    Three products, _BELL @ P(il, rest), then T(rest, jm) @ _BELL.T, then T(rest, kn) @ _BELL.T: the order and operand
    order of np.einsum's optimal path, so the result equals its einsum bit for bit.  Each runs as one batched matmul
    over c slabs of Alice's original-space axis, c the smallest divisor of da that keeps a slab's product within
    _ONE_THREAD_WORK.
    """
    da, db = P.shape[0] // 8, P.shape[1] // 8
    c = next((c for c in range(1, da + 1) if da % c == 0 and 256 * (da // c) * db <= _ONE_THREAD_WORK), da)
    a = da // c
    # axes (slab, a, i, j, k, b, l, m, n), Alice's ancillas i, j, k and Bob's l, m, n
    t = _BELL @ P.reshape(c, a, 2, 2, 2, db, 2, 2, 2).transpose(0, 2, 6, 1, 3, 4, 5, 7, 8).reshape(c, 4, -1)
    # (slab, x, a, j, k, b, m, n) -> (slab, x, a, k, b, n, y)
    t = t.reshape(c, 4, a, 2, 2, db, 2, 2).transpose(0, 1, 2, 4, 5, 7, 3, 6).reshape(c, -1, 4) @ _BELL.T
    # (slab, x, a, k, b, n, y) -> (slab, x, y, a, b, z)
    t = t.reshape(c, 4, a, 2, db, 2, 4).transpose(0, 1, 6, 2, 4, 3, 5).reshape(c, -1, 4) @ _BELL.T
    return t.reshape(c, 4, 4, a, db, 4).transpose(1, 2, 5, 0, 3, 4).reshape(4, 4, 4, da, db)


def _extract_states(images: dict) -> list[StateExtraction]:
    """StateExtraction of each row, from both sides' stacked images."""
    out = []
    # row by row, so that one row's P (8da, 8db) is alive at a time
    for image, v in zip(images["alice"][1], images["bob"][0]):
        comps = _bell_expand(_matmul(image, v))
        norms = _frobenius_norms(comps).ravel()
        weights = dict(zip(product(BELL_KINDS, repeat=3), (float(x**2) for x in norms)))
        # sqrt(||P||^2 - ||junk||^2) evaluated as the off-target weight sum, which
        # is the same by Parseval but avoids catastrophic cancellation near zero
        off_target = sum(w for key, w in weights.items() if key != PHI_TRIPLE)
        residual = float(np.sqrt(max(off_target, 0.0)))
        out.append(StateExtraction(weights, comps[0, 0, 0].copy(), residual))
    return out


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
    r._gate()
    L, alice, bob = r._rows()
    return _extract_states(_images(L, _primes(alice, bob)))[0]


def _context_changes(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(10,) context-change residuals of one row's L (da, db) and question stack R (20, da, da), in vertex order."""
    x = R[_VERTEX_QUESTIONS] @ L
    return _frobenius_norms(x[:, 0] - x[:, 1])


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


def _pair_residuals(L: np.ndarray, R: np.ndarray, S: np.ndarray):
    """Commutator and anticommutator families over vertex pairs, from one row's L, R (20, da, da) and S (10, db, db).

    Each entry is || AB -+ BA || on L, as (A @ B) @ L for Alice and (L @ B) @ A for Bob, pair by pair:
    stacking a family across its pairs measured slower at d = 32, its temporaries costing more than the loop.
    """
    comm, anti = {}, {}
    sides = (("alice", R, lambda a, b: a @ b @ L), ("bob", S, lambda a, b: L @ b @ a))
    for side, ops, prod in sides:
        for out, table, combine in ((comm, _COMM_PAIRS, np.subtract), (anti, _ANTI_PAIRS, np.add)):
            out[side] = {
                key: frobenius_norm(combine(prod(ops[i], ops[j]), prod(ops[j], ops[i]))) for key, i, j in table[side]
            }
    return comm, anti


# certify's fixed change-word sample: the word lengths, the words drawn per length and the seed of the draw.
_CHANGE_WORD_LENGTHS = (2, 3, 4, 5, 6)
_CHANGE_WORD_SAMPLES = 20
_CHANGE_WORD_SEED = 0


def _sampled_change_words(L: np.ndarray, R: np.ndarray) -> dict[int, float]:
    """Worst sampled residual of multi-step context swaps, per word length.

    For each length n, _CHANGE_WORD_SAMPLES vertex words are drawn uniformly with an
    independent uniform context choice per side and per position; exhausting
    all words is combinatorially infeasible, so the certificate reports the
    sampled maximum of || prod R[j_i][v_i] L - prod R[j'_i][v_i] L ||, on one
    row's stacks.  A sample draws its n vertices, then (n, 2) bits: row k holds
    the left and right choice at position n-1-k, bit 1 picking the first context.
    """
    rng = np.random.default_rng(_CHANGE_WORD_SEED)
    out: dict[int, float] = {}
    for n in _CHANGE_WORD_LENGTHS:
        worst = 0.0
        for _ in range(_CHANGE_WORD_SAMPLES):
            vs = rng.choice(len(_VERTEX_QUESTIONS), size=n)
            bits = rng.integers(2, size=(n, 2))
            lhs = rhs = L
            for left, right in _VERTEX_QUESTIONS[vs[::-1, None], 1 - bits]:
                lhs = R[left] @ lhs
                rhs = R[right] @ rhs
            worst = max(worst, frobenius_norm(lhs - rhs))
        out[int(n)] = worst
    return out


def _core(L: np.ndarray, alice: np.ndarray, bob: np.ndarray):
    """Measure epsilon, consistency, operators and state of B stacked strategies that have passed the gate.

    Returns lists of epsilons and extractions, and (B, 20) consistency and (B, 12) operator residuals in key
    order.  Isometries skip the reflection checks the gate has made.  No row's value depends on the batch.
    """
    primes = _primes(alice, bob)
    images = _images(L, primes)
    epsilon = [sum(terms) / 20.0 for terms in _losing_terms(L, alice, bob)]
    ops = _operator_residuals(L, primes, images)
    return epsilon, _consistency(L, alice, bob), ops, _extract_states(images)


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
    bound = np.sqrt(80.0 * max(epsilon, 0.0)) + BOUND_SLACK

    return RigidityReport(
        epsilon=epsilon,
        state_residual=extraction.state_residual,
        bell_weights=extraction.bell_weights,
        junk=extraction.junk,
        op_residuals=dict(zip(_OP_KEYS, map(float, ops[0]))),
        consistency_residuals=consistency,
        context_change_residuals=dict(zip(r.game.vertices, map(float, _context_changes(L, R)))),
        commutator_residuals=comm,
        anticommutator_residuals=anti,
        change_word_residuals=_sampled_change_words(L, R),
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
