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

Strategies are measured as (B, ...) stacks through one certificate core:
a scaling sweep passes many rows at once, certify and the public residual
functions one.  A row's values never depend on the batch it is in.
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
    DISTINGUISHED_CONTEXT,
    X_PRIME_VERTEX,
    Z_PRIME_VERTEX,
    ReflectionStrategy,
    StrategyValidationError,  # raised by certify, so importable from here too
    ValidationReport,
    _losing_terms,
    _question_stacks,
    _stacks,
    _validate_rows,
    select_distinguished,
)

PHI_TRIPLE = ("phi+", "phi+", "phi+")


@dataclass
class LocalIsometry:
    """Exact isometry from one player's space into itself plus three qubits."""

    side: str
    matrix: np.ndarray


@dataclass
class StateExtraction:
    """Bell decomposition of the isometry image of the shared state."""

    P: np.ndarray
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


def _check_reflection(m: np.ndarray) -> None:
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"reflections must be square, got {m.shape}")
    # np.max, unlike max(), keeps a NaN deviation, which then fails, so an
    # overflow needs no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.max([frobenius_norm(m - m.conj().T), frobenius_norm(m @ m - np.eye(n))])
    if not dev <= STRUCTURE_TOL:
        raise ValueError(f"input is not a reflection (deviation {dev:.3e})")


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


def build_isometry(x_ops: list[np.ndarray], z_ops: list[np.ndarray], side: str = "alice") -> LocalIsometry:
    """Compose the three single-ancilla maps into one (8d x d) isometry.

    Ancilla k is processed last-to-first, so the constructed matrix is
    U_1 U_2 U_3 (I (x) |+++>) with U_k = C_k(x_ops[k]) H_k C_k(z_ops[k]).
    The circuit runs on a (d, 2, 2, 2, d) tensor with axes (original space,
    Q1, Q2, Q3, input space): each controlled reflection multiplies the
    ancilla-k = 1 slice and the Hadamard mixes the two slices of axis k.
    """
    if len(x_ops) != 3 or len(z_ops) != 3:
        raise ValueError("expected exactly 3 X-type and 3 Z-type reflections")
    x_ops, z_ops = [as_matrix(m) for m in x_ops], [as_matrix(m) for m in z_ops]
    for m in (*x_ops, *z_ops):
        _check_reflection(m)
    d = x_ops[0].shape[0]
    if any(m.shape != (d, d) for m in (*x_ops, *z_ops)):
        raise ValueError("all reflections must share one dimension")
    return LocalIsometry(side, _isometries(np.array([m for pair in zip(x_ops, z_ops) for m in pair])[None])[0])


# Indices of the simulated Pauli pairs each side's isometry extracts.
_REGISTERS = {"alice": (1, 2, 3), "bob": (4, 5, 6)}

# The twelve operator residuals' keys, register by register, X before Z, and in that order each
# simulated Pauli's index: Alice's into her question stack, Bob's into his vertex stack.
_OP_KEYS = tuple(f"{which}{i}" for i in range(1, 7) for which in "XZ")
_PRIME_INDEX = [
    STANDARD_GAME.questions().index((DISTINGUISHED_CONTEXT[v], v)) if i < 4 else STANDARD_GAME.vertices.index(v)
    for i in range(1, 7)
    for v in (X_PRIME_VERTEX[i], Z_PRIME_VERTEX[i])
]


def _images(L: np.ndarray, primes: dict, sides=tuple(_REGISTERS)) -> dict:
    """Each side's stacked (V_A, V_A L) or (V_B^dagger, L V_B^dagger), its isometries built once."""
    v = {side: _isometries(primes[side]) for side in sides}
    v = {side: m if side == "alice" else _dagger(m) for side, m in v.items()}
    return {side: (m, m @ L if side == "alice" else L @ m) for side, m in v.items()}


def _checked(r: ReflectionStrategy, sides=tuple(_REGISTERS)):
    """(L, primes) of r as one-row stacks, after build_isometry's checks on the primes of `sides`."""
    dist = select_distinguished(r)
    primes = {side: [m for i in _REGISTERS[side] for m in (dist.x_prime[i], dist.z_prime[i])] for side in sides}
    for m in (m for ops in primes.values() for m in ops):
        _check_reflection(m)
    L = np.asarray(r.L, dtype=complex)[None]
    return L, {side: np.array([ops], dtype=complex) for side, ops in primes.items()}


def alice_isometry(r: ReflectionStrategy) -> LocalIsometry:
    return LocalIsometry("alice", _isometries(_checked(r, ("alice",))[1]["alice"])[0])


def bob_isometry(r: ReflectionStrategy) -> LocalIsometry:
    return LocalIsometry("bob", _isometries(_checked(r, ("bob",))[1]["bob"])[0])


def _consistency(L: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """(B, 20) consistency residuals of stacked strategies, in game.questions() order."""
    R, S = _question_stacks(alice, bob)
    x = R @ L[:, None]
    x -= L[:, None] @ S
    return _frobenius_norms(x)


def consistency_residuals(r: ReflectionStrategy) -> dict[tuple[str, int], float]:
    """|| R[j][v] L - L S[v] || for each of the 20 questions.

    For a strategy with score 1 - epsilon each entry is at most
    sqrt(80 epsilon): the corresponding losing term is (1/4) times the
    squared residual and no term exceeds 20 times the losing probability.
    """
    return dict(zip(r.game.questions(), map(float, _consistency(*_stacks(r))[0])))


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
    out = v @ rhs if side == "alice" else rhs @ v
    # V (O' L) - P (V L) in place: the residual's negation, with the same norm to the bit
    out.reshape(n, *regs)[...] -= lhs
    return _frobenius_norms(out)


def _operator_residuals(L: np.ndarray, primes: dict, images: dict) -> np.ndarray:
    """(B, 12) operator residuals in _OP_KEYS order."""
    words = [(side, [(w, i)]) for side, regs in _REGISTERS.items() for i in regs for w in "XZ"]
    return np.stack([_word_residual(side, L, primes, images, word) for side, word in words], axis=1)


def operator_residuals(r: ReflectionStrategy) -> dict[str, float]:
    """Simulation error of each ancilla Pauli against its strategy operator.

    Keys X1..Z3 measure || P_i (V_A L) - V_A (O'_i L) || on Alice's side;
    keys X4..Z6 measure || (L V_B^dagger) P_i - (L O'_i) V_B^dagger || on
    Bob's, where P_i is the ancilla Pauli and O'_i the simulated operator.
    """
    L, primes = _checked(r)
    return dict(zip(_OP_KEYS, map(float, _operator_residuals(L, primes, _images(L, primes))[0])))


def _parse_word(word) -> tuple[str, list[tuple[str, int]]]:
    if not word:
        raise ValueError("word must be nonempty")
    parsed = []
    for label in word:
        which, idx = label[0].upper(), int(label[1:])
        if which not in ("X", "Z") or idx not in range(1, 7):
            raise ValueError(f"bad operator label {label!r}")
        parsed.append((which, idx))
    sides = {"alice" if idx <= 3 else "bob" for _, idx in parsed}
    if len(sides) > 1:
        raise ValueError("word mixes Alice and Bob operators")
    return sides.pop(), parsed


def word_residual(r: ReflectionStrategy, word) -> float:
    """Simulation error of a sequence of same-side measurements.

    `word` lists operator labels such as ("X1", "Z3") drawn from one side
    (indices 1..3 for Alice, 4..6 for Bob).  For Alice the residual is
    || P_1 ... P_n (V_A L) - V_A (O'_1 ... O'_n L) ||; Bob's is mirrored with
    right multiplication and reversed application order.
    """
    side, parsed = _parse_word(word)
    L, primes = _checked(r, (side,))
    return float(_word_residual(side, L, primes, _images(L, primes, (side,)), parsed)[0])


def _extract_states(images: dict) -> list[StateExtraction]:
    """StateExtraction of each row, from both sides' stacked images."""
    basis = np.stack([bell_matrix(k) for k in BELL_KINDS]).conj()
    # np.einsum's optimal path at every d, row by row: a stack is large enough to wake BLAS threads
    path = ["einsum_path", (0, 1), (0, 2), (0, 1)]
    out = []
    for image, v in zip(images["alice"][1], images["bob"][0]):
        P = image @ v
        Pr = P.reshape(P.shape[0] // 8, 2, 2, 2, P.shape[1] // 8, 2, 2, 2)
        comps = np.einsum("aijkblmn,xil,yjm,zkn->xyzab", Pr, *[basis] * 3, optimize=path)
        norms = _frobenius_norms(comps).ravel()
        weights = dict(zip(product(BELL_KINDS, repeat=3), (float(x**2) for x in norms)))
        # sqrt(||P||^2 - ||junk||^2) evaluated as the off-target weight sum, which
        # is the same by Parseval but avoids catastrophic cancellation near zero
        off_target = sum(w for key, w in weights.items() if key != PHI_TRIPLE)
        residual = float(np.sqrt(max(off_target, 0.0)))
        out.append(StateExtraction(P, weights, comps[0, 0, 0].copy(), residual))
    return out


def extract_state(r: ReflectionStrategy) -> StateExtraction:
    """Bell-decompose the isometry image of the shared state.

    P = V_A L V_B^dagger is expanded over the orthonormal Bell basis on each
    ancilla pair (Qi, Q(i+3)); the weight of a triple is the squared
    Frobenius norm of its coefficient block.  The junk state is the
    (phi+, phi+, phi+) block, which among all product candidates minimizes
    || junk (x) phi+ (x) phi+ (x) phi+ - P ||; the minimum is the reported
    state_residual = sqrt(||P||^2 - ||junk||^2).
    """
    return _extract_states(_images(*_checked(r)))[0]


def context_change_residuals(r: ReflectionStrategy) -> dict[int, float]:
    """|| R[j][v] L - R[j'][v] L || over each vertex's two contexts."""
    verts = r.game.vertices
    x = np.array([[r.alice[j][v] for j in r.game.contexts_of(v)] for v in verts]) @ r.L
    return dict(zip(verts, map(float, _frobenius_norms(x[:, 0] - x[:, 1]))))


def _pair_residuals(r: ReflectionStrategy):
    """Commutator and anticommutator residual families over vertex pairs."""
    dist = select_distinguished(r)
    comm_alice: dict[str, float] = {}
    comm_bob: dict[str, float] = {}
    anti_alice: dict[str, float] = {}
    anti_bob: dict[str, float] = {}
    L = r.L
    for v, w in combinations(r.game.vertices, 2):
        if r.game.adjacent(v, w):
            shared = next(j for j in r.game.context_names if {v, w} <= set(r.game.contexts[j]))
            for a, b in ((v, w), (w, v)):
                other = next(j for j in r.game.contexts_of(b) if j != shared)
                lhs = r.alice[shared][a] @ r.alice[other][b] @ L
                rhs = r.alice[other][b] @ r.alice[shared][a] @ L
                comm_alice[f"{a}^{shared}|{b}^{other}"] = frobenius_norm(lhs - rhs)
            comm_bob[f"{v}|{w}"] = frobenius_norm(L @ r.bob[w] @ r.bob[v] - L @ r.bob[v] @ r.bob[w])
        else:
            anti_alice[f"{v}|{w}"] = frobenius_norm(
                dist.r[v] @ dist.r[w] @ L + dist.r[w] @ dist.r[v] @ L
            )
            anti_bob[f"{v}|{w}"] = frobenius_norm(L @ r.bob[w] @ r.bob[v] + L @ r.bob[v] @ r.bob[w])
    return (
        {"alice": comm_alice, "bob": comm_bob},
        {"alice": anti_alice, "bob": anti_bob},
    )


def _sampled_change_words(
    r: ReflectionStrategy, lengths, samples: int, seed: int
) -> dict[int, float]:
    """Worst sampled residual of multi-step context swaps, per word length.

    For each length n, `samples` vertex words are drawn uniformly with an
    independent uniform context choice per side and per position; exhausting
    all words is combinatorially infeasible, so the certificate reports the
    sampled maximum of || prod R[j_i][v_i] L - prod R[j'_i][v_i] L ||.
    """
    rng = np.random.default_rng(seed)
    verts = r.game.vertices
    out: dict[int, float] = {}
    for n in lengths:
        worst = 0.0
        for _ in range(samples):
            vs = rng.choice(verts, size=n)
            lhs, rhs = r.L.copy(), r.L.copy()
            for v in reversed(vs):
                j1, j2 = r.game.contexts_of(int(v))
                left = r.alice[j1 if rng.integers(2) else j2][int(v)]
                right = r.alice[j1 if rng.integers(2) else j2][int(v)]
                lhs = left @ lhs
                rhs = right @ rhs
            worst = max(worst, frobenius_norm(lhs - rhs))
        out[int(n)] = worst
    return out


def _core(L: np.ndarray, alice: np.ndarray, bob: np.ndarray):
    """Validate B stacked strategies at STRUCTURE_TOL, then measure epsilon, consistency, operators and state.

    Stacks are laid out as strategies._stacks lays them; the first failing row raises.  Returns lists of
    reports, epsilons and extractions, and (B, 20) consistency and (B, 12) operator residuals in key order.
    Isometries skip the reflection checks validation has just made.  No row's value depends on the batch.
    """
    reports = _validate_rows(L, alice, bob, STRUCTURE_TOL)
    for report in reports:
        if not report.passed:
            raise StrategyValidationError(report)
    primes = {"alice": _question_stacks(alice, bob)[0][:, _PRIME_INDEX[:6]], "bob": bob[:, _PRIME_INDEX[6:]]}
    images = _images(L, primes)
    epsilon = [sum(terms) / 20.0 for terms in _losing_terms(L, alice, bob)]
    ops = _operator_residuals(L, primes, images)
    return reports, epsilon, _consistency(L, alice, bob), ops, _extract_states(images)


def certify(
    r: ReflectionStrategy,
    change_word_lengths=(2, 3, 4, 5, 6),
    change_word_samples: int = 20,
    sample_seed: int = 0,
) -> RigidityReport:
    """Assemble the full rigidity certificate for one strategy.

    Validates the strategy at STRUCTURE_TOL first (raising
    StrategyValidationError on failure), then gathers every residual family
    along with the state extraction, and checks the hard per-question bound
    consistency <= sqrt(80 epsilon) + BOUND_SLACK.  The families a scaling
    sweep reports come from _core, run here on one row; the context-change,
    pair and change-word families are added here.
    """
    (report,), (epsilon,), consistency, ops, (extraction,) = _core(*_stacks(r))
    consistency = dict(zip(r.game.questions(), map(float, consistency[0])))
    comm, anti = _pair_residuals(r)
    bound = np.sqrt(80.0 * max(epsilon, 0.0)) + BOUND_SLACK

    return RigidityReport(
        epsilon=epsilon,
        state_residual=extraction.state_residual,
        bell_weights=extraction.bell_weights,
        junk=extraction.junk,
        op_residuals=dict(zip(_OP_KEYS, map(float, ops[0]))),
        consistency_residuals=consistency,
        context_change_residuals=context_change_residuals(r),
        commutator_residuals=comm,
        anticommutator_residuals=anti,
        change_word_residuals=_sampled_change_words(r, change_word_lengths, change_word_samples, sample_seed),
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
