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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .linalg import (
    BELL_KINDS,
    BOUND_SLACK,
    HADAMARD,
    PLUS,
    STRUCTURE_TOL,
    as_matrix,
    bell_matrix,
    frobenius_norm,
    matrix_to_json,
)
from .strategies import (
    DistinguishedReflections,
    ReflectionStrategy,
    ValidationReport,
    losing_terms,
    select_distinguished,
    validate,
)

PHI_TRIPLE = ("phi+", "phi+", "phi+")


class StrategyValidationError(ValueError):
    """Raised when a certificate is requested for an invalid strategy."""

    def __init__(self, report: ValidationReport):
        self.report = report
        failing = ", ".join(
            f"{name} {dev:.3e}" for name, dev in report.deviations().items() if not dev <= report.tol
        )
        super().__init__(f"strategy failed validation at tol={report.tol}: {failing}")


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
    dev = max(frobenius_norm(m - m.conj().T), frobenius_norm(m @ m - np.eye(n)))
    if dev > STRUCTURE_TOL:
        raise ValueError(f"input is not a reflection (deviation {dev:.3e})")


def _controlled(t: np.ndarray, k: int, u: np.ndarray) -> None:
    """Apply u to the original-space axis of t where ancilla k is |1>, in place."""
    one = (slice(None),) * k + (1,)
    t[one] = np.tensordot(u, t[one], axes=1)


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

    t = np.einsum("ab,i,j,k->aijkb", np.eye(d, dtype=complex), PLUS, PLUS, PLUS)
    for k in (3, 2, 1):
        _controlled(t, k, z_ops[k - 1])
        t = np.moveaxis(np.tensordot(HADAMARD, t, axes=(1, k)), 0, k)
        _controlled(t, k, x_ops[k - 1])
    return LocalIsometry(side=side, matrix=t.reshape(8 * d, d))


# Indices of the simulated Pauli pairs each side's isometry extracts.
_REGISTERS = {"alice": (1, 2, 3), "bob": (4, 5, 6)}


def _isometry(dist: DistinguishedReflections, side: str) -> LocalIsometry:
    regs = _REGISTERS[side]
    return build_isometry([dist.x_prime[i] for i in regs], [dist.z_prime[i] for i in regs], side=side)


def alice_isometry(r: ReflectionStrategy) -> LocalIsometry:
    return _isometry(select_distinguished(r), "alice")


def bob_isometry(r: ReflectionStrategy) -> LocalIsometry:
    return _isometry(select_distinguished(r), "bob")


def consistency_residuals(r: ReflectionStrategy) -> dict[tuple[str, int], float]:
    """|| R[j][v] L - L S[v] || for each of the 20 questions.

    For a strategy with score 1 - epsilon each entry is at most
    sqrt(80 epsilon): the corresponding losing term is (1/4) times the
    squared residual and no term exceeds 20 times the losing probability.
    """
    out: dict[tuple[str, int], float] = {}
    for j in r.game.context_names:
        for v in r.game.contexts[j]:
            out[(j, v)] = frobenius_norm(r.alice[j][v] @ r.L - r.L @ r.bob[v])
    return out


@dataclass
class _Images:
    """The simulated Pauli table and each requested side's image of the state.

    sides["alice"] is (V_A, V_A L) and sides["bob"] is (V_B^dagger,
    L V_B^dagger), so every residual family reuses the isometries built once.
    """

    dist: DistinguishedReflections
    sides: dict[str, tuple[np.ndarray, np.ndarray]]


def _images(r: ReflectionStrategy, sides=("alice", "bob")) -> _Images:
    dist = select_distinguished(r)
    out = {}
    for side in sides:
        v = _isometry(dist, side).matrix
        out[side] = (v, v @ r.L) if side == "alice" else (v.conj().T, r.L @ v.conj().T)
    return _Images(dist=dist, sides=out)


def _ancilla_pauli(t: np.ndarray, which: str, axis: int) -> np.ndarray:
    """Pauli X or Z on the ancilla axis `axis` of a register tensor.

    Both Paulis are real symmetric, so this one map is left multiplication
    on Alice's row registers and right multiplication on Bob's column ones.
    """
    if which == "X":
        return np.flip(t, axis)
    return t * np.array([1.0, -1.0]).reshape((2,) + (1,) * (t.ndim - axis - 1))


def _word_residual(r: ReflectionStrategy, im: _Images, side: str, parsed) -> float:
    prime = {"X": im.dist.x_prime, "Z": im.dist.z_prime}
    v, image = im.sides[side]
    rhs = r.L
    if side == "alice":
        # rows of V_A L are (Alice's space, Q1, Q2, Q3): Qi is axis i
        lhs = image.reshape(r.dim_a, 2, 2, 2, r.dim_b)
        for which, idx in reversed(parsed):
            lhs = _ancilla_pauli(lhs, which, idx)
            rhs = prime[which][idx] @ rhs
        return frobenius_norm(lhs.reshape(image.shape) - v @ rhs)
    # columns of L V_B^dagger are (Bob's space, Q4, Q5, Q6): Qi is axis i - 2
    lhs = image.reshape(r.dim_a, r.dim_b, 2, 2, 2)
    for which, idx in reversed(parsed):
        lhs = _ancilla_pauli(lhs, which, idx - 2)
        rhs = rhs @ prime[which][idx]
    return frobenius_norm(lhs.reshape(image.shape) - rhs @ v)


def _operator_residuals(r: ReflectionStrategy, im: _Images) -> dict[str, float]:
    return {
        f"{which}{i}": _word_residual(r, im, side, [(which, i)])
        for side, regs in _REGISTERS.items()
        for i in regs
        for which in ("X", "Z")
    }


def operator_residuals(r: ReflectionStrategy) -> dict[str, float]:
    """Simulation error of each ancilla Pauli against its strategy operator.

    Keys X1..Z3 measure || P_i (V_A L) - V_A (O'_i L) || on Alice's side;
    keys X4..Z6 measure || (L V_B^dagger) P_i - (L O'_i) V_B^dagger || on
    Bob's, where P_i is the ancilla Pauli and O'_i the simulated operator.
    """
    return _operator_residuals(r, _images(r))


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
    return _word_residual(r, _images(r, (side,)), side, parsed)


def _extract_state(r: ReflectionStrategy, im: _Images) -> StateExtraction:
    P = im.sides["alice"][1] @ im.sides["bob"][0]
    da, db = r.dim_a, r.dim_b
    Pr = P.reshape(da, 2, 2, 2, db, 2, 2, 2)
    basis = np.stack([bell_matrix(k) for k in BELL_KINDS]).conj()
    comps = np.einsum("aijkblmn,xil,yjm,zkn->xyzab", Pr, basis, basis, basis, optimize=True)
    weights: dict[tuple[str, str, str], float] = {}
    for (x, kx), (y, ky), (z, kz) in product(enumerate(BELL_KINDS), repeat=3):
        weights[(kx, ky, kz)] = float(np.linalg.norm(comps[x, y, z]) ** 2)
    junk = comps[0, 0, 0].copy()
    # sqrt(||P||^2 - ||junk||^2) evaluated as the off-target weight sum, which
    # is the same by Parseval but avoids catastrophic cancellation near zero
    off_target = sum(w for key, w in weights.items() if key != PHI_TRIPLE)
    residual = float(np.sqrt(max(off_target, 0.0)))
    return StateExtraction(P=P, bell_weights=weights, junk=junk, state_residual=residual)


def extract_state(r: ReflectionStrategy) -> StateExtraction:
    """Bell-decompose the isometry image of the shared state.

    P = V_A L V_B^dagger is expanded over the orthonormal Bell basis on each
    ancilla pair (Qi, Q(i+3)); the weight of a triple is the squared
    Frobenius norm of its coefficient block.  The junk state is the
    (phi+, phi+, phi+) block, which among all product candidates minimizes
    || junk (x) phi+ (x) phi+ (x) phi+ - P ||; the minimum is the reported
    state_residual = sqrt(||P||^2 - ||junk||^2).
    """
    return _extract_state(r, _images(r))

def context_change_residuals(r: ReflectionStrategy) -> dict[int, float]:
    """|| R[j][v] L - R[j'][v] L || over each vertex's two contexts."""
    out: dict[int, float] = {}
    for v in r.game.vertices:
        j1, j2 = r.game.contexts_of(v)
        out[v] = frobenius_norm(r.alice[j1][v] @ r.L - r.alice[j2][v] @ r.L)
    return out


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
    consistency <= sqrt(80 epsilon) + BOUND_SLACK.
    """
    report = validate(r, STRUCTURE_TOL)
    if not report.passed:
        raise StrategyValidationError(report)

    terms = losing_terms(r)
    epsilon = sum(terms.values()) / 20.0
    consistency = consistency_residuals(r)
    images = _images(r)
    ops = _operator_residuals(r, images)
    extraction = _extract_state(r, images)
    change = context_change_residuals(r)
    comm, anti = _pair_residuals(r)
    words = _sampled_change_words(r, change_word_lengths, change_word_samples, sample_seed)
    bound = np.sqrt(80.0 * max(epsilon, 0.0)) + BOUND_SLACK
    bound_ok = all(res <= bound for res in consistency.values())

    return RigidityReport(
        epsilon=epsilon,
        state_residual=extraction.state_residual,
        bell_weights=extraction.bell_weights,
        junk=extraction.junk,
        op_residuals=ops,
        consistency_residuals=consistency,
        context_change_residuals=change,
        commutator_residuals=comm,
        anticommutator_residuals=anti,
        change_word_residuals=words,
        consistency_bound_ok=bound_ok,
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
