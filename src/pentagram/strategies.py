"""Quantum strategies for the pentagram game in two equivalent forms.

Every strategy is over game.STANDARD_GAME, whose incidence the tables below
assume; relabelled games serve only the classical analysis in game.py.

A *reflection strategy* is the algebraic form used everywhere downstream: a
coefficient matrix L (the shared state written as a map from Bob's space to
Alice's, with unit Frobenius norm), one reflection R[j][v] per context j and
vertex v in j on Alice's side, and one reflection S[v] per vertex on Bob's
side.  Within a context Alice's reflections commute and multiply to the
context label times identity.  Alice operators act on L by left
multiplication and Bob operators by right multiplication; consequently the
physical observable measured by Bob is the transpose of S[v].  For the ideal
strategy every operator is real symmetric, so the distinction vanishes.

A *projective strategy* is the operational form: a shared unit vector psi,
an 8-outcome projective measurement per context for Alice (outcomes are the
parity-valid sign assignments) and a binary projective measurement per vertex
for Bob.  The two forms convert into each other exactly.

Scoring uses the projector form of the losing probability,

    p_lose = (1/20) * sum over (j, v in j) of
             || P+(R) L P-(S) ||^2 + || P-(R) L P+(S) ||^2

with P+-(A) = (I +- A)/2.  Each bracketed term equals
(1/4) * || R L - L S ||^2, so p_lose = (1/80) * sum || R L - L S ||^2; the
projector form is the operational disagreement probability and is treated as
the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .game import STANDARD_GAME, ClassicalStrategy, PentagramGame, parity_assignments
from .linalg import (
    ID2,
    PAULI_X,
    PAULI_Z,
    STRUCTURE_TOL,
    _dagger,
    _frobenius_norms,
    as_matrix,
    frobenius_norm,
    kron_all,
    matrix_from_json,
    matrix_to_json,
)

# Per-vertex observables of the ideal strategy on three qubits.  Single-qubit
# Paulis sit on vertices 5..10; the vertices of the odd context G carry the
# three-fold products forced by the context product constraints.
_P = {"I": ID2, "X": PAULI_X, "Z": PAULI_Z}


def _pauli_string(s: str) -> np.ndarray:
    return kron_all([_P[c] for c in s])


IDEAL_OBSERVABLES = {
    1: "ZZZ", 2: "ZXX", 3: "XXZ", 4: "XZX", 5: "IXI",
    6: "XII", 7: "IIX", 8: "IIZ", 9: "IZI", 10: "ZII",
}


@cache
def _ideal_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ideal L, Alice stack and Bob stack, read-only, built on first use.

    Alice's (5, 4, 8, 8) stack runs over STANDARD_GAME's context names and
    then each context's sorted vertices, Bob's (10, 8, 8) over its vertices.
    """
    obs = {v: _pauli_string(s) for v, s in IDEAL_OBSERVABLES.items()}
    game = STANDARD_GAME
    alice = np.array([[obs[v] for v in game.contexts[j]] for j in game.context_names])
    bob = np.array([obs[v] for v in game.vertices])
    L = np.eye(8, dtype=complex) / np.sqrt(8.0)
    for m in (L, alice, bob):
        m.setflags(write=False)
    return L, alice, bob


@dataclass
class ReflectionStrategy:
    """Shared-state matrix L plus reflection families (treated as immutable)."""

    L: np.ndarray
    alice: dict[str, dict[int, np.ndarray]]
    bob: dict[int, np.ndarray]

    @property
    def game(self) -> PentagramGame:
        return STANDARD_GAME

    @property
    def dim_a(self) -> int:
        return self.L.shape[0]

    @property
    def dim_b(self) -> int:
        return self.L.shape[1]


@dataclass
class ProjectiveStrategy:
    """Shared vector psi plus projective measurements (treated as immutable).

    alice[j] maps each parity-valid outcome (a bit tuple over the sorted
    vertices of j, bit b meaning sign (-1)**b) to its projector; bob[v] is
    the pair (N0, N1) for outcomes +1 and -1.
    """

    psi: np.ndarray
    dim_a: int
    dim_b: int
    alice: dict[str, dict[tuple[int, ...], np.ndarray]]
    bob: dict[int, tuple[np.ndarray, np.ndarray]]

    @property
    def game(self) -> PentagramGame:
        return STANDARD_GAME


@dataclass
class ValidationReport:
    """Worst-case Frobenius deviations from the reflection-strategy axioms.

    context_product is reported on the per-entry scale (Frobenius deviation
    divided by sqrt(dim)); all other fields are plain Frobenius norms, and
    state_norm is | ||L|| - 1 |.
    """

    hermiticity: float
    involution: float
    commutation: float
    context_product: float
    state_norm: float
    tol: float
    passed: bool

    def deviations(self) -> dict[str, float]:
        return {
            "hermiticity": self.hermiticity,
            "involution": self.involution,
            "commutation": self.commutation,
            "context_product": self.context_product,
            "state_norm": self.state_norm,
        }


class InvalidStrategyError(ValueError):
    """A strategy that breaks its axioms beyond STRUCTURE_TOL."""


class StrategyValidationError(InvalidStrategyError):
    """A reflection strategy that fails validate at STRUCTURE_TOL."""

    def __init__(self, report: ValidationReport):
        self.report = report
        failing = ", ".join(
            f"{name} {dev:.3e}" for name, dev in report.deviations().items() if not dev <= report.tol
        )
        super().__init__(f"strategy failed validation at tol={report.tol}: {failing}")


def ideal_strategy() -> ReflectionStrategy:
    """The perfect strategy: three shared EPR pairs, real Pauli observables.

    L is I/sqrt(8); both players measure the same per-vertex observable (the
    same matrix is used in every context containing the vertex).
    """
    L, alice, bob = _ideal_arrays()
    return _standard_strategy(L.copy(), alice.copy(), bob.copy())


def _standard_strategy(L: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> ReflectionStrategy:
    """A strategy from stacks laid out as _ideal_arrays' are."""
    game = STANDARD_GAME
    return ReflectionStrategy(
        L=L,
        alice={j: dict(zip(game.contexts[j], alice[ji])) for ji, j in enumerate(game.context_names)},
        bob=dict(zip(game.vertices, bob)),
    )


def _stacks(r: ReflectionStrategy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r as one-row stacks: L (1, da, db), Alice (1, 5, 4, da, da), Bob (1, 10, db, db)."""
    alice = [[r.alice[j][v] for v in STANDARD_GAME.contexts[j]] for j in STANDARD_GAME.context_names]
    bob = [r.bob[v] for v in STANDARD_GAME.vertices]
    return np.asarray(r.L, dtype=complex)[None], np.array([alice], dtype=complex), np.array([bob], dtype=complex)


# Bob's stack index of each question's vertex, in game.questions() order.
_QUESTION_VERTEX = [STANDARD_GAME.vertices.index(v) for _, v in STANDARD_GAME.questions()]
# Each question's index in that order, and each vertex's two questions, its contexts in name order.
_QUESTION_INDEX = {q: i for i, q in enumerate(STANDARD_GAME.questions())}
_VERTEX_QUESTIONS = np.array(
    [[_QUESTION_INDEX[j, v] for j in STANDARD_GAME.contexts_of(v)] for v in STANDARD_GAME.vertices]
)


def _question_stacks(alice: np.ndarray, bob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, 20) stacks of R[j][v] and S[v] in game.questions() order, Alice's (5, 4) stack flattened."""
    return alice.reshape(alice.shape[0], 20, *alice.shape[-2:]), bob[:, _QUESTION_VERTEX]


def _losing_terms(L: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> list[list[float]]:
    """Each row's 20 losing terms, in game.questions() order, in one stacked pass."""
    R, S = _question_stacks(alice, bob)
    L, Ia, Ib = L[:, None], np.eye(L.shape[-2]), np.eye(L.shape[-1])
    up = _frobenius_norms(((Ia + R) / 2) @ L @ ((Ib - S) / 2))
    dn = _frobenius_norms(((Ia - R) / 2) @ L @ ((Ib + S) / 2))
    # squared one scalar at a time: array ** 2 can round differently
    return [[float(u**2 + d**2) for u, d in zip(ur, dr)] for ur, dr in zip(up, dn)]


def losing_terms(r: ReflectionStrategy) -> dict[tuple[str, int], float]:
    """Disagreement probability of each of the 20 questions.

    One minus the score equals the mean of this table; all 20 projector products run as one stacked
    pass.  Raises StrategyValidationError unless r validates at STRUCTURE_TOL.
    """
    return dict(zip(r.game.questions(), _losing_terms(*_valid_stacks(r))[0]))


def _scores(L: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> list[float]:
    """score of each row of strategy stacks."""
    return [1.0 - sum(terms) / 20.0 for terms in _losing_terms(L, alice, bob)]


def score(r: ReflectionStrategy) -> float:
    """Winning probability of r, raising StrategyValidationError unless r validates at STRUCTURE_TOL."""
    return _scores(*_valid_stacks(r))[0]


# The six vertex pairs (a, b), a < b, of a four-vertex context.
_PAIRS_A, _PAIRS_B = np.triu_indices(4, k=1)


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def _reflection_deviations(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermiticity || A - A^dagger || and involution || A A - I || of each matrix of a (..., d, d) stack."""
    # a matrix is a reflection at STRUCTURE_TOL when both are at most it; an overflow shows as inf or NaN, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        sq = A @ A
        sq -= np.eye(A.shape[-1])
        return _frobenius_norms(A - _dagger(A)), _frobenius_norms(sq)


def validate(r: ReflectionStrategy, tol: float) -> ValidationReport:
    """Measure the worst deviation from each reflection-strategy axiom.

    Each axiom is checked on stacks: Bob's 10 operators, Alice's (5, 4)
    context array and its 30 in-context pairs.  A non-finite deviation
    fails.  Raises ValueError unless tol is finite and non-negative.
    """
    _check_tol(tol)
    return _validate_rows(*_stacks(r), tol)[0]


def _validate_rows(L: np.ndarray, alice: np.ndarray, bob: np.ndarray, tol: float) -> list[ValidationReport]:
    """validate for every row of strategy stacks, laid out as _stacks lays them, in one pass."""
    n, da = alice.shape[0], alice.shape[-1]
    # an overflow shows as an inf or NaN deviation, which fails, so numpy
    # need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        herm, invol, comm = [], [], []
        for A in (bob, alice):
            for devs, dev in zip((herm, invol), _reflection_deviations(A)):
                devs.append(dev.reshape(n, -1))
        # in place and pair by pair: smaller temporaries, for d = 32 and long stacks
        for i, j in zip(_PAIRS_A, _PAIRS_B):
            c = alice[:, :, i] @ alice[:, :, j]
            c -= alice[:, :, j] @ alice[:, :, i]
            comm.append(_frobenius_norms(c))
        P = np.eye(da, dtype=complex)
        for i in range(alice.shape[2]):
            P = P @ alice[:, :, i]
        labels = np.array([STANDARD_GAME.labels[j] for j in STANDARD_GAME.context_names])[:, None, None]
        prod = _frobenius_norms(P - labels * np.eye(da)) / np.sqrt(da)
        state = np.abs(_frobenius_norms(L) - 1.0)
    # np.max, unlike max(), keeps a NaN deviation, which then fails
    devs = [np.max(np.concatenate(x, axis=1), axis=1) for x in (herm, invol, comm, [prod])]
    return [ValidationReport(*map(float, row), tol, all(d <= tol for d in row)) for row in zip(*devs, state)]


def _require_valid_rows(L: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> list[ValidationReport]:
    """The one gate: _validate_rows at STRUCTURE_TOL, raising StrategyValidationError at the first failing row."""
    reports = _validate_rows(L, alice, bob, STRUCTURE_TOL)
    for report in reports:
        if not report.passed:
            raise StrategyValidationError(report)
    return reports


def require_valid(r: ReflectionStrategy) -> ValidationReport:
    """validate(r, STRUCTURE_TOL), raising StrategyValidationError unless it passes."""
    return _require_valid_rows(*_stacks(r))[0]


def _valid_stacks(r: ReflectionStrategy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_stacks(r), once they have passed the one gate."""
    stacks = _stacks(r)
    _require_valid_rows(*stacks)
    return stacks


def to_projective(r: ReflectionStrategy) -> ProjectiveStrategy:
    """Convert a reflection strategy to its projective form.

    Alice's projector for outcome t is the product over the context's
    vertices of (I + (-1)**t(v) R[j][v])/2; the product is well defined
    because the factors commute, and it vanishes unless the parity of t
    matches the context label.  Bob's projectors split S[v] into its +-1
    eigenspaces, and psi flattens L.  Raises StrategyValidationError unless r
    validates at STRUCTURE_TOL.
    """
    require_valid(r)
    da, db = r.dim_a, r.dim_b
    alice: dict[str, dict[tuple[int, ...], np.ndarray]] = {}
    for j in r.game.context_names:
        vs = r.game.contexts[j]
        outcomes: dict[tuple[int, ...], np.ndarray] = {}
        for t in parity_assignments(r.game, j):
            M = np.eye(da, dtype=complex)
            for bit, v in zip(t, vs):
                sign = 1.0 if bit == 0 else -1.0
                M = M @ ((np.eye(da) + sign * r.alice[j][v]) / 2)
            outcomes[t] = M
        alice[j] = outcomes
    bob = {
        v: (
            (np.eye(db) + r.bob[v]) / 2,
            (np.eye(db) - r.bob[v]) / 2,
        )
        for v in r.game.vertices
    }
    psi = np.asarray(r.L, dtype=complex).ravel().copy()
    return ProjectiveStrategy(psi=psi, dim_a=da, dim_b=db, alice=alice, bob=bob)


def _check_projective(p: ProjectiveStrategy, tol: float = STRUCTURE_TOL) -> None:
    """Raise InvalidStrategyError when a projective axiom deviates beyond tol.

    The deviation is the worst of Hermiticity, idempotence and completeness
    of every measurement, and | ||psi|| - 1 |.  Raises ValueError unless tol
    is finite and non-negative.
    """
    _check_tol(tol)
    devs = []
    # an overflow shows as an inf or NaN deviation, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        for j in p.game.context_names:
            total = np.zeros((p.dim_a, p.dim_a), dtype=complex)
            for M in p.alice[j].values():
                M = as_matrix(M)
                devs += [frobenius_norm(M - M.conj().T), frobenius_norm(M @ M - M)]
                total += M
            devs.append(frobenius_norm(total - np.eye(p.dim_a)))
        for N0, N1 in p.bob.values():
            for N in (N0, N1):
                N = as_matrix(N)
                devs += [frobenius_norm(N - N.conj().T), frobenius_norm(N @ N - N)]
            devs.append(frobenius_norm(N0 + N1 - np.eye(p.dim_b)))
        devs.append(abs(float(np.linalg.norm(p.psi)) - 1.0))
    # np.max, unlike max(), keeps a NaN deviation, which then fails
    dev = np.max(devs)
    if not dev <= tol:
        raise InvalidStrategyError(f"invalid projective strategy (max deviation {dev:.3e})")


def to_reflection(p: ProjectiveStrategy) -> ReflectionStrategy:
    """Convert a projective strategy to its reflection form.

    R[j][v] sums the projectors of outcomes assigning +1 to v minus those
    assigning -1; S[v] = N0 - N1; L is psi reshaped into a dim_a x dim_b
    coefficient matrix (row index on Alice's space).  Raises
    InvalidStrategyError unless the measurements and psi are valid to
    STRUCTURE_TOL.
    """
    _check_projective(p)
    return _reflection_form(p)


def _reflection_form(p: ProjectiveStrategy) -> ReflectionStrategy:
    """to_reflection's conversion, for callers that check the axioms themselves."""
    alice: dict[str, dict[int, np.ndarray]] = {}
    for j in p.game.context_names:
        vs = p.game.contexts[j]
        refl: dict[int, np.ndarray] = {}
        for i, v in enumerate(vs):
            R = np.zeros((p.dim_a, p.dim_a), dtype=complex)
            for t, M in p.alice[j].items():
                R += M if t[i] == 0 else -M
            refl[v] = R
        alice[j] = refl
    bob = {v: p.bob[v][0] - p.bob[v][1] for v in p.game.vertices}
    L = np.asarray(p.psi, dtype=complex).reshape(p.dim_a, p.dim_b).copy()
    return ReflectionStrategy(L=L, alice=alice, bob=bob)


def classical_embedding(strategy: ClassicalStrategy) -> ReflectionStrategy:
    """Embed a deterministic strategy for STANDARD_GAME as a 1x1 reflection strategy.

    Signs become 1x1 reflections and L = [[1]]; the quantum score then equals
    the classical winning probability exactly.
    """
    game = STANDARD_GAME
    alice = np.array([[strategy.alice[j][v] for v in game.contexts[j]] for j in game.context_names], dtype=complex)
    bob = np.array([strategy.bob[v] for v in game.vertices], dtype=complex)
    return _standard_strategy(np.eye(1, dtype=complex), alice[..., None, None], bob[..., None, None])


def reflection_to_json(r: ReflectionStrategy) -> dict:
    return {
        "dim_a": r.dim_a,
        "dim_b": r.dim_b,
        "L": matrix_to_json(r.L),
        "R": {
            j: {str(v): matrix_to_json(r.alice[j][v]) for v in r.game.contexts[j]}
            for j in r.game.context_names
        },
        "S": {str(v): matrix_to_json(r.bob[v]) for v in r.game.vertices},
    }


def projective_to_json(p: ProjectiveStrategy) -> dict:
    psi_col = np.asarray(p.psi, dtype=complex).reshape(-1, 1)
    return {
        "dim_a": p.dim_a,
        "dim_b": p.dim_b,
        "psi": matrix_to_json(psi_col),
        "M": {
            j: {
                "".join(str(b) for b in t): matrix_to_json(M)
                for t, M in p.alice[j].items()
            }
            for j in p.game.context_names
        },
        "N": {
            str(v): {"0": matrix_to_json(p.bob[v][0]), "1": matrix_to_json(p.bob[v][1])}
            for v in p.game.vertices
        },
    }


def _decode(obj, name: str, shape: tuple[int, int]) -> np.ndarray:
    """matrix_from_json, checked against `shape`, with `name` in its errors."""
    try:
        m = matrix_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"matrix {name}: {exc}") from None
    if m.shape != shape:
        raise ValueError(f"matrix {name}: shape {m.shape} does not match dim_a, dim_b (expected {shape})")
    return m


def _section(sec, name: str, keys) -> dict:
    """`sec`, checked to be an object whose key set is exactly `keys`."""
    if not isinstance(sec, dict):
        raise ValueError(f"{name} must be an object, got {type(sec).__name__}")
    keys = {str(k) for k in keys}
    if set(sec) != keys:
        missing, extra = sorted(keys - set(sec)), sorted(set(sec) - keys)
        raise ValueError(f"{name}: missing keys {missing}, unexpected keys {extra}")
    return sec


def _dims(obj) -> tuple[int, int]:
    for name in ("dim_a", "dim_b"):
        d = obj.get(name)
        if type(d) is not int or d <= 0:
            raise ValueError(f"{name} must be a positive integer, got {d!r}")
    return obj["dim_a"], obj["dim_b"]


def strategy_from_json(obj: dict):
    """Decode either strategy format, detected by its keys.

    Key sets must match STANDARD_GAME's contexts, vertices and outcomes
    exactly, and every matrix shape must match dim_a/dim_b; a violation
    raises a ValueError naming the field.
    """
    game = STANDARD_GAME
    if not isinstance(obj, dict):
        raise ValueError(f"a strategy must be an object, got {type(obj).__name__}")
    if "L" in obj and "R" in obj:
        da, db = _dims(obj)
        L = _decode(obj["L"], "L", (da, db))
        R = _section(obj["R"], "R", game.context_names)
        S = _section(obj.get("S"), "S", game.vertices)
        alice = {}
        for j in game.context_names:
            ctx = _section(R[j], f"R.{j}", game.contexts[j])
            alice[j] = {v: _decode(ctx[str(v)], f"R.{j}.{v}", (da, da)) for v in game.contexts[j]}
        bob = {v: _decode(S[str(v)], f"S.{v}", (db, db)) for v in game.vertices}
        return ReflectionStrategy(L=L, alice=alice, bob=bob)
    if "psi" in obj and "M" in obj:
        da, db = _dims(obj)
        psi = _decode(obj["psi"], "psi", (da * db, 1)).ravel()
        M = _section(obj["M"], "M", game.context_names)
        N = _section(obj.get("N"), "N", game.vertices)
        alice, bob = {}, {}
        for j in game.context_names:
            outcomes = ["".join(map(str, t)) for t in parity_assignments(game, j)]
            ctx = _section(M[j], f"M.{j}", outcomes)
            alice[j] = {
                tuple(map(int, key)): _decode(ctx[key], f"M.{j}.{key}", (da, da)) for key in outcomes
            }
        for v in game.vertices:
            pair = _section(N[str(v)], f"N.{v}", "01")
            bob[v] = tuple(_decode(pair[b], f"N.{v}.{b}", (db, db)) for b in "01")
        return ProjectiveStrategy(psi=psi, dim_a=da, dim_b=db, alice=alice, bob=bob)
    raise ValueError("unrecognized strategy format (expected L/R/S or psi/M/N keys)")


def load_reflection(obj: dict) -> ReflectionStrategy:
    """Decode a strategy file and convert to reflection form if needed."""
    s = strategy_from_json(obj)
    if isinstance(s, ProjectiveStrategy):
        return to_reflection(s)
    return s
