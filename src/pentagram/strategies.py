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
parity-valid sign assignments, in _OUTCOMES order) and a binary projective
measurement per vertex for Bob.  Both forms hold one read-only stack layout
and convert into each other exactly, on the stacks.

Scoring uses the projector form of the losing probability,

    p_lose = (1/20) * sum over (j, v in j) of
             || P+(R) L P-(S) ||^2 + || P-(R) L P+(S) ||^2

with P+-(A) = (I +- A)/2.  Each bracketed term equals
(1/4) * || R L - L S ||^2, so p_lose = (1/80) * sum || R L - L S ||^2; the
projector form is the operational disagreement probability and is treated as
the ground truth.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cache
from types import MappingProxyType

import numpy as np

from .game import STANDARD_GAME, ClassicalStrategy, parity_assignments
from .linalg import (
    ID2,
    PAULI_X,
    PAULI_Z,
    STRUCTURE_TOL,
    _dagger,
    _frobenius_norms,
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


# Each context's 8 parity-valid outcome bits, (5, 8, 4): contexts in name order, bits over sorted vertices.
_OUTCOMES = np.array([parity_assignments(STANDARD_GAME, j) for j in STANDARD_GAME.context_names])


class _StackedStrategy:
    """A strategy held as three read-only stacks: L (da, db), Alice's (5, n, da, da) and Bob's (10, ..., db, db).

    A subclass names its Alice view's keys in _ALICE_KEYS: each context's n keys, contexts in name order.  _FILE
    names its file's state, Alice and Bob sections, each context's Alice keys there and Bob's outcome keys, if any.
    """

    _views = None

    @classmethod
    def _parsed(cls, L: np.ndarray, alice, bob, bob_axes: tuple[int, ...]):
        """A strategy of L and copies of alice {j: {key: m}} and bob {v: m}, naming any wrong key, shape or entry."""
        game, (da, db) = STANDARD_GAME, L.shape
        names = _keys(alice, game.context_names, "alice")
        contexts = [(j, _keys(alice[j], keys, f"alice[{j}]")) for j, keys in zip(names, cls._ALICE_KEYS)]
        ops = _stacked([(f"alice[{j}][{k}]", alice[j][k]) for j, keys in contexts for k in keys], (da, da))
        bob = _stacked([(f"bob[{v}]", bob[v]) for v in _keys(bob, game.vertices, "bob")], (*bob_axes, db, db))
        return cls._from_arrays(L, ops.reshape(5, -1, da, da), bob)

    @classmethod
    def _from_arrays(cls, L: np.ndarray, alice: np.ndarray, bob: np.ndarray):
        """A strategy that takes over complex stacks in its own layout, unchecked, and marks them read-only."""
        s = object.__new__(cls)
        for m in (L, alice, bob):
            m.setflags(write=False)
        s._L, s._alice, s._bob = L, alice, bob
        return s

    def __reduce__(self):
        # the read-only views do not pickle; rebuild from the stacks
        return type(self)._from_arrays, (self._L, self._alice, self._bob)

    def _mappings(self) -> tuple[Mapping[str, Mapping], Mapping[int, np.ndarray]]:
        """The read-only alice {j: {key: m}} and bob {v: m} views, built on first use."""
        if self._views is None:
            named = zip(STANDARD_GAME.context_names, self._ALICE_KEYS, self._alice)
            alice = {j: MappingProxyType(dict(zip(keys, ops))) for j, keys, ops in named}
            self._views = MappingProxyType(alice), MappingProxyType(dict(zip(STANDARD_GAME.vertices, self._bob)))
        return self._views

    # read-only: a property without a setter refuses assignment
    L = property(lambda self: self._L)
    alice = property(lambda self: self._mappings()[0])
    bob = property(lambda self: self._mappings()[1])
    game = property(lambda self: STANDARD_GAME)
    dim_a = property(lambda self: self._L.shape[0])
    dim_b = property(lambda self: self._L.shape[1])


class ReflectionStrategy(_StackedStrategy):
    """Shared-state matrix L plus reflection families, held as three read-only stacks.

    The stacks are laid out as _ideal_arrays' are: L (da, db), Alice's (5, 4, da, da) and Bob's (10, db, db).  The
    constructor copies L, alice {j: {v: R[j][v]}} and bob {v: S[v]} into them, and r.L, r.alice[j][v] and r.bob[v]
    are read-only views of them.  The axioms wait for the one gate, which _rows runs when a measure first reads the
    stacks; its verdict is remembered, since nothing can change the stacks, and so are the simulated Paulis and
    isometry images that rigidity's single-strategy measures build.
    """

    _ALICE_KEYS = [STANDARD_GAME.contexts[j] for j in STANDARD_GAME.context_names]
    _FILE = "L", "R", "S", [[str(v) for v in vs] for vs in _ALICE_KEYS], ""
    _verdict = _primes = _images = None

    def __new__(cls, L, alice, bob):
        L = _complex("L", L)
        if L.ndim != 2 or not L.size:
            raise InvalidStrategyError(f"L: shape {L.shape}, expected a nonempty matrix")
        return cls._parsed(_stacked([("L", L)], L.shape)[0], alice, bob, ())

    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stacks as one-row batches, the layout of the stacked kernels, once they pass the gate."""
        self._gate()
        return self._L[None], self._alice[None], self._bob[None]

    def _gate(self) -> ValidationReport:
        """The one gate's report, run on first use and remembered, pass or fail; raises StrategyValidationError."""
        if self._verdict is None:
            self._verdict = _validate_rows(self._L[None], self._alice[None], self._bob[None], STRUCTURE_TOL)[0]
        if not self._verdict.passed:
            raise StrategyValidationError(self._verdict)
        return self._verdict


class ProjectiveStrategy(_StackedStrategy):
    """Shared unit vector psi plus projective measurements, held as three read-only stacks.

    L (dim_a, dim_b) is psi as a matrix; Alice's (5, 8, da, da) stack holds each context's projectors in _OUTCOMES
    order and Bob's (10, 2, db, db) each vertex's pair (N0, N1) for outcomes +1 and -1.  The constructor copies psi,
    alice {j: {t: M}} (t a parity-valid bit tuple over the sorted vertices of j, bit b meaning sign (-1)**b) and bob
    {v: (N0, N1)} into them, naming the field whose keys, shape or entries are wrong; p.psi, p.alice[j][t] and
    p.bob[v], a (2, db, db) pair, are read-only views of them.  Its axioms wait for to_reflection or validate.
    """

    _ALICE_KEYS = [list(map(tuple, ts)) for ts in _OUTCOMES.tolist()]
    _FILE = "psi", "M", "N", [["".join(map(str, t)) for t in ts] for ts in _ALICE_KEYS], "01"

    def __new__(cls, psi, dim_a, dim_b, alice, bob):
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d > 0 for d in (dim_a, dim_b)):
            raise InvalidStrategyError(f"dim_a, dim_b: {dim_a!r}, {dim_b!r}, expected positive integers")
        return cls._parsed(_stacked([("psi", psi)], (dim_a * dim_b,))[0].reshape(dim_a, dim_b), alice, bob, (2,))

    psi = property(lambda self: self._L.reshape(-1))


def _keys(m, keys, name: str):
    """keys, once the mapping m has exactly them; InvalidStrategyError names m otherwise."""
    if not isinstance(m, Mapping):
        raise InvalidStrategyError(f"{name}: {type(m).__name__}, expected a mapping")
    if set(m) != set(keys):
        missing, extra = sorted(set(keys) - set(m)), sorted(set(m) - set(keys), key=repr)
        raise InvalidStrategyError(f"{name}: missing keys {missing}, unexpected keys {extra}")
    return keys


def _stacked(named: list[tuple[str, object]], shape: tuple[int, ...]) -> np.ndarray:
    """The named arrays as one complex copy, (n, *shape), naming the first that is not a finite array of `shape`."""
    mats = [_complex(name, m) for name, m in named]
    for (name, _), m in zip(named, mats):
        if m.shape != shape:
            raise InvalidStrategyError(f"{name}: shape {m.shape}, expected {shape}")
    out = np.array(mats)
    finite = np.isfinite(out.reshape(len(out), -1).view(float)).all(axis=1)
    if not finite.all():
        raise InvalidStrategyError(f"{named[int(np.argmin(finite))][0]}: non-finite entries")
    return out


def _complex(name: str, m) -> np.ndarray:
    """m as a complex array; InvalidStrategyError names it when numpy cannot make one of it."""
    try:
        return np.asarray(m, dtype=complex)
    except (TypeError, ValueError):
        raise InvalidStrategyError(f"{name}: not an array of numbers") from None


@dataclass(frozen=True)
class ValidationReport:
    """Worst-case Frobenius deviations from the reflection-strategy axioms.

    context_product is reported on the per-entry scale (Frobenius deviation
    divided by sqrt(dim)); all other fields are plain Frobenius norms, and
    state_norm is | ||L|| - 1 |.  worst indexes the first four fields' worst
    deviations in _validate_rows' order, for error messages.
    """

    hermiticity: float
    involution: float
    commutation: float
    context_product: float
    state_norm: float
    tol: float
    passed: bool
    worst: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def deviations(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)[:5]}


class InvalidStrategyError(ValueError):
    """A strategy that breaks its axioms beyond STRUCTURE_TOL, or whose keys, shapes or entries are wrong."""


class StrategyValidationError(InvalidStrategyError):
    """A reflection strategy that fails validate at STRUCTURE_TOL, naming where each failing axiom is worst."""

    def __init__(self, report: ValidationReport):
        self.report = report
        where = {name: f" at {at[i]}" for name, at, i in zip(report.deviations(), _LOCATIONS, report.worst)}
        failing = ", ".join(
            f"{name} {dev:.3e}{where.get(name, '')}" for name, dev in report.deviations().items() if not dev <= report.tol
        )
        super().__init__(f"strategy failed validation at tol={report.tol}: {failing}")


def ideal_strategy() -> ReflectionStrategy:
    """The perfect strategy: three shared EPR pairs, real Pauli observables.

    L is I/sqrt(8); both players measure the same per-vertex observable (the
    same matrix is used in every context containing the vertex).
    """
    return ReflectionStrategy._from_arrays(*_ideal_arrays())


# Bob's stack index of each question's vertex, in game.questions() order.
_QUESTION_VERTEX = [STANDARD_GAME.vertices.index(v) for _, v in STANDARD_GAME.questions()]
# Each question's index in that order, and each vertex's two questions, its contexts in name order.
_QUESTION_INDEX = {q: i for i, q in enumerate(STANDARD_GAME.questions())}
_VERTEX_QUESTIONS = np.array(
    [[_QUESTION_INDEX[j, v] for j in STANDARD_GAME.contexts_of(v)] for v in STANDARD_GAME.vertices]
)


def _by_question(alice: np.ndarray, bob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R[j][v] and S[v] in game.questions() order, (..., 20, d, d), of Alice's (..., 5, 4) and Bob's (..., 10) stacks."""
    return alice.reshape(*alice.shape[:-4], 20, *alice.shape[-2:]), bob[..., _QUESTION_VERTEX, :, :]


def _losing_terms(L: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> list[list[float]]:
    """Each row's 20 losing terms, in game.questions() order, in one stacked pass."""
    R, S = _by_question(alice, bob)
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
    return dict(zip(r.game.questions(), _losing_terms(*r._rows())[0]))


def _scores(L: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> list[float]:
    """score of each row of strategy stacks."""
    return [1.0 - sum(terms) / 20.0 for terms in _losing_terms(L, alice, bob)]


def score(r: ReflectionStrategy) -> float:
    """Winning probability of r, raising StrategyValidationError unless r validates at STRUCTURE_TOL."""
    return _scores(*r._rows())[0]


# The six vertex pairs (a, b), a < b, of a four-vertex context.
_PAIRS_A, _PAIRS_B = np.triu_indices(4, k=1)


def _deviations(A: np.ndarray, square) -> tuple[np.ndarray, np.ndarray]:
    """|| A - A^dagger || and || A A - square || of each matrix: square I for a reflection, A for a projector."""
    # an overflow shows as inf or NaN, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        sq = A @ A
        sq -= square
        return _frobenius_norms(A - _dagger(A)), _frobenius_norms(sq)


def validate(s: ReflectionStrategy | ProjectiveStrategy, tol: float) -> ValidationReport:
    """Measure the worst deviation from each reflection-strategy axiom.

    Each axiom is checked on stacks: Bob's 10 operators, Alice's (5, 4)
    context array and its 30 in-context pairs.  A non-finite deviation
    fails.  A projective strategy's own axioms are held to tol first,
    raising InvalidStrategyError, and then its reflection form is measured.
    Raises ValueError unless tol is finite and non-negative.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if isinstance(s, ProjectiveStrategy):
        _check_projective(s, tol)
        s = _reflection_form(s)
    return _validate_rows(s._L[None], s._alice[None], s._bob[None], tol)[0]


# Where each deviation of _validate_rows' four families lies, in its order, for StrategyValidationError's message.
_OPERATORS = [f"Bob vertex {v}" for v in STANDARD_GAME.vertices]
_OPERATORS += [f"Alice context {j} vertex {v}" for j, v in STANDARD_GAME.questions()]
_CONTEXTS = [f"context {j}" for j in STANDARD_GAME.context_names]
_CONTEXT_PAIRS = [
    f"{c} vertices {vs[a]}, {vs[b]}"
    for c, vs in zip(_CONTEXTS, ReflectionStrategy._ALICE_KEYS)
    for a, b in zip(_PAIRS_A, _PAIRS_B)
]
_LOCATIONS = (_OPERATORS, _OPERATORS, _CONTEXT_PAIRS, _CONTEXTS)


def _validate_rows(L: np.ndarray, alice: np.ndarray, bob: np.ndarray, tol: float) -> list[ValidationReport]:
    """validate for every row of (B, ...) strategy stacks, in one pass."""
    n, da = alice.shape[0], alice.shape[-1]
    # an overflow shows as an inf or NaN deviation, which fails, so numpy
    # need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        herm, invol = [], []
        for A in (bob, alice):
            for devs, dev in zip((herm, invol), _deviations(A, np.eye(A.shape[-1]))):
                devs.append(dev.reshape(n, -1))
        a, b = alice[:, :, _PAIRS_A], alice[:, :, _PAIRS_B]
        c = a @ b
        c -= b @ a
        P = np.eye(da, dtype=complex)
        for i in range(alice.shape[2]):
            P = P @ alice[:, :, i]
        labels = np.array([STANDARD_GAME.labels[j] for j in STANDARD_GAME.context_names])[:, None, None]
        prod = _frobenius_norms(P - labels * np.eye(da)) / np.sqrt(da)
        state = np.abs(_frobenius_norms(L) - 1.0)
        families = [np.concatenate(x, axis=1) for x in (herm, invol, [_frobenius_norms(c).reshape(n, -1)], [prod])]
    # np.max and np.argmax, unlike max(), keep a NaN deviation, which then fails
    devs, worst = [np.max(x, axis=1) for x in families], np.stack([np.argmax(x, axis=1) for x in families], axis=1)
    return [
        ValidationReport(*map(float, row), tol, all(d <= tol for d in row), tuple(map(int, at)))
        for row, at in zip(zip(*devs, state), worst)
    ]


def _require_valid_rows(L: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> list[ValidationReport]:
    """The one gate on (B, ...) stacks: _validate_rows at STRUCTURE_TOL, raising at the first failing row."""
    reports = _validate_rows(L, alice, bob, STRUCTURE_TOL)
    for report in reports:
        if not report.passed:
            raise StrategyValidationError(report)
    return reports


def to_projective(r: ReflectionStrategy) -> ProjectiveStrategy:
    """Convert a reflection strategy to its projective form.

    Alice's projector for outcome t is the product over the context's
    vertices of (I + (-1)**t(v) R[j][v])/2; the product is well defined
    because the factors commute, and it vanishes unless the parity of t
    matches the context label.  Bob's projectors split S[v] into its +-1
    eigenspaces, and psi flattens L.  All factors are built as one stack.
    Raises StrategyValidationError unless r validates at STRUCTURE_TOL.
    """
    r._gate()
    da, db = r.dim_a, r.dim_b
    # (5, 8, 4, da, da): every outcome's factor for every vertex of its context
    factors = (np.eye(da) + (1.0 - 2.0 * _OUTCOMES)[..., None, None] * r._alice[:, None]) / 2
    M = np.eye(da, dtype=complex)
    for i in range(factors.shape[2]):
        M = M @ factors[:, :, i]
    pairs = np.stack([np.eye(db) + r._bob, np.eye(db) - r._bob], axis=1) / 2
    return ProjectiveStrategy._from_arrays(r._L, M, pairs)


def _check_projective(p: ProjectiveStrategy, tol: float = STRUCTURE_TOL) -> None:
    """Raise InvalidStrategyError when a projective axiom deviates beyond tol.

    The deviation is the worst of Hermiticity, idempotence and completeness
    of every measurement, checked on p's stacks, and | ||psi|| - 1 |.
    """
    devs = [[abs(float(np.linalg.norm(p.psi)) - 1.0)]]
    # an overflow shows as an inf or NaN deviation, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        for A in (p._alice, p._bob):
            devs += [dev.ravel() for dev in _deviations(A, A)]
            devs.append(_frobenius_norms(A.sum(axis=1) - np.eye(A.shape[-1])))
    # np.max, unlike max(), keeps a NaN deviation, which then fails
    dev = np.max(np.concatenate(devs))
    if not dev <= tol:
        raise InvalidStrategyError(f"invalid projective strategy (max deviation {dev:.3e})")


def to_reflection(s: ReflectionStrategy | ProjectiveStrategy) -> ReflectionStrategy:
    """Convert a projective strategy to its reflection form; a reflection strategy is returned as it is.

    R[j][v] sums the projectors of outcomes assigning +1 to v minus those
    assigning -1; S[v] = N0 - N1; L is psi reshaped into a dim_a x dim_b
    coefficient matrix (row index on Alice's space).  Raises
    InvalidStrategyError unless the measurements and psi are valid to
    STRUCTURE_TOL.
    """
    if isinstance(s, ReflectionStrategy):
        return s
    _check_projective(s)
    return _reflection_form(s)


def _reflection_form(p: ProjectiveStrategy) -> ReflectionStrategy:
    """to_reflection's conversion, for callers that check the axioms themselves."""
    R = np.zeros((5, 4, p.dim_a, p.dim_a), dtype=complex)
    # outcome by outcome, each projector added or subtracted whole: negating by a multiply could flip a zero's sign
    for i in range(_OUTCOMES.shape[1]):
        A = p._alice[:, i, None]
        R += np.where(_OUTCOMES[:, i, :, None, None] == 0, A, -A)
    return ReflectionStrategy._from_arrays(p._L, R, p._bob[:, 0] - p._bob[:, 1])


def classical_embedding(strategy: ClassicalStrategy) -> ReflectionStrategy:
    """Embed a deterministic strategy for STANDARD_GAME as a 1x1 reflection strategy.

    Signs become 1x1 reflections and L = [[1]]; the quantum score then equals
    the classical winning probability exactly.
    """
    game = STANDARD_GAME
    alice = np.array([[strategy.alice[j][v] for v in game.contexts[j]] for j in game.context_names], dtype=complex)
    bob = np.array([strategy.bob[v] for v in game.vertices], dtype=complex)
    return ReflectionStrategy._from_arrays(np.eye(1, dtype=complex), alice[..., None, None], bob[..., None, None])


def strategy_to_json(s: ReflectionStrategy | ProjectiveStrategy) -> dict:
    """The file of either form, from its stacks: dim_a, dim_b and L/R/S or psi/M/N, as strategy_from_json reads it."""
    (state, a, b, names, outcomes), game = s._FILE, STANDARD_GAME
    # psi is a column, and a projective strategy's Bob entry is the pair {"0": N0, "1": N1}
    bob = [dict(zip(outcomes, map(matrix_to_json, m))) if outcomes else matrix_to_json(m) for m in s._bob]
    return {
        "dim_a": s.dim_a,
        "dim_b": s.dim_b,
        state: matrix_to_json(s._L if state == "L" else s._L.reshape(-1, 1)),
        a: {j: dict(zip(keys, map(matrix_to_json, ops))) for j, keys, ops in zip(game.context_names, names, s._alice)},
        b: dict(zip(map(str, game.vertices), bob)),
    }


def _decode(obj, name: str, shape: tuple[int, int], keys=()):
    """matrix_from_json, checked against `shape`, with `name` in its errors; given keys, a section's matrices."""
    if keys:
        sec = _section(obj, name, keys)
        return [_decode(sec[k], f"{name}.{k}", shape) for k in keys]
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


def strategy_from_json(obj: dict) -> ReflectionStrategy | ProjectiveStrategy:
    """Decode either strategy format, detected by its keys.

    Key sets must match STANDARD_GAME's contexts, vertices and outcomes
    exactly, and every matrix shape must match dim_a/dim_b; a violation
    raises a ValueError naming the field.  The two formats differ only in
    the state (L, or psi as a column) and in Bob's outcome level N.v.0/1.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a strategy must be an object, got {type(obj).__name__}")
    form = next((f for f in (ReflectionStrategy, ProjectiveStrategy) if f._FILE[0] in obj and f._FILE[1] in obj), None)
    if form is None:
        raise ValueError("unrecognized strategy format (expected L/R/S or psi/M/N keys)")
    (state, a, b, names, outcomes), game = form._FILE, STANDARD_GAME
    for dim in ("dim_a", "dim_b"):
        if type(obj.get(dim)) is not int or obj[dim] <= 0:
            raise ValueError(f"{dim} must be a positive integer, got {obj.get(dim)!r}")
    da, db = obj["dim_a"], obj["dim_b"]
    L = _decode(obj[state], state, (da, db) if form is ReflectionStrategy else (da * db, 1)).reshape(da, db)
    A, B = _section(obj[a], a, game.context_names), _section(obj.get(b), b, game.vertices)
    alice = [_decode(A[j], f"{a}.{j}", (da, da), keys) for j, keys in zip(game.context_names, names)]
    bob = [_decode(B[str(v)], f"{b}.{v}", (db, db), outcomes) for v in game.vertices]
    # every matrix is checked here, so the stacks go to the strategy unchecked
    return form._from_arrays(L, np.array(alice), np.array(bob))
