"""The stacked kernels against the per-matrix loops they replaced.

Each reference below is the earlier loop form, kept verbatim apart from
names and docstrings, the way test_rigidity keeps the dense Kronecker
isometry; so are the per-row certificate core that the stacked core
replaced, the dict-of-dicts pair and change-word families that certify now
reads from stacks, the distinguished-reflection table they and the dense
reference read, the per-matrix reflection check the isometry reference
runs, the dict-of-dicts random strategy, and the per-matrix projective
conversions and check.  Two references follow deliberate changes of the
kernels: Alice's pair words multiply onto L as A (B L), and a random
generator's eigenvalues are scaled after its one eigendecomposition.  The
stacked kernels run the same floating-point operations in the same order,
so every comparison is exact: `==` on floats and np.array_equal on
matrices, with no tolerance.
Every test runs on one BLAS thread, as the measures do, so that the
references' whole products round as theirs on every kernel.
"""

from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from rebuild import replaced

from pentagram.game import STANDARD_GAME, best_classical_strategy, parity_assignments
from pentagram.linalg import (
    BELL_KINDS,
    HADAMARD,
    PLUS,
    STRUCTURE_TOL,
    _one_blas_thread,
    as_matrix,
    bell_matrix,
    frobenius_norm,
)
from pentagram.optimize import (
    MODES,
    PerturbationSpec,
    _apply,
    _draw,
    bob_best_response,
    haar_unitary,
    perturb_ideal,
    random_reflection,
    random_strategy,
)
from pentagram.rigidity import (
    _OP_KEYS,
    DISTINGUISHED_CONTEXT,
    PHI_TRIPLE,
    X_PRIME_VERTEX,
    Z_PRIME_VERTEX,
    StateExtraction,
    _ancilla_pauli,
    _bell_expand,
    _change_words,
    _core,
    certify,
    consistency_residuals,
    word_residual,
)
from pentagram.strategies import (
    InvalidStrategyError,
    ProjectiveStrategy,
    ReflectionStrategy,
    ValidationReport,
    _check_projective,
    _reflection_form,
    _require_valid_rows,
    classical_embedding,
    ideal_strategy,
    losing_terms,
    to_projective,
    to_reflection,
    validate,
)


@pytest.fixture(autouse=True)
def one_blas_thread():
    # on OpenBLAS's Haswell kernel two threads round a d = 32 product differently from one
    with _one_blas_thread():
        yield


def ref_hermitian_eigendecomposition(a):
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    dev = frobenius_norm(a - a.conj().T)
    if dev > STRUCTURE_TOL:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {STRUCTURE_TOL:.3e})")
    w, v = np.linalg.eigh(a)
    return w, v


def ref_exp_i_eigen(w, v, scale: float) -> np.ndarray:
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def ref_random_hermitian(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigendecomposition (w, v) of a random Hermitian generator, its eigenvalues scaled to unit largest modulus."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w, v = ref_hermitian_eigendecomposition((g + g.conj().T) / 2)
    return w / np.max(np.abs(w)), v


def ideal_parts():
    """The ideal strategy's L, alice and bob as dicts the references may reassign, then build from."""
    r = ideal_strategy()
    return r, r.L, {j: dict(ctx) for j, ctx in r.alice.items()}, dict(r.bob)


def ref_perturbed(spec: PerturbationSpec) -> ReflectionStrategy:
    rng = np.random.default_rng(spec.seed)
    r, L, alice, bob = ideal_parts()
    active = spec.delta > 0.0
    alice_on = active and spec.mode in ("context-unitaries", "combined")
    bob_on = active and spec.mode in ("bob-unitaries", "combined")
    state_on = active and spec.mode in ("state-noise", "combined")

    if alice_on:
        for j in r.game.context_names:
            u = ref_exp_i_eigen(*ref_random_hermitian(rng, r.dim_a), spec.delta)
            for v in r.game.contexts[j]:
                alice[j][v] = u @ alice[j][v] @ u.conj().T
    if bob_on:
        for v in r.game.vertices:
            u = ref_exp_i_eigen(*ref_random_hermitian(rng, r.dim_b), spec.delta)
            bob[v] = u @ bob[v] @ u.conj().T
    if state_on:
        w = rng.standard_normal(L.shape) + 1j * rng.standard_normal(L.shape)
        w /= np.linalg.norm(w)
        L = L + spec.delta * w
        L = L / np.linalg.norm(L)
    return ReflectionStrategy(L=L, alice=alice, bob=bob)


def ref_random_strategy(seed: int) -> ReflectionStrategy:
    rng = np.random.default_rng(seed)
    r, _, alice, bob = ideal_parts()
    for j in r.game.context_names:
        u = haar_unitary(rng, r.dim_a)
        for v in r.game.contexts[j]:
            alice[j][v] = u @ alice[j][v] @ u.conj().T
    for v in r.game.vertices:
        bob[v] = random_reflection(rng, r.dim_b)
    L = rng.standard_normal((r.dim_a, r.dim_b)) + 1j * rng.standard_normal((r.dim_a, r.dim_b))
    return ReflectionStrategy(L=L / np.linalg.norm(L), alice=alice, bob=bob)


def ref_losing_terms(r: ReflectionStrategy) -> dict[tuple[str, int], float]:
    out: dict[tuple[str, int], float] = {}
    Ia = np.eye(r.dim_a)
    Ib = np.eye(r.dim_b)
    for j in r.game.context_names:
        for v in r.game.contexts[j]:
            R = r.alice[j][v]
            S = r.bob[v]
            up = ((Ia + R) / 2) @ r.L @ ((Ib - S) / 2)
            dn = ((Ia - R) / 2) @ r.L @ ((Ib + S) / 2)
            out[(j, v)] = float(np.linalg.norm(up) ** 2 + np.linalg.norm(dn) ** 2)
    return out


def ref_validate(r: ReflectionStrategy, tol: float) -> ValidationReport:
    herm = 0.0
    invol = 0.0
    comm = 0.0
    prod = 0.0
    ops = [r.bob[v] for v in r.game.vertices]
    for j in r.game.context_names:
        ops.extend(r.alice[j][v] for v in r.game.contexts[j])
    for A in ops:
        A = as_matrix(A)
        n = A.shape[0]
        herm = max(herm, frobenius_norm(A - A.conj().T))
        invol = max(invol, frobenius_norm(A @ A - np.eye(n)))
    for j in r.game.context_names:
        vs = r.game.contexts[j]
        mats = [r.alice[j][v] for v in vs]
        for a in range(4):
            for b in range(a + 1, 4):
                comm = max(comm, frobenius_norm(mats[a] @ mats[b] - mats[b] @ mats[a]))
        P = np.eye(r.dim_a, dtype=complex)
        for m in mats:
            P = P @ m
        dev = frobenius_norm(P - r.game.labels[j] * np.eye(r.dim_a))
        prod = max(prod, dev / np.sqrt(r.dim_a))
    state = abs(frobenius_norm(r.L) - 1.0)
    passed = all(d <= tol for d in (herm, invol, comm, prod, state))
    return ValidationReport(herm, invol, comm, prod, state, tol, passed)


def ref_bob_best_response(r: ReflectionStrategy) -> ReflectionStrategy:
    new_bob: dict[int, np.ndarray] = {}
    for v in r.game.vertices:
        w = np.zeros((r.dim_b, r.dim_b), dtype=complex)
        for j in r.game.contexts_of(v):
            w += r.L.conj().T @ r.alice[j][v] @ r.L
        w = (w + w.conj().T) / 2
        vals, vecs = np.linalg.eigh(w)
        signs = np.where(vals >= 0.0, 1.0, -1.0)
        new_bob[v] = (vecs * signs) @ vecs.conj().T
    alice = {j: {v: m.copy() for v, m in ctx.items()} for j, ctx in r.alice.items()}
    return ReflectionStrategy(L=r.L.copy(), alice=alice, bob=new_bob)


def ref_consistency_residuals(r: ReflectionStrategy) -> dict[tuple[str, int], float]:
    out: dict[tuple[str, int], float] = {}
    for j in r.game.context_names:
        for v in r.game.contexts[j]:
            out[(j, v)] = frobenius_norm(r.alice[j][v] @ r.L - r.L @ r.bob[v])
    return out


def ref_context_change_residuals(r: ReflectionStrategy) -> dict[int, float]:
    out: dict[int, float] = {}
    for v in r.game.vertices:
        j1, j2 = r.game.contexts_of(v)
        out[v] = frobenius_norm(r.alice[j1][v] @ r.L - r.alice[j2][v] @ r.L)
    return out


@dataclass
class DistinguishedReflections:
    """One reflection per vertex plus the twelve simulated Pauli operators."""

    r: dict[int, np.ndarray]
    x_prime: dict[int, np.ndarray]
    z_prime: dict[int, np.ndarray]


def ref_select_distinguished(r: ReflectionStrategy) -> DistinguishedReflections:
    dist = {v: r.alice[DISTINGUISHED_CONTEXT[v]][v] for v in r.game.vertices}
    x_prime: dict[int, np.ndarray] = {}
    z_prime: dict[int, np.ndarray] = {}
    for i in (1, 2, 3):
        x_prime[i] = dist[X_PRIME_VERTEX[i]]
        z_prime[i] = dist[Z_PRIME_VERTEX[i]]
    for i in (4, 5, 6):
        x_prime[i] = r.bob[X_PRIME_VERTEX[i]]
        z_prime[i] = r.bob[Z_PRIME_VERTEX[i]]
    return DistinguishedReflections(r=dist, x_prime=x_prime, z_prime=z_prime)


def ref_pair_residuals(r: ReflectionStrategy):
    dist = ref_select_distinguished(r)
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
                lhs = r.alice[shared][a] @ (r.alice[other][b] @ L)
                rhs = r.alice[other][b] @ (r.alice[shared][a] @ L)
                comm_alice[f"{a}^{shared}|{b}^{other}"] = frobenius_norm(lhs - rhs)
            comm_bob[f"{v}|{w}"] = frobenius_norm(L @ r.bob[w] @ r.bob[v] - L @ r.bob[v] @ r.bob[w])
        else:
            anti_alice[f"{v}|{w}"] = frobenius_norm(
                dist.r[v] @ (dist.r[w] @ L) + dist.r[w] @ (dist.r[v] @ L)
            )
            anti_bob[f"{v}|{w}"] = frobenius_norm(L @ r.bob[w] @ r.bob[v] + L @ r.bob[v] @ r.bob[w])
    return (
        {"alice": comm_alice, "bob": comm_bob},
        {"alice": anti_alice, "bob": anti_bob},
    )


def ref_sampled_change_words(
    r: ReflectionStrategy, lengths, samples: int, seed: int
) -> dict[int, float]:
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


def ref_change_words(lengths, samples: int, seed: int) -> tuple:
    """ref_sampled_change_words's draws as (left, right) words of indices into game.questions(), first factor first."""
    rng = np.random.default_rng(seed)
    verts, questions = STANDARD_GAME.vertices, STANDARD_GAME.questions()
    out = []
    for n in lengths:
        words = []
        for _ in range(samples):
            vs = rng.choice(verts, size=n)
            left, right = [], []
            for v in reversed(vs):
                j1, j2 = STANDARD_GAME.contexts_of(int(v))
                left.append(questions.index((j1 if rng.integers(2) else j2, int(v))))
                right.append(questions.index((j1 if rng.integers(2) else j2, int(v))))
            words.append((tuple(left), tuple(right)))
        out.append((int(n), tuple(words)))
    return tuple(out)


# The per-row certificate core: a tensordot isometry circuit, one word at a
# time, and an einsum extraction whose contraction order is searched per call.


def ref_check_reflection(m: np.ndarray) -> None:
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


def ref_controlled(t: np.ndarray, k: int, u: np.ndarray) -> None:
    one = (slice(None),) * k + (1,)
    t[one] = np.tensordot(u, t[one], axes=1)


def ref_build_isometry(x_ops, z_ops) -> np.ndarray:
    if len(x_ops) != 3 or len(z_ops) != 3:
        raise ValueError("expected exactly 3 X-type and 3 Z-type reflections")
    x_ops, z_ops = [as_matrix(m) for m in x_ops], [as_matrix(m) for m in z_ops]
    for m in (*x_ops, *z_ops):
        ref_check_reflection(m)
    d = x_ops[0].shape[0]
    if any(m.shape != (d, d) for m in (*x_ops, *z_ops)):
        raise ValueError("all reflections must share one dimension")

    t = np.einsum("ab,i,j,k->aijkb", np.eye(d, dtype=complex), PLUS, PLUS, PLUS)
    for k in (3, 2, 1):
        ref_controlled(t, k, z_ops[k - 1])
        t = np.moveaxis(np.tensordot(HADAMARD, t, axes=(1, k)), 0, k)
        ref_controlled(t, k, x_ops[k - 1])
    return t.reshape(8 * d, d)


REF_REGISTERS = {"alice": (1, 2, 3), "bob": (4, 5, 6)}


@dataclass
class RefImages:
    dist: DistinguishedReflections
    sides: dict


def ref_images(r: ReflectionStrategy, sides=("alice", "bob")) -> RefImages:
    dist = ref_select_distinguished(r)
    out = {}
    for side in sides:
        regs = REF_REGISTERS[side]
        v = ref_build_isometry([dist.x_prime[i] for i in regs], [dist.z_prime[i] for i in regs])
        out[side] = (v, v @ r.L) if side == "alice" else (v.conj().T, r.L @ v.conj().T)
    return RefImages(dist=dist, sides=out)


def ref_word_residual(r: ReflectionStrategy, im: RefImages, side: str, parsed) -> float:
    prime = {"X": im.dist.x_prime, "Z": im.dist.z_prime}
    v, image = im.sides[side]
    rhs = r.L
    if side == "alice":
        lhs = image.reshape(r.dim_a, 2, 2, 2, r.dim_b)
        for which, idx in reversed(parsed):
            lhs = _ancilla_pauli(lhs, which, idx)
            rhs = prime[which][idx] @ rhs
        return frobenius_norm(lhs.reshape(image.shape) - v @ rhs)
    lhs = image.reshape(r.dim_a, r.dim_b, 2, 2, 2)
    for which, idx in reversed(parsed):
        lhs = _ancilla_pauli(lhs, which, idx - 2)
        rhs = rhs @ prime[which][idx]
    return frobenius_norm(lhs.reshape(image.shape) - rhs @ v)


def ref_operator_residuals(r: ReflectionStrategy, im: RefImages) -> dict[str, float]:
    return {
        f"{which}{i}": ref_word_residual(r, im, side, [(which, i)])
        for side, regs in REF_REGISTERS.items()
        for i in regs
        for which in ("X", "Z")
    }


def ref_extract_state(r: ReflectionStrategy, im: RefImages) -> StateExtraction:
    P = im.sides["alice"][1] @ im.sides["bob"][0]
    da, db = r.dim_a, r.dim_b
    Pr = P.reshape(da, 2, 2, 2, db, 2, 2, 2)
    basis = np.stack([bell_matrix(k) for k in BELL_KINDS]).conj()
    comps = np.einsum("aijkblmn,xil,yjm,zkn->xyzab", Pr, basis, basis, basis, optimize=True)
    weights: dict[tuple[str, str, str], float] = {}
    for (x, kx), (y, ky), (z, kz) in product(enumerate(BELL_KINDS), repeat=3):
        weights[(kx, ky, kz)] = float(np.linalg.norm(np.ascontiguousarray(comps[x, y, z])) ** 2)
    junk = comps[0, 0, 0].copy()
    off_target = sum(w for key, w in weights.items() if key != PHI_TRIPLE)
    residual = float(np.sqrt(max(off_target, 0.0)))
    return StateExtraction(bell_weights=weights, junk=junk, state_residual=residual)


def ref_core(r: ReflectionStrategy):
    report = ref_validate(r, STRUCTURE_TOL)
    assert report.passed
    terms = ref_losing_terms(r)
    images = ref_images(r)
    return (
        report,
        sum(terms.values()) / 20.0,
        ref_consistency_residuals(r),
        ref_operator_residuals(r, images),
        ref_extract_state(r, images),
    )


def assert_same_strategy(a: ReflectionStrategy, b: ReflectionStrategy):
    assert np.array_equal(a.L, b.L)
    for j in a.game.context_names:
        for v in a.game.contexts[j]:
            assert np.array_equal(a.alice[j][v], b.alice[j][v]), (j, v)
    for v in a.game.vertices:
        assert np.array_equal(a.bob[v], b.bob[v]), v


def ordered(families: dict) -> list:
    """Nested dicts as lists of items, so that == also compares key order, which a report's bytes keep."""
    return [(k, ordered(v) if isinstance(v, dict) else v) for k, v in families.items()]


# certify's fixed change-word sample: lengths, words per length, seed
CHANGE_WORDS = ((2, 3, 4, 5, 6), 20, 0)


def assert_kernels_match(r: ReflectionStrategy):
    """Every stacked kernel equals its loop reference on r, exactly."""
    assert losing_terms(r) == ref_losing_terms(r)
    for tol in (STRUCTURE_TOL, 1e-3):
        assert validate(r, tol) == ref_validate(r, tol)
    assert consistency_residuals(r) == ref_consistency_residuals(r)
    assert_same_strategy(bob_best_response(r), ref_bob_best_response(r))
    report = certify(r)
    comm, anti = ref_pair_residuals(r)
    assert ordered(report.commutator_residuals) == ordered(comm)
    assert ordered(report.anticommutator_residuals) == ordered(anti)
    assert ordered(report.context_change_residuals) == ordered(ref_context_change_residuals(r))
    assert ordered(report.change_word_residuals) == ordered(ref_sampled_change_words(r, *CHANGE_WORDS))


seeds = st.integers(0, 2**32 - 1)
# no shrink phase: a smaller seed explains a mismatch no better than the first
budget = settings(
    max_examples=4, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate),
)


DELTAS = (0.0, 1e-4, 0.3, 1.0)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("mode", MODES)
def test_perturbed_matches_loops(mode, delta):
    @budget
    @given(seeds)
    @example(2)  # with (0.3, context-unitaries), an array ** 2 of its norms moves a term's last bit
    def check(seed):
        # one draw serves every scale, as in calibrate_delta's search
        draw = _draw(seed, mode)
        for d in DELTAS:
            assert_same_strategy(ReflectionStrategy._from_arrays(*_apply(draw, d)), ref_perturbed(PerturbationSpec(d, seed, mode)))
        r = perturb_ideal(PerturbationSpec(delta, seed, mode))
        assert_same_strategy(r, ReflectionStrategy._from_arrays(*_apply(draw, delta)))
        assert_kernels_match(r)

    check()


@pytest.mark.parametrize("seed", range(6))
def test_random_strategy_matches_loops(seed):
    assert_kernels_match(random_strategy(seed))


@pytest.mark.parametrize("seed", range(20))
def test_random_strategy_matches_dict_form(seed):
    assert_same_strategy(random_strategy(seed), ref_random_strategy(seed))


def junk_register_strategy(seed: int = 9, delta: float = 0.05, junk_dims=(4, 4)) -> ReflectionStrategy:
    """A d = 8 strategy P with a random (ja, jb) junk state J: Alice's P (x) I_ja, Bob's P (x) I_jb, L (x) J.

    The default, a 4x4 junk register, gives da = db = 32.
    """
    r = perturb_ideal(PerturbationSpec(delta, seed, "combined"))
    ia, ib = (np.eye(n) for n in junk_dims)
    alice = {j: {v: np.kron(m, ia) for v, m in ctx.items()} for j, ctx in r.alice.items()}
    bob = {v: np.kron(m, ib) for v, m in r.bob.items()}
    rng = np.random.default_rng(seed)
    junk = rng.standard_normal(junk_dims) + 1j * rng.standard_normal(junk_dims)
    return ReflectionStrategy(L=np.kron(r.L, junk / np.linalg.norm(junk)), alice=alice, bob=bob)


# the junk benchmark's eight words, one X and one Z reflection per side at lengths 1 and 3, and two mixed words
JUNK_WORDS = [[label] * n for label in ("X1", "Z3", "X4", "Z6") for n in (1, 3)] + [
    ["X1", "Z2", "X3", "Z1"],
    ["Z6", "X4", "X5", "Z4", "Z6"],
]


def test_junk_register_strategy_matches_loops():
    r = junk_register_strategy()
    assert r.dim_a == r.dim_b == 32
    assert validate(r, STRUCTURE_TOL).passed
    assert_kernels_match(r)
    images = ref_images(r)
    for word in JUNK_WORDS:
        side, parsed = "alice" if word[0][1] in "123" else "bob", [(label[0], int(label[1])) for label in word]
        assert word_residual(r, word) == ref_word_residual(r, images, side, parsed), word
    assert_core_rows_match([r])
    # a stack of three covers the stacked products' batch axis
    assert_core_rows_match([r, junk_register_strategy(4, 0.01), junk_register_strategy(11, 0.3)])


# (ja, jb) junk registers giving (da, db) = (16, 32), (24, 16) and (8, 24), whose products' rows are not all a
# multiple of their inner size
UNEQUAL_JUNK = [(2, 4), (3, 2), (1, 3)]


@pytest.mark.parametrize("junk_dims", UNEQUAL_JUNK)
def test_unequal_dimensions_match_loops(junk_dims):
    r = junk_register_strategy(junk_dims=junk_dims)
    assert (r.dim_a, r.dim_b) == (8 * junk_dims[0], 8 * junk_dims[1])
    assert validate(r, STRUCTURE_TOL).passed
    assert_kernels_match(r)
    images = ref_images(r)
    for word in JUNK_WORDS:
        side, parsed = "alice" if word[0][1] in "123" else "bob", [(label[0], int(label[1])) for label in word]
        assert word_residual(r, word) == ref_word_residual(r, images, side, parsed), word
    assert_core_rows_match([r, junk_register_strategy(4, 0.3, junk_dims)])


@pytest.mark.parametrize("junk_dims", UNEQUAL_JUNK)
def test_unequal_dimensions_bell_weights_match_loops(junk_dims):
    r = junk_register_strategy(junk_dims=junk_dims)
    report, ext = certify(r), ref_extract_state(r, ref_images(r))
    assert (report.bell_weights, report.state_residual) == (ext.bell_weights, ext.state_residual)


def assert_core_rows_match(rs: list[ReflectionStrategy]):
    """The stacked core over all of rs gives each row exactly its per-row reference."""
    L, alice, bob = (np.concatenate(x) for x in zip(*(r._rows() for r in rs)))
    reports = _require_valid_rows(L, alice, bob)
    epsilon, consistency, ops, states = _core(L, alice, bob)
    for i, r in enumerate(rs):
        report, eps, cons, op, ext = ref_core(r)
        assert reports[i] == report
        assert epsilon[i] == eps
        assert dict(zip(r.game.questions(), consistency[i])) == cons
        assert dict(zip(_OP_KEYS, ops[i])) == op
        assert np.array_equal(states[i].junk, ext.junk)
        assert states[i].bell_weights == ext.bell_weights
        assert states[i].state_residual == ext.state_residual


@pytest.mark.parametrize("mode", MODES)
def test_core_matches_per_row_core(mode):
    @budget
    @given(seeds)
    @example(2)
    def check(seed):
        # one row alone, then the three deltas of one draw as one stack
        draw = _draw(seed, mode)
        rows = [ReflectionStrategy._from_arrays(*_apply(draw, d)) for d in (1e-4, 0.3, 1.0)]
        for r in rows:
            assert_core_rows_match([r])
        assert_core_rows_match(rows)

    check()


DIMS = (8, 16, 17, 24, 32, 33, 40)


def ref_bell_expand(P: np.ndarray) -> np.ndarray:
    basis = np.stack([bell_matrix(k) for k in BELL_KINDS]).conj()
    path = ["einsum_path", (0, 1), (0, 2), (0, 1)]
    Pr = P.reshape(P.shape[0] // 8, 2, 2, 2, P.shape[1] // 8, 2, 2, 2)
    return np.einsum("aijkblmn,xil,yjm,zkn->xyzab", Pr, *[basis] * 3, optimize=path)


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# those equal sizes, and unequal ones whose products' rows are not all a multiple of their inner size
DIM_PAIRS = [(d, d) for d in DIMS] + [(16, 32), (24, 16), (8, 24), (17, 32), (40, 24)]


@pytest.mark.parametrize("da, db", DIM_PAIRS)
def test_bell_expand_matches_einsum(da, db):
    P = random_complex(np.random.default_rng((da, db)), 8 * da, 8 * db)
    assert np.array_equal(_bell_expand(P), ref_bell_expand(P))


def test_change_words_match_draw_order():
    tables = [(n, tuple((tuple(left), tuple(right)) for left, right in words.tolist())) for n, words in _change_words()]
    assert tuple(tables) == ref_change_words(*CHANGE_WORDS)


@pytest.mark.parametrize("seed", range(10))
def test_change_words_match_loops(seed):
    r = perturb_ideal(PerturbationSpec(0.05, seed))
    assert ordered(certify(r).change_word_residuals) == ordered(ref_sampled_change_words(r, *CHANGE_WORDS))


# The per-matrix projective conversions and check; the reference conversion
# runs the one gate where it ran require_valid.


def ref_to_projective(r: ReflectionStrategy) -> ProjectiveStrategy:
    r._gate()
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


def ref_check_projective(p: ProjectiveStrategy, tol: float = STRUCTURE_TOL) -> None:
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    devs = []
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
    dev = np.max(devs)
    if not dev <= tol:
        raise InvalidStrategyError(f"invalid projective strategy (max deviation {dev:.3e})")


def ref_reflection_form(p: ProjectiveStrategy) -> ReflectionStrategy:
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


def same_bytes(a, b) -> bool:
    """Equal dtype, shape and bytes: stricter than ==, since it also tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_projective(a: ProjectiveStrategy, b: ProjectiveStrategy):
    assert same_bytes(a.psi, b.psi) and (a.dim_a, a.dim_b) == (b.dim_a, b.dim_b)
    assert list(a.alice) == list(b.alice)
    for j in a.alice:
        assert list(a.alice[j]) == list(b.alice[j]), j
        assert all(same_bytes(a.alice[j][t], b.alice[j][t]) for t in a.alice[j]), j
    assert list(a.bob) == list(b.bob)
    assert all(same_bytes(x, y) for v in a.bob for x, y in zip(a.bob[v], b.bob[v], strict=True))


def assert_same_reflection_bytes(a: ReflectionStrategy, b: ReflectionStrategy):
    assert same_bytes(a.L, b.L)
    assert [(j, list(ctx)) for j, ctx in a.alice.items()] == [(j, list(ctx)) for j, ctx in b.alice.items()]
    assert all(same_bytes(a.alice[j][v], b.alice[j][v]) for j in a.alice for v in a.alice[j])
    assert list(a.bob) == list(b.bob) and all(same_bytes(a.bob[v], b.bob[v]) for v in a.bob)


def check_outcome(check, p: ProjectiveStrategy, tol: float):
    """None when check passes p at tol, else the exception's type and message."""
    try:
        return check(p, tol)
    except ValueError as exc:
        return type(exc), str(exc)


CHECK_TOLS = (STRUCTURE_TOL, 1e-6, 0.0)


def assert_projective_kernels_match(p: ProjectiveStrategy):
    """The stacked check and reflection form equal their loop references on p."""
    for tol in CHECK_TOLS:
        assert check_outcome(_check_projective, p, tol) == check_outcome(ref_check_projective, p, tol)
    assert_same_reflection_bytes(_reflection_form(p), ref_reflection_form(p))


# the ideal, each mode, random strategies, the d = 32 junk register and a 1x1 strategy
PROJECTIVE_INPUTS = {
    "ideal": ideal_strategy,
    **{f"{m}-{s}": partial(perturb_ideal, PerturbationSpec(0.05, s, m)) for m in MODES for s in (2, 7)},
    **{f"random-{seed}": partial(random_strategy, seed) for seed in range(3)},
    "junk": junk_register_strategy,
    "classical": lambda: classical_embedding(best_classical_strategy(STANDARD_GAME)[0]),
}


@pytest.mark.parametrize("name", PROJECTIVE_INPUTS)
def test_projective_conversions_match_loops(name):
    r = PROJECTIVE_INPUTS[name]()
    p = to_projective(r)
    assert_same_projective(p, ref_to_projective(r))
    assert_projective_kernels_match(p)


def _broken(p: ProjectiveStrategy, how: str) -> ProjectiveStrategy:
    """p rebuilt with one projector halved, psi scaled or one Bob projector shifted: well formed, but not valid."""
    if how == "halved":
        first = next(iter(p.alice["E"]))
        return replaced(p, alice={"E": {first: p.alice["E"][first] / 2}})
    if how == "psi":
        return replaced(p, psi=p.psi * (1 + 5e-9))
    return replaced(p, bob={7: (p.bob[7][0], p.bob[7][1] + 1e-7)})


@pytest.mark.parametrize("how", ["halved", "psi", "bob"])
@pytest.mark.parametrize("name", ["ideal", "combined-2", "junk"])
def test_broken_projective_matches_loops(name, how):
    p = _broken(to_projective(PROJECTIVE_INPUTS[name]()), how)
    assert check_outcome(_check_projective, p, STRUCTURE_TOL) is not None
    for tol in CHECK_TOLS:
        assert check_outcome(_check_projective, p, tol) == check_outcome(ref_check_projective, p, tol)
    assert_same_reflection_bytes(_reflection_form(p), ref_reflection_form(p))


# change: the constructor's message and whether the loops' check passed it
WRONG_KEYS = {
    "missing": (r"alice\[D\]: missing keys \[\(0, 0, 0, 0\)\], unexpected keys \[\]", False),
    "extra": (r"alice\[D\]: missing keys \[\], unexpected keys \[\(1, 0, 0, 0\)\]", True),
    "bob-missing": (r"bob: missing keys \[7\], unexpected keys \[\]", True),
    "bob-short": (r"bob\[7\]: shape \(1, 8, 8\), expected \(2, 8, 8\)", False),
    "bob-extra": (r"bob: missing keys \[\], unexpected keys \[11\]", True),
}


@pytest.mark.parametrize("change", WRONG_KEYS)
def test_wrong_outcome_keys_name_the_context(change):
    # the loops summed whatever keys they found: a missing outcome failed only through completeness, an extra
    # all-zero one passed, and so did a missing or extra Bob vertex; a one-outcome Bob pair failed to unpack.  The
    # constructor refuses each, naming the context or vertex
    p = to_projective(ideal_strategy())
    alice, bob = {j: dict(ctx) for j, ctx in p.alice.items()}, dict(p.bob)
    if change == "missing":
        del alice["D"][(0, 0, 0, 0)]
    elif change == "extra":
        alice["D"][(1, 0, 0, 0)] = np.zeros((8, 8), dtype=complex)
    elif change == "bob-missing":
        del bob[7]
    elif change == "bob-short":
        bob[7] = bob[7][:1]
    else:
        bob[11] = bob[7]
    message, ref_passes = WRONG_KEYS[change]
    loose = SimpleNamespace(psi=p.psi, dim_a=8, dim_b=8, alice=alice, bob=bob, game=STANDARD_GAME)
    assert (check_outcome(ref_check_projective, loose, STRUCTURE_TOL) is None) == ref_passes
    with pytest.raises(InvalidStrategyError, match=f"^{message}$"):
        ProjectiveStrategy(psi=p.psi, dim_a=8, dim_b=8, alice=alice, bob=bob)
