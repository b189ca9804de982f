"""Strategy generation at controlled sub-optimality and scaling sweeps.

Perturbed strategies are produced by conjugating the ideal strategy's
operators with unitaries exp(i * delta * H): one random Hermitian generator
per context on Alice's side (conjugation preserves the intra-context
commutation and product constraints exactly) and one per vertex on Bob's
side, optionally adding noise to the shared state.  Validity is therefore
structural, not approximate, and the sub-optimality epsilon grows as
delta**2 near the optimum.

A perturbation comes in two halves.  The draw holds everything that does
not depend on delta: the generators (exactly Hermitian, so decomposed
unchecked), their eigendecompositions and the state noise.  Applying it at
a scale delta only exponentiates and conjugates.  A calibration draws once
and applies that draw at every step of its root search; no draw outlives
the call.

A sweep draws each row from its own child seed, then validates each row once
and measures only the families its CSV reports (epsilon, consistency,
operator and state residuals) in one stacked pass of rigidity's certificate
core per chunk of rows; certify adds the context-change, pair and
change-word families.

Randomness policy: all draws come from numpy's default PCG64 generator.  A
sweep derives one child seed per (sweep seed, delta index, sample index) via
numpy's SeedSequence, so results are reproducible bit for bit and each row
depends only on its own indices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .linalg import _dagger, _exp_i_eigen
from .rigidity import _core
from .strategies import (
    _VERTEX_QUESTIONS,
    ReflectionStrategy,
    _by_question,
    _ideal_arrays,
    _require_valid_rows,
    _scores,
)

MODES = ("context-unitaries", "bob-unitaries", "state-noise", "combined")


class CalibrationError(RuntimeError):
    """Raised when no perturbation scale reaches the requested epsilon."""


@dataclass(frozen=True)
class PerturbationSpec:
    """Reproducible recipe for one perturbed strategy."""

    delta: float
    seed: int
    mode: str = "combined"

    def __post_init__(self):
        if isinstance(self.delta, bool) or not isinstance(self.delta, numbers.Real):
            raise ValueError(f"delta must be a real number, got {self.delta!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")


@dataclass
class ScalingRow:
    """One sample of a scaling sweep.

    Its residuals equal the fields of certify on the same strategy, but the
    row computes only these families, not the full certificate.
    """

    delta: float
    seed: int
    epsilon: float
    state_residual: float
    max_op_residual: float
    max_consistency_residual: float
    ratio_state: float
    ratio_op: float


def random_hermitian(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """(count, dim, dim) stack of exactly Hermitian matrices with unit operator norm.

    Each comes from complex Gaussian entries; one draw of shape
    (count, 2, dim, dim) gives every matrix its real then imaginary part, the
    same stream as two (dim, dim) draws per matrix.
    """
    x = rng.standard_normal((count, 2, dim, dim))
    g = x[:, 0] + 1j * x[:, 1]
    h = (g + _dagger(g)) / 2
    return h / np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)[:, None, None]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_reflection(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random reflection: Haar eigenbasis with independent +-1 eigenvalues."""
    v = haar_unitary(rng, dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    return (v * signs) @ v.conj().T


def _draw(seed: int, mode: str):
    """The delta-independent half of a perturbation, in perturb_ideal's draw order.

    Returns (alice, bob, w, v, noise): whether each side is conjugated, the
    eigendecomposition of the Hermitian generators (contexts alphabetical,
    then Bob's vertices ascending) and the state noise scaled to unit
    Frobenius norm.  An array is None when the mode does not use it.
    """
    rng = np.random.default_rng(seed)
    L, a, b = _ideal_arrays()
    alice = mode in ("context-unitaries", "combined")
    bob = mode in ("bob-unitaries", "combined")
    k = len(a) * alice + len(b) * bob
    w = v = noise = None
    if k:
        # the ideal strategy has dim_a == dim_b, so one draw serves both sides
        w, v = np.linalg.eigh(random_hermitian(rng, L.shape[0], k))
    if mode in ("state-noise", "combined"):
        noise = rng.standard_normal(L.shape) + 1j * rng.standard_normal(L.shape)
        noise /= np.linalg.norm(noise)
    return alice, bob, w, v, noise


def _apply(draw, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ideal stacks (L, Alice, Bob) perturbed by a _draw at scale delta; unperturbed ones are the read-only ideal's."""
    L, a, b = _ideal_arrays()
    if delta == 0.0:
        return L, a, b
    alice, bob, w, v, noise = draw
    if v is not None:
        u = _exp_i_eigen(w, v, delta)
        uh = _dagger(u)
    if alice:
        a = u[: len(a), None] @ a @ uh[: len(a), None]
    if bob:
        b = u[-len(b) :] @ b @ uh[-len(b) :]
    if noise is not None:
        L = L + delta * noise
        L = L / np.linalg.norm(L)
    return L, a, b


def perturb_ideal(spec: PerturbationSpec) -> ReflectionStrategy:
    """Conjugation-perturbed copy of the ideal strategy.

    Draw order is fixed: one Hermitian generator per context (alphabetical),
    then one per Bob vertex (ascending), then the state noise matrix; modes
    draw only what they use.  State noise replaces L by the normalization of
    L + delta * W with W Gaussian scaled to unit Frobenius norm.  The result
    passes validation at STRUCTURE_TOL by construction and is checked anyway.
    """
    r = ReflectionStrategy._from_arrays(*_apply(_draw(spec.seed, spec.mode), spec.delta))
    r._gate()
    return r


def random_strategy(seed: int) -> ReflectionStrategy:
    """Valid strategy with Haar-scrambled operators, generically far from optimal.

    Alice's contexts are conjugated by independent Haar unitaries, Bob's
    reflections and the shared state are drawn fresh.
    """
    rng = np.random.default_rng(seed)
    L, alice, bob = _ideal_arrays()
    alice = alice.copy()
    for ctx in alice:
        u = haar_unitary(rng, L.shape[0])
        ctx[:] = [u @ m @ u.conj().T for m in ctx]
    bob = np.array([random_reflection(rng, L.shape[1]) for _ in bob])
    L = rng.standard_normal(L.shape) + 1j * rng.standard_normal(L.shape)
    return ReflectionStrategy._from_arrays(L / np.linalg.norm(L), alice, bob)


def bob_best_response(r: ReflectionStrategy) -> ReflectionStrategy:
    """Replace every S[v] by Bob's exact score-maximizing reflection.

    The losing probability is (1/80) * sum over (j, v) of
    (2 - 2 Re tr(L^dagger R[j][v] L S[v])), so each vertex decouples and the
    optimum is the matrix sign of W[v] = sum over contexts of
    L^dagger R[j][v] L.  Eigenvalues of W[v] that vanish are mapped to +1 for
    determinism.  The score never decreases.
    """
    L = r._L
    # each vertex's two operators R[j][v], its contexts in name order
    x = _dagger(L) @ _by_question(r._alice, r._bob)[0][_VERTEX_QUESTIONS] @ L
    # summed onto zeros context by context, not by x.sum: the sign of a zero
    # entry can change what eigh returns
    w = np.zeros_like(x[:, 0])
    for c in range(x.shape[1]):
        w += x[:, c]
    w = (w + _dagger(w)) / 2
    vals, vecs = np.linalg.eigh(w)
    signs = np.where(vals >= 0.0, 1.0, -1.0)
    return ReflectionStrategy._from_arrays(L, r._alice, (vecs * signs[:, None, :]) @ _dagger(vecs))


# Steps calibrate_delta takes before it reports non-convergence.
_MAX_BISECTIONS = 60


def calibrate_delta(target_epsilon: float, mode: str = "combined", seed: int = 0) -> PerturbationSpec:
    """Search the perturbation scale until epsilon is within 10% of target.

    The generators and state noise of (seed, mode) are drawn once per call,
    so the map delta -> epsilon is a fixed smooth function during the
    search, and each step only exponentiates the stored eigendecompositions
    and scores the result.  Each step keeps a bracket (lo, hi) around the
    target and guesses from epsilon ~ delta**2: from the origin while
    epsilon(lo) is zero, else by interpolating log epsilon against log
    delta between the ends.  A guess that is not finite or falls outside the
    middle 98% of the bracket is replaced by its midpoint.  The accepted
    strategy is validated once, by the one gate, before its spec is
    returned.  Raises CalibrationError when the target is unreachable on
    [0, 1] or the bracket is not monotone.
    """
    if not 0.0 < target_epsilon <= 0.1:
        raise ValueError(f"target epsilon must lie in (0, 0.1], got {target_epsilon}")
    PerturbationSpec(1.0, seed, mode)  # rejects a bad seed or mode before the draw
    draw = _draw(seed, mode)

    lo, e_lo = 0.0, 0.0
    hi = 1.0
    e_hi = 1.0 - _scores(*(x[None] for x in _apply(draw, hi)))[0]
    if e_hi < target_epsilon:
        raise CalibrationError(
            f"epsilon({hi}) = {e_hi:.3e} is below the target {target_epsilon:.3e} "
            f"for mode={mode}, seed={seed}"
        )
    for _ in range(_MAX_BISECTIONS):
        if e_lo > 0.0:  # e_lo < target <= e_hi, so both logs are positive
            mid = lo * (target_epsilon / e_lo) ** (math.log(hi / lo) / math.log(e_hi / e_lo))
        else:
            mid = hi * math.sqrt(target_epsilon / e_hi)
        margin = 0.01 * (hi - lo)
        if not lo + margin <= mid <= hi - margin:  # also catches NaN
            mid = (lo + hi) / 2
        stacks = _apply(draw, mid)
        e_mid = 1.0 - _scores(*(x[None] for x in stacks))[0]
        if e_mid < e_lo - 1e-15 or e_mid > e_hi + 1e-15:
            raise CalibrationError(
                f"epsilon is not monotone on the bracket [{lo}, {hi}] (mode={mode}, seed={seed})"
            )
        if abs(e_mid - target_epsilon) <= 0.1 * target_epsilon:
            _require_valid_rows(*(x[None] for x in stacks))
            return PerturbationSpec(mid, seed, mode)
        if e_mid < target_epsilon:
            lo, e_lo = mid, e_mid
        else:
            hi, e_hi = mid, e_mid
    raise CalibrationError(f"calibration did not converge within {_MAX_BISECTIONS} iterations")


def _child_seed(seed: int, delta_index: int, sample_index: int) -> int:
    return int(np.random.SeedSequence([seed, delta_index, sample_index]).generate_state(1)[0])


# Rows per core pass: from four up the call overhead is shared, but peak memory grows with the rows.
_CHUNK_ROWS = 8


def _study_chunk(cells, mode: str) -> list[ScalingRow]:
    """The rows of (delta, child seed) cells, each drawn from its own seed, in one _core pass."""
    specs = [PerturbationSpec(delta, child_seed, mode) for delta, child_seed in cells]
    L, alice, bob = map(np.stack, zip(*(_apply(_draw(s.seed, mode), s.delta) for s in specs)))
    _require_valid_rows(L, alice, bob)
    epsilon, consistency, op_residuals, states = _core(L, alice, bob)
    rows = []
    for spec, eps, ext, ops, cons in zip(specs, epsilon, states, op_residuals, consistency):
        sqrt_eps = float(np.sqrt(eps)) if eps > 0 else 0.0
        state, max_op = ext.state_residual, float(max(ops))
        ratios = (state / sqrt_eps, max_op / sqrt_eps) if sqrt_eps else (0.0, 0.0)
        rows.append(ScalingRow(spec.delta, spec.seed, eps, state, max_op, float(max(cons)), *ratios))
    return rows


def scaling_study(
    deltas,
    samples_per_delta: int,
    seed: int,
    mode: str = "combined",
):
    """Generate and validate samples over a delta grid and measure the CSV's families.

    Each row gets epsilon and the state, operator and consistency residuals
    from the certificate core, up to _CHUNK_ROWS rows a pass.

    Returns (rows, fit) where fit least-squares the log of state_residual
    against the log of epsilon over all positive rows.  Rows come in (delta
    index, sample index) order, and each sample's seed derives from (seed,
    delta index, sample index) alone.
    """
    if samples_per_delta < 0:
        raise ValueError(f"samples_per_delta must be non-negative, got {samples_per_delta}")
    PerturbationSpec(1.0, seed, mode)  # rejects a bad seed or mode, even when there are no rows
    deltas = [float(d) for d in deltas]
    bad = [d for d in deltas if not 0.0 < d <= 1.0]
    if bad:
        raise ValueError(f"deltas must lie in (0, 1], got {bad[0]}")
    if sorted(deltas) != deltas:
        raise ValueError("deltas must be ascending")
    cells = [(d, _child_seed(seed, di, si)) for di, d in enumerate(deltas) for si in range(samples_per_delta)]
    chunks = [cells[start : start + _CHUNK_ROWS] for start in range(0, len(cells), _CHUNK_ROWS)]
    rows = [row for chunk in chunks for row in _study_chunk(chunk, mode)]
    return rows, fit_summary(rows)


def fit_summary(rows) -> dict:
    """Log-log fit of state_residual against epsilon plus worst-case ratios."""
    eps = np.array([row.epsilon for row in rows])
    res = np.array([row.state_residual for row in rows])
    keep = (eps > 0) & (res > 0)
    # null, not NaN, when no line can be fitted: bare NaN is not valid JSON
    slope, intercept = None, None
    if keep.sum() >= 2:
        slope, intercept = map(float, np.polyfit(np.log(eps[keep]), np.log(res[keep]), 1))
    return {
        "slope": slope,
        "intercept": intercept,
        "max_ratio_state": float(max((row.ratio_state for row in rows), default=0.0)),
        "max_ratio_op": float(max((row.ratio_op for row in rows), default=0.0)),
        "n_rows": len(rows),
    }


CSV_HEADER = ",".join(f.name for f in fields(ScalingRow))


def rows_to_csv(rows) -> str:
    """Render rows, one column per ScalingRow field in order, each value as its repr: exact round-trip floats."""
    lines = [CSV_HEADER] + [",".join(repr(getattr(row, f.name)) for f in fields(row)) for row in rows]
    return "\n".join(lines) + "\n"
