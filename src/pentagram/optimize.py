"""Strategy generation at controlled sub-optimality and scaling sweeps.

Perturbed strategies are produced by conjugating the ideal strategy's
operators with unitaries exp(i * delta * H): one random Hermitian generator
per context on Alice's side (conjugation preserves the intra-context
commutation and product constraints exactly) and one per vertex on Bob's
side, optionally adding noise to the shared state.  Validity is therefore
structural, not approximate, and the sub-optimality epsilon grows as
delta**2 near the optimum.

Randomness policy: all draws come from numpy's default PCG64 generator.  A
sweep derives one child seed per (sweep seed, delta index, sample index) via
numpy's SeedSequence, so results are reproducible bit for bit and each row
depends only on its own indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import STRUCTURE_TOL, exp_i_hermitian
from .rigidity import certify
from .strategies import ReflectionStrategy, ideal_strategy, score, validate

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
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")


@dataclass
class ScalingRow:
    """One certified sample of a scaling sweep."""

    delta: float
    seed: int
    epsilon: float
    state_residual: float
    max_op_residual: float
    max_consistency_residual: float
    ratio_state: float
    ratio_op: float


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Hermitian matrix with unit operator norm, from complex Gaussian entries."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


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


def _perturbed(spec: PerturbationSpec) -> ReflectionStrategy:
    """perturb_ideal without its validation, for callers that validate anyway."""
    rng = np.random.default_rng(spec.seed)
    r = ideal_strategy()
    active = spec.delta > 0.0
    alice_on = active and spec.mode in ("context-unitaries", "combined")
    bob_on = active and spec.mode in ("bob-unitaries", "combined")
    state_on = active and spec.mode in ("state-noise", "combined")

    if alice_on:
        for j in r.game.context_names:
            u = exp_i_hermitian(random_hermitian(rng, r.dim_a), spec.delta)
            for v in r.game.contexts[j]:
                r.alice[j][v] = u @ r.alice[j][v] @ u.conj().T
    if bob_on:
        for v in r.game.vertices:
            u = exp_i_hermitian(random_hermitian(rng, r.dim_b), spec.delta)
            r.bob[v] = u @ r.bob[v] @ u.conj().T
    if state_on:
        w = rng.standard_normal(r.L.shape) + 1j * rng.standard_normal(r.L.shape)
        w /= np.linalg.norm(w)
        L = r.L + spec.delta * w
        r.L = L / np.linalg.norm(L)
    return r


def perturb_ideal(spec: PerturbationSpec) -> ReflectionStrategy:
    """Conjugation-perturbed copy of the ideal strategy.

    Draw order is fixed: one Hermitian generator per context (alphabetical),
    then one per Bob vertex (ascending), then the state noise matrix; modes
    draw only what they use.  State noise replaces L by the normalization of
    L + delta * W with W Gaussian scaled to unit Frobenius norm.  The result
    always passes validation at STRUCTURE_TOL by construction.
    """
    r = _perturbed(spec)
    report = validate(r, STRUCTURE_TOL)
    if not report.passed:
        raise RuntimeError(
            f"generated strategy failed validation "
            f"(delta={spec.delta}, seed={spec.seed}, mode={spec.mode}): {report.deviations()}"
        )
    return r


def random_strategy(seed: int) -> ReflectionStrategy:
    """Valid strategy with Haar-scrambled operators, generically far from optimal.

    Alice's contexts are conjugated by independent Haar unitaries, Bob's
    reflections and the shared state are drawn fresh.
    """
    rng = np.random.default_rng(seed)
    r = ideal_strategy()
    for j in r.game.context_names:
        u = haar_unitary(rng, r.dim_a)
        for v in r.game.contexts[j]:
            r.alice[j][v] = u @ r.alice[j][v] @ u.conj().T
    for v in r.game.vertices:
        r.bob[v] = random_reflection(rng, r.dim_b)
    L = rng.standard_normal((r.dim_a, r.dim_b)) + 1j * rng.standard_normal((r.dim_a, r.dim_b))
    r.L = L / np.linalg.norm(L)
    return r


def bob_best_response(r: ReflectionStrategy) -> ReflectionStrategy:
    """Replace every S[v] by Bob's exact score-maximizing reflection.

    The losing probability is (1/80) * sum over (j, v) of
    (2 - 2 Re tr(L^dagger R[j][v] L S[v])), so each vertex decouples and the
    optimum is the matrix sign of W[v] = sum over contexts of
    L^dagger R[j][v] L.  Eigenvalues of W[v] that vanish are mapped to +1 for
    determinism.  The score never decreases.
    """
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
    return ReflectionStrategy(L=r.L.copy(), alice=alice, bob=new_bob, game=r.game)


def calibrate_delta(
    target_epsilon: float,
    mode: str = "combined",
    seed: int = 0,
    max_iter: int = 60,
) -> PerturbationSpec:
    """Bisect the perturbation scale until epsilon is within 10% of target.

    The generator draws are tied to `seed`, so the map delta -> epsilon is a
    fixed smooth function during the search.  Raises CalibrationError when
    the target is unreachable on [0, 1] or the bracket is not monotone.
    """
    if not 0.0 < target_epsilon <= 0.1:
        raise ValueError(f"target epsilon must lie in (0, 0.1], got {target_epsilon}")

    def epsilon_at(delta: float) -> float:
        return 1.0 - score(perturb_ideal(PerturbationSpec(delta, seed, mode)))

    lo, e_lo = 0.0, 0.0
    hi = 1.0
    e_hi = epsilon_at(hi)
    if e_hi < target_epsilon:
        raise CalibrationError(
            f"epsilon({hi}) = {e_hi:.3e} is below the target {target_epsilon:.3e} "
            f"for mode={mode}, seed={seed}"
        )
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        e_mid = epsilon_at(mid)
        if e_mid < e_lo - 1e-15 or e_mid > e_hi + 1e-15:
            raise CalibrationError(
                f"epsilon is not monotone on the bracket [{lo}, {hi}] (mode={mode}, seed={seed})"
            )
        if abs(e_mid - target_epsilon) <= 0.1 * target_epsilon:
            return PerturbationSpec(mid, seed, mode)
        if e_mid < target_epsilon:
            lo, e_lo = mid, e_mid
        else:
            hi, e_hi = mid, e_mid
    raise CalibrationError(f"bisection did not converge within {max_iter} iterations")


def _child_seed(seed: int, delta_index: int, sample_index: int) -> int:
    return int(np.random.SeedSequence([seed, delta_index, sample_index]).generate_state(1)[0])


def _study_row(delta: float, child_seed: int, mode: str) -> ScalingRow:
    # certify validates, so the strategy is checked once
    report = certify(_perturbed(PerturbationSpec(delta, child_seed, mode)))
    eps = report.epsilon
    sqrt_eps = float(np.sqrt(eps)) if eps > 0 else 0.0
    return ScalingRow(
        delta=float(delta),
        seed=int(child_seed),
        epsilon=float(eps),
        state_residual=float(report.state_residual),
        max_op_residual=float(report.max_op_residual),
        max_consistency_residual=float(report.max_consistency_residual),
        ratio_state=float(report.state_residual / sqrt_eps) if sqrt_eps else 0.0,
        ratio_op=float(report.max_op_residual / sqrt_eps) if sqrt_eps else 0.0,
    )


def scaling_study(
    deltas,
    samples_per_delta: int,
    seed: int,
    mode: str = "combined",
):
    """Generate, validate and certify samples over a delta grid.

    Returns (rows, fit) where fit least-squares the log of state_residual
    against the log of epsilon over all positive rows.  Rows come in (delta
    index, sample index) order, and each sample's seed derives from (seed,
    delta index, sample index) alone.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    if sorted(deltas) != deltas:
        raise ValueError("deltas must be ascending")
    rows = [
        _study_row(delta, _child_seed(seed, di, si), mode)
        for di, delta in enumerate(deltas)
        for si in range(samples_per_delta)
    ]
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


CSV_HEADER = "delta,seed,epsilon,state_residual,max_op_residual,max_consistency_residual,ratio_state,ratio_op"


def rows_to_csv(rows) -> str:
    """Render rows with exact shortest-round-trip float formatting."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.delta!r},{row.seed},{row.epsilon!r},{row.state_residual!r},"
            f"{row.max_op_residual!r},{row.max_consistency_residual!r},"
            f"{row.ratio_state!r},{row.ratio_op!r}"
        )
    return "\n".join(lines) + "\n"
