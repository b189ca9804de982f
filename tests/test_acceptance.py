"""Acceptance suite: one check per headline guarantee, run with `pytest -s`.

Each test prints a single [PASS]/[FAIL] line with the measured quantity and
its pinned tolerance before asserting, so a full run gives a one-line
verdict per criterion.
"""

import time
from fractions import Fraction

import numpy as np

from pentagram.cli import main
from pentagram.game import PentagramGame, best_classical_strategy, evaluate_classical
from pentagram.optimize import (
    PerturbationSpec,
    bob_best_response,
    perturb_ideal,
    random_reflection,
    random_strategy,
    scaling_study,
)
from pentagram.rigidity import (
    PHI_TRIPLE,
    build_isometry,
    certify,
    consistency_residuals,
    extract_state,
    word_residual,
)
from pentagram.strategies import ideal_strategy, score, to_projective, to_reflection

MODES_CYCLE = ("combined", "context-unitaries", "bob-unitaries", "state-noise")


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_01_quantum_value():
    t0 = time.perf_counter()
    value = score(ideal_strategy())
    elapsed = time.perf_counter() - t0
    ok = abs(value - 1.0) <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"score(ideal) = {value!r} (tol 1e-12), {elapsed:.3f}s < 1s")


def test_criterion_02_classical_value():
    t0 = time.perf_counter()
    game = PentagramGame()
    witness, value = best_classical_strategy(game)
    elapsed = time.perf_counter() - t0
    witness_value = evaluate_classical(game, witness)
    ok = (
        value == Fraction(19, 20)
        and witness_value == Fraction(19, 20)
        and elapsed < 1.0
    )
    _verdict(2, ok, f"classical value = {value} exactly, witness achieves {witness_value}, {elapsed:.3f}s < 1s")


def test_criterion_03_exact_rigidity():
    t0 = time.perf_counter()
    report = certify(ideal_strategy())
    elapsed = time.perf_counter() - t0
    bell = report.bell_weights[PHI_TRIPLE]
    ok = (
        report.state_residual <= 1e-10
        and report.max_op_residual <= 1e-10
        and abs(bell - 1.0) <= 1e-10
        and elapsed < 5.0
    )
    _verdict(
        3,
        ok,
        f"state_residual = {report.state_residual:.2e}, max op residual = "
        f"{report.max_op_residual:.2e}, bell weight = {bell!r} (tol 1e-10), {elapsed:.3f}s < 5s",
    )


def test_criterion_04_explicit_consistency_bound():
    deltas = np.logspace(-3, -1, 10)
    worst_margin = np.inf
    count = 0
    ok = True
    for di, delta in enumerate(deltas):
        for si in range(10):
            mode = MODES_CYCLE[(di * 10 + si) % len(MODES_CYCLE)]
            r = perturb_ideal(PerturbationSpec(float(delta), 1000 + di * 10 + si, mode))
            eps = 1.0 - score(r)
            bound = np.sqrt(80.0 * eps) + 1e-9
            residuals = consistency_residuals(r)
            worst_margin = min(worst_margin, bound - max(residuals.values()))
            ok = ok and all(res <= bound for res in residuals.values())
            count += 1
    _verdict(
        4,
        ok and count == 100,
        f"all 20 consistency residuals <= sqrt(80 eps) + 1e-9 on {count} strategies "
        f"(worst margin {worst_margin:.3e})",
    )


def test_criterion_05_sqrt_epsilon_scaling():
    t0 = time.perf_counter()
    deltas = list(np.logspace(-3, -1, 7))
    rows, fit = scaling_study(deltas, 5, seed=2026)
    elapsed = time.perf_counter() - t0
    slope = fit["slope"]
    max_ratio = max(fit["max_ratio_state"], fit["max_ratio_op"])
    ok = 0.35 <= slope <= 0.65 and max_ratio < 100 and elapsed < 120.0
    _verdict(
        5,
        ok,
        f"log-log slope = {slope:.3f} in [0.35, 0.65], max residual/sqrt(eps) = "
        f"{max_ratio:.2f} < 100 over {len(rows)} rows, {elapsed:.1f}s < 120s",
    )


def test_criterion_06_word_length_scaling():
    labels = [f"{w}{i}" for w in "XZ" for i in range(1, 7)]
    ok = True
    worst_ratio = 0.0
    for seed in range(20):
        r = perturb_ideal(PerturbationSpec(1e-2, 3000 + seed))
        for label in labels:
            base = word_residual(r, [label])
            for n in range(2, 7):
                res = word_residual(r, [label] * n)
                ok = ok and res <= n * (base + 1e-9)
                if base > 0:
                    worst_ratio = max(worst_ratio, res / (n * base))
    _verdict(
        6,
        ok,
        f"residual(n) <= n * (residual(1) + 1e-9) for n = 1..6, 12 operators x 20 seeds "
        f"(worst residual(n)/(n residual(1)) = {worst_ratio:.3f})",
    )


def test_criterion_07_algebraic_identities():
    rng = np.random.default_rng(7)
    identity_dev = 0.0
    for _ in range(100):
        da, db = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        R = random_reflection(rng, da)
        S = random_reflection(rng, db)
        L = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
        L /= np.linalg.norm(L)
        up = ((np.eye(da) + R) / 2) @ L @ ((np.eye(db) - S) / 2)
        dn = ((np.eye(da) - R) / 2) @ L @ ((np.eye(db) + S) / 2)
        proj = np.linalg.norm(up) ** 2 + np.linalg.norm(dn) ** 2
        identity_dev = max(identity_dev, abs(proj - 0.25 * np.linalg.norm(R @ L - L @ S) ** 2))
        identity_dev = max(identity_dev, abs(proj - 0.25 * np.linalg.norm(L - R @ L @ S) ** 2))

    bell_dev = 0.0
    for seed in range(5):
        ext = extract_state(random_strategy(seed))
        bell_dev = max(bell_dev, abs(sum(ext.bell_weights.values()) - 1.0))

    iso_dev = 0.0
    for _ in range(20):
        d = int(rng.choice([2, 4, 8]))
        iso = build_isometry(
            [random_reflection(rng, d) for _ in range(3)],
            [random_reflection(rng, d) for _ in range(3)],
        )
        gram = iso.conj().T @ iso
        iso_dev = max(iso_dev, float(np.linalg.norm(gram - np.eye(d))))

    ok = identity_dev <= 1e-10 and bell_dev <= 1e-12 and iso_dev <= 1e-12
    _verdict(
        7,
        ok,
        f"quarter-factor identity dev = {identity_dev:.2e} (tol 1e-10), Bell completeness "
        f"dev = {bell_dev:.2e} (tol 1e-12), isometry gram dev = {iso_dev:.2e} (tol 1e-12)",
    )


def test_criterion_08_conversion_fidelity():
    worst = 0.0
    for seed in range(20):
        r = random_strategy(500 + seed)
        round_trip = to_reflection(to_projective(r))
        worst = max(worst, abs(score(round_trip) - score(r)))
    ok = worst <= 1e-12
    _verdict(8, ok, f"projective<->reflection round trip score deviation = {worst:.2e} (tol 1e-12)")


def test_criterion_09_best_response_monotonicity():
    worst_drop = 0.0
    for seed in range(50):
        r = random_strategy(700 + seed)
        worst_drop = max(worst_drop, score(r) - score(bob_best_response(r)))
    ideal = ideal_strategy()
    improved = bob_best_response(ideal)
    fixed_dev = max(
        float(np.max(np.abs(improved.bob[v] - ideal.bob[v]))) for v in ideal.game.vertices
    )
    ok = worst_drop <= 1e-12 and fixed_dev <= 1e-12
    _verdict(
        9,
        ok,
        f"worst score drop = {worst_drop:.2e} over 50 strategies (tol 1e-12), "
        f"ideal fixed within {fixed_dev:.2e}",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"rows_{tag}.csv"
        summary = tmp_path / f"fit_{tag}.json"
        code = main(
            [
                "scaling-study", "--deltas", "0.001,0.003,0.01", "--samples", "3",
                "--seed", "11", "--out", str(csv), "--summary", str(summary),
            ]
        )
        assert code == 0
        outputs.append(csv.read_bytes())
    capsys.readouterr()
    ok = outputs[0] == outputs[1]
    _verdict(10, ok, f"two scaling-study runs byte-identical ({len(outputs[0])} bytes of CSV)")
