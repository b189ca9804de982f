import numpy as np
import pytest

from pentagram import optimize, rigidity
from pentagram.optimize import (
    MODES,
    CalibrationError,
    PerturbationSpec,
    bob_best_response,
    calibrate_delta,
    fit_summary,
    perturb_ideal,
    random_hermitian,
    random_strategy,
    rows_to_csv,
    scaling_study,
)
from pentagram.strategies import ideal_strategy, score, validate


def _strategies_equal(a, b):
    if not np.array_equal(a.L, b.L):
        return False
    for j in a.game.context_names:
        for v in a.game.contexts[j]:
            if not np.array_equal(a.alice[j][v], b.alice[j][v]):
                return False
    return all(np.array_equal(a.bob[v], b.bob[v]) for v in a.game.vertices)


class TestPerturbationSpec:
    def test_bad_delta(self):
        with pytest.raises(ValueError):
            PerturbationSpec(-0.1, 0)
        with pytest.raises(ValueError):
            PerturbationSpec(1.5, 0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            PerturbationSpec(0.1, 0, "alice-unitaries")


class TestPerturbIdeal:
    def test_zero_delta_is_ideal(self):
        r = perturb_ideal(PerturbationSpec(0.0, 123))
        assert _strategies_equal(r, ideal_strategy())
        assert abs(score(r) - 1.0) <= 1e-12

    def test_small_delta_valid_and_suboptimal(self):
        r = perturb_ideal(PerturbationSpec(1e-3, 0))
        assert validate(r, 1e-10).passed
        assert 1.0 - score(r) > 0

    def test_reproducible_bit_for_bit(self):
        spec = PerturbationSpec(2e-2, 77, "combined")
        assert _strategies_equal(perturb_ideal(spec), perturb_ideal(spec))

    def test_modes_differ(self):
        rs = {mode: perturb_ideal(PerturbationSpec(1e-2, 5, mode)) for mode in MODES}
        assert not _strategies_equal(rs["context-unitaries"], rs["bob-unitaries"])
        assert not _strategies_equal(rs["state-noise"], rs["combined"])

    def test_mode_scope(self):
        ideal = ideal_strategy()
        ra = perturb_ideal(PerturbationSpec(1e-2, 5, "context-unitaries"))
        assert np.array_equal(ra.L, ideal.L)
        assert all(np.array_equal(ra.bob[v], ideal.bob[v]) for v in ideal.game.vertices)
        rb = perturb_ideal(PerturbationSpec(1e-2, 5, "bob-unitaries"))
        assert np.array_equal(rb.alice["C"][2], ideal.alice["C"][2])
        rs = perturb_ideal(PerturbationSpec(1e-2, 5, "state-noise"))
        assert np.array_equal(rs.alice["C"][2], ideal.alice["C"][2])
        assert not np.array_equal(rs.L, ideal.L)

    def test_epsilon_quadratic_in_delta(self):
        deltas = np.logspace(-3, -2, 6)
        eps = [1.0 - score(perturb_ideal(PerturbationSpec(d, 11))) for d in deltas]
        slope = np.polyfit(np.log(deltas), np.log(eps), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_generator_normalization(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 8)
        assert np.max(np.abs(np.linalg.eigvalsh(h))) == pytest.approx(1.0, abs=1e-12)


class TestBobBestResponse:
    def test_fixes_ideal(self):
        ideal = ideal_strategy()
        improved = bob_best_response(ideal)
        for v in ideal.game.vertices:
            assert np.max(np.abs(improved.bob[v] - ideal.bob[v])) <= 1e-12
        assert abs(score(improved) - 1.0) <= 1e-12

    def test_recovers_ideal_from_random_bob(self):
        rng = np.random.default_rng(5)
        r = ideal_strategy()
        for v in r.game.vertices:
            from pentagram.optimize import random_reflection

            r.bob[v] = random_reflection(rng, 8)
        assert score(r) < 0.99
        assert abs(score(bob_best_response(r)) - 1.0) <= 1e-12

    def test_never_decreases_score(self):
        for seed in range(50):
            r = random_strategy(seed)
            before = score(r)
            after = score(bob_best_response(r))
            assert after >= before - 1e-12

    def test_idempotent_up_to_degeneracy(self):
        for seed in (1, 2, 3):
            r = bob_best_response(random_strategy(seed))
            assert abs(score(bob_best_response(r)) - score(r)) <= 1e-12

    def test_output_is_valid(self):
        r = bob_best_response(random_strategy(4))
        assert validate(r, 1e-10).passed


class TestCalibration:
    def test_hits_target(self):
        target = 1e-4
        spec = calibrate_delta(target, seed=3)
        eps = 1.0 - score(perturb_ideal(spec))
        assert abs(eps - target) <= 0.1 * target

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_delta(0.0)

    def test_large_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_delta(0.2)

    def test_non_convergence_reported(self):
        with pytest.raises(CalibrationError):
            calibrate_delta(1e-4, seed=3, max_iter=1)


class TestScalingStudy:
    def test_rows_and_fit(self):
        deltas = [1e-3, 3e-3, 1e-2, 3e-2]
        rows, fit = scaling_study(deltas, 3, seed=0)
        assert len(rows) == 12
        assert fit["n_rows"] == 12
        assert set(fit) == {"slope", "intercept", "max_ratio_state", "max_ratio_op", "n_rows"}
        assert 0.35 <= fit["slope"] <= 0.65
        assert fit["max_ratio_state"] < 100
        assert fit["max_ratio_op"] < 100
        for row in rows:
            assert 0.0 <= row.epsilon <= 1.0
            assert row.max_consistency_residual <= np.sqrt(80 * row.epsilon) + 1e-9

    def test_deterministic_csv(self):
        a = rows_to_csv(scaling_study([1e-3, 1e-2], 2, seed=9)[0])
        b = rows_to_csv(scaling_study([1e-3, 1e-2], 2, seed=9)[0])
        assert a == b
        header = a.splitlines()[0]
        assert header == (
            "delta,seed,epsilon,state_residual,max_op_residual,"
            "max_consistency_residual,ratio_state,ratio_op"
        )

    def test_schedule_independent(self):
        # each row depends only on its own (delta index, sample index)
        rows, _ = scaling_study([1e-3, 1e-2], 2, seed=4)
        prefix, _ = scaling_study([1e-3], 2, seed=4)
        assert rows[:2] == prefix

    def test_validates_each_row_once(self, monkeypatch):
        calls = []

        def counting(r, tol):
            calls.append(tol)
            return validate(r, tol)

        monkeypatch.setattr(optimize, "validate", counting)
        monkeypatch.setattr(rigidity, "validate", counting)
        rows, _ = scaling_study([1e-3, 1e-2], 2, seed=4)
        assert len(calls) == len(rows) == 4

    def test_bad_deltas_rejected(self):
        with pytest.raises(ValueError):
            scaling_study([1e-2, 1e-3], 1, seed=0)
        with pytest.raises(ValueError):
            scaling_study([0.0, 1e-2], 1, seed=0)

    def test_fit_handles_degenerate_rows(self):
        fit = fit_summary([])
        assert fit["slope"] is None and fit["intercept"] is None
