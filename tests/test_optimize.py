import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from pentagram import optimize, rigidity, strategies
from pentagram.optimize import (
    MODES,
    CalibrationError,
    PerturbationSpec,
    bob_best_response,
    calibrate_delta,
    fit_summary,
    perturb_ideal,
    random_strategy,
    rows_to_csv,
    scaling_study,
)
from pentagram.rigidity import certify
from pentagram.strategies import (
    ReflectionStrategy,
    StrategyValidationError,
    ideal_strategy,
    score,
    to_projective,
    to_reflection,
    validate,
)
from rebuild import replaced


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

    @pytest.mark.parametrize("seed", [1.5, True, "3", None, np.float64(2.0)], ids=repr)
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {re.escape(repr(seed))}"):
            PerturbationSpec(0.01, seed)

    @pytest.mark.parametrize("delta", [True, False, "0.1", None, 0.1j], ids=repr)
    def test_delta_must_be_a_real_number(self, delta):
        with pytest.raises(ValueError, match=f"delta must be a real number, got {re.escape(repr(delta))}"):
            PerturbationSpec(delta, 3)

    def test_numpy_scalars_accepted(self):
        spec = PerturbationSpec(np.float64(0.01), np.int64(5))
        assert _strategies_equal(perturb_ideal(spec), perturb_ideal(PerturbationSpec(0.01, 5)))

    @pytest.mark.parametrize("delta", [Fraction(1, 100), np.float32(0.25), 1], ids=repr)
    def test_delta_stored_as_float(self, delta):
        spec = PerturbationSpec(delta, 3)
        assert type(spec.delta) is float and spec.delta == float(delta)
        got, want = perturb_ideal(spec), perturb_ideal(PerturbationSpec(float(delta), 3))
        assert all(np.array_equal(a, b) for a, b in zip(got._rows(), want._rows()))


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
        # each generator's eigenvalues are divided by their largest modulus, which so becomes exactly 1
        for mode, k in (("context-unitaries", 5), ("bob-unitaries", 10), ("combined", 15)):
            for seed in range(20):
                _, _, w, v, _ = optimize._draw(seed, mode)
                assert w.shape == (k, 8) and v.shape == (k, 8, 8)
                assert np.array_equal(np.max(np.abs(w), axis=-1), np.ones(k)), (mode, seed)
                h = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
                assert np.linalg.norm(h, ord=2, axis=(-2, -1)) == pytest.approx([1.0] * k, abs=1e-12)

    def test_generators_exactly_hermitian(self, monkeypatch):
        # (g + g^dagger)/2: _draw hands them to eigh with no check
        seen, eigh = [], np.linalg.eigh

        def spy(h):
            seen.append(np.array_equal(h, h.conj().swapaxes(-1, -2)))
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        for seed in range(200):
            for mode in ("context-unitaries", "bob-unitaries", "combined"):
                optimize._draw(seed, mode)
        assert len(seen) == 600 and all(seen)


class TestBobBestResponse:
    def test_fixes_ideal(self):
        ideal = ideal_strategy()
        improved = bob_best_response(ideal)
        for v in ideal.game.vertices:
            assert np.max(np.abs(improved.bob[v] - ideal.bob[v])) <= 1e-12
        assert abs(score(improved) - 1.0) <= 1e-12

    def test_recovers_ideal_from_random_bob(self):
        from pentagram.optimize import random_reflection

        rng = np.random.default_rng(5)
        ideal = ideal_strategy()
        r = replaced(ideal, bob={v: random_reflection(rng, 8) for v in ideal.game.vertices})
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


def test_results_cannot_write_what_they_share():
    # a best response shares its input's L and Alice, and generated strategies the read-only ideal arrays
    r = random_strategy(3)
    generated = [
        r,
        bob_best_response(r),
        ideal_strategy(),
        perturb_ideal(PerturbationSpec(1e-2, 5, "bob-unitaries")),
        to_reflection(to_projective(r)),
    ]
    for s in generated:
        for m in (s.L, s.alice["C"][2], s.bob[2]):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] += 1.0
    assert _strategies_equal(ideal_strategy(), generated[2])


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

    def test_non_convergence_reported(self, monkeypatch):
        monkeypatch.setattr(optimize, "_MAX_STEPS", 1)
        with pytest.raises(CalibrationError, match="within 1 iterations"):
            calibrate_delta(1e-4, seed=3)

    def test_target_above_epsilon_at_one_reported(self, monkeypatch):
        monkeypatch.setattr(optimize, "_scores", lambda L, alice, bob: np.array([0.99]))
        with pytest.raises(CalibrationError, match="is below the target"):
            calibrate_delta(0.05, seed=3)

    def test_non_monotone_epsilon_reported(self, monkeypatch):
        # epsilon(1) = 0.1, then 0.2 at the first smaller scale tried: no monotone map gives that
        evaluations = iter([0.1, 0.2])
        monkeypatch.setattr(optimize, "_scores", lambda L, alice, bob: np.array([1.0 - next(evaluations)]))
        with pytest.raises(CalibrationError, match="not monotone on the bracket"):
            calibrate_delta(1e-3, seed=3)

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """The scales _apply is called with, one per scoring pass, delta = 1 included."""
        calls, apply = [], optimize._apply

        def counting(draw, delta):
            calls.append(delta)
            return apply(draw, delta)

        monkeypatch.setattr(optimize, "_apply", counting)
        return calls

    def test_fixed_grid_lands_in_few_evaluations(self, evaluations):
        counts = []
        for target in (1e-6, 1e-4, 1e-3, 1e-2, 0.1):
            for mode in MODES:
                for seed in range(5):
                    evaluations.clear()
                    spec = calibrate_delta(target, mode=mode, seed=seed)
                    counts.append(len(evaluations))
                    eps = 1.0 - score(perturb_ideal(spec))
                    assert abs(eps - target) <= 0.1 * target, (target, mode, seed, eps)
        assert max(counts) <= 6
        assert sum(counts) <= 400  # bisection took 790

    def test_benchmark_calibrations_take_three_evaluations(self, evaluations):
        # the four calibrations of perfbench's search workload; bisection took 10, 8, 7 and 10
        for target, seed, mode in (
            (1e-3, 101, "combined"),
            (1e-4, 102, "context-unitaries"),
            (1e-3, 103, "bob-unitaries"),
            (1e-4, 104, "state-noise"),
        ):
            evaluations.clear()
            calibrate_delta(target, mode=mode, seed=seed)
            assert len(evaluations) == 3

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "state-noise"])
    def test_draws_generators_once(self, monkeypatch, mode):
        # every step of the search reuses the one draw of (seed, mode), its generators decomposed once
        calls, eigh = [], np.linalg.eigh

        def counting(h):
            calls.append(len(h))
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for seed in (3, 104):
            calls.clear()
            calibrate_delta(1e-3, mode=mode, seed=seed)
            assert calls == [{"context-unitaries": 5, "bob-unitaries": 10, "combined": 15}[mode]]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": -1}, "seed must be non-negative, got -1"),
            ({"mode": "alice-unitaries"}, "unknown mode 'alice-unitaries'"),
        ],
        ids=["seed", "mode"],
    )
    def test_bad_seed_or_mode_rejected_before_any_draw(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(optimize, "_draw", None)
        with pytest.raises(ValueError, match=message):
            calibrate_delta(1e-3, **kwargs)


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
        # every row passes the validation gate exactly once, over more rows
        # than one core pass takes
        covered = []

        def counting(L, alice, bob):
            covered.extend(m.tobytes() for m in L)
            return strategies._require_valid_rows(L, alice, bob)

        monkeypatch.setattr(optimize, "_require_valid_rows", counting)
        rows, _ = scaling_study([1e-3, 1e-2], 9, seed=4)
        assert len(rows) == 18 > optimize._CHUNK_ROWS
        own = [perturb_ideal(PerturbationSpec(row.delta, row.seed)).L.tobytes() for row in rows]
        assert sorted(covered) == sorted(own) and len(set(own)) == len(rows)

    @pytest.mark.parametrize("mode", MODES)
    def test_rows_do_not_depend_on_their_chunk(self, monkeypatch, mode):
        rows, fit = scaling_study([1e-3, 1e-1], 9, seed=13, mode=mode)
        assert len(rows) > optimize._CHUNK_ROWS
        monkeypatch.setattr(optimize, "_CHUNK_ROWS", 1)
        alone, alone_fit = scaling_study([1e-3, 1e-1], 9, seed=13, mode=mode)
        for row, own in zip(rows, alone, strict=True):
            for field in dataclasses.fields(row):
                assert getattr(row, field.name) == getattr(own, field.name), field.name
        assert fit == alone_fit

    def test_first_failing_row_of_a_chunk_raises_its_own_message(self, monkeypatch):
        # the third row's L is off unit norm and the fourth's S[1] halved:
        # the chunk reports the third row, as computing it alone would
        drawn = []
        original = optimize._apply

        def breaking(draw, delta):
            L, a, b = original(draw, delta)
            if len(drawn) == 2:
                L = L * (1 + 1e-6)
            elif len(drawn) == 3:
                b = b.copy()
                b[0] = b[0] / 2
            drawn.append(ReflectionStrategy._from_arrays(L, a, b))
            return L, a, b

        monkeypatch.setattr(optimize, "_apply", breaking)
        with pytest.raises(StrategyValidationError) as caught:
            scaling_study([1e-3, 1e-2], 3, seed=4)
        assert len(drawn) == 6
        with pytest.raises(StrategyValidationError) as alone:
            certify(drawn[2])
        assert str(caught.value) == str(alone.value)
        assert str(caught.value).endswith(": state_norm 1.000e-06")

    def test_rows_equal_certify(self):
        # the sweep's core gives exactly what the full certificate reports
        for mode in MODES:
            rows, _ = scaling_study([1e-3, 1e-1], 2, seed=21, mode=mode)
            for row in rows:
                report = certify(perturb_ideal(PerturbationSpec(row.delta, row.seed, mode)))
                sqrt_eps = float(np.sqrt(report.epsilon))
                assert row.epsilon == report.epsilon
                assert row.state_residual == report.state_residual
                assert row.max_op_residual == report.max_op_residual
                assert row.max_consistency_residual == report.max_consistency_residual
                assert row.ratio_state == report.state_residual / sqrt_eps
                assert row.ratio_op == report.max_op_residual / sqrt_eps

    def test_rows_skip_certify_only_families(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep row computed a family the CSV does not report")

        for name in ("_word_gaps", "_change_words"):
            monkeypatch.setattr(rigidity, name, refuse)
        with pytest.raises(AssertionError):
            certify(ideal_strategy())
        rows, fit = scaling_study([1e-3, 1e-2], 2, seed=4)
        assert len(rows) == fit["n_rows"] == 4

    def test_negative_samples_and_seed_rejected(self, monkeypatch):
        # refused before any row is computed
        monkeypatch.setattr(optimize, "_study_chunk", None)
        with pytest.raises(ValueError, match="samples_per_delta must be non-negative, got -3"):
            scaling_study([1e-2], -3, seed=0)
        for samples in (True, 1.5, 2.0, "2"):
            message = f"samples_per_delta must be a non-negative integer, got {samples!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                scaling_study([0.1], samples, seed=0)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            scaling_study([1e-2], 2, seed=-1)
        monkeypatch.undo()
        assert scaling_study([1e-2], 0, seed=0)[0] == []

    def test_unknown_mode_rejected_without_rows(self):
        # no row would build the spec that refuses the mode
        for deltas, samples in (([0.1], 0), ([], 3)):
            with pytest.raises(ValueError, match="unknown mode 'bogus'"):
                scaling_study(deltas, samples, 1, mode="bogus")

    def test_delta_above_one_rejected_before_any_row(self, monkeypatch):
        monkeypatch.setattr(optimize, "_study_chunk", None)
        for samples in (30, 0):
            with pytest.raises(ValueError, match=r"deltas must lie in \(0, 1\], got 2.0"):
                scaling_study([0.01, 2], samples, seed=1)

    def test_bad_deltas_rejected(self):
        with pytest.raises(ValueError):
            scaling_study([1e-2, 1e-3], 1, seed=0)
        with pytest.raises(ValueError):
            scaling_study([0.0, 1e-2], 1, seed=0)

    def test_fit_handles_degenerate_rows(self):
        fit = fit_summary([])
        assert fit["slope"] is None and fit["intercept"] is None


def test_calibrate_delta_validates_once(monkeypatch):
    # search steps only score; the accepted spec is validated once
    calls, gate = [], strategies._require_valid_rows

    def counting(L, alice, bob):
        calls.append(len(L))
        return gate(L, alice, bob)

    monkeypatch.setattr(optimize, "_require_valid_rows", counting)
    spec = calibrate_delta(1e-3, seed=3)
    assert len(calls) == 1
    calls.clear()
    calibrate_delta(1e-4, mode="state-noise", seed=104)
    assert len(calls) == 1
    monkeypatch.undo()
    assert validate(perturb_ideal(spec), 1e-10).passed
    # an interpolated delta: its last bits follow the BLAS kernel, about 4e-16 relative
    assert spec.delta == pytest.approx(0.03437501096211456, rel=1e-12)
    assert (spec.seed, spec.mode) == (3, "combined")
