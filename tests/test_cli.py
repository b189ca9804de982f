import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from pentagram.cli import main
from pentagram.linalg import matrix_to_json
from pentagram.optimize import MODES
from pentagram.strategies import ideal_strategy, strategy_to_json, to_projective
from test_loop_references import junk_register_strategy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def assert_same_numbers(text: str, golden: str):
    """text equals golden up to the last bits a BLAS kernel moves.

    The texts match with every number masked, integers are equal, and every other number lies within 1e-9 relative
    or 1e-12 absolute of the golden's.
    """
    assert _NUMBER.sub("#", text) == _NUMBER.sub("#", golden)
    for a, b in zip(_NUMBER.findall(text), _NUMBER.findall(golden)):
        if a.lstrip("+-").isdigit() and b.lstrip("+-").isdigit():
            assert int(a) == int(b)
        else:
            x, y = float(a), float(b)
            assert abs(x - y) <= max(1e-9 * max(abs(x), abs(y)), 1e-12), (a, b)


class TestValue:
    def test_classical(self, capsys):
        code, out, _ = run(capsys, "value", "--classical")
        assert code == 0
        assert out == "19/20 = 0.95\n"

    def test_quantum(self, capsys):
        code, out, _ = run(capsys, "value", "--quantum")
        assert code == 0
        assert out == "1.000000000000\n"

    def test_both_by_default(self, capsys):
        code, out, _ = run(capsys, "value")
        assert code == 0
        assert out.splitlines() == ["classical: 19/20 = 0.95", "quantum: 1.000000000000"]

    def test_both_flags(self, capsys):
        code, out, _ = run(capsys, "value", "--classical", "--quantum")
        assert code == 0
        assert out.splitlines() == ["classical: 19/20 = 0.95", "quantum: 1.000000000000"]


class TestRoundTrip:
    def test_export_score_certify(self, capsys, tmp_path):
        ideal = tmp_path / "ideal.json"
        report = tmp_path / "report.json"
        assert run(capsys, "export-ideal", "--out", str(ideal))[0] == 0

        code, out, _ = run(capsys, "score", "--in", str(ideal))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1.000000000000"
        assert len(lines) == 21
        assert lines[1] == "C 2 0.000000000000"

        code, out, _ = run(capsys, "validate", "--in", str(ideal), "--tol", "1e-10")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

        code, out, _ = run(capsys, "certify", "--in", str(ideal), "--out", str(report))
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["epsilon"] <= 1e-12
        assert obj["bell_weights"]["phi+,phi+,phi+"] == pytest.approx(1.0, abs=1e-10)
        assert obj["consistency_bound_ok"] is True

    def test_projective_format(self, capsys, tmp_path):
        path = tmp_path / "ideal_proj.json"
        assert run(capsys, "export-ideal", "--out", str(path), "--format", "projective")[0] == 0
        obj = json.loads(path.read_text())
        assert "psi" in obj and "M" in obj and "N" in obj
        code, out, _ = run(capsys, "score", "--in", str(path))
        assert code == 0
        assert out.splitlines()[0] == "1.000000000000"


class TestPerturb:
    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "perturb", "--delta", "0.01", "--seed", "42", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_perturbed_scores_below_one(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run(capsys, "perturb", "--delta", "0.05", "--seed", "1", "--out", str(path))
        code, out, _ = run(capsys, "score", "--in", str(path))
        assert code == 0
        assert float(out.splitlines()[0]) < 1.0

    def test_mode_flag(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        code, _, _ = run(
            capsys, "perturb", "--delta", "0.01", "--seed", "1",
            "--mode", "state-noise", "--out", str(path),
        )
        assert code == 0


class TestScalingStudy:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        outputs = []
        for tag in ("1", "2"):
            csv = tmp_path / f"rows{tag}.csv"
            summary = tmp_path / f"fit{tag}.json"
            code, _, _ = run(
                capsys, "scaling-study", "--deltas", "0.001,0.01", "--samples", "2",
                "--seed", "7", "--out", str(csv), "--summary", str(summary),
            )
            assert code == 0
            outputs.append((csv.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_outputs_well_formed(self, capsys, tmp_path):
        csv = tmp_path / "rows.csv"
        summary = tmp_path / "fit.json"
        run(
            capsys, "scaling-study", "--deltas", "0.001,0.01", "--samples", "2",
            "--seed", "7", "--out", str(csv), "--summary", str(summary),
        )
        lines = csv.read_text().splitlines()
        assert lines[0] == (
            "delta,seed,epsilon,state_residual,max_op_residual,"
            "max_consistency_residual,ratio_state,ratio_op"
        )
        assert len(lines) == 5
        fit = json.loads(summary.read_text())
        assert set(fit) == {"slope", "intercept", "max_ratio_state", "max_ratio_op", "n_rows"}

    def test_no_rows_summary_is_strict_json(self, capsys, tmp_path):
        csv = tmp_path / "rows.csv"
        summary = tmp_path / "fit.json"
        code, out, _ = run(
            capsys, "scaling-study", "--deltas", "0.01", "--samples", "0",
            "--seed", "7", "--out", str(csv), "--summary", str(summary),
        )
        assert code == 0
        assert out.startswith("slope n/a ")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        fit = json.loads(summary.read_text(), parse_constant=reject)
        assert fit["slope"] is None and fit["intercept"] is None
        assert fit["n_rows"] == 0


class TestExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "score", "--in", str(tmp_path / "nope.json"))
        assert code == 1
        assert err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert run(capsys, "score", "--in", str(bad))[0] == 1

    def test_malformed_strategy(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"L": {"rows": 1, "cols": 1, "data": [[1, 0]]}}))
        assert run(capsys, "score", "--in", str(bad))[0] == 1

    def test_missing_flag(self, capsys):
        assert run(capsys, "score")[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_validation_failure_exit_two(self, capsys, tmp_path):
        ideal = tmp_path / "ideal.json"
        run(capsys, "export-ideal", "--out", str(ideal))
        obj = json.loads(ideal.read_text())
        obj["S"]["1"]["data"] = [[0.5 * re, 0.5 * im] for re, im in obj["S"]["1"]["data"]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))

        code, out, _ = run(capsys, "validate", "--in", str(broken), "--tol", "1e-10")
        assert code == 2
        assert out.splitlines()[-1] == "FAIL"

        report = tmp_path / "report.json"
        assert run(capsys, "certify", "--in", str(broken), "--out", str(report))[0] == 2

        code, out, err = run(capsys, "score", "--in", str(broken))
        assert (code, out) == (2, "")
        assert err == "validation failure: strategy failed validation at tol=1e-10: involution 2.121e+00 at Bob vertex 1\n"

    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for argv in (["score"], ["validate"], ["certify", "--out", str(tmp_path / "report.json")]):
            code, out, err = run(capsys, *argv, "--in", str(deep))
            assert (code, out) == (1, "")
            assert err == f"error: {deep}: JSON nested too deeply to decode\n"

    @pytest.mark.parametrize("content", [b'{"dim_a": 8,', b"\xff\xfe\x00"], ids=["syntax-error", "undecodable-bytes"])
    def test_decode_error_names_the_file(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for argv in (["score"], ["validate"], ["certify", "--out", str(tmp_path / "report.json")]):
            code, out, err = run(capsys, *argv, "--in", str(bad))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    def test_non_finite_deviation_fails(self, capsys, tmp_path):
        # S[1] is symmetric and finite, but S[1] @ S[1] overflows to NaN
        obj = strategy_to_json(ideal_strategy())
        g = np.random.default_rng(0).standard_normal((8, 8))
        obj["S"]["1"] = matrix_to_json((g + g.T) * 1e200)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))

        # a warning raised in process is what the command prints on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "validate", "--in", str(broken))
            assert code == 2
            assert "involution nan" in out.splitlines()
            assert out.splitlines()[-1] == "FAIL"
            for argv in (["score"], ["certify", "--out", str(tmp_path / "report.json")]):
                code, out, err = run(capsys, *argv, "--in", str(broken))
                assert (code, out) == (2, "")
                assert "involution nan" in err
        assert not (tmp_path / "report.json").exists()
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("factor", [0.0, 2.0])
    def test_score_rejects_unnormalized_state(self, capsys, tmp_path, factor):
        ideal = tmp_path / "ideal.json"
        run(capsys, "export-ideal", "--out", str(ideal))
        obj = json.loads(ideal.read_text())
        obj["L"]["data"] = [[factor * re, factor * im] for re, im in obj["L"]["data"]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))

        code, out, err = run(capsys, "score", "--in", str(broken))
        assert code == 2
        assert out == ""
        assert "state_norm 1.000e+00" in err
        assert "hermiticity" not in err

    def test_string_matrix_entry(self, capsys, tmp_path):
        ideal = tmp_path / "ideal.json"
        run(capsys, "export-ideal", "--out", str(ideal))
        obj = json.loads(ideal.read_text())
        obj["L"]["data"][5] = ["0.35", 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))

        for argv in (["certify", "--out", str(tmp_path / "report.json")], ["score"]):
            code, _, err = run(capsys, *argv, "--in", str(bad))
            assert code == 1
            assert err == "error: matrix L: entry 5 is not a [re, im] pair of numbers\n"

    @pytest.mark.parametrize("entry", [[True, 0], [10**400, 0]], ids=["boolean", "oversized-integer"])
    def test_non_float_matrix_entry(self, capsys, tmp_path, entry):
        # a JSON boolean is not a number, and a 401-digit integer has no float
        obj = strategy_to_json(ideal_strategy())
        obj["L"]["data"][3] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))

        for argv in (["score"], ["validate"], ["certify", "--out", str(tmp_path / "report.json")]):
            code, out, err = run(capsys, *argv, "--in", str(bad))
            assert (code, out) == (1, "")
            assert err == "error: matrix L: entry 3 is not a [re, im] pair of numbers\n"
        assert not (tmp_path / "report.json").exists()

    def test_certify_refuses_what_score_refuses(self, capsys, tmp_path):
        obj = strategy_to_json(ideal_strategy())
        factor = 1 + 5e-9
        obj["L"]["data"] = [[factor * re, factor * im] for re, im in obj["L"]["data"]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))

        for argv in (["score"], ["certify", "--out", str(tmp_path / "report.json")]):
            code, out, err = run(capsys, *argv, "--in", str(broken))
            assert code == 2
            assert out == ""
            assert "state_norm" in err

    def test_invalid_projective_file_exit_two(self, capsys, tmp_path):
        obj = strategy_to_json(to_projective(ideal_strategy()))
        factor = 1 + 5e-9
        obj["psi"]["data"] = [[factor * re, factor * im] for re, im in obj["psi"]["data"]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))

        for argv in (["score"], ["certify", "--out", str(tmp_path / "report.json")], ["validate"]):
            code, out, err = run(capsys, *argv, "--in", str(broken))
            assert (code, out) == (2, "")
            assert err.startswith("validation failure: invalid projective strategy (max deviation 5.0")

    def test_validate_tol_applies_to_projective_files(self, capsys, tmp_path):
        obj = strategy_to_json(to_projective(ideal_strategy()))
        factor = 1 + 5e-9
        obj["psi"]["data"] = [[factor * re, factor * im] for re, im in obj["psi"]["data"]]
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps(obj))

        code, out, err = run(capsys, "validate", "--in", str(loose), "--tol", "1e-6")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[-1] == "PASS"
        assert lines[-2].startswith("state_norm 4.99999")
        code, out, err = run(capsys, "validate", "--in", str(loose))
        assert (code, out) == (2, "")
        assert err.startswith("validation failure: invalid projective strategy (max deviation 5.0")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scaling-study", "--deltas", "0.01", "--samples", "-3", "--seed", "1"], "samples_per_delta must be non-negative, got -3"),
            (["scaling-study", "--deltas", "0.01", "--samples", "2", "--seed", "-1"], "seed must be non-negative, got -1"),
            (["perturb", "--delta", "0.01", "--seed", "-1"], "seed must be non-negative, got -1"),
            (["scaling-study", "--deltas", "0.01,2", "--samples", "30", "--seed", "1"], "deltas must lie in (0, 1], got 2.0"),
            (
                ["scaling-study", "--deltas", "0.01,abc", "--samples", "2", "--seed", "1"],
                "argument --deltas: expected comma-separated numbers, got '0.01,abc'",
            ),
            (["validate", "--tol", "nan"], "tol must be finite and non-negative, got nan"),
            (["validate", "--tol", "-1"], "tol must be finite and non-negative, got -1.0"),
        ],
        ids=[
            "study-samples", "study-seed", "perturb-seed", "study-delta-above-one", "study-deltas-not-numbers",
            "validate-tol-nan", "validate-tol-negative",
        ],
    )
    def test_negative_counts_and_seeds(self, capsys, tmp_path, argv, message):
        outputs = [tmp_path / "out.csv", tmp_path / "fit.json"]
        extra = ["--out", str(outputs[0])]
        if argv[0] == "scaling-study":
            extra += ["--summary", str(outputs[1])]
        if argv[0] == "validate":
            # the ideal strategy, in both formats: only the tolerance is wrong
            ideal = tmp_path / "ideal.json"
            for fmt in ("reflection", "projective"):
                run(capsys, "export-ideal", "--out", str(ideal), "--format", fmt)
                code, out, err = run(capsys, *argv, "--in", str(ideal))
                assert (code, out, err) == (1, "", f"error: {message}\n")
            return
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not any(path.exists() for path in outputs)


def _drop(section, key):
    def mutate(obj):
        del obj[section][key]
    return mutate


class TestStrictLoader:
    """Malformed strategy files exit 1 with a message naming the field."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda o: o.update(S=[]), "S must be an object, got list"),
            (_drop("S", "3"), "S: missing keys ['3'], unexpected keys []"),
            (lambda o: o["S"].update({"99": o["S"]["1"]}), "S: missing keys [], unexpected keys ['99']"),
            (
                lambda o: o["S"].update({"1": matrix_to_json(np.eye(2))}),
                "matrix S.1: shape (2, 2) does not match dim_a, dim_b (expected (8, 8))",
            ),
            (lambda o: o.update(dim_a=4), "matrix L: shape (8, 8) does not match dim_a, dim_b (expected (4, 8))"),
            (lambda o: o.update(dim_b="8"), "dim_b must be a positive integer, got '8'"),
            (_drop("R", "G"), "R: missing keys ['G'], unexpected keys []"),
            # int() would read 8.7 as 8 and true as 1
            (lambda o: o["L"].update(rows=8.7), "matrix L: rows must be an integer, got 8.7"),
            (lambda o: o["S"]["2"].update(cols=True), "matrix S.2: cols must be an integer, got True"),
        ],
        ids=[
            "S-not-object", "missing-vertex", "extra-vertex", "small-S", "false-dim_a", "string-dim_b",
            "missing-context", "fractional-rows", "boolean-cols",
        ],
    )
    def test_reflection_defects(self, capsys, tmp_path, mutate, message):
        obj = strategy_to_json(ideal_strategy())
        mutate(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        for argv in (["certify", "--out", str(tmp_path / "report.json")], ["score"]):
            code, out, err = run(capsys, *argv, "--in", str(bad))
            assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda o: o["N"]["4"].pop("1"), "N.4: missing keys ['1'], unexpected keys []"),
            (lambda o: o["M"]["G"].update({"0000": o["M"]["G"]["0001"]}), "M.G: missing keys [], unexpected keys ['0000']"),
            (lambda o: o.update(dim_b=4), "matrix psi: shape (64, 1) does not match dim_a, dim_b (expected (32, 1))"),
        ],
        ids=["missing-outcome", "wrong-parity-outcome", "false-dim_b"],
    )
    def test_projective_defects(self, capsys, tmp_path, mutate, message):
        obj = strategy_to_json(to_projective(ideal_strategy()))
        mutate(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "score", "--in", str(bad))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_duplicate_key(self, capsys, tmp_path):
        # two different S.1 matrices, which a dict can only hold as text: json would keep the last one
        S1 = json.dumps(matrix_to_json(-np.eye(8)))
        text = json.dumps(strategy_to_json(ideal_strategy()))
        assert text.count('"S": {') == 1
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"S": {', f'"S": {{"1": {S1}, ', 1))
        for argv in (["certify", "--out", str(tmp_path / "report.json")], ["score"], ["validate"]):
            code, out, err = run(capsys, *argv, "--in", str(bad))
            assert (code, out, err) == (1, "", f"error: {bad}: duplicate key '1'\n")


class TestGoldenStudy:
    """scaling-study output pinned byte for byte on the kernel that wrote it, and by its numbers on any kernel.

    tests/data holds the CSV and fit summary of `scaling-study --deltas
    0.001,0.01,0.1 --samples 4 --seed 1 --mode <mode>` for every mode, as
    written after _draw scaled its one eigendecomposition's eigenvalues.  A
    change that moves a byte regenerates them on purpose, once the numeric
    test has passed against the old files, and logs why.
    """

    DATA = Path(__file__).resolve().parent / "data"

    def written(self, capsys, tmp_path, mode):
        """(written, golden) paths of the study's CSV and fit summary."""
        rows, fit = tmp_path / "rows.csv", tmp_path / "fit.json"
        argv = ["--deltas", "0.001,0.01,0.1", "--samples", "4", "--seed", "1", "--mode", mode]
        code, _, err = run(capsys, "scaling-study", *argv, "--out", str(rows), "--summary", str(fit))
        assert (code, err) == (0, "")
        return [(rows, self.DATA / f"study-{mode}.csv"), (fit, self.DATA / f"fit-{mode}.json")]

    @pytest.mark.blas_bytes
    @pytest.mark.parametrize("mode", MODES)
    def test_bytes_unchanged(self, capsys, tmp_path, mode):
        for out, golden in self.written(capsys, tmp_path, mode):
            assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_numbers_unchanged(self, capsys, tmp_path, mode):
        for out, golden in self.written(capsys, tmp_path, mode):
            assert_same_numbers(out.read_text(), golden.read_text())


class TestGoldenCertificate:
    """certify's report pinned byte for byte on the kernel that wrote it, and by its numbers on any kernel.

    tests/data holds the report of `certify` on the ideal strategy, which
    both file formats give, and on `perturb --delta 0.01 --seed 5` in each
    format, and on the d = 32 junk-register strategy of test_loop_references
    in each format.  The ideal report was written while certify's
    context-change, pair and change-word families still read the
    dict-of-dicts strategy; the others after Alice's pair families became
    words applied to R @ L and _draw scaled its one eigendecomposition's
    eigenvalues.  A change that moves a byte regenerates them on purpose,
    once the numeric test has passed against the old files, and logs why.
    """

    DATA = Path(__file__).resolve().parent / "data"

    def written(self, capsys, tmp_path, strategy, fmt):
        """(written, golden) paths of the report."""
        src, report = tmp_path / "strategy.json", tmp_path / "report.json"
        if strategy == "junk":
            r = junk_register_strategy()
            obj = strategy_to_json(to_projective(r) if fmt == "projective" else r)
            src.write_text(json.dumps(obj))
            golden = f"certificate-junk-{fmt}.json"
        else:
            if strategy == "ideal":
                argv, golden = ["export-ideal"], "certificate-ideal.json"
            else:
                argv, golden = ["perturb", "--delta", "0.01", "--seed", "5"], f"certificate-perturb-{fmt}.json"
            assert run(capsys, *argv, "--format", fmt, "--out", str(src))[0] == 0
        code, _, err = run(capsys, "certify", "--in", str(src), "--out", str(report))
        assert (code, err) == (0, "")
        return report, self.DATA / golden

    @pytest.mark.blas_bytes
    @pytest.mark.parametrize("fmt", ["reflection", "projective"])
    @pytest.mark.parametrize("strategy", ["ideal", "perturb", "junk"])
    def test_bytes_unchanged(self, capsys, tmp_path, strategy, fmt):
        report, golden = self.written(capsys, tmp_path, strategy, fmt)
        assert report.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("fmt", ["reflection", "projective"])
    @pytest.mark.parametrize("strategy", ["ideal", "perturb", "junk"])
    def test_numbers_unchanged(self, capsys, tmp_path, strategy, fmt):
        report, golden = self.written(capsys, tmp_path, strategy, fmt)
        assert_same_numbers(report.read_text(), golden.read_text())
