"""The three workloads: their inputs, one operation each, and its checks.

Every workload does the same fixed amount of work in each operation, so op
latencies are unimodal.  ``op(i)`` is the timed call into the package;
``check(i, out)`` runs untimed after it.  ``prepare`` makes what the
benchmark writes itself (the junk files) once per run, outside the set-up
time: serializing them is the benchmark's work, not the package's.  The first time a check sees an
output it verifies it against the plain-numpy references in ``reference``;
later operations must reproduce that output exactly.

Functions are looked up on the package's modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref
from junk import write_junk


def run_cli(pkg, argv: list[str]) -> tuple[int, str]:
    """In-process ``pentagram`` command; returns the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return code, err.getvalue()


class Workload:
    warmup = 1  # untimed ops whose outputs get the full reference check

    @staticmethod
    def prepare(seed: int, scratch: Path):
        return None


class Sweep(Workload):
    """One op: ``pentagram scaling-study`` over a fixed grid at d = 8."""

    DELTAS = (0.001, 0.01, 0.1)
    SAMPLES = 4

    def __init__(self, pkg, seed: int, scratch: Path, prepared):
        self.pkg, self.seed = pkg, seed
        self.csv, self.fit = scratch / "rows.csv", scratch / "fit.json"
        self.argv = [
            "scaling-study", "--deltas", ",".join(map(str, self.DELTAS)),
            "--samples", str(self.SAMPLES), "--seed", str(seed),
            "--out", str(self.csv), "--summary", str(self.fit),
        ]
        self.first: bytes | None = None

    def op(self, i: int):
        return run_cli(self.pkg, self.argv)

    def check(self, i: int, out) -> list[str]:
        code, err = out
        if code != 0:
            return [f"scaling-study exited {code}: {err.strip()}"]
        csv = self.csv.read_bytes()
        if self.first is not None:
            return [] if csv == self.first else ["CSV differs from the first op's"]
        self.first = csv
        return self._check_study(csv.decode(), json.loads(self.fit.read_text()))

    def _check_study(self, csv: str, fit: dict) -> list[str]:
        errors = []
        header, *lines = csv.splitlines()
        rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
        grid = [(di, si) for di in range(len(self.DELTAS)) for si in range(self.SAMPLES)]
        if len(rows) != len(grid):
            return [f"{len(rows)} CSV rows, expected {len(grid)}"]
        for row, (di, si) in zip(rows, grid):
            child = int(np.random.SeedSequence([self.seed, di, si]).generate_state(1)[0])
            if row["delta"] != self.DELTAS[di] or int(row["seed"]) != child:
                errors.append(f"row ({di}, {si}) has delta {row['delta']} seed {row['seed']:.0f}, expected child seed {child}")
            eps = row["epsilon"]
            if not row["max_consistency_residual"] <= ref.bound(eps):
                errors.append(f"row ({di}, {si}) breaks the sqrt(80 eps) bound")
            if abs(row["ratio_state"] - row["state_residual"] / np.sqrt(eps)) > 1e-9 * row["ratio_state"]:
                errors.append(f"row ({di}, {si}) ratio_state != state_residual / sqrt(epsilon)")
        eps = np.array([row["epsilon"] for row in rows])
        res = np.array([row["state_residual"] for row in rows])
        slope = float(np.polyfit(np.log(eps), np.log(res), 1)[0])
        if not 0.35 <= fit["slope"] <= 0.65 or abs(fit["slope"] - slope) > 1e-9:
            errors.append(f"fit slope {fit['slope']} (own fit {slope}) outside [0.35, 0.65] or mismatched")
        if fit["n_rows"] != len(grid):
            errors.append(f"fit n_rows {fit['n_rows']}, expected {len(grid)}")
        return errors


class Junk(Workload):
    """One op: certify one junk strategy from each file format, then words."""

    # (label, length): word_residual(r, [label] * length); one X and one Z
    # reflection on each side.
    WORDS = tuple((label, n) for label in ("X1", "Z3", "X4", "Z6") for n in (1, 3))
    FORMATS = ("reflection", "projective")

    @staticmethod
    def prepare(seed: int, scratch: Path):
        return write_junk(scratch, seed)

    def __init__(self, pkg, seed: int, scratch: Path, prepared):
        self.pkg = pkg
        self.items = [
            dict(
                item,
                strategy=pkg.strategies.ReflectionStrategy(L=item["L"], alice=item["alice"], bob=item["bob"]),
                reports={fmt: scratch / f"report{i}-{fmt}.json" for fmt in self.FORMATS},
            )
            for i, item in enumerate(prepared)
        ]
        self.warmup = len(self.items)
        self.first: dict[int, tuple] = {}

    def op(self, i: int):
        item = self.items[i % len(self.items)]
        runs = [
            run_cli(self.pkg, ["certify", "--in", str(item["files"][fmt]), "--out", str(item["reports"][fmt])])
            for fmt in self.FORMATS
        ]
        words = [self.pkg.rigidity.word_residual(item["strategy"], [label] * n) for label, n in self.WORDS]
        return runs, words

    def check(self, i: int, out) -> list[str]:
        runs, words = out
        item = self.items[i % len(self.items)]
        failed = [f"certify exited {code}: {err.strip()}" for code, err in runs if code != 0]
        if failed:
            return failed
        reports = tuple(item["reports"][fmt].read_bytes() for fmt in self.FORMATS)
        if i % len(self.items) in self.first:
            same = self.first[i % len(self.items)] == (reports, words)
            return [] if same else [f"junk item {i % len(self.items)} output differs from its first op's"]
        self.first[i % len(self.items)] = (reports, words)
        errors = []
        for fmt, blob in zip(self.FORMATS, reports):
            errors += [f"{fmt} file: {e}" for e in self._check_report(item, json.loads(blob))]
        for (label, n), res in zip(self.WORDS, words):
            single = words[self.WORDS.index((label, 1))]
            if not res <= n * (single + 1e-9):
                errors.append(f"word_residual({label} x {n}) = {res} > {n} * word_residual({label})")
        return errors

    @staticmethod
    def _check_report(item, report: dict) -> list[str]:
        errors = []
        own = ref.residuals(item["L"], item["alice"], item["bob"])
        eps = ref.epsilon(item["L"], item["alice"], item["bob"])
        if abs(report["epsilon"] - eps) > 1e-12:
            errors.append(f"epsilon {report['epsilon']} != own {eps}")
        for (j, v), res in own.items():
            if abs(report["consistency_residuals"][f"{j}:{v}"] - res) > 1e-10:
                errors.append(f"consistency residual {j}:{v} differs from own {res}")
        if not report["consistency_bound_ok"]:
            errors.append("consistency_bound_ok is false")
        if max(report["consistency_residuals"].values()) > ref.bound(eps):
            errors.append("a consistency residual exceeds sqrt(80 eps) + 1e-9")
        total = sum(report["bell_weights"].values())
        if abs(total - 1.0) > 1e-9:
            errors.append(f"Bell weights sum to {total}")
        return errors


class Search(Workload):
    """One op: delta calibrations, Bob best responses and classical values."""

    # (target epsilon, seed, mode): fixed, so every run bisects the same steps.
    CALIBRATIONS = (
        (1e-3, 101, "combined"),
        (1e-4, 102, "context-unitaries"),
        (1e-3, 103, "bob-unitaries"),
        (1e-4, 104, "state-noise"),
    )
    BEST_RESPONSES = 8

    def __init__(self, pkg, seed: int, scratch: Path, prepared):
        self.pkg = pkg
        rng = np.random.default_rng(seed)
        seeds = rng.integers(2**31, size=self.BEST_RESPONSES)
        self.strategies = [pkg.optimize.random_strategy(int(s)) for s in seeds]
        self.games = []
        for parity in (-1, 1):  # one relabelled pentagram, one satisfiable label set
            perm = dict(zip(ref.VERTICES, (int(v) for v in rng.permutation(ref.VERTICES))))
            signs = list(rng.choice([-1, 1], size=len(ref.LABELS)))
            signs[-1] *= parity * int(np.prod(signs))
            contexts = {j: tuple(perm[v] for v in vs) for j, vs in ref.CONTEXTS.items()}
            labels = dict(zip(ref.LABELS, (int(s) for s in signs)))
            self.games.append((contexts, labels, pkg.game.PentagramGame(contexts=contexts, labels=labels)))
        self.first = None

    def op(self, i: int):
        opt = self.pkg.optimize
        specs = [opt.calibrate_delta(eps, mode, seed) for eps, seed, mode in self.CALIBRATIONS]
        responses = [opt.bob_best_response(r) for r in self.strategies]
        values = [self.pkg.game.classical_value(g) for _, _, g in self.games]
        return specs, responses, values

    def check(self, i: int, out) -> list[str]:
        specs, responses, values = out
        key = (specs, [[br.bob[v].tobytes() for v in ref.VERTICES] for br in responses], values)
        if self.first is not None:
            return [] if key == self.first else ["search output differs from the first op's"]
        self.first = key
        errors = []
        for (target, _, mode), spec in zip(self.CALIBRATIONS, specs):
            r = self.pkg.optimize.perturb_ideal(spec)
            eps = ref.epsilon(r.L, r.alice, r.bob)
            if abs(eps - target) > 0.1 * target:
                errors.append(f"calibrate_delta({target}, {mode}) gave epsilon {eps}")
        for r, br in zip(self.strategies, responses):
            before, after = ref.epsilon(r.L, r.alice, r.bob), ref.epsilon(br.L, br.alice, br.bob)
            if after > before + 1e-12:
                errors.append(f"best response raised epsilon {before} -> {after}")
            gap = ref.best_response_gap(br.L, br.alice, br.bob)
            if gap > 1e-9:
                errors.append(f"best response misses Re tr(W S) = ||W||_1 by {gap}")
        for (contexts, labels, _), value in zip(self.games, values):
            own = ref.classical_value(contexts, labels)
            expected = Fraction(19, 20) if np.prod(list(labels.values())) < 0 else 1
            if value != own or own != expected:
                errors.append(f"classical_value {value}, own enumeration {own}, expected {expected}")
        return errors


WORKLOADS = {"sweep": Sweep, "junk": Junk, "search": Search}
