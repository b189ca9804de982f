"""Command-line surface: file I/O, batch runs, plot-ready exports.

Exit codes: 0 success, 1 malformed input, 2 validation failure, 3 internal
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .game import STANDARD_GAME, classical_value
from .linalg import STRUCTURE_TOL, dump_json
from .optimize import MODES, PerturbationSpec, perturb_ideal, rows_to_csv, scaling_study
from .rigidity import PHI_TRIPLE, certify, report_to_json
from .strategies import (
    InvalidStrategyError,
    ideal_strategy,
    losing_terms,
    score,
    strategy_from_json,
    strategy_to_json,
    to_projective,
    to_reflection,
    validate,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None
        except ValueError as exc:  # a syntax error, undecodable bytes or a repeated key
            raise ValueError(f"{path}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, refusing a repeated key, whose last value json would silently keep."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicate key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


def _load(path: str):
    """The strategy in a file of either format, in reflection form."""
    # the document (9 MB at d = 32) is freed when strategy_from_json returns, before a projective strategy converts
    return to_reflection(strategy_from_json(_read_json(path)))


def _write_strategy(r, path: str, fmt: str) -> None:
    dump_json(strategy_to_json(to_projective(r) if fmt == "projective" else r), path)


def _cmd_value(args) -> int:
    both = args.classical == args.quantum  # neither flag or both: both values, each with its prefix
    if both or args.classical:
        value = classical_value(STANDARD_GAME)
        print(f"{'classical: ' if both else ''}{value} = {float(value)}")
    if both or args.quantum:
        print(f"{'quantum: ' if both else ''}{score(ideal_strategy()):.12f}")
    return 0


def _cmd_score(args) -> int:
    r = _load(args.infile)
    print(f"{score(r):.12f}")
    for (j, v), term in losing_terms(r).items():
        print(f"{j} {v} {term:.12f}")
    return 0


def _cmd_validate(args) -> int:
    report = validate(strategy_from_json(_read_json(args.infile)), args.tol)
    for name, dev in report.deviations().items():
        print(f"{name} {dev:.12e}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def _cmd_certify(args) -> int:
    report = certify(_load(args.infile))
    dump_json(report_to_json(report), args.out)
    print(f"epsilon {report.epsilon:.12e}")
    print(f"state_residual {report.state_residual:.12e}")
    print(f"bell_weight_phi+++ {report.bell_weights[PHI_TRIPLE]:.12f}")
    return 0


def _cmd_export_ideal(args) -> int:
    _write_strategy(ideal_strategy(), args.out, args.format)
    return 0


def _cmd_perturb(args) -> int:
    r = perturb_ideal(PerturbationSpec(args.delta, args.seed, args.mode))
    _write_strategy(r, args.out, args.format)
    return 0


def _cmd_scaling_study(args) -> int:
    rows, fit = scaling_study(args.deltas, args.samples, args.seed, mode=args.mode)
    with open(args.out, "w") as fh:
        fh.write(rows_to_csv(rows))
    dump_json(fit, args.summary)
    slope = "n/a" if fit["slope"] is None else f"{fit['slope']:.6f}"
    print(f"slope {slope}  max_ratio_state {fit['max_ratio_state']:.3f}  n_rows {fit['n_rows']}")
    return 0


def _deltas(text: str) -> list[float]:
    try:
        return [float(d) for d in text.split(",") if d]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pentagram", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="print the game's classical and quantum values")
    p.add_argument("--classical", action="store_true")
    p.add_argument("--quantum", action="store_true")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("score", help="score a strategy file and list its 20 losing terms")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("validate", help="check the reflection-strategy axioms")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=float, default=STRUCTURE_TOL)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("certify", help="write the full rigidity certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("export-ideal", help="write the perfect three-EPR-pair strategy")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("reflection", "projective"), default="reflection")
    p.set_defaults(func=_cmd_export_ideal)

    p = sub.add_parser("perturb", help="write a perturbed copy of the ideal strategy")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=MODES, default="combined")
    p.add_argument("--format", choices=("reflection", "projective"), default="reflection")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("scaling-study", help="sweep delta, certify samples, fit the epsilon scaling")
    p.add_argument("--deltas", type=_deltas, required=True, help="comma-separated ascending positive deltas")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV of per-sample rows")
    p.add_argument("--summary", required=True, help="JSON fit summary")
    p.add_argument("--mode", choices=MODES, default="combined")
    p.set_defaults(func=_cmd_scaling_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except InvalidStrategyError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
