"""Spans around the package's public functions, installed from outside.

The tracer replaces each listed function in every ``pentagram`` module
namespace that holds it, so calls through ``from .linalg import ...`` names
and calls inside the defining module are both seen.  Spans (name, start,
end, parent, op id) stay in memory until the run ends.  A function the
package no longer has is skipped: it reports zero calls and its time falls
into its caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Layer -> public functions wrapped in the traced run.
LAYERS = {
    "linalg": ("matrix_from_json", "dump_json", "exp_i_hermitian"),
    "game": ("classical_value",),
    "strategies": ("validate", "losing_terms", "load_reflection", "to_reflection"),
    "rigidity": ("certify", "build_isometry", "operator_residuals", "extract_state", "word_residual"),
    "optimize": ("scaling_study", "perturb_ideal", "calibrate_delta", "bob_best_response"),
    "cli": ("main",),
}
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "pentagram" or n.startswith("pentagram.")]
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"pentagram.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def layer_metrics(self, ops: int, src: Path) -> dict[str, tuple[float, str]]:
        """calls_per_op and self_ms_per_op per wrapped function, src_lines per layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - inner
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls_per_op"] = (calls[name] / ops, "count")
            out[f"{name}.self_ms_per_op"] = (1e3 * self_s[name] / ops, "ms")
        for layer in LAYERS:
            path = src / "pentagram" / f"{layer}.py"
            lines = len(path.read_text().splitlines()) if path.exists() else 0
            out[f"{layer}.src_lines"] = (lines, "lines")
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
