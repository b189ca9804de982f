"""Fuzzed strategy files: every command exits 0, 1 or 2, never with a traceback.

Each example mutates the ideal strategy file in one of its two formats: it
drops or adds a key, swaps a section for a value of another type, resizes a
matrix, replaces one matrix entry with something that is not a pair of
float-valued numbers, or scales the state.  The run is derandomized so the
suite stays deterministic.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pentagram.cli import main
from pentagram.strategies import ideal_strategy, strategy_to_json, to_projective

IDEAL = {
    "reflection": strategy_to_json(ideal_strategy()),
    "projective": strategy_to_json(to_projective(ideal_strategy())),
}
JUNK = [None, True, 0, -3, 2.5, "8", [], [[1.0, 0.0]], {}, {"rows": 1}]
# matrix entries that are not a [re, im] pair of numbers with a float value
BAD_ENTRIES = [[True, 0], [10**400, 0], ["1", 0], [1, 0, 0], [1]]


def _objects_by_depth(obj):
    """Every JSON object in the tree, grouped by depth, the root first."""
    levels = [[obj]]
    while True:
        below = [v for node in levels[-1] for v in node.values() if isinstance(v, dict)]
        if not below:
            return levels
        levels.append(below)


@st.composite
def mutated_files(draw):
    obj = copy.deepcopy(IDEAL[draw(st.sampled_from(sorted(IDEAL)))])
    # depth first, so the few top-level sections are hit as often as the
    # many matrices
    node = draw(st.sampled_from(draw(st.sampled_from(_objects_by_depth(obj)))))
    keys = sorted(node)
    kind = draw(st.sampled_from(["drop", "add", "swap", "resize", "entry", "scale"]))
    if kind == "drop":
        del node[draw(st.sampled_from(keys))]
    elif kind == "add":
        key = draw(st.sampled_from(["99", "0", "H", "11111", "extra"] + keys))
        node[key] = copy.deepcopy(draw(st.sampled_from([node[k] for k in keys] + JUNK)))
    elif kind == "swap":
        node[draw(st.sampled_from(keys))] = draw(st.sampled_from(JUNK))
    elif kind == "resize" and "data" in node:
        rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        n = rows * cols + draw(st.sampled_from([0, 0, 0, -1, 1]))
        node.update(rows=rows, cols=cols, data=[[draw(st.floats(-1, 1)), 0.0] for _ in range(n)])
    elif kind == "entry" and "data" in node:
        index = draw(st.integers(0, len(node["data"]) - 1))
        node["data"][index] = copy.deepcopy(draw(st.sampled_from(BAD_ENTRIES)))
    else:
        state = obj["L"] if "L" in obj else obj["psi"]
        factor = draw(st.sampled_from([0.0, 1 + 5e-9, 1 - 1e-12, 2.0, -1.0]))
        state["data"] = [[factor * re, factor * im] for re, im in state["data"]]
    return obj


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_files())
def test_mutated_file_exits_cleanly(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "strategy.json"
        path.write_text(json.dumps(obj))
        for argv in (["score"], ["certify", "--out", str(Path(tmp) / "report.json")]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--in", str(path)])
            assert code in (0, 1, 2), err.getvalue()
            assert (code == 0) == (err.getvalue() == "")
