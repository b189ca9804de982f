"""Every demo script runs to completion and prints its pinned output.

tests/data/demo-<name>.txt holds each demo's stdout byte for byte, and demo
05's is also compared by its numbers, on any BLAS kernel.  Demo 03 stays
bytes-only: on other kernels it prints 0.000e+00 for a weight of about 1e-17
and orders the zero-weight Bell triples differently.  A change that moves a
byte regenerates the file on purpose and logs why.
"""

import runpy
from pathlib import Path

import pytest
from test_cli import assert_same_numbers

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demos whose printed digits come from OpenBLAS's SkylakeX kernel
KERNEL_BYTES = {"03_rigidity_certificate", "05_scaling_study"}


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, marks=pytest.mark.blas_bytes) if p.stem in KERNEL_BYTES else p for p in DEMOS],
    ids=lambda p: p.name,
)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    golden = ROOT / "tests" / "data" / f"demo-{path.stem}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_scaling_study_demo_numbers(capsys):
    runpy.run_path(str(ROOT / "demos" / "05_scaling_study.py"), run_name="__main__")
    golden = ROOT / "tests" / "data" / "demo-05_scaling_study.txt"
    assert_same_numbers(capsys.readouterr().out, golden.read_text())
