"""Dense complex linear algebra kernels shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with ``dtype=complex`` and two
axes.  Multi-qubit operators use a fixed register ordering: the tensor factor
of register 1 is the leftmost (slowest-varying) index, ancillas are always
appended to the right of the space they extend.
"""

from __future__ import annotations

import json
from functools import reduce
from typing import Sequence

import numpy as np

# The one validation tolerance: the Frobenius-norm deviation every strategy,
# reflection and Hermitian input may show from its axioms.  Far below the
# physical perturbation scales explored in the sweeps (>= 1e-4) and far
# above double-precision noise.
STRUCTURE_TOL = 1e-10

# Slack added to the per-question bound sqrt(80 epsilon) so rounding in a
# perfect strategy's residuals cannot fail it.
BOUND_SLACK = 1e-9

SQRT2 = np.sqrt(2.0)

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
PLUS = np.array([1, 1], dtype=complex) / SQRT2

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")

_BELL = {
    "phi+": np.array([[1, 0], [0, 1]], dtype=complex) / SQRT2,
    "phi-": np.array([[1, 0], [0, -1]], dtype=complex) / SQRT2,
    "psi+": np.array([[0, 1], [1, 0]], dtype=complex) / SQRT2,
    "psi-": np.array([[0, 1], [-1, 0]], dtype=complex) / SQRT2,
}


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence, left factor slowest."""
    return reduce(np.kron, [as_matrix(f) for f in factors])


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entry moduli."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def hermitian_eigendecomposition(a):
    """Eigendecomposition a = V diag(w) V^dagger of a Hermitian matrix.

    Eigenvalues are returned in ascending order.  Raises ValueError if the
    input deviates from Hermitian by more than STRUCTURE_TOL in Frobenius norm.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    dev = frobenius_norm(a - a.conj().T)
    if dev > STRUCTURE_TOL:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {STRUCTURE_TOL:.3e})")
    w, v = np.linalg.eigh(a)
    return w, v


def exp_i_hermitian(h, scale: float) -> np.ndarray:
    """Unitary exp(i*scale*h) for Hermitian h, via eigendecomposition."""
    w, v = hermitian_eigendecomposition(h)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def bell_matrix(kind: str) -> np.ndarray:
    """One of the four 2x2 Bell coefficient matrices (entries 0, +-1/sqrt(2)).

    In the state-as-matrix picture each maximally entangled two-qubit state is
    the 2x2 matrix of its coefficients; "phi+" is I/sqrt(2).
    """
    try:
        return _BELL[kind].copy()
    except KeyError:
        raise ValueError(f"unknown Bell kind {kind!r}, expected one of {BELL_KINDS}") from None


def matrix_to_json(a) -> dict:
    """Encode a matrix as {"rows", "cols", "data"} with row-major [re, im] pairs."""
    a = as_matrix(a)
    data = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the matrix_to_json format."""
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"data must be a list, got {type(data).__name__}")
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError):
        raise ValueError(f"entry {_first_bad_entry(data)} is not a [re, im] pair of numbers") from None
    m = flat.reshape(rows, cols)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _first_bad_entry(data) -> int:
    """Index of the first entry that the [re, im] conversion rejects."""
    for i, entry in enumerate(data):
        try:
            re, im = entry
            complex(re, im)
        except (TypeError, ValueError):
            return i
    return -1


def dump_json(obj, path) -> None:
    """Write JSON deterministically (sorted keys, repr floats)."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
