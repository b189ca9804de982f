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

# Frobenius-norm tolerance for structural checks (hermiticity, unitarity).
# Far below the physical perturbation scales explored in the sweeps (>= 1e-4)
# and far above double-precision noise.
STRUCTURE_TOL = 1e-10

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


def kron(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_matrix(a), as_matrix(b))


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence, left factor slowest."""
    return reduce(np.kron, [as_matrix(f) for f in factors])


def mul(a, b) -> np.ndarray:
    """Matrix product with an explicit conformability check."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def add(a, b) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} + {b.shape}")
    return a + b


def scale(a, c: complex) -> np.ndarray:
    return as_matrix(a) * c


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entry moduli."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def frobenius_inner(a, b) -> complex:
    """Frobenius inner product tr(a^dagger b)."""
    return complex(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def is_hermitian(a, tol: float = STRUCTURE_TOL) -> bool:
    a = as_matrix(a)
    return a.shape[0] == a.shape[1] and frobenius_norm(a - a.conj().T) <= tol


def controlled(u) -> np.ndarray:
    """Controlled operation with the control qubit as the leading factor.

    Returns ``|0><0| (x) I + |1><1| (x) u``, block-diagonal (I, u).
    """
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"controlled() needs a square matrix, got {u.shape}")
    d = u.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = np.eye(d)
    out[d:, d:] = u
    return out


def embed_on_register(op, position: int, total_registers: int) -> np.ndarray:
    """Embed a 2x2 operator on qubit `position` of a `total_registers` chain.

    Registers are numbered 1..total_registers from the leftmost tensor factor.
    """
    op = as_matrix(op)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {op.shape}")
    if not 1 <= position <= total_registers:
        raise ValueError(f"position {position} out of range 1..{total_registers}")
    return embed_factor(op, position - 1, [2] * total_registers)


def embed_factor(op, slot: int, dims: Sequence[int]) -> np.ndarray:
    """Embed `op` at `slot` (0-based) of a tensor chain with factor sizes `dims`."""
    op = as_matrix(op)
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for {len(dims)} factors")
    if op.shape != (dims[slot], dims[slot]):
        raise ValueError(f"operator shape {op.shape} does not fit factor of size {dims[slot]}")
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[slot] = op
    return kron_all(factors)


def hermitian_eigendecomposition(a, tol: float = STRUCTURE_TOL):
    """Eigendecomposition a = V diag(w) V^dagger of a Hermitian matrix.

    Eigenvalues are returned in ascending order.  Raises ValueError if the
    input deviates from Hermitian by more than `tol` in Frobenius norm.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    dev = frobenius_norm(a - a.conj().T)
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {tol:.3e})")
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
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from None
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
