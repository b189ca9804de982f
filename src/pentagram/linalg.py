"""Dense complex linear algebra kernels shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with ``dtype=complex`` and two
axes.  Multi-qubit operators use a fixed register ordering: the tensor factor
of register 1 is the leftmost (slowest-varying) index, ancillas are always
appended to the right of the space they extend.
"""

from __future__ import annotations

import ctypes
import json
import threading
from contextlib import contextmanager
from functools import cache, reduce
from itertools import chain
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

_BELL = {
    "phi+": np.array([[1, 0], [0, 1]], dtype=complex) / SQRT2,
    "phi-": np.array([[1, 0], [0, -1]], dtype=complex) / SQRT2,
    "psi+": np.array([[0, 1], [1, 0]], dtype=complex) / SQRT2,
    "psi-": np.array([[0, 1], [-1, 0]], dtype=complex) / SQRT2,
}
BELL_KINDS = tuple(_BELL)


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


def _frobenius_norms(a: np.ndarray) -> np.ndarray:
    """frobenius_norm of each matrix of a (..., m, n) stack, bit for bit.

    np.linalg.norm over axes rounds differently from the whole-matrix norm,
    so each slice gets the same two dot products over its strided real and
    imaginary views that frobenius_norm computes: a row-times-column matmul
    calls, slice by slice, the same BLAS dot as ndarray.dot.
    """
    flat = np.ascontiguousarray(a, dtype=complex).reshape(-1, 1, a.shape[-2] * a.shape[-1])
    re, im = flat.real, flat.imag
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq).reshape(a.shape[:-2])


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _exp_i_eigen(w: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """Unitary exp(i*scale*h) from the eigendecomposition (w, v) of a Hermitian stack h.

    Every matrix of the stack is exponentiated in one pass; callers that
    exponentiate one h at many scales decompose it once.
    """
    return (v * np.exp(1j * scale * w)[..., None, :]) @ _dagger(v)


@cache
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, by name among what numpy links, or None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# Held from _one_blas_thread's save to its restore, so scopes in different threads take turns on the global count.
_BLAS_SCOPE = threading.RLock()


@contextmanager
def _one_blas_thread():
    """Run the enclosed products on one OpenBLAS thread, then restore the previous, process-global count; nestable.

    At 2 threads OpenBLAS 0.3.31 spins a second thread ~100 ms on a 64x32x32 zgemm; on Haswell's kernel it moves bits.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    with _BLAS_SCOPE:
        previous = get()
        set_(1)
        try:
            yield
        finally:
            set_(previous)


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
    data = np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the matrix_to_json format."""
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from None
    for name, n in (("rows", rows), ("cols", cols)):
        if type(n) is not int:
            raise ValueError(f"{name} must be an integer, got {n!r}")
    if not isinstance(data, list):
        raise ValueError(f"data must be a list, got {type(data).__name__}")
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
    try:
        parts = list(chain.from_iterable(data)) if set(map(len, data)) == {2} else None
        # exact types: a JSON boolean is not a number, nor is a str or a list
        if parts is None or not set(map(type, parts)) <= {int, float}:
            raise TypeError
        m = np.fromiter(parts, float, len(parts)).view(complex).reshape(rows, cols)
    except (TypeError, OverflowError):
        raise ValueError(f"entry {_first_bad_entry(data)} is not a [re, im] pair of numbers") from None
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _first_bad_entry(data) -> int:
    """Index of the first entry that matrix_from_json's [re, im] decoding rejects."""
    for i, entry in enumerate(data):
        try:
            if len(entry) != 2 or not {type(x) for x in entry} <= {int, float}:
                return i
            complex(*entry)
        except (TypeError, OverflowError):
            return i
    return -1


def dump_json(obj, path) -> None:
    """Write JSON deterministically (sorted keys, repr floats), encoded whole and written in one call."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
