"""Strategy files with a junk register, written without the package.

Each strategy is the perfect three-EPR strategy tensored with a k x k junk
register: every ideal observable becomes P (x) I_k and the shared state
becomes (I_8 / sqrt 8) (x) J for a random unit-norm k x k matrix J.  Alice's
operators are then conjugated by one small random unitary per context and
Bob's by one per vertex, each the Cayley transform of delta H for a random
Hermitian H on the whole d = 8k space.  Conjugation per context keeps every
reflection-strategy axiom exact, so the files are valid and score
1 - epsilon with epsilon of order delta**2.  Each strategy is written in both file formats.

Regenerate the files the benchmark certifies with

    python3 perfbench/junk.py --seed 1 --out junk-files
"""

from __future__ import annotations

import argparse
import json
from itertools import product
from pathlib import Path

import numpy as np

from reference import CONTEXTS, IDEAL_OBSERVABLES, LABELS, VERTICES, pauli_word

JUNK_DIM = 4  # k: files have d = 8k = 32
ITEMS = 2  # strategies per seed
DELTA = 0.05  # scale of the conjugating unitaries


def _small_unitary(rng, d: int, delta: float) -> np.ndarray:
    """Cayley transform (I - i delta H)^-1 (I + i delta H), H unit Frobenius norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 1j * delta * (g + g.conj().T) / np.linalg.norm(g + g.conj().T)
    return np.linalg.solve(np.eye(d) - h, np.eye(d) + h)


def junk_strategy(rng, k: int = JUNK_DIM, delta: float = DELTA):
    """(L, alice, bob) of one perturbed ideal strategy with a k x k junk state."""
    d = 8 * k
    ik = np.eye(k)
    obs = {v: np.kron(pauli_word(w), ik) for v, w in IDEAL_OBSERVABLES.items()}
    junk = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    L = np.kron(np.eye(8) / np.sqrt(8.0), junk / np.linalg.norm(junk))
    alice = {}
    for j, vs in CONTEXTS.items():
        u = _small_unitary(rng, d, delta)
        alice[j] = {v: u @ obs[v] @ u.conj().T for v in vs}
    bob = {}
    for v in VERTICES:
        u = _small_unitary(rng, d, delta)
        bob[v] = u @ obs[v] @ u.conj().T
    return L, alice, bob


def _matrix(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": np.stack([a.real.ravel(), a.imag.ravel()], axis=1).tolist(),
    }


def reflection_json(L, alice, bob) -> dict:
    return {
        "dim_a": L.shape[0],
        "dim_b": L.shape[1],
        "L": _matrix(L),
        "R": {j: {str(v): _matrix(m) for v, m in ctx.items()} for j, ctx in alice.items()},
        "S": {str(v): _matrix(m) for v, m in bob.items()},
    }


def projective_json(L, alice, bob) -> dict:
    """psi/M/N form: M keyed by parity-valid bitstrings over sorted vertices."""
    da, db = L.shape
    M = {}
    for j, vs in CONTEXTS.items():
        want = 0 if LABELS[j] == 1 else 1
        M[j] = {}
        for bits in product((0, 1), repeat=len(vs)):
            if sum(bits) % 2 != want:
                continue
            proj = np.eye(da, dtype=complex)
            for b, v in zip(bits, sorted(vs)):
                proj = proj @ ((np.eye(da) + (-1) ** b * alice[j][v]) / 2)
            M[j]["".join(map(str, bits))] = _matrix(proj)
    N = {
        str(v): {"0": _matrix((np.eye(db) + s) / 2), "1": _matrix((np.eye(db) - s) / 2)}
        for v, s in bob.items()
    }
    return {"dim_a": da, "dim_b": db, "psi": _matrix(L.reshape(-1, 1)), "M": M, "N": N}


def write_junk(out: Path, seed: int, items: int = ITEMS) -> list[dict]:
    """Write `items` strategies in both formats; return their arrays and paths."""
    out.mkdir(parents=True, exist_ok=True)
    made = []
    for i in range(items):
        L, alice, bob = junk_strategy(np.random.default_rng([seed, i]))
        files = {}
        for fmt, encode in (("reflection", reflection_json), ("projective", projective_json)):
            files[fmt] = out / f"junk{i}-{fmt}.json"
            files[fmt].write_text(json.dumps(encode(L, alice, bob)))
        made.append({"L": L, "alice": alice, "bob": bob, "files": files})
    return made


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for item in write_junk(args.out, args.seed):
        print(*item["files"].values())


if __name__ == "__main__":
    main()
