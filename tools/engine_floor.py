"""Engine op times against the summed times of their bare LAPACK/BLAS calls.

    python tools/engine_floor.py [--dims 64 256] [--reps 9] [--src SRC]

For each engine and d it builds one basis C of d unit columns g + 0.1 G_k in
n = 2d complex dimensions (g shared, G_k complex Gaussian, from a fixed seed),
and prints three numbers: the median time of one op, `engine(BasisSet(C))`, on
a fresh BasisSet; the sum of the median times of that op's bare numpy.linalg
and matmul calls, each run alone on the operands the op forms, in the same
rounds as the op; and their ratio. What the ratio shows above 1 is the op's
own numpy and Python work around those calls.

The bare calls of every op are C+ C and the Cholesky factorization of O that
the BasisSet's Gram is validated with, plus E = C T and E+ E of the output
check. Gram-Schmidt adds QR (R only) and its blocked triangular inverse: the
stacked solve of the diagonal blocks and two GEMMs per block row. Symmetric
Lowdin adds eigh(O) and the GEMM of O^{-1/2}; canonical adds eigh(O).

SRC (default: this repository's src/) is the source tree imported, so a
parent commit's tree can be measured the same way; the bare inverse uses that
tree's block size. Set one BLAS thread (OPENBLAS_NUM_THREADS=1) for numbers
that compare between runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ENGINES = ("gram_schmidt", "lowdin_symmetric", "lowdin_canonical")


def _median_s(calls: list, reps: int) -> list[float]:
    """Median time of each call over reps rounds; each round runs every call
    once, so a change of machine speed hits all of them alike."""
    for f in calls:
        f()  # warm-up
    times = [[] for _ in calls]
    for _ in range(reps):
        for f, t in zip(calls, times):
            t0 = time.perf_counter()
            f()
            t.append(time.perf_counter() - t0)
    return [statistics.median(t) for t in times]


def _basis(rng, d: int) -> np.ndarray:
    n = 2 * d
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = g[:, None] + 0.1 * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    return c / np.linalg.norm(c, axis=0)


def _inverse_calls(r: np.ndarray, block: int) -> list:
    """The stacked block solve and the block-row GEMMs of R^{-1}, on R padded
    with the identity to a multiple of the block size."""
    d = r.shape[0]
    b = min(block, d)
    m = -(-d // b) * b
    padded = np.eye(m, dtype=r.dtype)
    padded[:d, :d] = r
    x = np.linalg.inv(padded)
    blocks = np.stack([padded[k:k + b, k:k + b] for k in range(0, m, b)])
    rhs = np.broadcast_to(np.eye(b), blocks.shape)
    calls = [lambda: np.linalg.solve(blocks, rhs)]
    for i in range(m // b - 1):
        s, t = slice(i * b, (i + 1) * b), slice((i + 1) * b, m)
        calls += [lambda s=s, t=t: padded[s, t] @ x[t, t], lambda s=s, t=t: x[s, s] @ padded[s, t]]
    return calls


def bare_calls(engine: str, c: np.ndarray, block: int) -> list:
    """The bare numpy calls of one op of engine on C, as zero-argument callables;
    block is gram_schmidt's block size in the tree measured."""
    ch = c.conj().T
    o = ch @ c
    calls = [lambda: ch @ c, lambda: np.linalg.cholesky(o)]
    if engine == "gram_schmidt":
        r = np.linalg.qr(c, mode="r")
        calls += [lambda: np.linalg.qr(c, mode="r"), *_inverse_calls(r, block)]
        t = np.linalg.inv(r)
    else:
        lam, u = np.linalg.eigh(o)
        calls.append(lambda: np.linalg.eigh(o))
        if engine == "lowdin_symmetric":
            ul = u * lam ** -0.5
            uh = u.conj().T
            calls.append(lambda: ul @ uh)
            t = ul @ uh
        else:
            t = u / np.sqrt(lam)
    e = c @ t
    eh = e.conj().T
    return calls + [lambda: c @ t, lambda: eh @ e]


def measure(lk, dims, reps: int) -> list[dict]:
    rng = np.random.default_rng(1)
    rows = []
    for d in dims:
        c = _basis(rng, d)
        for engine in ENGINES:
            op = getattr(lk, engine)
            bare = bare_calls(engine, c, lk.ortho._INVERSE_BLOCK)
            op_s, *bare_s = _median_s([lambda: op(lk.BasisSet(c)), *bare], reps)
            floor_s = sum(bare_s)
            rows.append({"engine": engine, "dim": d, "op_ms": 1e3 * op_s, "floor_ms": 1e3 * floor_s,
                         "ratio": op_s / floor_s})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[64, 256])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import lowdin_kit as lk

    print(f"{'engine':<18}{'d':>5}{'op ms':>11}{'floor ms':>11}{'ratio':>8}")
    for row in measure(lk, args.dims, args.reps):
        print(f"{row['engine']:<18}{row['dim']:>5}{row['op_ms']:>11.3f}{row['floor_ms']:>11.3f}{row['ratio']:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
