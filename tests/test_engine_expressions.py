"""The engines (Gram-Schmidt, symmetric and canonical Lowdin, and the output
check) against their expressions spelled out in plain numpy, bit for bit.

The references are the straightforward forms: the residual 0.5 (G + G+) - I
with a dense identity, the output's column norms from np.linalg.norm(E, axis=0),
C[:, order] and T's rows scattered back for Gram-Schmidt, and its triangular
inverse padded with the identity at every d. The library reads its checks off
the products it already forms; on these inputs every output and every message
keeps its bytes.
"""

import numpy as np
import pytest

from conftest import corpus_rng
from lowdin_kit import (
    BasisSet,
    InvalidParameters,
    LowdinKitError,
    gram_schmidt,
    lowdin_canonical,
    lowdin_symmetric,
)
from lowdin_kit.linalg import _half_power


def _shared_basis(rng, d, eps):
    """d unit columns g + eps G_k in 2d complex dimensions; eps sets lambda_min(O)."""
    n = 2 * d
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = g[:, None] + eps * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    return c / np.linalg.norm(c, axis=0)


def _upper_inverse(r, b=32):
    d = r.shape[0]
    b = min(b, d)
    m = -(-d // b) * b
    padded = np.eye(m, dtype=r.dtype)
    padded[:d, :d] = r
    blocks = np.stack([padded[k:k + b, k:k + b] for k in range(0, m, b)])
    inverses = np.linalg.solve(blocks, np.broadcast_to(np.eye(b), blocks.shape))
    x = np.zeros_like(padded)
    for i in reversed(range(m // b)):
        s, t = slice(i * b, (i + 1) * b), slice((i + 1) * b, m)
        x[s, s] = inverses[i]
        x[s, t] = inverses[i] @ -(padded[s, t] @ x[t, t])
    return x[:d, :d]


def _transform(basis, method, order):
    if method == "gram-schmidt":
        idx = np.arange(basis.num_vectors) if order is None else np.asarray(order)
        r = np.linalg.qr(basis.vectors[:, idx], mode="r")
        r /= (np.diagonal(r) / np.abs(np.diagonal(r)))[:, None]
        transform = np.empty_like(r)
        transform[idx] = _upper_inverse(r)
        return transform
    eig = basis.gram.eigen
    if method == "lowdin-sym":
        return _half_power(eig, -0.5)
    return eig.eigenvectors / np.sqrt(eig.eigenvalues)


def _engine(c, method, order=None):
    """E, T, the distortion and the residual, or the failure, spelled out."""
    basis = BasisSet(c)
    transform = _transform(basis, method, order)
    out = basis.vectors @ transform
    g = out.conj().T @ out
    residual = float(np.linalg.norm(0.5 * (g + g.conj().T) - np.eye(out.shape[1])))
    deviation = float(np.max(np.abs(np.linalg.norm(out, axis=0) - 1.0)))
    if not (residual <= 1e-8 and deviation <= 1e-10):
        lam = basis.gram.eigen.eigenvalues
        raise InvalidParameters(
            f"{method} result is not orthonormal: ||E+E - I||_F = {residual:.3e} "
            f"(limit 1e-08), column-norm deviation = {deviation:.3e} "
            f"(limit 1e-10), "
            f"on an input with lambda_min {lam[0]:.3e}, kappa(O) {lam[-1] / lam[0]:.3e}"
        )
    return out, transform, float(np.linalg.norm(out - basis.vectors)), residual


def _outcome(f, *args):
    try:
        e, t, distortion, residual = f(*args)
        return "ok", e.tobytes(), t.tobytes(), repr(distortion), repr(residual)
    except (ValueError, LowdinKitError) as exc:
        return type(exc).__name__, str(exc)


def _library(c, method, order=None):
    basis = BasisSet(c)
    if method == "gram-schmidt":
        result = gram_schmidt(basis, order)
    else:
        result = {"lowdin-sym": lowdin_symmetric, "lowdin-can": lowdin_canonical}[method](basis)
    return result.basis.vectors, result.transform, result.distortion, result.orthonormality_error


def _cases(d, eps):
    rng = corpus_rng(2300 + d)
    c = _shared_basis(rng, d, eps)
    order = [int(k) for k in rng.permutation(d)]
    return c, [("gram-schmidt", None), ("gram-schmidt", order), ("lowdin-sym", None), ("lowdin-can", None)]


@pytest.mark.parametrize("d", [2, 8, 33, 64])
def test_engines_match_spelled_out_expressions(d):
    c, calls = _cases(d, 0.3)
    for method, order in calls:
        got = _outcome(_library, c, method, order)
        assert got == _outcome(_engine, c, method, order)
        assert got[0] == "ok"


def test_output_check_failure_matches_spelled_out_message():
    # lambda_min(O) about 1e-7: both Lowdin engines lose orthonormality.
    c, calls = _cases(8, 1e-3)
    outcomes = [_outcome(_library, c, method, order) for method, order in calls]
    assert outcomes == [_outcome(_engine, c, method, order) for method, order in calls]
    assert [o[0] for o in outcomes[2:]] == ["InvalidParameters"] * 2


@pytest.mark.parametrize("d", [33, 64])
@pytest.mark.parametrize("permuted", [False, True])
def test_gram_schmidt_transform_owns_exactly_its_entries(d, permuted):
    # At d=33 the triangular inverse works on a 64 x 64 padded buffer; the
    # transform must be its own d x d array, not a view into that buffer.
    c, calls = _cases(d, 0.3)
    order = calls[1][1] if permuted else None
    t = gram_schmidt(BasisSet(c), order).transform
    assert t.shape == (d, d)
    assert t.flags.c_contiguous and not t.flags.writeable
    assert (t.base if t.base is not None else t).size == d * d
