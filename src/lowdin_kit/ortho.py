"""Orthogonalization engines and the inverse Lowdin construction.

Basis vectors are matrix columns throughout, so every transform acts on
the right: E = C T. Three engines are provided (sequential Gram-Schmidt
and the symmetric / canonical Lowdin transforms) together with the
inverse map that manufactures a non-orthogonal basis realizing a given
overlap matrix. States over such bases, the closed-form ones too, are in states.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidParameters
from .gram import UNIT_NORM_TOL, GramMatrix, gram_from_vectors
from .linalg import _as_array, _derived, _half_power, _Record

_ORTHONORMALITY_TOL = 1e-8
# Block size of gram_schmidt's triangular inverse.
_INVERSE_BLOCK = 32


class OrthoMethod(Enum):
    GRAM_SCHMIDT = "gram-schmidt"
    LOWDIN_SYMMETRIC = "lowdin-sym"
    LOWDIN_CANONICAL = "lowdin-can"


class BasisSet(_Record):
    """Unit-norm, linearly independent column vectors in an ambient
    orthonormal coordinate system."""

    _fields = ("vectors",)

    def __init__(self, vectors: np.ndarray):
        v = _as_array(vectors, "basis vectors")
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError(f"expected a matrix of column vectors, got shape {v.shape}")
        if v.shape[0] < v.shape[1]:
            raise ValueError(
                f"{v.shape[1]} vectors cannot be independent in ambient dimension {v.shape[0]}"
            )
        self._store({"vectors": v.copy()})
        self.gram  # unit-norm and independence validation

    @cached_property
    def gram(self) -> GramMatrix:
        return gram_from_vectors(self.vectors)

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def num_vectors(self) -> int:
        return self.vectors.shape[1]


class OrthoResult(_Record):
    """Orthonormal basis E, the transform T with E = C T, the Frobenius
    distance of E from the input, and the orthonormality residual
    ||E+ E - I||_F; a plain record, whose E the engines check once."""

    _fields = ("basis", "transform", "method", "distortion", "orthonormality_error")

    def __init__(self, basis: BasisSet, transform: np.ndarray, method: OrthoMethod, distortion: float,
                 orthonormality_error: float):
        self.__dict__.update(basis=basis, transform=transform, method=method, distortion=distortion,
                             orthonormality_error=orthonormality_error)


def _result(basis: BasisSet, transform: np.ndarray, method: OrthoMethod) -> OrthoResult:
    """Form an engine's output columns E = C T and check them once, from one
    E+ E: the residual is its Hermitian part less I, the column norms are
    sqrt((E+ E)_kk) (a directly summed norm to rounding, not bit for bit). A
    failure is the engine's loss of orthonormality, not a fault of the validated
    input, so it is reported with the input's conditioning."""
    out = basis.vectors @ transform
    g = out.conj().T @ out
    deviation = float(np.max(np.abs(np.sqrt(g.diagonal().real) - 1.0)))
    g += g.conj().T  # in place, then halved and less I: the residual
    g *= 0.5
    g.reshape(-1)[:: out.shape[1] + 1] -= 1
    residual = float(np.linalg.norm(g))
    if not (residual <= _ORTHONORMALITY_TOL and deviation <= UNIT_NORM_TOL):  # NaN fails too
        lam = basis.gram.eigen.eigenvalues
        raise InvalidParameters(
            f"{method.value} result is not orthonormal: ||E+E - I||_F = {residual:.3e} "
            f"(limit {_ORTHONORMALITY_TOL:.0e}), column-norm deviation = {deviation:.3e} "
            f"(limit {UNIT_NORM_TOL:.0e}), "
            f"on an input with lambda_min {lam[0]:.3e}, kappa(O) {lam[-1] / lam[0]:.3e}"
        )
    transform.setflags(write=False)
    return OrthoResult(basis=_derived(BasisSet, vectors=out), transform=transform, method=method,
                       distortion=float(np.linalg.norm(out - basis.vectors)), orthonormality_error=residual)


def _resolve_order(d: int, order) -> np.ndarray:
    raw = np.asarray(order)
    if (
        raw.dtype.kind not in "iuf"
        or any(isinstance(k, (bool, np.bool_)) for k in order)
        or not (np.all(np.isfinite(raw)) and np.all(raw % 1 == 0))
    ):
        raise ValueError(f"order {list(order)} must hold integer positions")
    idx = raw.astype(int)
    if sorted(idx.tolist()) != list(range(d)):
        raise ValueError(f"order {list(order)} is not a permutation of 0..{d - 1}")
    return idx


def _upper_inverse(r: np.ndarray) -> np.ndarray:
    """R^{-1} of an upper-triangular R with nonzero diagonal, by blocks
    (Higham, Accuracy and Stability, 2nd ed., ch. 14): one stacked solve
    inverts the b x b diagonal blocks of R, padded with the identity to a
    multiple of b where d is not one, and from the bottom up each block row is
    filled by GEMMs, X_i,>i = -X_ii R_i,>i X_>i,>i, into a new d x d array.
    For d <= b this is solve(R, I)."""
    d = r.shape[0]
    b = min(_INVERSE_BLOCK, d)
    m = -(-d // b) * b
    padded = r
    if m > d:
        padded = np.eye(m, dtype=r.dtype)
        padded[:d, :d] = r
    blocks = np.stack([padded[k:k + b, k:k + b] for k in range(0, m, b)])
    inverses = np.linalg.solve(blocks, np.broadcast_to(np.eye(b), blocks.shape))
    x = np.zeros_like(padded)
    for i in reversed(range(m // b)):
        s, t = slice(i * b, (i + 1) * b), slice((i + 1) * b, m)
        x[s, s] = inverses[i]
        x[s, t] = inverses[i] @ -(padded[s, t] @ x[t, t])
    return x if m == d else x[:d, :d].copy()


def gram_schmidt(basis: BasisSet, order=None) -> OrthoResult:
    """Sequential Gram-Schmidt orthogonalization.

    order is a 0-based permutation; the k-th output vector is built from
    input column order[k], so the result depends on the ordering. The
    first processed vector is returned unchanged (it is already unit
    norm). R comes from LAPACK's Householder QR of C[:, order], T = R^{-1}
    from a blocked triangular inverse, and E = C T, orthonormal to order
    u kappa(C) (u the unit round-off).
    """
    idx = None if order is None else _resolve_order(basis.num_vectors, order)
    r = np.linalg.qr(basis.vectors if idx is None else basis.vectors[:, idx], mode="r")
    # |R_kk| is column k's residual norm, >= sigma_min(C) > 1e-6 on a validated
    # basis. Dividing row k by the phase of R_kk (+-1: LAPACK leaves diag(R)
    # real) gives Gram-Schmidt's R.
    r /= (np.diagonal(r) / np.abs(np.diagonal(r)))[:, None]
    transform = _upper_inverse(r)
    if idx is not None:
        # C[:, idx] = E R, so E = C T with the rows of T = R^{-1} put back in input order.
        transform = transform[np.argsort(idx)]
    return _result(basis, transform, OrthoMethod.GRAM_SCHMIDT)


def lowdin_symmetric(basis: BasisSet) -> OrthoResult:
    """Symmetric (Lowdin) orthogonalization E = C O^{-1/2}.

    Among all orthonormal frames this one minimizes the total Frobenius
    distortion from the input; it is order-independent and preserves any
    permutation symmetry of the overlap matrix. O^{-1/2} comes from the
    Gram's one eigendecomposition and is not cached.
    """
    return _result(basis, _half_power(basis.gram.eigen, -0.5), OrthoMethod.LOWDIN_SYMMETRIC)


def lowdin_canonical(basis: BasisSet) -> OrthoResult:
    """Canonical orthogonalization E = C U D^{-1/2}.

    Aligns the output with the eigenvectors of the overlap matrix. It is
    meant as the variant of choice when the smallest overlap eigenvalue
    approaches zero, but as built from O it still fails its output check on
    accepted inputs, plain random bases at d=256 and kappa(O) 2.5e6 among them.
    """
    eig = basis.gram.eigen
    transform = eig.eigenvectors / np.sqrt(eig.eigenvalues)
    return _result(basis, transform, OrthoMethod.LOWDIN_CANONICAL)


def induce_nonorthogonal(gram: GramMatrix) -> BasisSet:
    """Non-orthogonal basis C = O^{1/2} realizing the given overlaps.

    Fixes the orthonormal frame to the computational basis, so the k-th
    basis vector is the k-th column of O^{1/2}; symmetric
    orthogonalization of the result recovers the computational basis.
    The basis keeps the validated Gram it realizes, which is not proven again.
    """
    return _derived(BasisSet, vectors=gram.sqrt, gram=gram)


def distortion(a: BasisSet, b: BasisSet) -> float:
    """Frobenius distance sqrt(sum_k ||a_k - b_k||^2), columns paired by index."""
    if a.vectors.shape != b.vectors.shape:
        raise DimensionMismatch(
            f"basis shapes {a.vectors.shape} and {b.vectors.shape} differ"
        )
    return float(np.linalg.norm(a.vectors - b.vectors))
