"""Orthogonalization engines and the inverse Lowdin construction.

Basis vectors are matrix columns throughout, so every transform acts on
the right: E = C T. Three engines are provided (sequential Gram-Schmidt
and the symmetric / canonical Lowdin transforms) together with the
inverse map that manufactures a non-orthogonal basis realizing a given
overlap matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateStep,
    DimensionMismatch,
    InvalidParameters,
    LowdinKitError,
    UnsupportedDimension,
)
from .gram import GramMatrix, gram_from_vectors
from .states import PureState

_ORTHONORMALITY_TOL = 1e-8


class OrthoMethod(Enum):
    GRAM_SCHMIDT = "gram-schmidt"
    LOWDIN_SYMMETRIC = "lowdin-sym"
    LOWDIN_CANONICAL = "lowdin-can"


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Unit-norm, linearly independent column vectors in an ambient
    orthonormal coordinate system."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError(f"expected a matrix of column vectors, got shape {v.shape}")
        if v.shape[0] < v.shape[1]:
            raise ValueError(
                f"{v.shape[1]} vectors cannot be independent in ambient dimension {v.shape[0]}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
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


@dataclass(frozen=True, eq=False)
class OrthoResult:
    """Orthonormal basis E, the transform T with E = C T, the Frobenius
    distance of E from the input, and the orthonormality residual
    ||E+ E - I||_F."""

    basis: BasisSet
    transform: np.ndarray
    method: OrthoMethod
    distortion: float
    orthonormality_error: float = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.transform, dtype=complex)
        t.setflags(write=False)
        object.__setattr__(self, "transform", t)
        residual = float(np.linalg.norm(self.basis.gram.matrix - np.eye(self.basis.num_vectors)))
        object.__setattr__(self, "orthonormality_error", residual)
        if residual > _ORTHONORMALITY_TOL:
            raise InvalidParameters(f"result basis not orthonormal, residual {residual:.3e}")
        if self.distortion < 0:
            raise ValueError("distortion must be non-negative")


def _result(basis: BasisSet, out: np.ndarray, transform, method: OrthoMethod) -> OrthoResult:
    """Validate an engine's output columns E = C T. A failed check there
    is the engine's loss of orthonormality, not a fault of the input, so
    it is reported with the input's conditioning."""
    try:
        return OrthoResult(
            basis=BasisSet(out),
            transform=transform,
            method=method,
            distortion=float(np.linalg.norm(out - basis.vectors)),
        )
    except LowdinKitError as exc:
        loss = float(np.linalg.norm(out.conj().T @ out - np.eye(out.shape[1])))
        lam = basis.gram.eigen.eigenvalues
        raise InvalidParameters(
            f"{method.value} result is not orthonormal: ||E+E - I||_F = {loss:.3e} "
            f"on an input with lambda_min {lam[0]:.3e}, kappa(O) {lam[-1] / lam[0]:.3e} "
            f"(output check: {exc})"
        ) from exc


def _resolve_order(d: int, order) -> np.ndarray:
    if order is None:
        return np.arange(d)
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


# Columns per block step of the Gram-Schmidt kernel. Larger blocks move
# more of the projection work into matrix-matrix products but lengthen
# the column-at-a-time steps inside each block. At d=256 (n=512), with one
# OpenBLAS thread on a 2-vCPU x86-64 VM, the kernel ran about 5 % slower
# with 16 or 64 than with 32.
_GS_BLOCK = 32


def _gram_schmidt_columns(cols: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block classical Gram-Schmidt on the given columns, processed in order.

    Returns (E, R). Output column k of E is the orthonormalized image of
    input column order[k]; R is upper triangular with a real positive
    diagonal and cols[:, order] = E R. Projections use the ambient inner
    product, conjugate-linear in the first slot, and every coefficient is
    taken against the original column, R[i, k] = e_i+ c, as classical
    Gram-Schmidt does. Only the summation is blocked: one matrix-matrix
    product projects a block of _GS_BLOCK columns onto all finished
    columns, then the block's own columns are done one at a time.
    """
    n, d = cols.shape
    et = np.empty((d, n), dtype=cols.dtype)  # E transposed: rows are outputs
    r = np.zeros((d, d), dtype=cols.dtype)
    for k0 in range(0, d, _GS_BLOCK):
        k1 = min(k0 + _GS_BLOCK, d)
        blk = cols[:, order[k0:k1]]
        blk_c = blk.conj()
        done = et[:k0]
        h = (done @ blk_c).conj()
        r[:k0, k0:k1] = h
        vt = blk.T - h.T @ done
        for k in range(k0, k1):
            prior = et[k0:k]
            hk = (prior @ blk_c[:, k - k0]).conj()
            v = vt[k - k0] - hk @ prior
            norm = np.linalg.norm(v)
            if norm <= 1e-10:
                raise DegenerateStep(f"residual norm {norm:.3e} at step {k + 1}")
            et[k] = v / norm
            r[k0:k, k] = hk
            r[k, k] = norm
    return np.ascontiguousarray(et.T), r


def gram_schmidt(basis: BasisSet, order=None) -> OrthoResult:
    """Sequential Gram-Schmidt orthogonalization.

    order is a 0-based permutation; the k-th output vector is built from
    input column order[k], so the result depends on the ordering. The
    first processed vector is returned unchanged (it is already unit
    norm).
    """
    idx = _resolve_order(basis.num_vectors, order)
    out, r = _gram_schmidt_columns(basis.vectors, idx)
    # C[:, idx] = E R, so E = C T with the rows of T = R^{-1} put back in
    # input order.
    transform = np.empty_like(r)
    transform[idx] = np.linalg.solve(r, np.eye(len(idx)))
    return _result(basis, out, transform, OrthoMethod.GRAM_SCHMIDT)


def lowdin_symmetric(basis: BasisSet) -> OrthoResult:
    """Symmetric (Lowdin) orthogonalization E = C O^{-1/2}.

    Among all orthonormal frames this one minimizes the total Frobenius
    distortion from the input; it is order-independent and preserves any
    permutation symmetry of the overlap matrix.
    """
    transform = basis.gram.inv_sqrt
    return _result(basis, basis.vectors @ transform, transform, OrthoMethod.LOWDIN_SYMMETRIC)


def lowdin_canonical(basis: BasisSet) -> OrthoResult:
    """Canonical orthogonalization E = C U D^{-1/2}.

    Aligns the output with the eigenvectors of the overlap matrix; the
    variant of choice when the smallest overlap eigenvalue approaches
    zero.
    """
    eig = basis.gram.eigen
    transform = eig.eigenvectors / np.sqrt(eig.eigenvalues)
    return _result(basis, basis.vectors @ transform, transform, OrthoMethod.LOWDIN_CANONICAL)


def induce_nonorthogonal(gram: GramMatrix) -> BasisSet:
    """Non-orthogonal basis C = O^{1/2} realizing the given overlaps.

    Fixes the orthonormal frame to the computational basis, so the k-th
    basis vector is the k-th column of O^{1/2}; symmetric
    orthogonalization of the result recovers the computational basis.
    """
    return BasisSet(gram.sqrt)


def distortion(a: BasisSet, b: BasisSet) -> float:
    """Frobenius distance sqrt(sum_k ||a_k - b_k||^2), columns paired by index."""
    if a.vectors.shape != b.vectors.shape:
        raise DimensionMismatch(
            f"basis shapes {a.vectors.shape} and {b.vectors.shape} differ"
        )
    return float(np.linalg.norm(a.vectors - b.vectors))


def maximally_coherent_image(d2_gram: GramMatrix, sign: int) -> PureState:
    """Image of the 2-d maximally coherent state (|1> +- |2>)/sqrt(2) in
    the non-orthogonal basis: coefficients (1, +-1)/sqrt(2 (1 +- s)).
    """
    if d2_gram.dim != 2:
        raise UnsupportedDimension(f"defined for dimension 2, got {d2_gram.dim}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    s = d2_gram.matrix[0, 1]
    if abs(s.imag) > 1e-12:
        raise InvalidParameters("requires a real overlap between the two basis states")
    lam = 1.0 + sign * s.real
    coeffs = np.array([1.0, float(sign)]) / np.sqrt(2.0 * lam)
    return PureState(d2_gram, coeffs)
