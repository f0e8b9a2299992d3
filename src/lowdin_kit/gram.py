"""Overlap (Gram) matrices of non-orthogonal basis sets.

A GramMatrix is Hermitian positive definite with unit diagonal; it owns
its one eigendecomposition, from which the cached +-1/2 powers used
throughout are derived.
The inner product convention is conjugate-linear in the first slot:
``O_ij = <c_i | c_j> = c_i+ c_j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    GenerationFailure,
    LinearlyDependent,
    NotHermitian,
    NotNormalized,
    NotPositiveDefinite,
)

# How far a basis column's norm and a diagonal entry may deviate from 1
# (looser for the diagonal, which the squared column norms feed).
UNIT_NORM_TOL = 1e-10
DIAG_TOL = 1e-9

_RANDOM_GRAM_TRIES = 1000


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Validated overlap matrix. Immutable; it is diagonalized at most once
    and the powers are computed lazily from that decomposition."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ValueError("overlap matrix needs dimension >= 2")
        if not np.all(np.isfinite(a)):
            raise ValueError("overlap matrix contains non-finite entries")
        a = linalg._hermitian_part(a, NotHermitian, "overlap matrix")
        diag_dev = float(np.max(np.abs(np.diag(a) - 1.0)))
        if diag_dev > DIAG_TOL:
            raise NotNormalized(f"diagonal deviates from 1 by {diag_dev:.3e}")
        off = a - np.eye(a.shape[0])
        if np.any(np.abs(off) >= 1.0):
            raise NotPositiveDefinite("an off-diagonal overlap has magnitude >= 1")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        # Weyl: every eigenvalue lies within ||O - I||_2 <= ||O - I||_F of 1,
        # so below this distance O is proven positive definite and the
        # eigendecomposition can wait until something needs it.
        if np.linalg.norm(off) >= 1.0 - linalg.LAMBDA_FLOOR:
            linalg._check_floor(self.eigen)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigen(self) -> linalg.HermitianEigenDecomposition:
        return linalg.hermitian_eig(self.matrix)

    @cached_property
    def sqrt(self) -> np.ndarray:
        """O^{1/2}, Hermitian, cached."""
        s = linalg._half_power(self.eigen, 0.5)
        s.setflags(write=False)
        return s

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        """O^{-1/2}, Hermitian, cached."""
        s = linalg._half_power(self.eigen, -0.5)
        s.setflags(write=False)
        return s


@dataclass(frozen=True)
class OverlapSpec:
    """Compact pairwise description of an overlap matrix.

    Pairs use 1-based indices (i, j) with i < j, matching the file
    format; unspecified pairs default to zero overlap.
    """

    dim: int
    pairs: tuple = field(default=())

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        for pair in self.pairs:
            if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in pair[:2]):
                raise ValueError(f"overlap pair {pair!r} needs integer indices")
        pairs = tuple((int(i), int(j), complex(v)) for i, j, v in self.pairs)
        seen = set()
        for i, j, v in pairs:
            if not (1 <= i < j <= self.dim):
                raise ValueError(f"pair indices ({i}, {j}) out of range for dim {self.dim}")
            if (i, j) in seen:
                raise ValueError(f"duplicate overlap pair ({i}, {j})")
            seen.add((i, j))
            if abs(v) >= 1.0:
                raise ValueError(f"overlap magnitude |{v}| must be < 1")
        object.__setattr__(self, "pairs", pairs)


def gram_from_vectors(basis) -> GramMatrix:
    """Overlap matrix O_ij = <c_i|c_j> of unit-norm column vectors.

    Accepts a BasisSet or a plain (ambient_dim x d) array of columns.
    Raises NotNormalized for non-unit columns and LinearlyDependent when
    the columns are numerically dependent.
    """
    cols = np.asarray(getattr(basis, "vectors", basis), dtype=complex)
    if cols.ndim != 2:
        raise ValueError(f"expected a 2-d array of column vectors, got shape {cols.shape}")
    norms = np.linalg.norm(cols, axis=0)
    worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if worst > UNIT_NORM_TOL:
        raise NotNormalized(f"a basis column deviates from unit norm by {worst:.3e}")
    overlap = cols.conj().T @ cols
    try:
        return GramMatrix(overlap)
    except NotPositiveDefinite as exc:
        raise LinearlyDependent(str(exc)) from exc


def gram_from_overlaps(spec: OverlapSpec) -> GramMatrix:
    """Assemble a GramMatrix from pairwise overlaps (1-based, i < j)."""
    a = np.eye(spec.dim, dtype=complex)
    for i, j, v in spec.pairs:
        a[i - 1, j - 1] = v
        a[j - 1, i - 1] = np.conj(v)
    return GramMatrix(a)


def random_gram(dim: int, seed: int, overlap_range: tuple[float, float]) -> GramMatrix:
    """Random positive-definite overlap matrix with controlled overlaps.

    Pairwise overlaps are drawn uniformly from overlap_range and the
    assembled matrix is rejected until positive definite. Deterministic
    for a fixed (dim, seed, overlap_range).
    """
    lo, hi = float(overlap_range[0]), float(overlap_range[1])
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if not (-1.0 < lo <= hi < 1.0):
        raise ValueError(f"overlap_range [{lo}, {hi}] must lie within (-1, 1)")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(dim, k=1)
    for _ in range(_RANDOM_GRAM_TRIES):
        a = np.eye(dim, dtype=complex)
        draws = rng.uniform(lo, hi, size=len(iu[0]))
        a[iu] = draws
        a[(iu[1], iu[0])] = draws
        try:
            return GramMatrix(a)
        except NotPositiveDefinite:
            continue
    raise GenerationFailure(
        f"no positive-definite overlap matrix of dim {dim} found in "
        f"{_RANDOM_GRAM_TRIES} draws from [{lo}, {hi}]"
    )
