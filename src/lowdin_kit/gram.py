"""Overlap (Gram) matrices of non-orthogonal basis sets.

A GramMatrix is Hermitian positive definite with unit diagonal. Past the
gate every Hermitian input passes where it enters (linalg._hermitian_part)
it checks the overlap rules, and one Cholesky factorization, with an
eigendecomposition only where that fails, proves it positive definite. Its
one eigendecomposition is computed only when something needs it, of the
gate's own output as it is (linalg.hermitian_eig); the cached O^{1/2} and
the O^{-1/2} of the symmetric Lowdin engine derive from it.
The inner product convention is conjugate-linear in the first slot:
``O_ij = <c_i | c_j> = c_i+ c_j``.
"""

from __future__ import annotations

from functools import cached_property
from numbers import Number

import numpy as np

from . import linalg
from .errors import LinearlyDependent, NotHermitian, NotNormalized, NotPositiveDefinite

# How far a basis column's norm and a diagonal entry may deviate from 1
# (looser for the diagonal, which the squared column norms feed).
UNIT_NORM_TOL = 1e-10
DIAG_TOL = 1e-9

_EPS = float(np.finfo(float).eps)


class GramMatrix(linalg._Record):
    """Validated overlap matrix. Immutable. One |O - I| serves the unit-diagonal
    check and the one check of |O_ij| < 1, for dense and pairwise input alike;
    one Cholesky factorization proves it positive definite, and only where that
    fails does the spectrum decide. It is diagonalized at most once, on first
    use of `eigen` or `sqrt`."""

    _fields = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        if np.shape(matrix) in ((0, 0), (1, 1)):
            raise ValueError("overlap matrix needs dimension >= 2")
        a = linalg._hermitian_part(matrix, NotHermitian, "overlap matrix")[0]
        d = a.shape[0]
        off = a.copy()  # O - I; later the Cholesky operand O - sigma I
        off.reshape(-1)[:: d + 1] -= 1
        mags = np.abs(off)  # |O - I|, for both scans
        diag_dev = float(mags.diagonal().max())
        if diag_dev > DIAG_TOL:
            raise NotNormalized(f"diagonal deviates from 1 by {diag_dev:.3e}")
        if mags.max() >= 1.0:
            mags = np.triu(mags)
            i, j = np.unravel_index(np.argmax(mags), mags.shape)
            raise NotPositiveDefinite(
                f"an off-diagonal overlap has magnitude >= 1: |O_ij| = {mags[i, j]:.6g} at ({i + 1}, {j + 1})"
            )
        del mags  # freed before the Cholesky, which holds O - sigma I and its factor
        self._store({"matrix": a})  # before the Cholesky: its fallback, self.eigen, reads it
        # A computed Cholesky factor of O - sigma I (|entries| <= 1 by the
        # scan above) is exact for a perturbation of 2-norm <= (d+1) d u
        # (Higham, Accuracy and Stability, 2nd ed., Thm 10.3), and eigh's
        # lambda_min errs by the same order. With sigma the floor plus four
        # times that, a factor proves that eigh would put lambda_min above
        # the floor; without one the spectrum decides.
        sigma = linalg.LAMBDA_FLOOR + 4.0 * (d + 1) * d * _EPS / 2
        off.reshape(-1)[:: d + 1] = a.diagonal() - sigma  # off's diagonal, in place
        try:
            np.linalg.cholesky(off)
        except np.linalg.LinAlgError:
            linalg._check_floor(self.eigen)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigen(self) -> linalg.HermitianEigenDecomposition:
        return linalg.hermitian_eig(self.matrix, _gated=True)

    @cached_property
    def sqrt(self) -> np.ndarray:
        """O^{1/2}, Hermitian, cached."""
        s = linalg._half_power(self.eigen, 0.5)
        s.setflags(write=False)
        return s


def _gram2(s: float) -> GramMatrix:
    return GramMatrix(np.array([[1.0, s], [s, 1.0]], dtype=complex))


def _is_integer(k) -> bool:
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _check_dim(dim) -> None:
    if not _is_integer(dim):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if dim < 2:
        raise ValueError("dim must be >= 2")


class OverlapSpec(linalg._ValueRecord):
    """Compact pairwise description of an overlap matrix.

    Pairs are (i, j, value) with 1-based integer indices i < j, matching
    the file format, and a number (not a bool) within float range as the
    value; unspecified pairs default to zero overlap.
    """

    _fields = ("dim", "pairs")

    def __init__(self, dim: int, pairs: tuple = ()):
        _check_dim(dim)
        try:
            pairs = iter(pairs)
        except TypeError:
            raise ValueError(f"overlap pairs must be an iterable of (i, j, value), got {pairs!r}") from None
        checked = []
        for pair in pairs:
            if not isinstance(pair, (tuple, list)) or len(pair) != 3:
                raise ValueError(f"overlap pair {pair!r} must be (i, j, value)")
            if not all(_is_integer(k) for k in pair[:2]):
                raise ValueError(f"overlap pair {pair!r} needs integer indices")
            if not isinstance(pair[2], Number) or isinstance(pair[2], bool):
                raise ValueError(f"overlap pair {pair!r} needs a numeric value")
            try:
                checked.append((int(pair[0]), int(pair[1]), complex(pair[2])))
            except OverflowError:
                raise ValueError(f"overlap pair {pair!r} needs a value within float range") from None
        seen = set()
        for i, j, v in checked:
            if not (1 <= i < j <= dim):
                raise ValueError(f"pair indices ({i}, {j}) out of range for dim {dim}")
            if (i, j) in seen:
                raise ValueError(f"duplicate overlap pair ({i}, {j})")
            seen.add((i, j))
        self._store({"dim": dim, "pairs": tuple(checked)})


def gram_from_vectors(basis) -> GramMatrix:
    """Overlap matrix O_ij = <c_i|c_j> of unit-norm column vectors.

    Accepts a BasisSet or a plain (ambient_dim x d) array of columns.
    Raises ValueError for non-finite entries, NotNormalized for non-unit
    columns and LinearlyDependent when the columns are numerically dependent.
    The column norms are read from O's diagonal, sqrt(O_kk), equal to a directly
    summed norm to rounding, not bit for bit; C's entries are scanned only where
    one is non-finite, as a non-finite entry makes it.
    """
    cols = linalg._as_array(getattr(basis, "vectors", basis), "basis vectors")
    if cols.ndim != 2:
        raise ValueError(f"expected a 2-d array of column vectors, got shape {cols.shape}")
    with np.errstate(all="ignore"):  # a non-finite O is refused below
        overlap = cols.conj().T @ cols
    norms = np.sqrt(overlap.diagonal().real)
    worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if not worst <= UNIT_NORM_TOL:  # NaN too
        if not np.isfinite(worst) and not np.isfinite(cols).all():
            raise ValueError("basis vectors contain non-finite entries")
        raise NotNormalized(f"a basis column deviates from unit norm by {worst:.3e}")
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
    """Random positive-definite overlap matrix with controlled overlaps, drawn once.

    The d(d-1)/2 real overlaps of a symmetric A with zero diagonal are drawn
    uniformly from overlap_range = (lo, hi), and I + A is returned when it is
    a valid Gram. Otherwise lambda_min(A) is about -1 or below, and
    I + A / (2 |lambda_min(A)|) is returned instead, with lambda_min 1/2: every
    overlap is scaled toward 0, by a factor of about 1/2 or less, so it stays
    inside any overlap_range that contains 0. Generation never fails, and it
    is deterministic for a fixed (dim, seed, overlap_range); seed is a
    non-negative integer, and lo and hi are real numbers, not bools or text.
    """
    _check_dim(dim)
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if np.shape(overlap_range) != (2,):
        raise ValueError(f"overlap_range {overlap_range!r} must be a pair (lo, hi)")
    lo, hi = (linalg._as_real(v, "overlap_range") for v in overlap_range)
    if not (-1.0 < lo <= hi < 1.0):
        raise ValueError(f"overlap_range [{lo}, {hi}] must lie within (-1, 1)")
    iu = np.triu_indices(dim, k=1)
    a = np.zeros((dim, dim))
    a[iu] = np.random.default_rng(seed).uniform(lo, hi, size=len(iu[0]))
    a += a.T
    try:
        return GramMatrix(np.eye(dim) + a)
    except NotPositiveDefinite:
        return GramMatrix(np.eye(dim) + a * (0.5 / abs(np.linalg.eigvalsh(a)[0])))
