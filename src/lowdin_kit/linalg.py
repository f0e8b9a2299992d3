"""Dense complex Hermitian linear algebra.

Thin layer over LAPACK (via numpy): eigendecomposition, the +-1/2 matrix
powers, the eigenvalue-floor check that words rejections, and the one gate
every Hermitian input passes, Gram and density matrices alike, once, where it
enters. The Gram's eigendecomposition and rho's PSD check diagonalize the
gate's own output as it is, through hermitian_eig(..., _gated=True). All pure.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotPositiveDefinite

# Eigenvalues at or below this floor are treated as numerically singular.
LAMBDA_FLOOR = 1e-12


class _Record:
    """Base of the package's immutable records. Each record is a plain class
    whose own __init__ fills the instance dict with its _fields once: a plain
    record stores its arguments as given, a validating one checks them and
    stores the finished values through _store. Decorating them as dataclasses
    cost about 10 ms of every process's start-up. Instances are frozen as a
    frozen dataclass's are, and compare by identity."""

    def _store(self, fields: dict):
        """Fill the instance dict once from fields, each ndarray value made
        read-only. It takes a dict, not keywords, so that _derived hands on its
        own unchanged: re-packing it cost about 4 % of the median weights op."""
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only here: importing it costs about 1.5 ms

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _derived(cls, **fields):
    """A record of cls from fields derived from validated inputs, stored by
    _store without cls's checks; a field named after a cached property, as
    BasisSet.gram, fills its cache."""
    obj = object.__new__(cls)
    obj._store(fields)
    return obj


class _ValueRecord(_Record):
    """A record that compares and hashes by its fields, as an eq=True frozen dataclass."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)


class HermitianEigenDecomposition(_Record):
    """Eigendecomposition m = U diag(eigenvalues) U+ with eigenvalues ascending."""

    _fields = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self.__dict__.update(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _as_array(x, what: str, dtype=complex, copy: bool = False) -> np.ndarray:
    """x as an array of dtype, a new one if copy; ValueError naming what where an
    entry is text, which numpy would parse, or too large for a float, as a Python
    integer such as 10**400 is. Only an object array's entries are scanned, and
    an ndarray x is not converted before its dtype is read."""
    a = np.asarray(x)
    kind = a.dtype.kind
    if kind in "SU" or (kind == "O" and any(isinstance(v, (str, bytes)) for v in a.flat)):
        raise ValueError(f"{what}: expected numbers, got text")
    try:
        return np.array(x, dtype=dtype) if copy else np.asarray(x, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{what}: entry too large for a float") from None


def _as_real(x, what: str) -> float:
    """x as a float; ValueError naming what unless x is a real number, not a
    bool or text, within float range. The file parser holds each JSON number to it."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ValueError(f"{what}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what}: integer too large for a float") from None


def _hermitian_part(m, error=NotHermitian, what: str = "matrix") -> tuple[np.ndarray, bool]:
    """The Hermitian gate: ValueError unless m is square, non-empty and finite; error if
    max |m_ij - conj(m_ji)| exceeds 1e-10 max(1, ||m||_F). Returns m's Hermitian part, halved
    as floats into a new array that a second pass returns byte for byte where ||m||_F is finite,
    and whether it is: the part's ||.||_F is at most m's, so no sum of its entries then overflows.
    ||m||_F^2 is one vdot, non-finite on overflow without a warning; a finite one proves m finite."""
    a = _as_array(m, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norm2 = float(np.vdot(a, a).real)
    if math.isfinite(norm2):
        tol = 1e-10 * max(1.0, math.sqrt(norm2))
        at = a.conj().T
        part = np.subtract(a, at, order="C")  # one buffer: m - m+, then the Hermitian part
        dev = float(np.abs(part).max())
        np.add(a, at, out=part)
        halves = part.view(float)  # as floats: x * (0.5 + 0j) may flip a zero's sign
        halves *= 0.5
    elif not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    else:
        # ||m||_F overflows only above about 2**512, and m - m+ may overflow too,
        # so an asymmetry would pass as inf > inf. Measure m * 2**-600
        # instead: exact, bar entries far below the tolerance.
        s = a * 2.0**-600
        tol = 1e-10 * float(np.linalg.norm(s, "fro")) * 2.0**600
        dev = float(np.max(np.abs(s - _ct(s)))) * 2.0**600
        # Halving first keeps the Hermitian part of a huge m finite.
        part = (np.ascontiguousarray(a).view(float) * 0.5).view(complex)
        part += _ct(part)
    if dev > tol:
        raise error(f"{what} asymmetry {dev:.3e} exceeds {tol:.3e}")
    return part, math.isfinite(norm2)


def _check_floor(eig: HermitianEigenDecomposition) -> None:
    """NotPositiveDefinite if the smallest eigenvalue is at or below LAMBDA_FLOOR."""
    lam = eig.eigenvalues
    if lam[0] <= LAMBDA_FLOOR:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lam[0]:.3e} is at or below {LAMBDA_FLOOR:.0e} "
            f"(largest eigenvalue {lam[-1]:.3e}, dimension {lam.size})"
        )


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _half_power(eig: HermitianEigenDecomposition, exponent: float) -> np.ndarray:
    """U diag(lambda**exponent) U+ from a positive-definite decomposition,
    or from a stack of them along leading axes."""
    u = eig.eigenvectors
    powered = (u * eig.eigenvalues[..., None, :] ** exponent) @ _ct(u)
    # Re-Hermitize: exact symmetry is part of the contract.
    return 0.5 * (powered + _ct(powered))


def hermitian_eig(m, *, _gated: bool = False) -> HermitianEigenDecomposition:
    """Diagonalize a Hermitian matrix.

    Raises NotHermitian if the input deviates from Hermiticity beyond
    tolerance, and ConvergenceFailure if the underlying solver gives up.
    The returned eigenvalues are sorted ascending and the eigenvector
    matrix is unitary.

    The package's own callers pass _gated=True with a matrix the gate has
    already returned, which is diagonalized as it is.
    """
    sym = m if _gated else _hermitian_part(m)[0]
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return HermitianEigenDecomposition(eigenvalues, eigenvectors)

