"""Dense complex Hermitian linear algebra.

Thin layer over LAPACK (via numpy): eigendecomposition, the +-1/2 matrix
powers, the eigenvalue-floor check that words rejections, and the one gate
every Hermitian input passes, Gram and density matrices alike. All pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotPositiveDefinite

# Eigenvalues at or below this floor are treated as numerically singular.
LAMBDA_FLOOR = 1e-12


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigendecomposition m = U diag(eigenvalues) U+ with eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _hermitian_part(m, error=NotHermitian, what: str = "matrix") -> np.ndarray:
    """The Hermitian gate: ValueError unless m is square, non-empty and finite;
    error if max |m_ij - conj(m_ji)| exceeds 1e-10 max(1, ||m||_F). Returns
    m's complex Hermitian part, so roundoff-level asymmetry cannot leak on."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    with np.errstate(over="ignore"):
        tol = 1e-10 * max(1.0, float(np.linalg.norm(a, "fro")))
    if math.isinf(tol):
        # ||m||_F overflows only above about 2**512, and m - m+ may overflow too,
        # so an asymmetry would pass as inf > inf. Measure m * 2**-600
        # instead: exact, bar entries far below the tolerance.
        s = a * 2.0**-600
        tol = 1e-10 * float(np.linalg.norm(s, "fro")) * 2.0**600
        dev = float(np.max(np.abs(s - _ct(s)))) * 2.0**600
        # Halving first keeps the Hermitian part of a huge m finite.
        part = 0.5 * a + 0.5 * _ct(a)
    else:
        at = a.conj().T
        dev = float(np.max(np.abs(a - at)))
        part = a + at
        part *= 0.5
    if dev > tol:
        raise error(f"{what} asymmetry {dev:.3e} exceeds {tol:.3e}")
    return part


def _check_floor(eig: HermitianEigenDecomposition) -> float:
    """Smallest eigenvalue; NotPositiveDefinite if at or below LAMBDA_FLOOR."""
    lam = eig.eigenvalues
    lam_min = float(lam[0])
    if lam_min <= LAMBDA_FLOOR:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lam_min:.3e} is at or below {LAMBDA_FLOOR:.0e} "
            f"(largest eigenvalue {lam[-1]:.3e}, dimension {lam.size})"
        )
    return lam_min


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


def hermitian_eig(m) -> HermitianEigenDecomposition:
    """Diagonalize a Hermitian matrix.

    Raises NotHermitian if the input deviates from Hermiticity beyond
    tolerance, and ConvergenceFailure if the underlying solver gives up.
    The returned eigenvalues are sorted ascending and the eigenvector
    matrix is unitary.
    """
    sym = _hermitian_part(m)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return HermitianEigenDecomposition(eigenvalues, eigenvectors)


def matrix_function(m, exponent: float) -> np.ndarray:
    """Hermitian matrix power m**exponent for exponent in {1/2, -1/2}.

    The input must be positive definite: any eigenvalue at or below
    LAMBDA_FLOOR raises NotPositiveDefinite.
    """
    if exponent not in (0.5, -0.5):
        raise ValueError(f"exponent must be +-1/2, got {exponent!r}")
    eig = hermitian_eig(m)
    _check_floor(eig)
    return _half_power(eig, exponent)


def frobenius_norm(m) -> float:
    """sqrt(sum |m_ij|^2)."""
    a = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return float(np.linalg.norm(a, "fro"))


def condition_number(m) -> float:
    """lambda_max / lambda_min of a Hermitian positive-definite matrix."""
    eig = hermitian_eig(m)
    return float(eig.eigenvalues[-1]) / _check_floor(eig)
