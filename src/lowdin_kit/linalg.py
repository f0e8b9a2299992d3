"""Dense complex Hermitian linear algebra.

Thin layer over LAPACK (via numpy): eigendecomposition, the +-1/2 matrix
powers and the eigenvalue-floor check that words rejections. GramMatrix,
not this module, validates overlap matrices. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotPositiveDefinite

# Eigenvalues at or below this floor are treated as numerically singular.
LAMBDA_FLOOR = 1e-12


def _as_square_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def hermiticity_tolerance(m: np.ndarray) -> float:
    """Absolute tolerance used when deciding whether m is Hermitian."""
    return 1e-10 * max(1.0, float(np.linalg.norm(m, "fro")))


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigendecomposition m = U diag(eigenvalues) U+ with eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _hermitian_part(m: np.ndarray, error=NotHermitian, what: str = "matrix") -> np.ndarray:
    """Raise error if m deviates from Hermiticity beyond tolerance, else
    return its Hermitian part, so roundoff-level asymmetry cannot leak on."""
    with np.errstate(over="ignore"):
        tol = hermiticity_tolerance(m)
    huge = math.isinf(tol)
    if huge:
        # ||m||_F overflows only above about 2**512, and m - m+ may overflow too,
        # so an asymmetry would pass as inf > inf. Measure m * 2**-600
        # instead: exact, bar entries far below the tolerance.
        s = m * 2.0**-600
        tol = 1e-10 * float(np.linalg.norm(s, "fro")) * 2.0**600
        dev = float(np.max(np.abs(s - _ct(s)))) * 2.0**600
    else:
        dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise error(f"{what} asymmetry {dev:.3e} exceeds {tol:.3e}")
    # Halving first keeps the Hermitian part of a huge m finite.
    return 0.5 * m + 0.5 * _ct(m) if huge else 0.5 * (m + m.conj().T)


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
    sym = _hermitian_part(_as_square_complex(m))
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
