"""Shared corpus generation for the test suite.

Set LOWDIN_SEED to change the seed of every randomized corpus; runs are
deterministic for a fixed value.
"""

import os

import numpy as np

from lowdin_kit import BasisSet, GramMatrix, induce_nonorthogonal, random_gram

CORPUS_SEED = int(os.environ.get("LOWDIN_SEED", "20260809"))


def corpus_rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(CORPUS_SEED + offset)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR with phase-fixed diagonal."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_gram_from(rng: np.random.Generator, dim: int, overlap_range=(-0.4, 0.4)) -> GramMatrix:
    return random_gram(dim, int(rng.integers(2**31)), overlap_range)


def random_basis(rng: np.random.Generator, dim: int, ambient: int | None = None,
                 overlap_range=(-0.4, 0.4)) -> BasisSet:
    """Random non-orthogonal basis with controlled overlaps, optionally
    embedded in a larger ambient space by a random isometry."""
    base = induce_nonorthogonal(random_gram_from(rng, dim, overlap_range))
    if ambient is None or ambient == dim:
        return base
    if ambient < dim:
        raise ValueError("ambient must be >= dim")
    iso = random_unitary(ambient, rng)[:, :dim]
    return BasisSet(iso @ base.vectors)


def shared_component_columns(eps: float) -> np.ndarray:
    """Unit columns g + eps G with g 60x1 and G 60x30 Gaussian from
    default_rng(3): nearly dependent, yet accepted by the validators
    (lambda_min(O) is about 7.8e-8 at eps = 1e-3, 7.8e-10 at 1e-4)."""
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((60, 1)) + eps * rng.standard_normal((60, 30))
    return cols / np.linalg.norm(cols, axis=0)


def edge_psd_densities() -> dict:
    """Two-level (s, rho) pairs whose rho is indefinite by a few 1e-12, so
    the -1e-10 PSD floor of DensityOperator accepts it.

    "weight": rho proportional to O^{-1/2} diag(1 + d, -d) O^{-1/2} at
    s = 0.3 with d = 5e-12, so rho_L = diag(1 + d, -d): a Lowdin weight
    of -5e-12.
    "congruence": rho = (1 + e) v1 v1+ - e v2 v2+ at s = 0.95 with
    e = 5e-12, v1 and v2 the eigenvectors of O for 1 - s and 1 + s; the
    congruence scales the negative eigenvalue by (1 + s) / (1 - s), to
    about -1.95e-10."""
    s, d = 0.3, 5e-12
    lam, u = np.linalg.eigh(np.array([[1.0, s], [s, 1.0]]))
    inv_half = (u / np.sqrt(lam)) @ u.T
    rho = inv_half @ np.diag([1.0 + d, -d]) @ inv_half
    out = {"weight": (s, rho / np.trace(rho))}
    s, e = 0.95, 5e-12
    v1, v2 = np.array([1.0, -1.0]) / np.sqrt(2.0), np.array([1.0, 1.0]) / np.sqrt(2.0)
    out["congruence"] = (s, (1.0 + e) * np.outer(v1, v1) - e * np.outer(v2, v2))
    return out
