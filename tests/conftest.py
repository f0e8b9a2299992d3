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
