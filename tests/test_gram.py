import re

import numpy as np
import pytest

from conftest import corpus_rng, random_basis, random_gram_from
from lowdin_kit import (
    BasisSet,
    GenerationFailure,
    GramMatrix,
    LinearlyDependent,
    NotHermitian,
    NotNormalized,
    NotPositiveDefinite,
    OverlapSpec,
    gram_from_overlaps,
    gram_from_vectors,
    hermitian_eig,
    induce_nonorthogonal,
    matrix_function,
    random_gram,
)

S_PHI = (1.0 + np.sqrt(2.0)) / np.sqrt(6.0)


def overlap2(s):
    return gram_from_overlaps(OverlapSpec(2, [(1, 2, s)]))


class TestGramFromVectors:
    def test_orthonormal_basis(self):
        g = gram_from_vectors(np.eye(4))
        assert np.allclose(g.matrix, np.eye(4), atol=1e-15)

    def test_equivalent_representation_overlap(self):
        c1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        c2 = np.array([np.sqrt(2.0), 1.0]) / np.sqrt(3.0)
        g = gram_from_vectors(np.column_stack([c1, c2]))
        assert g.matrix[0, 1].real == pytest.approx(S_PHI, abs=1e-14)
        assert S_PHI == pytest.approx(0.9856, abs=1e-4)

    def test_plane_pair(self):
        cols = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
        g = gram_from_vectors(cols)
        assert g.matrix[0, 1].real == pytest.approx(0.5, abs=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            gram_from_vectors(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_dependent_columns(self):
        with pytest.raises(LinearlyDependent):
            gram_from_vectors(np.column_stack([np.array([1.0, 0.0]), np.array([1.0, 0.0])]))

    def test_conjugation_convention(self):
        # O_12 = <c_1|c_2> = c_1+ c_2, conjugate-linear in the first slot
        c1 = np.array([1.0, 0.0], dtype=complex)
        c2 = np.array([0.6, 0.8j], dtype=complex)
        g = gram_from_vectors(np.column_stack([c1, c2]))
        assert g.matrix[0, 1] == pytest.approx(0.6 + 0.0j, abs=1e-15)
        c3 = np.array([0.0, 1.0], dtype=complex)
        g2 = gram_from_vectors(np.column_stack([c2, c3]))
        assert g2.matrix[0, 1] == pytest.approx(np.conj(0.8j), abs=1e-15)


class TestGramFromOverlaps:
    def test_half_overlap(self):
        g = overlap2(0.5)
        assert np.allclose(g.matrix.real, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)

    def test_empty_spec_is_identity(self):
        g = gram_from_overlaps(OverlapSpec(3))
        assert np.array_equal(g.matrix, np.eye(3))

    def test_golden_pattern_is_positive_definite(self):
        g = gram_from_overlaps(OverlapSpec(3, [(1, 2, -0.3), (1, 3, 0.3), (2, 3, 0.3)]))
        assert float(hermitian_eig(g.matrix).eigenvalues[0]) > 0

    def test_rejects_inconsistent_overlaps(self):
        with pytest.raises(NotPositiveDefinite):
            gram_from_overlaps(OverlapSpec(3, [(1, 2, 0.9), (1, 3, 0.9), (2, 3, -0.9)]))

    def test_complex_overlap_supported(self):
        g = gram_from_overlaps(OverlapSpec(2, [(1, 2, 0.3 + 0.4j)]))
        assert g.matrix[1, 0] == pytest.approx(0.3 - 0.4j, abs=1e-15)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OverlapSpec(2, [(2, 1, 0.5)])
        with pytest.raises(ValueError):
            OverlapSpec(2, [(1, 3, 0.5)])
        with pytest.raises(ValueError):
            OverlapSpec(2, [(1, 2, 1.0)])
        with pytest.raises(ValueError):
            OverlapSpec(3, [(1, 2, 0.1), (1, 2, 0.2)])
        with pytest.raises(ValueError):
            OverlapSpec(1)

    @pytest.mark.parametrize("pair", [(1.9, 2.7, 0.4), (True, 3, 0.1), (1, np.float64(3.0), 0.1)])
    def test_spec_rejects_non_integer_indices(self, pair):
        # int() used to truncate these silently: (1.9, 2.7) became (1, 2).
        with pytest.raises(ValueError, match=re.escape(f"overlap pair {pair!r} needs integer indices")):
            OverlapSpec(3, [pair])

    def test_spec_accepts_numpy_integers(self):
        spec = OverlapSpec(3, [(np.int64(1), 2, 0.1), (np.int32(2), np.uint8(3), 0.2)])
        assert spec.pairs == ((1, 2, 0.1 + 0j), (2, 3, 0.2 + 0j))
        assert all(type(k) is int for i, j, _ in spec.pairs for k in (i, j))


class TestMatrixInvariants:
    def test_rejects_bad_diagonal(self):
        with pytest.raises(NotNormalized):
            GramMatrix(np.array([[1.1, 0.0], [0.0, 1.0]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            GramMatrix(np.array([[1.0, 0.2], [0.5, 1.0]]))

    def test_rejects_unit_magnitude_overlap(self):
        with pytest.raises(NotPositiveDefinite):
            GramMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_immutable(self):
        g = overlap2(0.5)
        with pytest.raises(ValueError):
            g.matrix[0, 1] = 0.9


class TestPowers:
    def test_sqrt_half_overlap(self):
        g = overlap2(0.5)
        assert np.allclose(g.sqrt.real, [[0.966, 0.259], [0.259, 0.966]], atol=1e-3)

    def test_identity_powers(self):
        g = gram_from_overlaps(OverlapSpec(3))
        assert np.array_equal(g.sqrt, np.eye(3))
        assert np.array_equal(g.inv_sqrt, np.eye(3))

    def test_sqrt_closed_form_s04(self):
        # frozen closed form (sqrt(1.4) +- sqrt(0.6))/2
        g = overlap2(0.4)
        assert g.sqrt[0, 0].real == pytest.approx(0.9789063129307033, abs=1e-12)
        assert g.sqrt[0, 1].real == pytest.approx(0.2043096436892199, abs=1e-12)

    def test_sqrt_squares_back(self):
        rng = corpus_rng(10)
        for dim in (2, 3, 5):
            g = random_gram_from(rng, dim)
            assert np.linalg.norm(g.sqrt @ g.sqrt - g.matrix) <= 1e-10

    def test_inv_sqrt_inverts(self):
        rng = corpus_rng(11)
        for dim in (2, 4):
            g = random_gram_from(rng, dim)
            assert np.linalg.norm(g.inv_sqrt @ g.sqrt - np.eye(dim)) <= 1e-8

    def test_powers_bit_identical_to_matrix_function(self):
        # Covers both the near-identity Grams, whose eigendecomposition is
        # deferred, and raw overlaps of basis columns validated eagerly.
        rng = corpus_rng(12)
        for dim in (2, 3, 5, 8):
            c = random_basis(rng, dim, ambient=dim + 2, overlap_range=(-0.5, 0.5)).vectors
            for overlap in (random_gram_from(rng, dim).matrix, c.conj().T @ c):
                g = GramMatrix(overlap)
                assert np.array_equal(g.sqrt, matrix_function(overlap, 0.5))
                assert np.array_equal(g.inv_sqrt, matrix_function(overlap, -0.5))

    def test_powers_are_cached(self):
        g = overlap2(0.5)
        assert g.sqrt is g.sqrt
        assert g.inv_sqrt is g.inv_sqrt
        assert g.eigen is g.eigen


class TestRandomGram:
    def test_fixed_range_two_dim(self):
        g = random_gram(2, seed=123, overlap_range=(0.3, 0.3))
        assert np.allclose(g.matrix.real, [[1.0, 0.3], [0.3, 1.0]], atol=1e-15)

    def test_deterministic(self):
        a = random_gram(4, seed=7, overlap_range=(-0.2, 0.2))
        b = random_gram(4, seed=7, overlap_range=(-0.2, 0.2))
        assert np.array_equal(a.matrix, b.matrix)

    def test_positive_definite_output(self):
        g = random_gram(3, seed=1, overlap_range=(0.0, 0.5))
        assert float(hermitian_eig(g.matrix).eigenvalues[0]) > 0

    def test_generation_failure(self):
        # constant overlap -0.9 in dimension 8 can never be positive definite
        with pytest.raises(GenerationFailure):
            random_gram(8, seed=5, overlap_range=(-0.9, -0.9))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            random_gram(3, seed=0, overlap_range=(-1.0, 0.2))
        with pytest.raises(ValueError):
            random_gram(3, seed=0, overlap_range=(0.5, 0.2))


class TestRoundTrips:
    def test_induced_basis_round_trip(self):
        rng = corpus_rng(12)
        for dim in (2, 3, 4, 6):
            g = random_gram_from(rng, dim)
            back = gram_from_vectors(induce_nonorthogonal(g))
            assert np.linalg.norm(back.matrix - g.matrix) <= 1e-9

    def test_three_representations_same_gram(self):
        lam2, lam1 = 1.0 + S_PHI, 1.0 - S_PHI
        s1 = np.column_stack(
            [
                np.array([1.0, 1.0]) / np.sqrt(2.0),
                np.array([np.sqrt(2.0), 1.0]) / np.sqrt(3.0),
            ]
        )
        s2 = np.column_stack(
            [
                np.array([1.0, 0.0]),
                np.array([(1.0 + np.sqrt(2.0)) / np.sqrt(6.0), (1.0 - np.sqrt(2.0)) / np.sqrt(6.0)]),
            ]
        )
        s3 = np.column_stack(
            [
                0.5 * np.array([np.sqrt(lam2) + np.sqrt(lam1), np.sqrt(lam2) - np.sqrt(lam1)]),
                0.5 * np.array([np.sqrt(lam2) - np.sqrt(lam1), np.sqrt(lam2) + np.sqrt(lam1)]),
            ]
        )
        grams = [gram_from_vectors(BasisSet(cols)) for cols in (s1, s2, s3)]
        reference = gram_from_overlaps(OverlapSpec(2, [(1, 2, S_PHI)]))
        for g in grams:
            assert np.max(np.abs(g.matrix - reference.matrix)) <= 1e-10

    def test_generated_grams_satisfy_invariants(self):
        rng = corpus_rng(13)
        for dim in (2, 3, 5, 8):
            g = random_gram_from(rng, dim, (-0.3, 0.3))
            assert np.allclose(np.diag(g.matrix), 1.0, atol=1e-12)
            assert np.max(np.abs(g.matrix - g.matrix.conj().T)) <= 1e-12
            assert float(hermitian_eig(g.matrix).eigenvalues[0]) > 0
