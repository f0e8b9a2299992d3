import re

import numpy as np
import pytest

from conftest import corpus_rng, random_basis, random_gram_from, shared_component_columns
from lowdin_kit import (
    BasisSet,
    GramMatrix,
    LinearlyDependent,
    NotHermitian,
    NotNormalized,
    NotPositiveDefinite,
    OverlapSpec,
    gram_from_overlaps,
    gram_from_vectors,
    gram_schmidt,
    hermitian_eig,
    induce_nonorthogonal,
    lowdin_symmetric,
    random_gram,
)
from lowdin_kit.gram import DIAG_TOL
from lowdin_kit.linalg import LAMBDA_FLOOR, _half_power

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_rejects_non_finite_columns(self, bad):
        # Checked before the column norms, which a NaN passes (nan > tol is
        # False) and an inf turns into a deviation of inf.
        cols = np.array([[1.0, 0.0], [bad, 1.0]])
        for build in (gram_from_vectors, BasisSet):
            with pytest.raises(ValueError, match="^basis vectors contain non-finite entries$"):
                build(cols)

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
            OverlapSpec(3, [(1, 2, 0.1), (1, 2, 0.2)])
        with pytest.raises(ValueError):
            OverlapSpec(1)

    def test_unit_magnitude_pair_rejected_by_the_gram(self):
        # |v| < 1 is GramMatrix's rule alone; the pair form fails as the dense form does.
        with pytest.raises(NotPositiveDefinite, match=re.escape(
                "an off-diagonal overlap has magnitude >= 1: |O_ij| = 1 at (1, 2)")):
            gram_from_overlaps(OverlapSpec(2, [(1, 2, 1.0)]))

    @pytest.mark.parametrize("pair", [(1.9, 2.7, 0.4), (True, 3, 0.1), (1, np.float64(3.0), 0.1)])
    def test_spec_rejects_non_integer_indices(self, pair):
        # int() used to truncate these silently: (1.9, 2.7) became (1, 2).
        with pytest.raises(ValueError, match=re.escape(f"overlap pair {pair!r} needs integer indices")):
            OverlapSpec(3, [pair])

    @pytest.mark.parametrize("pair, problem", [
        (5, "must be (i, j, value)"),
        ((1, 2), "must be (i, j, value)"),
        ((1, 2, 0.3, 9), "must be (i, j, value)"),
        ("123", "must be (i, j, value)"),
        ((1, 2, "0.3"), "needs a numeric value"),
        ((1, 2, True), "needs a numeric value"),
        ((1, 2, np.bool_(False)), "needs a numeric value"),
        ((1, 2, None), "needs a numeric value"),
        ((1, 2, [0.3]), "needs a numeric value"),
        ((1, 2, 10**400), "needs a value within float range"),
    ])
    def test_spec_rejects_malformed_pair(self, pair, problem):
        # Each fault is named; a string or bool value is not a number, however it reads.
        with pytest.raises(ValueError, match=re.escape(f"overlap pair {pair!r} {problem}")):
            OverlapSpec(3, [pair])

    def test_spec_accepts_any_numeric_value(self):
        spec = OverlapSpec(3, [(1, 2, 0), [1, 3, np.float32(0.25)], (2, 3, 0.1j)])
        assert spec.pairs == ((1, 2, 0j), (1, 3, 0.25 + 0j), (2, 3, 0.1j))

    @pytest.mark.parametrize("dim", [3.0, np.float64(3.0), True])
    def test_spec_rejects_non_integer_dim(self, dim):
        # A float dim used to pass here and fail later in gram_from_overlaps
        # with numpy's TypeError.
        with pytest.raises(ValueError, match=re.escape(f"dim must be an integer, got {dim!r}")):
            OverlapSpec(dim, [])

    def test_spec_accepts_integer_dim(self):
        for dim in (3, np.int64(3), np.uint8(3)):
            assert gram_from_overlaps(OverlapSpec(dim, [(1, 3, 0.2)])).dim == 3

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

    def test_rejects_non_hermitian_whose_norm_overflows(self):
        with pytest.raises(NotHermitian, match="^overlap matrix asymmetry inf exceeds 1.414e[+]298$"):
            GramMatrix(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    def test_rejects_unit_magnitude_overlap(self):
        with pytest.raises(NotPositiveDefinite):
            GramMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_unit_magnitude_message_names_the_pair(self):
        o = np.eye(3, dtype=complex)
        o[1, 2], o[2, 1] = 1.25j, -1.25j
        with pytest.raises(NotPositiveDefinite, match=re.escape(
                "an off-diagonal overlap has magnitude >= 1: |O_ij| = 1.25 at (2, 3)")):
            GramMatrix(o)

    def test_floor_message_gives_the_conditioning(self):
        # Eigenvalues 1 - 0.9 sqrt(2), 1 and 1 + 0.9 sqrt(2).
        spec = OverlapSpec(3, [(1, 2, 0.9), (2, 3, 0.9)])
        with pytest.raises(NotPositiveDefinite, match=r"^smallest eigenvalue -2\.728e-01 is at or below "
                           r"1e-12 \(largest eigenvalue 2\.273e\+00, dimension 3\)$"):
            gram_from_overlaps(spec)

    def test_dependent_columns_message_gives_the_conditioning(self):
        cols = np.column_stack([np.eye(4)[:, :3], np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)])
        with pytest.raises(LinearlyDependent, match=r"^smallest eigenvalue .* is at or below 1e-12 "
                           r"\(largest eigenvalue 2\.000e\+00, dimension 4\)$"):
            gram_from_vectors(cols)

    @pytest.mark.parametrize("m", [np.zeros((0, 0)), np.ones((1, 1)), np.full((1, 1), np.nan)])
    def test_rejects_dimension_below_two(self, m):
        # Worded before the gate's finiteness check.
        with pytest.raises(ValueError, match="^overlap matrix needs dimension >= 2$"):
            GramMatrix(m)

    def test_cholesky_operand_is_o_minus_sigma_i(self, monkeypatch):
        # The operand is built in the O - I buffer; it must be O - sigma I bit
        # for bit, signed zeros included, or accept/reject decisions could move.
        operands = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: operands.append(a.copy()) or cholesky(a))
        rng = np.random.default_rng(14)
        for d in (2, 3, 8, 33):
            for cplx in (False, True):
                o = np.triu(rng.uniform(-0.3, 0.3, (d, d)) / np.sqrt(d), 1)
                if cplx:
                    o = o + 1j * np.triu(rng.uniform(-0.3, 0.3, (d, d)) / np.sqrt(d), 1)
                o = o + o.conj().T + np.diag(1.0 + rng.uniform(-DIAG_TOL, DIAG_TOL, d))
                o[0, -1] = o[-1, 0] = -0.0
                g = GramMatrix(o)
                sigma = LAMBDA_FLOOR + 4.0 * (d + 1) * d * np.finfo(float).eps / 2
                expected = g.matrix - sigma * np.eye(d)
                assert operands.pop().tobytes() == expected.tobytes()
                assert np.signbit(expected[0, -1].real)

    def test_immutable(self):
        g = overlap2(0.5)
        with pytest.raises(ValueError):
            g.matrix[0, 1] = 0.9


def _near_floor_corpus():
    """Overlaps O of unit columns g + eps G sharing the component g, with eps
    log-spaced over 3e-7 ... 3e-5: lambda_min(O) from about -3e-13 to 3e-9,
    straddling LAMBDA_FLOOR at every d."""
    for d, count in ((2, 40), (3, 40), (8, 40), (30, 40), (64, 40), (256, 12)):
        rng = np.random.default_rng(d)
        for eps in np.geomspace(3e-7, 3e-5, count):
            g = rng.standard_normal((2 * d, 1)) + 1j * rng.standard_normal((2 * d, 1))
            cols = g + eps * (rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d)))
            cols /= np.linalg.norm(cols, axis=0)
            yield cols.conj().T @ cols


class TestNearFloorDecision:
    def test_accepts_exactly_what_eigh_puts_above_the_floor(self):
        # The Cholesky proof and its eigh fallback must keep the accept set
        # of deciding by eigh alone, rejection by rejection.
        accepted = rejected = 0
        for overlap in _near_floor_corpus():
            lam_min = float(np.linalg.eigh(0.5 * (overlap + overlap.conj().T))[0][0])
            if lam_min > LAMBDA_FLOOR:
                GramMatrix(overlap)
                accepted += 1
            else:
                with pytest.raises(NotPositiveDefinite, match=re.escape(f"smallest eigenvalue {lam_min:.3e} ")):
                    GramMatrix(overlap)
                rejected += 1
        assert accepted >= 100 and rejected >= 60

    def test_gram_schmidt_never_diagonalizes_the_overlap(self):
        basis = BasisSet(shared_component_columns(1e-4))
        gram_schmidt(basis)
        assert "eigen" not in basis.gram.__dict__


class TestPowers:
    def test_sqrt_half_overlap(self):
        g = overlap2(0.5)
        assert np.allclose(g.sqrt.real, [[0.966, 0.259], [0.259, 0.966]], atol=1e-3)

    def test_identity_powers(self):
        g = gram_from_overlaps(OverlapSpec(3))
        assert np.array_equal(g.sqrt, np.eye(3))
        assert np.array_equal(_half_power(g.eigen, -0.5), np.eye(3))

    def test_sqrt_closed_form_s04(self):
        # frozen closed form (sqrt(1.4) +- sqrt(0.6))/2
        g = overlap2(0.4)
        assert g.sqrt[0, 0].real == pytest.approx(0.9789063129307033, abs=1e-12)
        assert g.sqrt[0, 1].real == pytest.approx(0.2043096436892199, abs=1e-12)

    def test_sqrt_squares_back(self):
        rng = corpus_rng(10)
        for dim in (2, 3, 5, 16, 64):
            g = random_gram_from(rng, dim)
            assert np.linalg.norm(g.sqrt @ g.sqrt - g.matrix) <= 1e-10

    def test_inv_sqrt_inverts(self):
        rng = corpus_rng(11)
        for dim in (2, 4):
            g = random_gram_from(rng, dim)
            assert np.linalg.norm(_half_power(g.eigen, -0.5) @ g.sqrt - np.eye(dim)) <= 1e-8

    def test_powers_bit_identical_to_half_power(self):
        # Covers both near-identity random Grams and raw overlaps of basis
        # columns; either way the eigendecomposition is deferred to first use.
        # O^{1/2} is cached on the Gram; O^{-1/2} is the symmetric engine's T.
        rng = corpus_rng(12)
        for dim in (2, 3, 5, 8):
            c = random_basis(rng, dim, ambient=dim + 2, overlap_range=(-0.5, 0.5)).vectors
            g = random_gram_from(rng, dim)
            for overlap, basis in ((g.matrix, induce_nonorthogonal(g)), (c.conj().T @ c, BasisSet(c))):
                eig = hermitian_eig(overlap)
                assert np.array_equal(GramMatrix(overlap).sqrt, _half_power(eig, 0.5))
                assert np.array_equal(lowdin_symmetric(basis).transform, _half_power(eig, -0.5))

    def test_powers_are_cached(self):
        g = overlap2(0.5)
        assert g.sqrt is g.sqrt
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

    def test_accepted_draw_is_identity_plus_draws(self):
        # One draw of the upper triangle, row by row, mirrored below it.
        for dim, seed, overlap_range in ((4, 7, (-0.2, 0.2)), (6, 11, (0.0, 0.5))):
            a = np.zeros((dim, dim))
            iu = np.triu_indices(dim, k=1)
            a[iu] = np.random.default_rng(seed).uniform(*overlap_range, size=len(iu[0]))
            g = random_gram(dim, seed, overlap_range)
            assert np.array_equal(g.matrix, np.eye(dim) + a + a.T)

    @pytest.mark.parametrize("dim, overlap_range", [(8, (-0.9, -0.9)), (64, (-0.4, 0.4))], ids=["d8", "d64"])
    def test_refused_draw_is_scaled_to_lambda_min_one_half(self, dim, overlap_range):
        # Constant overlap -0.9 at d=8 is never positive definite, nor is any
        # draw from +-0.4 at d=64; each is scaled, not searched past.
        g = random_gram(dim, seed=5, overlap_range=overlap_range)
        assert abs(float(np.linalg.eigvalsh(g.matrix)[0]) - 0.5) <= 1e-12
        lo, hi = overlap_range
        off = g.matrix[np.triu_indices(dim, k=1)].real
        assert np.all(np.abs(off) <= max(abs(lo), abs(hi)) / 2 * (1 + 1e-12))

    @pytest.mark.parametrize("dim", [3.0, np.float64(3.0), True])
    def test_rejects_non_integer_dim(self, dim):
        with pytest.raises(ValueError, match=re.escape(f"dim must be an integer, got {dim!r}")):
            random_gram(dim, 1, (-0.2, 0.2))

    def test_accepts_numpy_integer_dim(self):
        expected = random_gram(3, 1, (-0.2, 0.2)).matrix
        assert np.array_equal(random_gram(np.int64(3), 1, (-0.2, 0.2)).matrix, expected)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            random_gram(3, seed=0, overlap_range=(-1.0, 0.2))
        with pytest.raises(ValueError):
            random_gram(3, seed=0, overlap_range=(0.5, 0.2))

    @pytest.mark.parametrize("overlap_range", [(-0.2, 0.2, 0.5), (0.2,), 0.2])
    def test_range_must_be_a_pair(self, overlap_range):
        with pytest.raises(ValueError, match=re.escape(f"overlap_range {overlap_range!r} must be a pair")):
            random_gram(3, 1, overlap_range)

    @pytest.mark.parametrize("seed", [1.5, True, np.True_, -1, "1"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
            random_gram(3, seed, (-0.2, 0.2))


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
