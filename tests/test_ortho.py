import re

import numpy as np
import pytest

from conftest import (
    corpus_rng,
    random_basis,
    random_gram_from,
    random_unitary,
    shared_component_columns,
)
from lowdin_kit import (
    BasisSet,
    DimensionMismatch,
    GramMatrix,
    InvalidParameters,
    LinearlyDependent,
    NotNormalized,
    OrthoMethod,
    OverlapSpec,
    UnsupportedDimension,
    distortion,
    gram_from_overlaps,
    gram_from_vectors,
    gram_schmidt,
    induce_nonorthogonal,
    lowdin_canonical,
    lowdin_symmetric,
    maximally_coherent_image,
)
from lowdin_kit.ortho import _INVERSE_BLOCK, _result, _upper_inverse

SQRT3_2 = np.sqrt(3.0) / 2.0


def plane_basis():
    return BasisSet(np.array([[1.0, 0.5], [0.0, SQRT3_2]]))


def overlap2(s):
    return gram_from_overlaps(OverlapSpec(2, [(1, 2, s)]))


class TestBasisSet:
    def test_rejects_unnormalized_columns(self):
        with pytest.raises(NotNormalized):
            BasisSet(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_dependent_columns(self):
        with pytest.raises(LinearlyDependent):
            BasisSet(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_too_many_vectors(self):
        with pytest.raises(ValueError):
            BasisSet(np.ones((2, 3)))

    def test_gram_is_cached(self):
        b = plane_basis()
        assert b.gram is b.gram

    def test_dims(self):
        b = plane_basis()
        assert (b.ambient_dim, b.num_vectors) == (2, 2)


class TestGramSchmidt:
    def test_natural_order(self):
        r = gram_schmidt(plane_basis(), [0, 1])
        assert np.allclose(r.basis.vectors.real, np.eye(2), atol=1e-12)
        assert r.method is OrthoMethod.GRAM_SCHMIDT

    def test_reversed_order(self):
        r = gram_schmidt(plane_basis(), [1, 0])
        expected = np.array([[0.5, SQRT3_2], [SQRT3_2, -0.5]])
        assert np.allclose(r.basis.vectors.real, expected, atol=1e-12)

    def test_default_order_is_natural(self):
        a = gram_schmidt(plane_basis())
        b = gram_schmidt(plane_basis(), [0, 1])
        assert np.allclose(a.basis.vectors, b.basis.vectors, atol=0)

    def test_orthonormal_input_unchanged(self):
        rng = corpus_rng(20)
        u = random_unitary(4, rng)
        basis = BasisSet(u)
        for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
            r = gram_schmidt(basis, order)
            assert np.allclose(r.basis.vectors, u[:, order], atol=1e-10)

    def test_first_processed_vector_unchanged(self):
        rng = corpus_rng(21)
        basis = random_basis(rng, 4)
        r = gram_schmidt(basis, [2, 0, 1, 3])
        assert np.allclose(r.basis.vectors[:, 0], basis.vectors[:, 2], atol=1e-12)

    def test_transform_reproduces_basis(self):
        rng = corpus_rng(22)
        basis = random_basis(rng, 5, ambient=7)
        r = gram_schmidt(basis, [4, 2, 0, 3, 1])
        assert np.linalg.norm(basis.vectors @ r.transform - r.basis.vectors) <= 1e-9

    def test_order_dependence_witness(self):
        r12 = gram_schmidt(plane_basis(), [0, 1])
        r21 = gram_schmidt(plane_basis(), [1, 0])
        assert distortion(r12.basis, r21.basis) > 0.1

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gram_schmidt(plane_basis(), [0, 0])
        with pytest.raises(ValueError):
            gram_schmidt(plane_basis(), [1, 2])

    @pytest.mark.parametrize(
        "order", [[1.9, 0.2], [0.5, 1.0], [True, False], [np.True_, 0], [1, False], [np.nan, 0]]
    )
    def test_non_integer_order_rejected(self, order):
        with pytest.raises(ValueError, match="integer positions"):
            gram_schmidt(plane_basis(), order)

    def test_integral_order_types_accepted(self):
        expected = gram_schmidt(plane_basis(), [1, 0]).basis.vectors
        for order in ([1.0, 0.0], np.array([1, 0], dtype=np.uint8), (np.int64(1), 0)):
            assert np.array_equal(gram_schmidt(plane_basis(), order).basis.vectors, expected)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_transform_reconstructs_nearly_dependent_basis(self, eps):
        # T = R^{-1} from the factors errs like u ||R^{-1}||; a solve
        # against O errs like u kappa(O) ||T|| (1.4e-10 and 1.7e-8 here).
        basis = BasisSet(shared_component_columns(eps))
        r = gram_schmidt(basis)
        assert np.linalg.norm(basis.vectors @ r.transform - r.basis.vectors) <= 1e-11

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("order_kind", ["identity", "reversed", "random"])
    def test_nearly_dependent_basis_stays_orthonormal(self, eps, order_kind):
        # lambda_min(O) runs down to 7.8e-12. Classical Gram-Schmidt loses
        # orthogonality like kappa(O) and failed its output check from
        # eps = 1e-4; with Householder's R, E = C R^{-1} stays within
        # u kappa(C).
        basis = BasisSet(shared_component_columns(eps))
        order = _order(basis.num_vectors, order_kind, corpus_rng(60))
        r = gram_schmidt(basis, order)
        assert r.orthonormality_error <= 1e-9
        t = r.transform[order]
        assert np.array_equal(t, np.triu(t))
        diag = np.diag(t)
        assert np.all(diag.imag == 0) and np.all(diag.real > 0)


def _gram_schmidt_loop(cols, order):
    """Reference: classical Gram-Schmidt one earlier column at a time."""
    out = np.zeros_like(cols)
    for k, src in enumerate(order):
        v = cols[:, src].copy()
        for i in range(k):
            v -= out[:, i] * (out[:, i].conj() @ cols[:, src])
        out[:, k] = v / np.linalg.norm(v)
    return out


def _order(d, order_kind, rng):
    return {
        "identity": np.arange(d),
        "reversed": np.arange(d)[::-1],
        "random": rng.permutation(d),
    }[order_kind]


def _kernel_case(d, order_kind):
    rng = corpus_rng(50 + d)
    cols = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    cols /= np.linalg.norm(cols, axis=0)
    return cols, _order(d, order_kind, rng)


class TestGramSchmidtColumns:
    """On well-conditioned columns E = C R^{-1}, with R from Householder
    QR, is the classical Gram-Schmidt basis of the column-by-column loop
    up to round-off, and C[:, order] = E R with R upper triangular and a
    real positive diagonal. The sizes 31-33 and 64-65 straddle the column
    blocks that blocked QR codes commonly use."""

    @pytest.mark.parametrize("d", [2, 8, 64])
    @pytest.mark.parametrize("order_kind", ["identity", "reversed", "random"])
    def test_matches_column_loop(self, d, order_kind):
        cols, order = _kernel_case(d, order_kind)
        got = gram_schmidt(BasisSet(cols), order).basis.vectors
        assert np.max(np.abs(got - _gram_schmidt_loop(cols, order))) <= 1e-13

    @pytest.mark.parametrize("d", [31, 32, 33, 65, 64])
    @pytest.mark.parametrize("order_kind", ["identity", "reversed", "random"])
    def test_factors_at_block_edges(self, d, order_kind):
        cols, order = _kernel_case(d, order_kind)
        result = gram_schmidt(BasisSet(cols), order)
        e = result.basis.vectors
        assert np.max(np.abs(e - _gram_schmidt_loop(cols, order))) <= 1e-13
        t = result.transform[order]
        assert np.array_equal(t, np.triu(t))
        diag = np.diag(t)
        assert np.all(diag.imag == 0) and np.all(diag.real > 0)
        assert np.linalg.norm(cols[:, order] - e @ np.linalg.inv(t)) <= 1e-13


B = _INVERSE_BLOCK


class TestUpperInverse:
    """gram_schmidt's blocked R^{-1}: exactly upper-triangular, with a
    residual ||R X - I||_F within 4 times that of np.linalg.solve(R, I)
    plus u kappa(R), on R of well-conditioned and of nearly dependent
    columns. At most one block it is solve(R, I) itself."""

    @pytest.mark.parametrize("d", [2, B - 1, B, B + 1, 2 * B + 1, 256])
    @pytest.mark.parametrize("eps", [1.0, 1e-4])
    def test_triangular_and_as_accurate_as_solve(self, d, eps):
        rng = corpus_rng(70 + d)
        g = rng.standard_normal((2 * d, 1)) + 1j * rng.standard_normal((2 * d, 1))
        cols = g + eps * (rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d)))
        r = np.linalg.qr(cols / np.linalg.norm(cols, axis=0), mode="r")
        x = _upper_inverse(r)
        assert np.array_equal(x, np.triu(x))
        ref = np.linalg.solve(r, np.eye(d))
        if d <= B:
            assert np.array_equal(x, ref)
        bound = 4 * np.linalg.norm(r @ ref - np.eye(d)) + np.finfo(float).eps / 2 * np.linalg.cond(r)
        assert np.linalg.norm(r @ x - np.eye(d)) <= bound


class TestLowdinSymmetric:
    def test_plane_basis_closed_form(self):
        r = lowdin_symmetric(plane_basis())
        expected = np.array(
            [[0.9659258262890683, 0.2588190451025208],
             [-0.2588190451025208, 0.9659258262890683]]
        )
        assert np.allclose(r.basis.vectors.real, expected, atol=1e-12)
        assert r.distortion == pytest.approx(0.3691838225650291, abs=1e-12)

    def test_orthonormal_input_identity_transform(self):
        basis = BasisSet(np.eye(3))
        r = lowdin_symmetric(basis)
        assert np.array_equal(r.transform, np.eye(3))
        assert np.array_equal(r.basis.vectors, np.eye(3))

    @pytest.mark.parametrize("s", [-0.7, -0.2, 0.1, 0.5, 0.8])
    def test_two_level_coefficient_closed_form(self, s):
        basis = induce_nonorthogonal(overlap2(s))
        r = lowdin_symmetric(basis)
        lam2, lam1 = 1.0 + s, 1.0 - s
        expected = 0.5 * (1.0 / np.sqrt(lam2) + 1.0 / np.sqrt(lam1))
        assert r.transform[0, 0].real == pytest.approx(expected, abs=1e-12)

    def test_distortion_field_matches_direct(self):
        rng = corpus_rng(30)
        basis = random_basis(rng, 3)
        r = lowdin_symmetric(basis)
        assert r.distortion == pytest.approx(distortion(basis, r.basis), abs=1e-15)

    def test_transform_reproduces_basis(self):
        rng = corpus_rng(31)
        basis = random_basis(rng, 4, ambient=6)
        r = lowdin_symmetric(basis)
        assert np.linalg.norm(basis.vectors @ r.transform - r.basis.vectors) <= 1e-9


class TestLowdinCanonical:
    def test_orthonormal_input_returns_input(self):
        basis = BasisSet(np.eye(3))
        r = lowdin_canonical(basis)
        assert np.array_equal(r.basis.vectors, np.eye(3))

    def test_plane_basis_eigendirections(self):
        # eigenvectors of the s=0.5 overlap are (1, -+1)/sqrt(2), so the
        # output columns are (c1 -+ c2)/sqrt(2 lam) up to sign
        basis = plane_basis()
        r = lowdin_canonical(basis)
        c1, c2 = basis.vectors[:, 0], basis.vectors[:, 1]
        expect0 = (c1 - c2) / np.sqrt(2.0 * 0.5)
        expect1 = (c1 + c2) / np.sqrt(2.0 * 1.5)
        got0, got1 = r.basis.vectors[:, 0], r.basis.vectors[:, 1]
        assert abs(abs(np.vdot(expect0, got0)) - 1.0) < 1e-10
        assert abs(abs(np.vdot(expect1, got1)) - 1.0) < 1e-10

    def test_random_four_dim_orthonormal(self):
        rng = corpus_rng(32)
        basis = induce_nonorthogonal(random_gram_from(rng, 4))
        r = lowdin_canonical(basis)
        out_gram = gram_from_vectors(r.basis).matrix
        assert np.linalg.norm(out_gram - np.eye(4)) <= 1e-8
        assert np.linalg.norm(basis.vectors @ r.transform - r.basis.vectors) <= 1e-9


class TestOutputCheckFailure:
    """On accepted but nearly dependent inputs the engines can lose
    orthonormality; the error must blame the result, with the input's
    conditioning, not read as an input fault, and name the check that
    failed."""

    @pytest.mark.parametrize(
        "engine, method, eps, failed",
        [
            (lowdin_symmetric, "lowdin-sym", 1e-3, "column-norm deviation"),
            (lowdin_canonical, "lowdin-can", 1e-3, "column-norm deviation"),
        ],
    )
    def test_names_method_loss_and_conditioning(self, engine, method, eps, failed):
        basis = BasisSet(shared_component_columns(eps))
        lam = basis.gram.eigen.eigenvalues
        with pytest.raises(InvalidParameters) as info:
            engine(basis)
        msg = str(info.value)
        assert msg.startswith(f"{method} result is not orthonormal: ||E+E - I||_F = ")
        assert f"lambda_min {lam[0]:.3e}, kappa(O) {lam[-1] / lam[0]:.3e}" in msg
        limit = {"||E+E - I||_F": 1e-8, "column-norm deviation": 1e-10}[failed]
        value = re.search(re.escape(failed) + r" = (\S+) \(limit", msg)
        assert value is not None and float(value.group(1)) > limit
        # Checked once: no re-validation error is chained on.
        assert info.value.__cause__ is None and info.value.__context__ is None


class TestResultCheck:
    """_result accepts an engine's E exactly when every column is within
    1e-10 of unit norm and ||herm(E+ E) - I||_F <= 1e-8, the two rules a
    BasisSet of orthonormal columns has to pass."""

    @staticmethod
    def _check(out):
        out = np.array(out, dtype=complex)
        # With C = I the checked E = C T is the given T.
        return _result(BasisSet(np.eye(3)), out, OrthoMethod.LOWDIN_SYMMETRIC)

    def test_accepts_within_both_limits(self):
        out = np.eye(3, dtype=complex)
        out[:, 1] = [3e-9, 1.0, 0.0]
        out[:, 1] /= np.linalg.norm(out[:, 1])
        result = self._check(out)
        assert result.orthonormality_error == pytest.approx(3e-9 * np.sqrt(2.0), rel=1e-6)
        assert np.array_equal(result.basis.vectors, out)
        assert not result.basis.vectors.flags.writeable and not result.transform.flags.writeable

    def test_column_norm_fails_under_the_residual_limit(self):
        out = np.diag([1.0 + 5e-10, 1.0, 1.0])
        with pytest.raises(InvalidParameters, match=r"\|\|E\+E - I\|\|_F = 1.000e-09 \(limit 1e-08\), "
                           r"column-norm deviation = 5.000e-10 \(limit 1e-10\)"):
            self._check(out)

    def test_nan_fails(self):
        out = np.eye(3)
        out[2, 2] = np.nan
        with pytest.raises(InvalidParameters, match=r"nan \(limit 1e-08\), column-norm deviation = nan"):
            self._check(out)


class TestInduceNonorthogonal:
    def test_identity_gram(self):
        basis = induce_nonorthogonal(gram_from_overlaps(OverlapSpec(3)))
        assert np.array_equal(basis.vectors, np.eye(3))

    @pytest.mark.parametrize("s", [-0.6, -0.2, 0.3, 0.5])
    def test_two_level_closed_form(self, s):
        basis = induce_nonorthogonal(overlap2(s))
        lam2, lam1 = 1.0 + s, 1.0 - s
        c1 = 0.5 * np.array([np.sqrt(lam2) + np.sqrt(lam1), np.sqrt(lam2) - np.sqrt(lam1)])
        assert np.allclose(basis.vectors[:, 0].real, c1, atol=1e-12)

    def test_half_overlap_values(self):
        basis = induce_nonorthogonal(overlap2(0.5))
        assert np.allclose(
            basis.vectors.real,
            [[0.9659258262890683, 0.2588190451025208],
             [0.2588190451025208, 0.9659258262890683]],
            atol=1e-12,
        )

    def test_lowdin_recovers_computational_basis(self):
        rng = corpus_rng(33)
        for dim in (2, 3, 5, 16, 64):
            g = random_gram_from(rng, dim)
            r = lowdin_symmetric(induce_nonorthogonal(g))
            assert np.linalg.norm(r.basis.vectors - np.eye(dim)) <= 1e-8

    def test_accepts_every_gram_the_validators_accept(self):
        # The diagonal is within DIAG_TOL = 1e-9 of 1, so the columns of
        # O^{1/2} miss unit norm by 2.5e-10, beyond UNIT_NORM_TOL = 1e-10;
        # the induced basis keeps its Gram rather than prove C+ C again.
        g = GramMatrix([[1.0 + 5e-10, 0.3], [0.3, 1.0]])
        basis = induce_nonorthogonal(g)
        assert basis.gram is g
        r = lowdin_symmetric(basis)
        assert np.linalg.norm(r.basis.vectors - np.eye(2)) <= 1e-12


class TestDistortion:
    def test_identical_bases(self):
        b = plane_basis()
        assert distortion(b, b) == 0.0

    def test_lso_value(self):
        b = plane_basis()
        assert distortion(b, lowdin_symmetric(b).basis) == pytest.approx(
            0.3691838225650291, abs=1e-9
        )

    def test_gso_value(self):
        b = plane_basis()
        assert distortion(b, gram_schmidt(b, [0, 1]).basis) == pytest.approx(
            0.5176380902050415, abs=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distortion(plane_basis(), BasisSet(np.eye(3)))


class TestMaximallyCoherentImage:
    def test_orthogonal_limit(self):
        state = maximally_coherent_image(gram_from_overlaps(OverlapSpec(2)), +1)
        assert np.allclose(state.coeffs.real, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-15)

    def test_negative_overlap_plus(self):
        state = maximally_coherent_image(overlap2(-0.5), +1)
        assert np.allclose(state.coeffs.real, [1.0, 1.0], atol=1e-12)

    def test_positive_overlap_minus(self):
        state = maximally_coherent_image(overlap2(0.5), -1)
        assert np.allclose(state.coeffs.real, [1.0, -1.0], atol=1e-12)
        norm = np.real(state.coeffs.conj() @ overlap2(0.5).matrix @ state.coeffs)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_rejects_other_dimension(self):
        with pytest.raises(UnsupportedDimension):
            maximally_coherent_image(gram_from_overlaps(OverlapSpec(3)), +1)

    def test_rejects_complex_overlap(self):
        g = gram_from_overlaps(OverlapSpec(2, [(1, 2, 0.2 + 0.3j)]))
        with pytest.raises(InvalidParameters):
            maximally_coherent_image(g, +1)

    def test_rejects_bad_sign(self):
        # A bool is not a sign, though True == 1.
        for sign in (2, True, np.True_):
            with pytest.raises(ValueError, match="sign must be"):
                maximally_coherent_image(overlap2(0.1), sign)


class TestProperties:
    def test_all_methods_orthonormal(self):
        rng = corpus_rng(40)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            basis = random_basis(rng, dim, overlap_range=(-0.5, 0.5))
            for result in (
                gram_schmidt(basis),
                lowdin_symmetric(basis),
                lowdin_canonical(basis),
            ):
                out_gram = gram_from_vectors(result.basis).matrix
                residual = float(np.linalg.norm(out_gram - np.eye(dim)))
                assert residual <= 1e-8
                assert result.orthonormality_error == residual

    def test_span_preserved(self):
        rng = corpus_rng(41)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            ambient = dim + int(rng.integers(0, 3))
            basis = random_basis(rng, dim, ambient=ambient)
            c = basis.vectors
            p_in = c @ np.linalg.solve(basis.gram.matrix, c.conj().T)
            for result in (
                gram_schmidt(basis),
                lowdin_symmetric(basis),
                lowdin_canonical(basis),
            ):
                e = result.basis.vectors
                assert np.linalg.norm(e @ e.conj().T - p_in) <= 1e-8

    def test_lso_permutation_equivariance(self):
        rng = corpus_rng(42)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            basis = random_basis(rng, dim)
            perm = rng.permutation(dim)
            permuted = BasisSet(basis.vectors[:, perm])
            direct = lowdin_symmetric(permuted).basis.vectors
            swapped = lowdin_symmetric(basis).basis.vectors[:, perm]
            assert np.max(np.abs(direct - swapped)) <= 1e-9

    def test_lso_symmetry_preservation(self):
        # overlap matrix invariant under swapping the two basis states
        # implies a transform with the same symmetry
        basis = induce_nonorthogonal(overlap2(0.37))
        t = lowdin_symmetric(basis).transform
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.max(np.abs(t - p @ t @ p.T)) <= 1e-9

    def test_lso_symmetry_preservation_higher_dim(self):
        # constant-overlap matrix is invariant under every permutation
        rng = corpus_rng(45)
        g = gram_from_overlaps(
            OverlapSpec(4, [(i, j, 0.2) for i in range(1, 5) for j in range(i + 1, 5)])
        )
        t = lowdin_symmetric(induce_nonorthogonal(g)).transform
        for _ in range(5):
            p = np.eye(4)[:, rng.permutation(4)]
            assert np.max(np.abs(t - p @ t @ p.T)) <= 1e-9

    def test_lso_beats_gso_and_rotations(self):
        rng = corpus_rng(43)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            basis = random_basis(rng, dim, overlap_range=(-0.5, 0.5))
            lso = lowdin_symmetric(basis)
            d_lso = distortion(basis, lso.basis)
            order = rng.permutation(dim)
            d_gso = distortion(basis, gram_schmidt(basis, order).basis)
            assert d_gso >= d_lso - 1e-9
            for _ in range(10):
                v = random_unitary(dim, rng)
                rotated = BasisSet(lso.basis.vectors @ v)
                assert distortion(basis, rotated) >= d_lso - 1e-9

    def test_identity_overlap_both_methods_exact(self):
        # bases whose computed overlap matrix is exactly the identity
        perm = np.eye(4)[:, [2, 0, 3, 1]]
        for cols in (np.eye(3), perm, perm[:, :3]):
            basis = BasisSet(cols)
            assert np.array_equal(basis.gram.matrix, np.eye(cols.shape[1]))
            for method in (lowdin_symmetric, lowdin_canonical):
                assert np.array_equal(method(basis).basis.vectors, cols)

    def test_complex_overlaps_supported(self):
        g = gram_from_overlaps(
            OverlapSpec(3, [(1, 2, 0.3 + 0.2j), (1, 3, -0.1j), (2, 3, 0.25)])
        )
        basis = induce_nonorthogonal(g)
        assert np.linalg.norm(gram_from_vectors(basis).matrix - g.matrix) <= 1e-12
        for method in (gram_schmidt, lowdin_symmetric, lowdin_canonical):
            result = method(basis)
            out_gram = gram_from_vectors(result.basis).matrix
            assert np.linalg.norm(out_gram - np.eye(3)) <= 1e-8
            reproduced = basis.vectors @ result.transform
            assert np.linalg.norm(reproduced - result.basis.vectors) <= 1e-9
