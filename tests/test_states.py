import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_rng, edge_psd_densities, random_gram_from
from lowdin_kit import (
    DegenerateTrace,
    DensityOperator,
    GramMatrix,
    InvalidParameters,
    OverlapSpec,
    PureState,
    ZeroState,
    chirgwin_coulson_weights,
    closed_form_2d_weights,
    golden_state_3d,
    gram_from_overlaps,
    gram_from_vectors,
    hermitian_eig,
    lowdin_coeffs,
    lowdin_density,
    maximally_coherent_image,
    normalize_pure,
    offdiagonal_decomposition,
    weights_density,
    weights_pure,
)
from lowdin_kit import measures, states
from lowdin_kit.states import LowdinTransformedState, WeightDistribution, _lowdin_transform

S_PHI = (1.0 + np.sqrt(2.0)) / np.sqrt(6.0)
GAMMA_PHI = -(2.0 + np.sqrt(2.0)) / np.sqrt(3.0)


def overlap2(s):
    return gram_from_overlaps(OverlapSpec(2, [(1, 2, s)]))


def identity_gram(d=2):
    return gram_from_overlaps(OverlapSpec(d))


def beta_state(s, gamma):
    return normalize_pure(overlap2(s), [1.0, gamma])


class TestNormalizePure:
    def test_euclidean_case(self):
        state = normalize_pure(identity_gram(), [3.0, 4.0])
        assert np.allclose(state.coeffs.real, [0.6, 0.8], atol=1e-15)

    def test_already_normalized_state_unchanged(self):
        raw = np.array([1.0, GAMMA_PHI])
        state = normalize_pure(overlap2(S_PHI), raw)
        assert np.allclose(state.coeffs.real, raw, atol=1e-12)

    def test_beta_divisor(self):
        state = normalize_pure(overlap2(0.4), [1.0, 0.6])
        assert state.coeffs[0].real == pytest.approx(1.0 / np.sqrt(1.84), abs=1e-14)

    def test_zero_state(self):
        with pytest.raises(ZeroState):
            normalize_pure(identity_gram(), [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            normalize_pure(identity_gram(), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("raw", [[1e200, 0.0], [1.0, 1e200]])
    def test_overflowing_norm_rejected(self, raw):
        # Finite entries, but a+ O a overflows: dividing by it would give a
        # zero vector that claims to be normalized. No numpy warning comes first.
        with pytest.raises(ValueError, match="state coefficients overflow a\\+Oa = inf"):
            normalize_pure(overlap2(0.3), raw)

    def test_purestate_invariant_enforced(self):
        with pytest.raises(ValueError):
            PureState(overlap2(0.5), np.array([1.0, 0.0]) * 2.0)


class TestLowdinCoeffs:
    def test_identity_gram_is_born_rule(self):
        state = normalize_pure(identity_gram(), [0.6, 0.8])
        assert np.array_equal(lowdin_coeffs(state), state.coeffs)

    def test_beta_frozen_values(self):
        # frozen from the closed 2-d form of O^{1/2} applied to (1, 0.6)/sqrt(1.84)
        b = lowdin_coeffs(beta_state(0.4, 0.6))
        assert np.allclose(
            b.real, [0.8120307489349497, 0.5836146526468854], atol=1e-12
        )

    def test_unit_euclidean_norm(self):
        rng = corpus_rng(50)
        for dim in (2, 3, 5):
            g = random_gram_from(rng, dim)
            raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            b = lowdin_coeffs(normalize_pure(g, raw))
            assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("s, sign", [
        *[pytest.param(s, +1, id=str(s)) for s in (-0.5, -0.2, 0.0, 0.3, 0.6, -1 + 1e-9, -1 + 1e-11)],
        pytest.param(1 - 1e-9, -1, id="0.999999999, sign -1"),
    ])
    def test_coherent_image_maps_back(self, s, sign):
        # Near the floor a recomputed a+ O a cancels to about u kappa(O), up to 4e-8
        # here, so the closed form must be returned without being held to it.
        state = maximally_coherent_image(overlap2(s), sign)
        assert np.allclose(
            lowdin_coeffs(state).real, np.array([1.0, sign]) / np.sqrt(2.0), atol=1e-9
        )

    @pytest.mark.parametrize("s, sign", [(-(1 - 1e-10), +1), (0.6, -1)], ids=["-0.9999999999", "0.6, sign -1"])
    def test_coherent_image_off_a_unit_diagonal_is_checked(self, s, sign):
        # The closed form is normalized for O11 = O22 = 1 only: a diagonal 5e-10 off,
        # which GramMatrix accepts, leaves a+ O a at 6 and at 1 + 1.25e-9 here.
        d = 1 + 5e-10
        with pytest.raises(ValueError, match=r"state norm a\+Oa = .* is not 1 within 1e-09"):
            maximally_coherent_image(GramMatrix(np.array([[d, s], [s, d]])), sign)


class TestWeightsPure:
    def test_beta_s04(self):
        w = weights_pure(beta_state(0.4, 0.6)).weights
        assert np.allclose(w, [0.66, 0.34], atol=1e-2)
        assert np.allclose(w, [0.6593939372158553, 0.3406060627841447], atol=1e-12)

    def test_beta_s01(self):
        w = weights_pure(beta_state(0.1, 0.6)).weights
        assert np.allclose(w, [0.715, 0.285], atol=1e-3)

    @pytest.mark.parametrize("s", [-0.3, -0.5 + 5e-9, -0.5 + 5e-12])
    def test_golden_state_uniform(self, s):
        w = weights_pure(golden_state_3d(s)).weights
        assert np.allclose(w, 1.0 / 3.0, atol=1e-9)


class TestLowdinDensity:
    def test_mixed_example(self):
        op = DensityOperator(overlap2(0.5), np.array([[0.6, 0.2], [0.2, 0.4]]))
        got = lowdin_density(op).matrix.real
        assert np.allclose(got, [[0.572, 0.375], [0.375, 0.428]], atol=1e-3)

    def test_diagonal_example(self):
        op = DensityOperator(overlap2(0.5), np.diag([0.6, 0.4]))
        got = lowdin_density(op).matrix.real
        assert np.allclose(got, [[0.587, 0.25], [0.25, 0.413]], atol=1e-3)

    def test_maximally_mixed_example(self):
        op = DensityOperator(overlap2(0.5), np.eye(2) / 2.0)
        got = lowdin_density(op).matrix.real
        assert np.allclose(got, [[0.5, 0.25], [0.25, 0.5]], atol=1e-12)

    def test_degenerate_trace_guard(self, monkeypatch):
        # The kernel refuses nothing: its caller refuses a zero trace before
        # the kernel would divide by it, which would warn.
        zero = np.zeros((2, 2), dtype=complex)
        monkeypatch.setattr(states, "_congruence", lambda half, rho: (zero, zero.trace().real))
        with pytest.raises(DegenerateTrace, match=r"^Tr\(O rho\) = 0\.0 is too small to normalize$"):
            DensityOperator(overlap2(0.3), np.eye(2) / 2)

    def test_output_psd_trace_one(self):
        rng = corpus_rng(51)
        for dim in (2, 3, 4):
            g = random_gram_from(rng, dim)
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = z @ z.conj().T
            rho /= np.real(np.trace(rho))
            out = lowdin_density(DensityOperator(g, rho)).matrix
            assert np.real(np.trace(out)) == pytest.approx(1.0, abs=1e-9)
            assert float(hermitian_eig(out).eigenvalues[0]) >= -1e-10


class TestWeightsDensity:
    def test_worked_examples(self):
        half = overlap2(0.5)
        cases = [
            (np.array([[0.6, 0.2], [0.2, 0.4]]), [0.572, 0.428]),
            (np.diag([0.6, 0.4]), [0.587, 0.413]),
            (np.eye(2) / 2.0, [0.5, 0.5]),
        ]
        for rho, expected in cases:
            w = weights_density(DensityOperator(half, rho)).weights
            assert np.allclose(w, expected, atol=1e-3)

    def test_consistency_with_pure(self):
        rng = corpus_rng(52)
        for dim in (2, 3, 5):
            g = random_gram_from(rng, dim)
            state = normalize_pure(g, rng.normal(size=dim) + 1j * rng.normal(size=dim))
            a = state.coeffs
            projector = np.outer(a, a.conj())
            projector /= np.real(np.trace(projector))
            w_mixed = weights_density(DensityOperator(g, projector)).weights
            w_pure = weights_pure(state).weights
            assert np.max(np.abs(w_mixed - w_pure)) <= 1e-9

    def test_bit_identical_to_lowdin_density_diagonal(self):
        rng = corpus_rng(53)
        for dim in (2, 3, 5, 8, 16, 64):
            g = random_gram_from(rng, dim)
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = z @ z.conj().T
            op = DensityOperator(g, rho / np.real(np.trace(rho)))
            expected = np.real(np.diag(lowdin_density(op).matrix))
            assert np.array_equal(weights_density(op).weights, expected)

    def test_general_pqs_point(self):
        op = DensityOperator(overlap2(0.5), np.array([[0.6, 0.2], [0.2, 0.4]]))
        assert weights_density(op).weights[0] == pytest.approx(0.5722, abs=1e-4)


class TestAcceptedEdgeDensities:
    """Densities that DensityOperator accepts, indefinite by a few 1e-12,
    must give results: derived quantities are not re-validated against
    tolerances the input was never held to."""

    @staticmethod
    def _case(name):
        s, rho = edge_psd_densities()[name]
        lam_rho = np.linalg.eigvalsh(rho)[0]
        assert -1e-10 <= lam_rho < -1e-12  # accepted, yet not PSD
        return np.array([[1.0, s], [s, 1.0]]), DensityOperator(overlap2(s), rho)

    @staticmethod
    def _reference(o, rho):
        lam, u = np.linalg.eigh(o)
        half = (u * np.sqrt(lam)) @ u.T
        m = half @ rho @ half
        return m / np.trace(m)

    @pytest.mark.parametrize("name", ["weight", "congruence"])
    def test_weights_density(self, name):
        o, op = self._case(name)
        w = weights_density(op).weights
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.max(np.abs(w - np.diag(self._reference(o, op.coeffs)))) <= 1e-11

    @pytest.mark.parametrize("name", ["weight", "congruence"])
    def test_lowdin_density(self, name):
        o, op = self._case(name)
        m = lowdin_density(op).matrix
        assert np.array_equal(m, m.conj().T)
        assert abs(np.trace(m).real - 1.0) <= 1e-9
        assert np.max(np.abs(m - self._reference(o, op.coeffs))) <= 1e-11
        # The input's PSD tolerance carried through the congruence.
        floor = -1e-10 * np.linalg.eigvalsh(o)[-1] / np.trace(o @ op.coeffs).real
        assert np.linalg.eigvalsh(m)[0] >= floor - 1e-15

    def test_transformed_state_constructor_still_checks(self):
        # Built from a raw matrix, the same rho_L is held to the -1e-10 floor.
        _, op = self._case("congruence")
        with pytest.raises(InvalidParameters, match="eigenvalue -1.950e-10 below -1e-10"):
            LowdinTransformedState(lowdin_density(op).matrix)


class TestDerivedWeightsAreDistributions:
    """Pure weights |b_k|^2 / ||b||^2, b = O^{1/2} a, are divided by their
    own sum, so every state the validators accept has weights that sum to 1
    up to round-off, however near-singular its overlap. Density weights keep
    their O(d) check: rho's PSD tolerance can move them off a probability
    vector, and they must then be refused, not returned."""

    @pytest.mark.parametrize("s", [1 - 1e-8, 1 - 1e-9, 1 - 1e-10])
    def test_pure_weights_sum_to_one_or_raise(self, s):
        g = overlap2(s)
        for eta in (1e-6, 1e-5, 1e-4):
            w = weights_pure(normalize_pure(g, [1.0, -1.0 + eta])).weights
            assert abs(w.sum() - 1.0) <= 4 * 2 * np.finfo(float).eps

    def test_near_singular_states_are_never_refused(self):
        # 1,008 states, d = 2..8, each along O's least eigenvector plus 1e-9
        # noise, over O built from a spectrum whose least eigenvalue is
        # 1e-4..1e-11 before the unit-diagonal scaling. Normalized by a+ O a,
        # |O^{1/2} a|^2 summed up to about 7e-5 away from 1, and over half of
        # these states were refused with "weights sum to ...".
        rng = corpus_rng(90)
        for d in range(2, 9):
            for lam_min in 10.0 ** -np.arange(4, 12):
                for _ in range(18):
                    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                    m = (u * np.concatenate([[lam_min], rng.uniform(0.5, 1.5, d - 1)])) @ u.conj().T
                    o = m / np.sqrt(np.outer(m.diagonal().real, m.diagonal().real))
                    o = 0.5 * (o + o.conj().T)
                    np.fill_diagonal(o, 1.0)
                    g = GramMatrix(o)
                    noise = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    raw = np.linalg.eigh(o)[1][:, 0] + 1e-9 * noise
                    w = weights_pure(normalize_pure(g, raw)).weights
                    assert w.min() >= 0.0
                    assert abs(w.sum() - 1.0) <= 4 * d * np.finfo(float).eps

    def test_large_clipped_weight_rejected(self):
        # rho = (1 + d) v_min v_min+ - d v_max v_max+ passes the -1e-10 floor,
        # but with Tr(O rho) ~ 1e-6 the third weight is about -2.3e-5, far
        # beyond what clipping at 0 may absorb.
        s, t, d = 1 - 1e-6, 0.3, 9e-11
        g = gram_from_overlaps(OverlapSpec(3, [(1, 2, s), (1, 3, t), (2, 3, t)]))
        u = np.linalg.eigh(g.matrix.real)[1]
        rho = (1 + d) * np.outer(u[:, 0], u[:, 0]) - d * np.outer(u[:, -1], u[:, -1])
        op = DensityOperator(g, rho)
        assert np.diag(lowdin_density(op).matrix).real[2] < -1e-5
        with pytest.raises(ValueError, match="weights sum to 1.0000"):
            weights_density(op)


class TestDerivedResultsAreFrozen:
    """Results built without re-validation are still immutable records."""

    def test_fields_and_arrays(self):
        g = overlap2(0.4)
        op = DensityOperator(g, np.array([[0.6, 0.2], [0.2, 0.4]]))
        state = normalize_pure(g, [1.0, 0.6])
        derived = [
            (state, "coeffs"),
            (weights_pure(state), "weights"),
            (weights_density(op), "weights"),
            (lowdin_density(op), "matrix"),
        ]
        for obj, name in derived:
            arr = getattr(obj, name)
            assert not arr.flags.writeable
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, arr)
        assert state.gram is g
        assert state.coeffs.dtype == complex


class TestClosedForm2d:
    def test_coherence_free_limit(self):
        w = closed_form_2d_weights(0.37, 0.0, 0.0).weights
        assert np.allclose(w, [0.37, 0.63], atol=1e-15)

    def test_worked_point(self):
        w = closed_form_2d_weights(0.6, 0.2, 0.5).weights
        assert w[0] == pytest.approx(0.5721687836487032, abs=1e-12)
        assert w[0] == pytest.approx(0.5722, abs=1e-4)

    @pytest.mark.parametrize("s", [-0.8, -0.3, 0.0, 0.4, 0.9])
    def test_symmetric_point(self, s):
        assert np.allclose(closed_form_2d_weights(0.5, 0.0, s).weights, [0.5, 0.5], atol=1e-15)

    def test_agrees_with_numeric_pipeline(self):
        for p in np.linspace(0.2, 0.8, 5):
            for q in np.linspace(-0.3, 0.3, 5):
                for s in np.linspace(-0.6, 0.6, 5):
                    closed = closed_form_2d_weights(p, q, s).weights
                    rho = np.array([[p, q], [q, 1.0 - p]])
                    numeric = weights_density(DensityOperator(overlap2(s), rho)).weights
                    assert np.max(np.abs(closed - numeric)) <= 1e-9

    def test_rejects_non_psd(self):
        with pytest.raises(InvalidParameters):
            closed_form_2d_weights(0.5, 0.6, 0.0)

    def test_rejects_bad_p_or_s(self):
        with pytest.raises(InvalidParameters):
            closed_form_2d_weights(1.2, 0.0, 0.0)
        with pytest.raises(InvalidParameters):
            closed_form_2d_weights(0.5, 0.0, 1.0)

    @pytest.mark.parametrize("p, q, s, message", [
        (np.nan, 0.0, 0.3, "p = nan outside [0, 1]"),
        (0.5, np.nan, 0.3, "rho(p=0.5, q=nan) is not positive semi-definite"),
        (0.5, 0.0, np.nan, "s = nan outside (-1, 1)"),
    ])
    def test_rejects_nan_parameter(self, p, q, s, message):
        # A NaN fails every comparison, so each check is written to fail on it.
        with pytest.raises(InvalidParameters, match=f"^{re.escape(message)}$"):
            closed_form_2d_weights(p, q, s)


class TestOffdiagonalDecomposition:
    def test_diagonal_state_pure_artifact(self):
        op = DensityOperator(overlap2(0.5), np.diag([0.6, 0.4]))
        artifact, genuine = offdiagonal_decomposition(op)
        assert artifact[0, 1].real == pytest.approx(0.25, abs=1e-12)
        assert np.max(np.abs(genuine)) <= 1e-12

    def test_mixed_state_genuine_content(self):
        op = DensityOperator(overlap2(0.5), np.array([[0.6, 0.2], [0.2, 0.4]]))
        artifact, genuine = offdiagonal_decomposition(op)
        assert artifact[0, 1].real == pytest.approx(0.25, abs=1e-3)
        assert genuine[0, 1].real == pytest.approx(0.125, abs=1e-3)

    def test_orthogonal_basis_no_artifact(self):
        op = DensityOperator(identity_gram(), np.array([[0.7, 0.1], [0.1, 0.3]]))
        artifact, genuine = offdiagonal_decomposition(op)
        assert np.max(np.abs(artifact)) <= 1e-15
        assert genuine[0, 1].real == pytest.approx(0.1, abs=1e-15)

    def test_parts_are_hermitian_with_zero_diagonal(self):
        rng = corpus_rng(53)
        g = random_gram_from(rng, 3)
        z = rng.normal(size=(3, 3))
        rho = z @ z.T
        rho /= np.trace(rho)
        artifact, genuine = offdiagonal_decomposition(DensityOperator(g, rho))
        for part in (artifact, genuine):
            assert np.max(np.abs(np.diag(part))) == 0.0
            assert np.max(np.abs(part - part.conj().T)) <= 1e-12


class TestChirgwinCoulson:
    def test_identity_gram(self):
        state = normalize_pure(identity_gram(), [0.6, 0.8])
        assert np.allclose(chirgwin_coulson_weights(state), [0.36, 0.64], atol=1e-15)

    def test_beta_values(self):
        got = chirgwin_coulson_weights(beta_state(0.4, 0.6))
        assert np.allclose(got, [0.674, 0.326], atol=1e-3)

    def test_can_leave_unit_interval(self):
        state = normalize_pure(overlap2(S_PHI), [1.0, GAMMA_PHI])
        got = chirgwin_coulson_weights(state)
        assert got.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.any((got < 0.0) | (got > 1.0))
        # the Lowdin weights of the same state stay within [0, 1]
        w = weights_pure(state).weights
        assert np.all((w >= 0.0) & (w <= 1.0))


class TestGoldenState:
    def test_orthogonal_limit(self):
        state = golden_state_3d(0.0)
        assert np.allclose(state.coeffs.real, np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0), atol=1e-15)

    def test_normalization_divisor(self):
        state = golden_state_3d(-0.3)
        assert state.coeffs[0].real == pytest.approx(1.0 / np.sqrt(1.2), abs=1e-14)

    def test_near_boundary_uniform_weights(self):
        w = weights_pure(golden_state_3d(-0.49)).weights
        assert np.max(np.abs(w - 1.0 / 3.0)) <= 1e-9

    def test_rejects_out_of_range(self):
        for s in (0.1, -0.5, -0.6):
            with pytest.raises(InvalidParameters):
                golden_state_3d(s)


class TestDensityOperatorValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidParameters):
            DensityOperator(overlap2(0.2), np.array([[0.6, 0.3], [0.1, 0.4]]))

    def test_rejects_non_hermitian_whose_norm_overflows(self):
        # Not taken for the maximally mixed state by averaging 1e308 with -1e308.
        with pytest.raises(InvalidParameters, match="^coefficient matrix asymmetry inf exceeds"):
            DensityOperator(overlap2(0.2), np.array([[0.5, 1e308], [-1e308, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidParameters):
            DensityOperator(overlap2(0.2), np.diag([0.6, 0.6]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidParameters):
            DensityOperator(overlap2(0.2), np.array([[1.2, 0.0], [0.0, -0.2]]))

    @pytest.mark.parametrize("q", [-0.5 - 4e-11, -0.5 - 5e-12])
    def test_degenerate_trace_refused_when_built(self, q):
        # rho is PSD within its tolerance, and Tr(O rho) = 1 + 2qs is about
        # -7e-11 for the first q and 2e-18 for the second: one trace rule
        # refuses both, before any derived call.
        with pytest.raises(DegenerateTrace, match=r"^Tr\(O rho\) = \S+ is too small to normalize$"):
            DensityOperator(overlap2(1 - 1e-11), np.array([[0.5, q], [q, 0.5]]))


class TestGramArgument:
    @pytest.mark.parametrize("build", [
        lambda g: PureState(g, [1.0, 0.0]),
        lambda g: normalize_pure(g, [1.0, 0.0]),
        lambda g: DensityOperator(g, np.eye(2) / 2),
        lambda g: maximally_coherent_image(g, 1),
    ], ids=["PureState", "normalize_pure", "DensityOperator", "maximally_coherent_image"])
    @pytest.mark.parametrize("gram", [np.eye(2), None, OverlapSpec(2)], ids=["ndarray", "None", "OverlapSpec"])
    def test_non_gram_is_a_value_error_naming_gram(self, build, gram):
        # These read gram.dim first and raised AttributeError.
        with pytest.raises(ValueError, match=f"^gram must be a GramMatrix, got {type(gram).__name__}$"):
            build(gram)


class TestKernelsOverStacks:
    @pytest.mark.parametrize("d", [2, 3, 8, 17, 32, 64])
    def test_stack_equals_each_state_to_the_bit(self, d):
        # The per-state ops reach the kernels with one state, the CLI's sweep
        # with a stack. _norm2 and _pure_weights form one state's products
        # by np.dot and a stack's by matmul, which must agree to the bit.
        rng = corpus_rng(83 + d)
        grams = [random_gram_from(rng, d) for _ in range(4)]
        o, half = np.stack([g.matrix for g in grams]), np.stack([g.sqrt for g in grams])
        a = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
        z = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
        rho = z @ z.conj().swapaxes(-1, -2)
        m, tr = states._congruence(half, rho)
        rho_l = states._lowdin_transform(m, tr[:, None, None])
        w, total = states._density_weights(rho_l)
        stacked = (states._norm2(o, a), states._pure_weights(half, a), tr, rho_l, w, total, measures._ipr(w))
        for i in range(4):
            m_i, tr_i = states._congruence(half[i], rho[i])
            rho_l_i = states._lowdin_transform(m_i, tr_i)
            w_i, total_i = states._density_weights(rho_l_i)
            single = (states._norm2(o[i], a[i]), states._pure_weights(half[i], a[i]), tr_i, rho_l_i, w_i, total_i,
                      measures._ipr(w_i))
            assert [np.asarray(x[i]).tobytes() for x in stacked] == [np.asarray(x).tobytes() for x in single]


class TestRhoLowdinFormedOnce:
    def test_one_congruence_of_rho_and_one_of_its_diagonal(self, monkeypatch):
        calls = []

        def counted(m, tr):
            calls.append(m.copy())  # before it is normalized in place
            return _lowdin_transform(m, tr)

        monkeypatch.setattr(states, "_lowdin_transform", counted)
        rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        op = DensityOperator(overlap2(0.4), rho)
        w = weights_density(op).weights
        rho_l = lowdin_density(op).matrix
        artifact, genuine = offdiagonal_decomposition(op)
        half, p = op.gram.sqrt, np.array([0.6, 0.4], dtype=complex)
        assert len(calls) == 2
        assert np.array_equal(calls[0], half @ op.coeffs @ half)
        # The diagonal congruence scales O^{1/2}'s columns; it equals the
        # product through diag(p) to the bit.
        assert calls[1].tobytes() == ((half * p) @ half).tobytes() == (half @ np.diag(p) @ half).tobytes()
        # Every derived result reads the one rho_L, bit for bit.
        expected = half @ op.coeffs @ half
        _lowdin_transform(expected, expected.trace().real)
        assert np.array_equal(rho_l, expected)
        assert np.array_equal(w, np.real(np.diag(expected)))
        assert np.array_equal(genuine + artifact, expected - np.diag(np.diag(expected)))


# Each is refused by its own ValueError, with no numpy warning before it.
class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_pure_state_rejects(self, bad):
        with pytest.raises(ValueError, match="state coefficients contain non-finite"):
            PureState(overlap2(0.2), [bad, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_normalize_pure_rejects(self, bad):
        with pytest.raises(ValueError, match="state coefficients contain non-finite"):
            normalize_pure(overlap2(0.2), [bad, 1.0])

    def test_density_operator_rejects(self):
        rho = np.array([[np.nan, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="coefficient matrix contains non-finite"):
            DensityOperator(overlap2(0.2), rho)

    def test_transformed_state_rejects(self):
        with pytest.raises(ValueError, match="transformed state contains non-finite"):
            LowdinTransformedState(np.array([[np.inf, 0.0], [0.0, 0.5]]))


class TestUnitTracePsdChecks:
    """DensityOperator and LowdinTransformedState share one validator; each
    names its own matrix in the message."""

    @staticmethod
    def _build(kind, m):
        if kind == "coefficient matrix":
            return DensityOperator(overlap2(0.2), m)
        return LowdinTransformedState(m)

    @pytest.mark.parametrize("kind", ["coefficient matrix", "transformed state"])
    @pytest.mark.parametrize("m, problem", [
        ([[0.6, 0.3], [0.1, 0.4]], "asymmetry"),
        ([[0.6, 0.0], [0.0, 0.6]], "trace 1.2 is not 1 within 1e-09"),
        ([[1.2, 0.0], [0.0, -0.2]], "has eigenvalue -2.000e-01 below -1e-10"),
    ])
    def test_same_checks_and_tolerances(self, kind, m, problem):
        with pytest.raises(InvalidParameters, match=f"^{kind} .*{problem}"):
            self._build(kind, np.array(m))

    @pytest.mark.parametrize("kind", ["coefficient matrix", "transformed state"])
    def test_overflowing_trace_refused_without_warning(self, kind):
        # The diagonal's sum overflows; the suite turns a numpy RuntimeWarning into an error.
        m = np.array([[1.5e308, 1e307j], [-1e307j, 1.5e308]])
        with pytest.raises(InvalidParameters, match=f"^{kind} trace inf is not 1 within 1e-09$"):
            self._build(kind, m)

    @pytest.mark.parametrize("kind", ["coefficient matrix", "transformed state"])
    def test_within_tolerance_accepted_and_hermitized(self, kind):
        m = np.array([[0.6, 0.2 + 1e-12j], [0.2, 0.4 + 5e-10]])
        held = self._build(kind, m)
        out = held.coeffs if kind == "coefficient matrix" else held.matrix
        assert np.array_equal(out, out.conj().T)


class TestWeightDistributionType:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightDistribution(np.array([-0.2, 1.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightDistribution(np.array([0.5, 0.6]))

    def test_clamps_roundoff_negatives(self):
        w = WeightDistribution(np.array([1.0, -1e-14, 1e-14]))
        assert np.all(w.weights >= 0.0)

    def test_leaves_callers_array_alone(self):
        raw = np.array([1.0, -1e-14, 1e-14])
        w = WeightDistribution(raw)
        assert raw.flags.writeable and raw.tobytes() == np.array([1.0, -1e-14, 1e-14]).tobytes()
        assert not np.shares_memory(w.weights, raw) and not w.weights.flags.writeable

    def test_negative_zero_stored_as_positive_zero(self):
        w = WeightDistribution(np.array([-0.0, 1.0]))
        assert not np.signbit(w.weights).any()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("raw, message", [
        ([], "weights must be a non-empty finite vector"),
        ([np.nan, -1.0, 2.0], "weights must be a non-empty finite vector"),
        ([-1.0, 2.0, np.nan], "weights must be a non-empty finite vector"),
        ([-np.inf, 1.0], "weights must be a non-empty finite vector"),
        ([np.inf, 0.0], "weights must be a non-empty finite vector"),
        ([-0.2, 1.2], "negative weight -2.000e-01"),
    ])
    def test_first_fault_named_without_warning(self, raw, message):
        # A non-finite weight is named before a negative one.
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightDistribution(np.array(raw))


class TestInvariants:
    def test_weight_normalization_fuzz(self):
        rng = corpus_rng(54)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            g = random_gram_from(rng, dim, (-0.3, 0.3))
            state = normalize_pure(g, rng.normal(size=dim) + 1j * rng.normal(size=dim))
            w = weights_pure(state).weights
            assert np.all(w >= 0.0)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(min_value=-0.9, max_value=0.9),
        gamma=st.floats(min_value=-4.0, max_value=4.0),
        phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
    )
    def test_two_level_family_weights_normalized(self, s, gamma, phase):
        raw = np.array([1.0, gamma * np.exp(1j * phase)])
        state = normalize_pure(overlap2(s), raw)
        w = weights_pure(state).weights
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_born_rule_reduction_is_exact(self):
        state = normalize_pure(identity_gram(3), [0.6, 0.0, 0.8])
        w = weights_pure(state).weights
        assert np.array_equal(w, np.abs(state.coeffs) ** 2)

    def test_representation_invariance(self):
        s1 = np.column_stack(
            [np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([np.sqrt(2.0), 1.0]) / np.sqrt(3.0)]
        )
        s2 = np.column_stack(
            [
                np.array([1.0, 0.0]),
                np.array([(1.0 + np.sqrt(2.0)) / np.sqrt(6.0), (1.0 - np.sqrt(2.0)) / np.sqrt(6.0)]),
            ]
        )
        raw = np.array([1.0, GAMMA_PHI])
        results = []
        for cols in (s1, s2):
            g = gram_from_vectors(cols)
            results.append(weights_pure(normalize_pure(g, raw)).weights)
        reference = weights_pure(normalize_pure(overlap2(S_PHI), raw)).weights
        for w in results:
            assert np.max(np.abs(w - reference)) <= 1e-12

    @pytest.mark.parametrize("s", [0.0, -0.1, -0.3, -0.49])
    def test_golden_uniformity_3d(self, s):
        w = weights_pure(golden_state_3d(s)).weights
        assert np.max(np.abs(w - 1.0 / 3.0)) <= 1e-9

    @pytest.mark.parametrize("s", [0.0, -0.2, -0.45])
    def test_golden_uniformity_2d(self, s):
        # the 2-d analogue is the (+) coherent image, defined for s <= 0
        w = weights_pure(maximally_coherent_image(overlap2(s), +1)).weights
        assert np.max(np.abs(w - 0.5)) <= 1e-9
