import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import CORPUS_SEED, corpus_rng, random_unitary
from lowdin_kit import (
    BasisSet,
    DensityOperator,
    GramMatrix,
    InvalidParameters,
    NotHermitian,
    NotPositiveDefinite,
    OverlapSpec,
    gram_from_overlaps,
    hermitian_eig,
    linalg,
    lowdin_symmetric,
    states,
)
from lowdin_kit.linalg import _check_floor, _half_power, _hermitian_part
from lowdin_kit.states import LowdinTransformedState

EPS = np.finfo(float).eps

# Every Hermitian input passes one gate, linalg._hermitian_part. Each entry
# point names its own matrix and raises its own error for an asymmetry.
GATED = [
    (hermitian_eig, "matrix", NotHermitian),
    (GramMatrix, "overlap matrix", NotHermitian),
    (lambda m: DensityOperator(GramMatrix(np.eye(2)), m), "coefficient matrix", InvalidParameters),
    (LowdinTransformedState, "transformed state", InvalidParameters),
]


def two_level_overlap(s):
    return np.array([[1.0, s], [s, 1.0]], dtype=complex)


def random_hermitian(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (z + z.conj().T)


def random_pd(rng, d, lam_min, lam_max):
    """Hermitian PD matrix with eigenvalues log-spaced in [lam_min, lam_max]."""
    lam = np.exp(rng.uniform(np.log(lam_min), np.log(lam_max), size=d))
    lam[0], lam[-1] = lam_min, lam_max
    u = random_unitary(d, rng)
    return (u * lam) @ u.conj().T


def half_power(m, exponent):
    """m**exponent for exponent +-1/2, by the route GramMatrix.sqrt and the
    symmetric Lowdin engine take."""
    return _half_power(hermitian_eig(m), exponent)


def kappa(m):
    """lambda_max / lambda_min from a Gram matrix's one eigendecomposition."""
    lam = GramMatrix(m).eigen.eigenvalues
    return lam[-1] / lam[0]


class TestHermitianEig:
    def test_two_level_overlap_spectrum(self):
        eig = hermitian_eig(two_level_overlap(0.5))
        assert np.allclose(eig.eigenvalues, [0.5, 1.5], atol=1e-14)
        # eigenvectors are (1, -+1)/sqrt(2) up to phase
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(minus @ eig.eigenvectors[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert abs(abs(plus @ eig.eigenvectors[:, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_identity_input(self):
        eig = hermitian_eig(np.eye(3))
        assert np.allclose(eig.eigenvalues, 1.0)
        u = eig.eigenvectors
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-14)
        assert np.allclose((u * eig.eigenvalues) @ u.conj().T, np.eye(3), atol=1e-14)

    def test_complex_offdiagonal(self):
        # characteristic polynomial l^2 - 4l + 3 = 0 -> l in {1, 3}
        m = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
        assert np.allclose(hermitian_eig(m).eigenvalues, [1.0, 3.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        # ||m||_F = sqrt(2.13), so the tolerance is 1.459e-10.
        for build, what, error in GATED:
            with pytest.raises(error, match=f"^{what} asymmetry 1.000e-01 exceeds 1.459e-10$"):
                build(np.array([[1.0, 0.2], [0.3, 1.0]]))

    @pytest.mark.parametrize("m", [
        [[1.0, 1e308], [-1e308, 1.0]],
        [[1e200, 3e199], [1e199, 1e200]],
        [[1.0, 1e308j], [1e308j, 1.0]],
    ])
    def test_rejects_non_hermitian_whose_norm_overflows(self, m):
        # ||m||_F is inf here, and so may be the largest |m - m+| entry.
        with pytest.raises(NotHermitian, match="^matrix asymmetry"):
            hermitian_eig(np.array(m))

    def test_huge_hermitian_matrix_accepted(self):
        # Its Hermitian part is formed without overflowing, and no warning escapes.
        m = np.array([[1.5e308, 1e307j], [-1e307j, 1.5e308]])
        eig = hermitian_eig(m)
        assert np.allclose(eig.eigenvalues, [1.4e308, 1.6e308], rtol=1e-12)
        assert np.isfinite(eig.eigenvectors).all()

    def test_rejects_non_square(self):
        # GramMatrix words 0x0 and 1x1 input itself (test_gram.py).
        for shape in [(2, 3), (3,), (0, 0), (1, 0), (2, 2, 2)]:
            for build in (hermitian_eig, LowdinTransformedState, GramMatrix):
                if build is GramMatrix and shape == (0, 0):
                    continue
                with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got shape {shape}")):
                    build(np.ones(shape))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            for build, what, _ in GATED:
                with pytest.raises(ValueError, match=f"^{what} contains non-finite entries$"):
                    build(np.array([[0.5, bad], [np.conj(bad), 0.5]]))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_named_before_an_overflowing_asymmetry(self):
        # The finite entries overflow ||m||_F and are far from Hermitian: the
        # non-finite entry is still named first, and no numpy warning comes
        # before the error.
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            for build, what, _ in GATED:
                with pytest.raises(ValueError, match=f"^{what} contains non-finite entries$"):
                    build(np.array([[1e300, bad], [np.conj(bad), -1e300]]))

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 13])
    def test_reconstruction_residual_bound(self, d):
        rng = corpus_rng(d)
        for _ in range(5):
            m = random_hermitian(rng, d)
            eig = hermitian_eig(m)
            norm = np.linalg.norm(m)
            u = eig.eigenvectors
            assert np.linalg.norm((u * eig.eigenvalues) @ u.conj().T - m) <= 10 * d * EPS * norm
            assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 10 * d * EPS
            assert np.all(np.diff(eig.eigenvalues) >= 0)

    @pytest.mark.parametrize("s", [0.0, 0.1, 0.4, 0.5, 0.9, -0.1, -0.4, -0.5, -0.9])
    def test_two_level_closed_form(self, s):
        eig = hermitian_eig(two_level_overlap(s))
        assert np.allclose(eig.eigenvalues, [1.0 - abs(s), 1.0 + abs(s)], atol=1e-15)


class TestMatrixFunction:
    """The Hermitian matrix functions m**(+-1/2) of positive-definite m."""

    def test_sqrt_half_overlap(self):
        got = half_power(two_level_overlap(0.5), 0.5)
        assert np.allclose(got.real, [[0.966, 0.259], [0.259, 0.966]], atol=1e-3)
        # closed form (sqrt(l2) +- sqrt(l1))/2 as the independent route
        hp = 0.5 * (np.sqrt(1.5) + np.sqrt(0.5))
        hm = 0.5 * (np.sqrt(1.5) - np.sqrt(0.5))
        assert np.allclose(got, [[hp, hm], [hm, hp]], atol=1e-14)

    def test_identity_both_exponents(self):
        for expo in (0.5, -0.5):
            assert np.array_equal(half_power(np.eye(4), expo), np.eye(4))

    def test_inv_sqrt_half_overlap(self):
        got = half_power(two_level_overlap(0.5), -0.5)
        # frozen from the closed form (1/sqrt(l2) +- 1/sqrt(l1))/2
        assert np.allclose(
            got.real,
            [[1.115355071650411, -0.2988584907226845],
             [-0.2988584907226845, 1.115355071650411]],
            atol=1e-12,
        )

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            _check_floor(hermitian_eig(np.array([[1.0, 1.0], [1.0, 1.0]])))

    def test_result_is_hermitian(self):
        rng = corpus_rng(101)
        m = random_pd(rng, 6, 1e-3, 1.0)
        for expo in (0.5, -0.5):
            r = half_power(m, expo)
            assert np.array_equal(r, r.conj().T)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_sqrt_squares_back(self, d):
        rng = corpus_rng(200 + d)
        for _ in range(5):
            m = random_pd(rng, d, 1e-6, 1.0)  # condition number 1e6
            root = half_power(m, 0.5)
            assert np.linalg.norm(root @ root - m) <= 1e-10

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_inv_sqrt_inverts_sqrt(self, d):
        rng = corpus_rng(300 + d)
        for _ in range(5):
            m = random_pd(rng, d, 1e-6, 1.0)
            prod = half_power(m, -0.5) @ half_power(m, 0.5)
            assert np.linalg.norm(prod - np.eye(d)) <= 1e-8


class TestFrobeniusNorm:
    """||m||_F sets the scale of the Hermitian gate's tolerance,
    1e-10 max(1, ||m||_F), which its message quotes."""

    @staticmethod
    def tolerance(m) -> str:
        with pytest.raises(NotHermitian) as info:
            hermitian_eig(np.array(m))
        return str(info.value).rsplit(" ", 1)[1]

    def test_zero(self):
        # ||0||_F = 0 puts the tolerance at its floor, 1e-10.
        assert np.array_equal(hermitian_eig(np.zeros((3, 3))).eigenvalues, np.zeros(3))
        assert self.tolerance([[0.0, 2e-10], [0.0, 0.0]]) == "1.000e-10"

    def test_identity(self):
        m = np.eye(3)
        m[0, 1] = 1e-9
        assert self.tolerance(m) == f"{1e-10 * np.sqrt(3.0):.3e}"

    def test_hand_value(self):
        # sqrt(9 + 16) = 5
        assert self.tolerance([[3.0, 4.0], [0.0, 0.0]]) == "5.000e-10"

    def test_complex_entries(self):
        assert self.tolerance([[3.0 + 4.0j]]) == "5.000e-10"


class TestConditionNumber:
    def test_identity(self):
        assert kappa(np.eye(5)) == pytest.approx(1.0, abs=1e-14)

    def test_half_overlap(self):
        assert kappa(two_level_overlap(0.5)) == pytest.approx(3.0, abs=1e-12)

    def test_strong_overlap(self):
        # (1 + 0.9) / (1 - 0.9) = 19
        assert kappa(two_level_overlap(0.9)) == pytest.approx(19.0, rel=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            _check_floor(hermitian_eig(np.array([[1.0, 0.0], [0.0, -1.0]])))


def gate_input(kind: str, d: int, rng, layout: str = "C") -> np.ndarray:
    """A d x d matrix of one class the gate accepts, built from C+C, laid out
    C-ordered, F-ordered or as a non-contiguous slice."""
    c = rng.standard_normal((d + 2, d)) + 1j * rng.standard_normal((d + 2, d))
    m = c.conj().T @ c
    if kind == "rank-deficient density":
        x = c[:d, : max(1, d // 3)]
        m = x @ x.conj().T
        m = m / m.trace().real
    elif kind == "signed zeros":
        mask = rng.random((d, d)) < 0.3
        zeros = rng.choice([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)], size=(d, d))
        m = np.where(mask | mask.T, zeros, m)
    elif kind == "imaginary":
        # 1j * x has a real part of -0.0 wherever x < 0.
        m = 1j * m.imag
        np.fill_diagonal(m, d)
    elif kind == "overflowing norm":
        m = m * 1e200
    elif kind == "subnormal entries":
        m = m * 1e-310
    elif kind == "real":
        m = m.real
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "sliced":
        wide = np.zeros((d, 2 * d), dtype=m.dtype)
        wide[:, ::2] = m
        return wide[:, ::2]
    return m


def refused(build, m, match="has eigenvalue"):
    with pytest.raises(InvalidParameters, match=match):
        build(m)


class TestGateOnce:
    """The gate's output is its own fixed point wherever its Frobenius norm is
    finite, and the Gram's eigendecomposition and rho's PSD check diagonalize it
    as it is through hermitian_eig(..., _gated=True): every matrix passes the
    gate once."""

    @seed(CORPUS_SEED)
    @settings(max_examples=200, deadline=None, database=None)
    @given(kind=st.sampled_from(["C+C", "rank-deficient density", "signed zeros", "imaginary",
                                 "overflowing norm", "subnormal entries", "real"]),
           layout=st.sampled_from(["C", "F", "sliced"]),
           d=st.integers(1, 64), draw=st.integers(0, 2**32 - 1))
    def test_gated_path_keeps_every_byte(self, kind, layout, d, draw):
        m = gate_input(kind, d, np.random.default_rng(draw), layout)
        g = _hermitian_part(m)[0]
        assert g.tobytes() == _hermitian_part(np.ascontiguousarray(m))[0].tobytes()
        again = _hermitian_part(g)[0]
        assert np.array_equal(again, g)
        if np.isfinite(np.vdot(g, g).real):
            assert again.tobytes() == g.tobytes()
        gated, public = hermitian_eig(g, _gated=True), hermitian_eig(g)
        assert gated.eigenvalues.tobytes() == public.eigenvalues.tobytes()
        assert gated.eigenvectors.tobytes() == public.eigenvectors.tobytes()

    def test_gate_output_is_its_own_fixed_point_unless_its_norm_overflows(self):
        # The gate halves real and imaginary parts as floats, so the sign of a
        # zero survives a second pass; eigh's Householder steps read that sign.
        m = np.array([[1.0, complex(-0.0, -0.1)], [complex(-0.0, 0.1), 1.0]])
        g = _hermitian_part(m)[0]
        assert np.signbit(g[1, 0].real) and _hermitian_part(g)[0].tobytes() == g.tobytes()
        # A broadcast input, with zero strides, is halved in a new C-ordered array too.
        g = _hermitian_part(np.broadcast_to(complex(-0.0, 0.0), (3, 3)))[0]
        assert g.flags.c_contiguous and g.tobytes() == np.full((3, 3), complex(-0.0, 0.0)).tobytes()
        # Where ||m||_F overflows the gate halves each entry before adding, so
        # an odd multiple of 2**-1074 rounds away on a second pass.
        m = np.diag([1e200, -1e200, 1.0]).astype(complex)
        m[0, 2] = 1e-323
        m[0, 1], m[1, 0] = complex(-0.0, -0.1), complex(-0.0, 0.1)
        g = _hermitian_part(m)[0]
        assert g[0, 2] == 5e-324 and _hermitian_part(g)[0][0, 2] == 0.0
        assert np.signbit(g[0, 1].real) and np.signbit(g[1, 0].real)  # that branch halves as floats too

    @pytest.mark.parametrize("build, gates", [
        (lambda: GramMatrix(two_level_overlap(0.5)).eigen, 1),
        (lambda: DensityOperator(GramMatrix(two_level_overlap(0.5)), [[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]), 2),
        (lambda: LowdinTransformedState([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]), 1),
        (lambda: lowdin_symmetric(BasisSet(np.array([[1.0, 0.6], [0.0, 0.8]]))), 1),
        (lambda: hermitian_eig(two_level_overlap(0.5)), 1),
        # A zero real part is gated once too, and so is an overflowing ||m||_F;
        # its pinned refusal shows the verdict needs no second pass.
        (lambda: GramMatrix(np.eye(2)).eigen, 1),
        (lambda: DensityOperator(GramMatrix(two_level_overlap(0.5)), [[0.6, 0.2j], [-0.2j, 0.4]]), 2),
        (lambda: gram_from_overlaps(OverlapSpec(3, [(1, 2, 0.4)])).eigen, 1),
        (lambda: refused(LowdinTransformedState, [[1e200, 1, 1], [1, -1e200, 1], [1, 1, 1]],
                         r"^transformed state has eigenvalue -1\.000e\+200 below -1e-10$"), 1),
        (lambda: refused(lambda m: DensityOperator(GramMatrix(np.eye(3)), m),
                         [[1e200, 1, 1], [1, -1e200, 1], [1, 1, 1]],
                         r"^coefficient matrix has eigenvalue -1\.000e\+200 below -1e-10$"), 2),
    ], ids=["GramMatrix.eigen", "DensityOperator", "LowdinTransformedState", "lowdin_symmetric",
            "hermitian_eig", "GramMatrix.eigen, zero real part", "DensityOperator, zero real part",
            "gram_from_overlaps.eigen, unspecified pair", "LowdinTransformedState, overflowing norm",
            "DensityOperator, overflowing norm"])
    def test_gate_passes_per_matrix(self, monkeypatch, build, gates):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return _hermitian_part(*args)

        monkeypatch.setattr(linalg, "_hermitian_part", counted)
        monkeypatch.setattr(states, "_hermitian_part", counted)
        build()
        assert len(calls) == gates
