"""Pure states and density operators over non-orthogonal bases.

Coefficients live in the non-orthogonal basis; the symmetric
orthogonalizer O^{1/2} maps them onto the orthonormal (computational)
frame, where the squared magnitudes form the Lowdin weight distribution.
Its private kernels work over leading stack axes and refuse nothing: the ops
raise on what they return for one state, the CLI's sweep masks a stack on it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateTrace, InvalidParameters, ZeroState
from .gram import GramMatrix, OverlapSpec, gram_from_overlaps
from .linalg import _as_array, _as_real, _derived, _hermitian_part, _Record, hermitian_eig

_PSD_TOL, _TRACE_TOL, _WEIGHT_SUM_TOL, _NEGATIVE_WEIGHT_TOL = 1e-10, 1e-9, 1e-9, 1e-12
# At or below these a+ O a or Tr(O^{1/2} rho O^{1/2}) is too small to normalize by.
_MIN_NORM2, _MIN_TRACE = 1e-24, 1e-12


def _check_gram(gram) -> None:
    if not isinstance(gram, GramMatrix):
        raise ValueError(f"gram must be a GramMatrix, got {type(gram).__name__}")


def _norm2(o: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a+ O a over leading stack axes. One state's products go through np.dot: matmul
    gives the same bits at a higher cost per call."""
    if a.ndim == 1:
        return a.conj().dot(o).dot(a).real
    return (a.conj()[..., None, :] @ o @ a[..., None])[..., 0, 0].real


def _pure_weights(half: np.ndarray, a: np.ndarray) -> np.ndarray:
    """|O^{1/2} a|^2 over its sum, over leading stack axes (.T puts them last, where the sums
    broadcast); O^{1/2} a is formed as in _norm2."""
    w = np.abs(half.dot(a) if a.ndim == 1 else (half @ a[..., None])[..., 0]) ** 2
    return (w.T / w.sum(-1)).T


def _congruence(half: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m = O^{1/2} rho O^{1/2} and its real trace Tr(O rho), over leading stack axes."""
    m = half @ rho @ half
    return m, m.trace(0, -2, -1).real


def _lowdin_transform(m: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Unit-trace Hermitian part of congruences m of traces tr, in m's buffer; a stack's tr takes
    two trailing unit axes to broadcast against m. PSD as rho is, so not checked."""
    m /= tr
    m += m.conj().swapaxes(-1, -2)
    m *= 0.5
    return m


def _density_weights(rho_lowdin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of rho_L clipped at 0, and its sum, over leading stack axes."""
    w = np.maximum(rho_lowdin.diagonal(0, -2, -1).real, 0.0)
    return w, w.sum(-1)


def _coefficient_vector(raw, gram: GramMatrix) -> tuple[np.ndarray, float]:
    """Complex copy a of raw, one finite entry per basis vector, and a finite a+ O a."""
    _check_gram(gram)
    a = _as_array(raw, "state coefficients", copy=True).reshape(-1)
    if a.shape[0] != gram.dim:
        raise ValueError(f"coefficient length {a.shape[0]} != overlap dimension {gram.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf entry or a huge one is refused below
        norm2 = float(_norm2(gram.matrix, a))
    if not math.isfinite(norm2):  # the entries are scanned only then, not on every valid state
        what = "contain non-finite entries" if not np.isfinite(a).all() else f"overflow a+Oa = {norm2!r}"
        raise ValueError(f"state coefficients {what}")
    return a, norm2


def _unit_trace_psd(m, what: str) -> np.ndarray:
    """Hermitian part of m from linalg's gate, after checking Tr m = 1 and m >= 0.
    The PSD check diagonalizes the gate's output as it is, with
    hermitian_eig(_gated=True)."""
    m = _hermitian_part(m, InvalidParameters, what)
    with np.errstate(over="ignore"):  # an overflowing trace is refused as inf
        tr = float(m.trace().real)
    if abs(tr - 1.0) > _TRACE_TOL:
        raise InvalidParameters(f"{what} trace {tr!r} is not 1 within {_TRACE_TOL}")
    lam_min = float(hermitian_eig(m, _gated=True).eigenvalues[0])
    if lam_min < -_PSD_TOL:
        raise InvalidParameters(f"{what} has eigenvalue {lam_min:.3e} below -{_PSD_TOL:.0e}")
    return m


class PureState(_Record):
    """Normalized pure state: coefficients a over a basis with overlap O,
    satisfying a+ O a = 1."""

    _fields = ("gram", "coeffs")

    def __init__(self, gram: GramMatrix, coeffs: np.ndarray):
        a, norm2 = _coefficient_vector(coeffs, gram)
        if abs(norm2 - 1.0) > _TRACE_TOL:
            raise ValueError(f"state norm a+Oa = {norm2!r} is not 1 within {_TRACE_TOL}")
        self._store({"gram": gram, "coeffs": a})

    @property
    def dim(self) -> int:
        return self.gram.dim


class DensityOperator(_Record):
    """Hermitian PSD coefficient matrix rho with Tr(rho) = 1 over a
    non-orthogonal basis. Its rho_L is formed once, when it is built:
    DegenerateTrace if Tr(O^{1/2} rho O^{1/2}) <= 1e-12."""

    _fields = ("gram", "coeffs")

    def __init__(self, gram: GramMatrix, coeffs: np.ndarray):
        _check_gram(gram)
        rho = _as_array(coeffs, "coefficient matrix")
        d = gram.dim
        if rho.shape != (d, d):
            raise ValueError(f"coefficient matrix shape {rho.shape} != ({d}, {d})")
        rho = _unit_trace_psd(rho, "coefficient matrix")
        m, tr = _congruence(gram.sqrt, rho)
        if float(tr) <= _MIN_TRACE:
            raise DegenerateTrace(f"Tr(O rho) = {float(tr)!r} is too small to normalize")
        self._store({"gram": gram, "coeffs": rho, "_rho_lowdin": _lowdin_transform(m, tr)})

    @property
    def dim(self) -> int:
        return self.gram.dim


class LowdinTransformedState(_Record):
    """Trace-1 Hermitian PSD matrix in the orthonormal Lowdin frame. One that
    lowdin_density derives is not re-checked: it is PSD up to rho's tolerance
    carried through the congruence, lambda_min >= -1e-10 lambda_max(O) / Tr(O rho)."""

    _fields = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self._store({"matrix": _unit_trace_psd(matrix, "transformed state")})


class WeightDistribution(_Record):
    """Probability vector of Lowdin weights, in its own copy. Its least and greatest
    weights prove it finite (a NaN reaches both); weights in (-1e-12, 0] are stored as +0.0."""

    _fields = ("weights",)

    def __init__(self, weights: np.ndarray):
        w = _as_array(weights, "weights", float, copy=True).reshape(-1)
        lo, hi = (float(w.min()), float(w.max())) if w.size else (math.nan, math.nan)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("weights must be a non-empty finite vector")
        if lo < -_NEGATIVE_WEIGHT_TOL:
            raise ValueError(f"negative weight {lo:.3e}")
        np.maximum(w, 0.0, out=w)
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1 within {_WEIGHT_SUM_TOL}")
        self._store({"weights": w})

    def __len__(self) -> int:
        return self.weights.shape[0]


def normalize_pure(gram: GramMatrix, raw) -> PureState:
    """Scale a raw coefficient vector so that a+ O a = 1."""
    a, norm2 = _coefficient_vector(raw, gram)
    if norm2 <= _MIN_NORM2:
        raise ZeroState("raw coefficient vector has zero norm under the overlap metric")
    return _derived(PureState, gram=gram, coeffs=a / math.sqrt(norm2))


def lowdin_coeffs(state: PureState) -> np.ndarray:
    """Coefficients b = O^{1/2} a of the state in the orthonormal frame."""
    return state.gram.sqrt.dot(state.coeffs)


def weights_pure(state: PureState) -> WeightDistribution:
    """Lowdin weights w_k = |b_k|^2 / ||b||^2 of a pure state, b = O^{1/2} a.
    Divided by their own sum, as rho_L is by its trace, they are a distribution
    by construction and are not checked again."""
    return _derived(WeightDistribution, weights=_pure_weights(state.gram.sqrt, state.coeffs))


def lowdin_density(op: DensityOperator) -> LowdinTransformedState:
    """rho_L = O^{1/2} rho O^{1/2} / Tr(O^{1/2} rho O^{1/2}), formed when op was built."""
    return _derived(LowdinTransformedState, matrix=op._rho_lowdin)


def weights_density(op: DensityOperator) -> WeightDistribution:
    """Diagonal of op's stored rho_L; coincides with weights_pure on rank-1 projectors.
    rho's PSD tolerance can leave a weight slightly below 0; it is clipped, and
    ValueError("weights sum to ...") bounds how much may be clipped. A clipped
    diagonal of the finite rho_L needs none of WeightDistribution's other checks."""
    w, total = _density_weights(op._rho_lowdin)
    if abs(float(total) - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {float(total)!r}, not 1 within {_WEIGHT_SUM_TOL}")
    return _derived(WeightDistribution, weights=w)


def closed_form_2d_weights(p: float, q: float, s: float) -> WeightDistribution:
    """Closed-form Lowdin weights for rho = [[p, q], [q, 1-p]] with real
    overlap s:

        w_1 = [1 + (2p - 1) sqrt(1 - s^2) + 2 q s] / (2 + 4 q s)

    Raises ValueError unless p, q and s are real numbers (not bools or text),
    and InvalidParameters when rho is not PSD or the denominator is not positive.
    """
    p, q, s = _as_real(p, "p"), _as_real(q, "q"), _as_real(s, "s")
    if not (0.0 <= p <= 1.0):
        raise InvalidParameters(f"p = {p} outside [0, 1]")
    if not (-1.0 < s < 1.0):
        raise InvalidParameters(f"s = {s} outside (-1, 1)")
    if not (q * q <= p * (1.0 - p) + 1e-15):  # NaN fails too
        raise InvalidParameters(f"rho(p={p}, q={q}) is not positive semi-definite")
    denom = 2.0 + 4.0 * q * s
    if denom <= 0.0:
        raise InvalidParameters(f"denominator 2 + 4qs = {denom} is not positive")
    w1 = (1.0 + (2.0 * p - 1.0) * np.sqrt(1.0 - s * s) + 2.0 * q * s) / denom
    return WeightDistribution(np.array([w1, 1.0 - w1]))


def offdiagonal_decomposition(op: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """Split the off-diagonals of rho_L into overlap artifacts and genuine
    superposition content.

    The artifact part is what the diagonal (superposition-free) part of
    rho alone produces in the Lowdin frame; the genuine part is the
    remainder.
    """
    half, p = op.gram.sqrt, op.coeffs.diagonal()
    artifact = (half * (p / p.sum().real)) @ half
    _lowdin_transform(artifact, artifact.trace().real)
    artifact.reshape(-1)[:: op.dim + 1] = 0.0  # the diagonal, as a view of the fresh array
    genuine = op._rho_lowdin - artifact
    genuine.reshape(-1)[:: op.dim + 1] = 0.0
    return artifact, genuine


def chirgwin_coulson_weights(state: PureState) -> np.ndarray:
    """Chirgwin-Coulson populations w_k = Re(a_k* [O a]_k).

    They sum to 1 but, unlike Lowdin weights, may be negative or exceed
    1; provided as a comparison baseline.
    """
    a = state.coeffs
    return np.real(np.conj(a) * (state.gram.matrix @ a))


def golden_state_3d(s: float) -> PureState:
    """Representative maximal superposition state in dimension 3.

    Built over the overlap pattern <c1|c2> = s, <c1|c3> = <c2|c3> = -s
    with s in (-1/2, 0], a real number (not a bool or text); its Lowdin
    weights are uniform. Derived, not re-checked: the Gram's diagonal is exactly 1
    and 1 + 2s rounds at most once, so a+ O a = 1 to a few ulps.
    """
    s = _as_real(s, "s")
    if not (-0.5 < s <= 0.0):
        raise InvalidParameters(f"s = {s} outside (-1/2, 0]")
    g = gram_from_overlaps(OverlapSpec(3, [(1, 2, s), (1, 3, -s), (2, 3, -s)]))
    coeffs = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0 * (1.0 + 2.0 * s))
    return _derived(PureState, gram=g, coeffs=coeffs.astype(complex))
