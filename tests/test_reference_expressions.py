"""The density and Gram-build paths against their expressions spelled out in
plain numpy, bit for bit, and the Hermitian gate's verdicts and messages
against its spelled-out rule.

The references are the straightforward forms: a Frobenius norm from two real
dot products, fresh arrays for m - m+ and the Hermitian part, np.fill_diagonal,
and WeightDistribution's own checks. The library forms the same values with
fewer numpy calls; every output must keep its bytes.
"""

import math

import numpy as np
import pytest

from conftest import corpus_rng, edge_psd_densities
from lowdin_kit import (
    DensityOperator,
    GramMatrix,
    NotHermitian,
    NotNormalized,
    NotPositiveDefinite,
    WeightDistribution,
    lowdin_density,
    offdiagonal_decomposition,
    weights_density,
)
from lowdin_kit.linalg import _hermitian_part


def _gate(m, error=NotHermitian, what="matrix"):
    a = np.asarray(m, dtype=complex)
    x = a.ravel(order="K")
    with np.errstate(over="ignore"):
        norm2 = float(x.real.dot(x.real) + x.imag.dot(x.imag))
    if math.isfinite(norm2):
        tol = 1e-10 * max(1.0, math.sqrt(norm2))
        dev = float(np.abs(a - a.conj().T).max())
        part = 0.5 * (a + a.conj().T)
    elif not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    else:
        s = a * 2.0**-600
        tol = 1e-10 * float(np.linalg.norm(s, "fro")) * 2.0**600
        dev = float(np.max(np.abs(s - s.conj().T))) * 2.0**600
        part = 0.5 * a + 0.5 * a.conj().T
    if dev > tol:
        raise error(f"{what} asymmetry {dev:.3e} exceeds {tol:.3e}")
    return part


def _half_power(a, exponent):
    lam, u = np.linalg.eigh(_gate(a))
    powered = (u * lam**exponent) @ u.conj().T
    return 0.5 * (powered + powered.conj().T)


def _gram(overlap):
    """GramMatrix's stored O and its failure message, spelled out."""
    a = _gate(overlap, NotHermitian, "overlap matrix")
    off = a - np.eye(a.shape[0])
    diag_dev = float(np.abs(off.diagonal()).max())
    if diag_dev > 1e-9:
        raise NotNormalized(f"diagonal deviates from 1 by {diag_dev:.3e}")
    if np.abs(off).max() >= 1.0:
        mags = np.triu(np.abs(off))
        i, j = np.unravel_index(np.argmax(mags), mags.shape)
        raise NotPositiveDefinite(
            f"an off-diagonal overlap has magnitude >= 1: |O_ij| = {mags[i, j]:.6g} at ({i + 1}, {j + 1})"
        )
    return a


def _lowdin_transform(m):
    m = m / float(m.trace().real)
    return 0.5 * (m + m.conj().T)


def _density(overlap, rho):
    """rho, rho_L, the weights and the off-diagonal split, spelled out."""
    half = _half_power(_gram(overlap), 0.5)
    rho = _gate(rho)
    rho_l = _lowdin_transform(half @ rho @ half)
    weights = WeightDistribution(np.maximum(rho_l.diagonal().real, 0.0)).weights
    p = rho.diagonal()
    artifact = _lowdin_transform((half * (p / p.sum().real)) @ half)
    np.fill_diagonal(artifact, 0.0)
    genuine = rho_l - artifact
    np.fill_diagonal(genuine, 0.0)
    return rho, rho_l, weights, artifact, genuine


def _outcome(f, *args):
    try:
        return "ok", f(*args).tobytes()
    except (ValueError, NotHermitian) as exc:
        return type(exc).__name__, str(exc)


def _complex_overlap(rng, d):
    c = rng.standard_normal((d + 2, d)) + 1j * rng.standard_normal((d + 2, d))
    c /= np.linalg.norm(c, axis=0)
    return c.conj().T @ c  # Hermitian and unit-diagonal to roundoff only


def _complex_density(rng, d, rank):
    x = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _check_density(overlap, rho):
    g = GramMatrix(overlap)
    assert g.matrix.tobytes() == _gram(overlap).tobytes()
    assert g.sqrt.tobytes() == _half_power(g.matrix, 0.5).tobytes()
    op = DensityOperator(g, rho)
    artifact, genuine = offdiagonal_decomposition(op)
    got = (op.coeffs, lowdin_density(op).matrix, weights_density(op).weights, artifact, genuine)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in _density(overlap, rho)]


@pytest.mark.parametrize("d", [2, 8, 32])
def test_density_path_matches_spelled_out_expressions(d):
    rng = corpus_rng(2100 + d)
    for _ in range(3):
        overlap = _complex_overlap(rng, d)
        for rank in sorted({1, min(3, d), d}):
            _check_density(overlap, _complex_density(rng, d, rank))


@pytest.mark.parametrize("case", sorted(edge_psd_densities()))
def test_clipped_weights_match_spelled_out_expressions(case):
    # rho is indefinite by a few 1e-12, so a Lowdin weight is clipped at 0.
    s, rho = edge_psd_densities()[case]
    _check_density(np.array([[1.0, s], [s, 1.0]]), rho)


@pytest.mark.parametrize("overlap", [
    [[1 + 2e-9, 0.3], [0.3, 1]],
    [[1, 0.2, 0.1], [0.2, 1, 1.5], [0.1, 1.5, 1]],
    [[1, 0.2], [0.2 + 1e-6, 1]],
])
def test_gram_refusals_match_spelled_out_messages(overlap):
    with pytest.raises(Exception) as got:
        GramMatrix(np.array(overlap, dtype=complex))
    with pytest.raises(Exception) as want:
        _gram(np.array(overlap, dtype=complex))
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e150, 1e160, 1e200])
@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
def test_gate_verdicts_at_the_tolerance(scale, factor):
    # An asymmetry placed on a zero entry is exactly the deviation the gate
    # measures, 1e-6 of the tolerance away from it. From 1e160 on ||m||_F^2
    # overflows, so the gate measures a scaled copy instead.
    rng = corpus_rng(2200)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (h + h.conj().T) * scale
    h[0, 1] = h[1, 0] = 0.0
    tol = 1e-10 * max(1.0, scale * float(np.linalg.norm(h / scale)))
    h[0, 1] = tol * factor
    got, want = _outcome(_hermitian_part, h), _outcome(_gate, h)
    assert got == want
    assert got[0] == ("ok" if factor < 1 else "NotHermitian")


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf), 1e300])
def test_gate_non_finite_and_overflow(entry):
    m = np.eye(3, dtype=complex)
    m[2, 1] = entry
    m[1, 2] = np.conj(entry) if entry != 1e300 else -1e300
    assert _outcome(_hermitian_part, m) == _outcome(_gate, m)
