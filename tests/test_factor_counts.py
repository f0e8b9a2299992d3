"""numpy.linalg factorization calls per public operation on fresh inputs.

Each matrix is factorized once and everything derived from it shares that
factorization. The counts do not depend on the machine, so a change that
adds a redundant factorization fails here. A fresh input starts from raw
arrays: building the BasisSet, GramMatrix or DensityOperator is part of
the operation.
"""

from collections import Counter

import numpy as np
import pytest

import lowdin_kit as lk
from lowdin_kit.checks import reference_rows


def _inputs(d=6):
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    cols /= np.linalg.norm(cols, axis=0)
    overlap = cols.conj().T @ cols
    np.fill_diagonal(overlap, 1.0)
    x = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    rho = x @ x.conj().T
    return cols, overlap, rng.standard_normal(d), rho / np.trace(rho).real


COLS, OVERLAP, RAW, RHO = _inputs()

OPS = {
    "gram_schmidt": (lambda: lk.gram_schmidt(lk.BasisSet(COLS)), {"eigh": 1, "solve": 1}),
    "lowdin_symmetric": (lambda: lk.lowdin_symmetric(lk.BasisSet(COLS)), {"eigh": 1}),
    "lowdin_canonical": (lambda: lk.lowdin_canonical(lk.BasisSet(COLS)), {"eigh": 1}),
    "weights_pure": (
        lambda: lk.weights_pure(lk.normalize_pure(lk.GramMatrix(OVERLAP), RAW)),
        {"eigh": 1},
    ),
    "weights_density": (
        lambda: lk.weights_density(lk.DensityOperator(lk.GramMatrix(OVERLAP), RHO)),
        {"eigh": 2},
    ),
    # A congruence of the validated rho is PSD; rho_L is not diagonalized.
    "lowdin_density": (
        lambda: lk.lowdin_density(lk.DensityOperator(lk.GramMatrix(OVERLAP), RHO)),
        {"eigh": 2},
    ),
    "offdiagonal_decomposition": (
        lambda: lk.offdiagonal_decomposition(lk.DensityOperator(lk.GramMatrix(OVERLAP), RHO)),
        {"eigh": 2},
    ),
    # ||O - I||_F = 0.4 sqrt(2) < 1 proves O positive definite (Weyl).
    "gram_near_identity": (
        lambda: lk.gram_from_overlaps(lk.OverlapSpec(2, [(1, 2, 0.4)])),
        {},
    ),
    # 31 rows over many small Grams; the s=0.5 eigenvalue, sqrt and
    # condition-number rows share one decomposition, and the three
    # transformed densities are not diagonalized again.
    "paper_check_rows": (reference_rows, {"eigh": 17}),
}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    # The other factorizations are counted too, so that a hidden extra one
    # shows up as a count no row expects.
    for name in ("eigh", "eigvalsh", "solve", "svd", "qr", "cholesky", "inv"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_fresh_inputs_are_far_from_identity():
    # Otherwise the Gram matrices would skip the eager eigh and the counts
    # below would not cover construction-time validation.
    assert np.linalg.norm(OVERLAP - np.eye(OVERLAP.shape[0])) >= 1.0


def test_gram_schmidt_solves_against_its_triangular_factor(monkeypatch):
    # The transform is R^{-1} from the engine's own factors, not a solve
    # against the overlap matrix.
    operands = []

    def recording(a, b, _real=np.linalg.solve):
        operands.append(np.array(a))
        return _real(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    lk.gram_schmidt(lk.BasisSet(COLS))
    (a,) = operands
    d = COLS.shape[1]
    assert a.shape == (d, d)
    assert np.array_equal(a, np.triu(a))


@pytest.mark.parametrize("op", sorted(OPS))
def test_factorization_counts(op, calls):
    run, expected = OPS[op]
    run()
    assert dict(calls) == expected
