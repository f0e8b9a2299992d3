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
from lowdin_kit.cli import parse_sweep_spec, run_sweep


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
# Three blocks of gram_schmidt's triangular inverse (block size 32).
COLS65 = _inputs(65)[0]


def _sweep(steps, **fixed):
    # |s| runs past 1/sqrt(2), where a Gram built per step needs a Cholesky proof.
    spec = {"parameter": "s", "range": [-0.95, 0.95], "steps": steps, "fixed": fixed}
    return lambda: run_sweep(parse_sweep_spec(spec))


OPS = {
    # The Cholesky is BasisSet's validation, and O is never diagonalized;
    # R comes from one LAPACK QR and its inverse from one stacked solve.
    "gram_schmidt": (lambda: lk.gram_schmidt(lk.BasisSet(COLS)), {"cholesky": 1, "qr": 1, "solve": 1}),
    "gram_schmidt_d65": (
        lambda: lk.gram_schmidt(lk.BasisSet(COLS65)), {"cholesky": 1, "qr": 1, "solve": 1},
    ),
    # The eigh of O serves its powers or the canonical transform.
    "lowdin_symmetric": (lambda: lk.lowdin_symmetric(lk.BasisSet(COLS)), {"cholesky": 1, "eigh": 1}),
    "lowdin_canonical": (lambda: lk.lowdin_canonical(lk.BasisSet(COLS)), {"cholesky": 1, "eigh": 1}),
    "weights_pure": (
        lambda: lk.weights_pure(lk.normalize_pure(lk.GramMatrix(OVERLAP), RAW)),
        {"cholesky": 1, "eigh": 1},
    ),
    # The second eigh is the PSD check of rho.
    "weights_density": (
        lambda: lk.weights_density(lk.DensityOperator(lk.GramMatrix(OVERLAP), RHO)),
        {"cholesky": 1, "eigh": 2},
    ),
    # A congruence of the validated rho is PSD; rho_L is not diagonalized.
    "lowdin_density": (
        lambda: lk.lowdin_density(lk.DensityOperator(lk.GramMatrix(OVERLAP), RHO)),
        {"cholesky": 1, "eigh": 2},
    ),
    "offdiagonal_decomposition": (
        lambda: lk.offdiagonal_decomposition(lk.DensityOperator(lk.GramMatrix(OVERLAP), RHO)),
        {"cholesky": 1, "eigh": 2},
    ),
    # ||O - I||_F = 0.4 sqrt(2) < 1 proves O positive definite (Weyl).
    "gram_near_identity": (
        lambda: lk.gram_from_overlaps(lk.OverlapSpec(2, [(1, 2, 0.4)])),
        {},
    ),
    # 31 rows over many small Grams; the s=0.5 eigenvalue, sqrt and
    # condition-number rows share one decomposition, the three
    # transformed densities are not diagonalized again, and each Gram
    # and weight distribution used by two rows is built once. Two Grams
    # far from the identity are validated by Cholesky and never need
    # their spectrum.
    "paper_check_rows": (reference_rows, {"eigh": 11, "cholesky": 2}),
    # One stacked eigh of the O of every step in a block of up to 4096 steps,
    # and for the density family one more of every step's rho.
    "sweep_pure_7": (_sweep(7, gamma=0.6), {"eigh": 1}),
    "sweep_pure_2400": (_sweep(2400, gamma=0.6), {"eigh": 1}),
    "sweep_density_7": (_sweep(7, p=0.4, q=0.2), {"eigh": 2}),
    "sweep_density_1600": (_sweep(1600, p=0.4, q=0.2), {"eigh": 2}),
    "sweep_pure_two_blocks": (_sweep(4097, gamma=0.6), {"eigh": 2}),
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
    # Otherwise the Gram matrices would skip the Cholesky proof and the
    # counts below would not cover construction-time validation.
    for cols in (COLS, COLS65):
        assert np.linalg.norm(cols.conj().T @ cols - np.eye(cols.shape[1])) >= 1.0
    assert np.linalg.norm(OVERLAP - np.eye(OVERLAP.shape[0])) >= 1.0


def test_gram_schmidt_solves_against_its_triangular_factor(monkeypatch):
    # The transform is R^{-1} from the engine's own factors, not a solve
    # against the overlap matrix: one solve inverts the stacked diagonal
    # blocks of R (the last one padded with the identity).
    operands = []

    def recording(a, b, _real=np.linalg.solve):
        operands.append(np.array(a))
        return _real(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    for cols, blocks in ((COLS, (1, 6, 6)), (COLS65, (3, 32, 32))):
        operands.clear()
        lk.gram_schmidt(lk.BasisSet(cols))
        (a,) = operands
        assert a.shape == blocks
        assert np.array_equal(a, np.triu(a))


@pytest.mark.parametrize("op", sorted(OPS))
def test_factorization_counts(op, calls):
    run, expected = OPS[op]
    run()
    assert dict(calls) == expected
