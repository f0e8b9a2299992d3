"""Exact numpy.linalg call counts per public operation on a fresh input.

A fresh input means the op starts from raw arrays, so building the
BasisSet, GramMatrix or DensityOperator is part of it. The counts do not
depend on the machine; a change that removes redundant factorizations
updates EXPECTED on purpose, in the same commit.

    python -m pytest perfbench/tests
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import lowdin_kit as lk  # noqa: E402
import lowdin_kit.cli as lk_cli  # noqa: E402
from tracer import LAYER, NAME, PARENT, Tracer  # noqa: E402

EXPECTED = {
    "gram_schmidt": {"eigh": 2, "solve": 1},
    "lowdin_symmetric": {"eigh": 3},
    "lowdin_canonical": {"eigh": 2},
    "weights_pure": {"eigh": 2},
    "weights_density": {"eigh": 4},
    "offdiagonal_decomposition": {"eigh": 5},
}


def _inputs(d=6):
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    cols /= np.linalg.norm(cols, axis=0)
    overlap = cols.conj().T @ cols
    np.fill_diagonal(overlap, 1.0)
    x = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    rho = x @ x.conj().T
    return cols, overlap, rng.standard_normal(d), rho / np.trace(rho).real


def _ops():
    cols, overlap, raw, rho = _inputs()
    return {
        "gram_schmidt": lambda: lk.gram_schmidt(lk.BasisSet(cols)),
        "lowdin_symmetric": lambda: lk.lowdin_symmetric(lk.BasisSet(cols)),
        "lowdin_canonical": lambda: lk.lowdin_canonical(lk.BasisSet(cols)),
        "weights_pure": lambda: lk.weights_pure(lk.normalize_pure(lk.GramMatrix(overlap), raw)),
        "weights_density": lambda: lk.weights_density(lk.DensityOperator(lk.GramMatrix(overlap), rho)),
        "offdiagonal_decomposition": lambda: lk.offdiagonal_decomposition(
            lk.DensityOperator(lk.GramMatrix(overlap), rho)),
    }


def _traced(fn):
    with Tracer() as tracer:
        tracer.begin_op(0)
        fn()
        tracer.end_op()
    return tracer


def _lapack_counts(tracer) -> dict:
    return dict(Counter(s[NAME].split(".", 1)[1] for s in tracer.spans if s[LAYER] == "lapack"))


@pytest.mark.parametrize("op", sorted(EXPECTED))
def test_factorization_counts(op):
    assert _lapack_counts(_traced(_ops()[op])) == EXPECTED[op]


def test_spans_reach_names_bound_by_import_and_dict():
    """states calls hermitian_eig by its imported name, gram through the
    linalg module, and the CLI dispatches lowdin-sym through a dict."""
    cols, overlap, _, rho = _inputs()
    tracer = _traced(lambda: (lk.DensityOperator(lk.GramMatrix(overlap), rho),
                              lk_cli._METHODS["lowdin-sym"](lk.BasisSet(cols))))
    parents = {tracer.spans[s[PARENT]][NAME] for s in tracer.spans
               if s[NAME] == "linalg.hermitian_eig" and s[PARENT] >= 0}
    assert {"states.DensityOperator", "gram.GramMatrix.eigen"} <= parents
    assert "ortho.lowdin_symmetric" in {s[NAME] for s in tracer.spans}


def test_cached_power_hits_are_counted():
    _, overlap, raw, _ = _inputs()
    tracer = _traced(lambda: [lk.weights_pure(lk.normalize_pure(g, raw))
                              for g in [lk.GramMatrix(overlap)] for _ in range(3)])
    assert tracer.misses["gram.GramMatrix.sqrt"] == 1
    assert tracer.hits["gram.GramMatrix.sqrt"] == 2


def test_uninstall_restores_every_name():
    originals = (np.linalg.eigh, lk.gram_schmidt, lk_cli._METHODS["lowdin-can"],
                 vars(lk.GramMatrix)["sqrt"], lk.GramMatrix.__init__)
    _traced(_ops()["gram_schmidt"])
    assert (np.linalg.eigh, lk.gram_schmidt, lk_cli._METHODS["lowdin-can"],
            vars(lk.GramMatrix)["sqrt"], lk.GramMatrix.__init__) == originals
