"""Built-in reference checks for the worked two- and three-dimensional
examples this library reproduces.

Each row recomputes one published value through the public API and
compares it against the expected number at a stated absolute tolerance.
The CLI exposes these as ``lowdin-kit paper-check``.
"""

from __future__ import annotations

import numpy as np

from .gram import GramMatrix
from .linalg import _Record
from .measures import participation_ratio, shannon_entropy
from .ortho import BasisSet, induce_nonorthogonal, lowdin_symmetric, maximally_coherent_image
from .states import (
    DensityOperator,
    closed_form_2d_weights,
    golden_state_3d,
    lowdin_coeffs,
    lowdin_density,
    normalize_pure,
    offdiagonal_decomposition,
    weights_density,
    weights_pure,
)


class CheckRow(_Record):
    _fields = ("name", "expected", "computed", "tol")

    def __init__(self, name: str, expected: np.ndarray, computed: np.ndarray, tol: float):
        self.__dict__.update(name=name, expected=expected, computed=computed, tol=tol)

    @property
    def delta(self) -> float:
        return float(np.max(np.abs(self.computed - self.expected)))

    @property
    def passed(self) -> bool:
        return self.delta <= self.tol


def _row(name, expected, computed, tol) -> CheckRow:
    return CheckRow(
        name=name,
        expected=np.asarray(expected, dtype=float),
        computed=np.asarray(computed, dtype=float),
        tol=tol,
    )


def _gram2(s: float) -> GramMatrix:
    return GramMatrix(np.array([[1.0, s], [s, 1.0]], dtype=complex))


def _beta_weights(s: float, gamma: float):
    return weights_pure(normalize_pure(_gram2(s), [1.0, gamma]))


def reference_rows() -> list[CheckRow]:
    rows = []
    half = _gram2(0.5)

    # Eigenstructure of the s = 1/2 overlap matrix: eigenvalues 1 -+ s.
    lam = half.eigen.eigenvalues
    rows.append(_row("overlap s=0.5: eigenvalues (1-s, 1+s)", [0.5, 1.5], lam, 1e-12))
    rows.append(_row("sqrt(O) s=0.5: diagonal entry", 0.966, half.sqrt[0, 0].real, 1e-3))
    rows.append(_row("sqrt(O) s=0.5: off-diagonal entry", 0.259, half.sqrt[0, 1].real, 1e-3))
    rows.append(_row("condition number s=0.5: (1+s)/(1-s)", 3.0, lam[-1] / lam[0], 1e-10))

    # One of the equivalent representations of the same 2-d geometry:
    # c1 = (|1> + |2>)/sqrt(2), c2 = (sqrt(2)|1> + |2>)/sqrt(3).
    s1 = BasisSet(
        np.column_stack(
            [
                np.array([1.0, 1.0]) / np.sqrt(2.0),
                np.array([np.sqrt(2.0), 1.0]) / np.sqrt(3.0),
            ]
        )
    )
    rows.append(
        _row(
            "overlap of the sqrt(2)-representation basis",
            (1.0 + np.sqrt(2.0)) / np.sqrt(6.0),
            s1.gram.matrix[0, 1].real,
            1e-12,
        )
    )
    rows.append(_row("assembled overlap matrix s=0.5: off-diagonal", 0.5, half.matrix[0, 1].real, 1e-15))

    golden = golden_state_3d(-0.3)
    rows.append(
        _row(
            "3d golden-state overlaps s=-0.3: smallest eigenvalue 1+2s",
            0.4,
            golden.gram.eigen.eigenvalues[0],
            1e-12,
        )
    )

    # Symmetric orthogonalization of a concrete s = 1/2 plane basis.
    plane = BasisSet(np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]]))
    lam2, lam1 = 1.5, 0.5
    rows.append(
        _row(
            "symmetric transform s=0.5: T_11 = (1/sqrt(l2)+1/sqrt(l1))/2",
            0.5 * (1.0 / np.sqrt(lam2) + 1.0 / np.sqrt(lam1)),
            lowdin_symmetric(plane).transform[0, 0].real,
            1e-12,
        )
    )
    rows.append(
        _row(
            "induced basis s=0.5: first column of O^{1/2}",
            [0.5 * (np.sqrt(lam2) + np.sqrt(lam1)), 0.5 * (np.sqrt(lam2) - np.sqrt(lam1))],
            induce_nonorthogonal(half).vectors[:, 0].real,
            1e-12,
        )
    )
    rows.append(
        _row(
            "coherent image (+) at s=-0.5: coefficients (1, 1)",
            [1.0, 1.0],
            maximally_coherent_image(_gram2(-0.5), +1).coeffs.real,
            1e-12,
        )
    )

    # The basis-independent superposition state with overlap (1+sqrt2)/sqrt6
    # is normalized as written.
    s_phi = (1.0 + np.sqrt(2.0)) / np.sqrt(6.0)
    a_phi = np.array([1.0, -(2.0 + np.sqrt(2.0)) / np.sqrt(3.0)], dtype=complex)
    g_phi = _gram2(s_phi)
    rows.append(
        _row(
            "literal superposition coefficients: norm a+Oa",
            1.0,
            np.real(a_phi.conj() @ g_phi.matrix @ a_phi),
            1e-12,
        )
    )
    rows.append(
        _row(
            "normalization divisor gamma=0.6 s=0.4: sqrt(1.84)",
            np.sqrt(1.84),
            np.real(
                np.sqrt(
                    np.array([1, 0.6]) @ _gram2(0.4).matrix @ np.array([1, 0.6])
                )
            ),
            1e-12,
        )
    )
    rows.append(
        _row(
            "orthonormal coeffs of coherent image (+) at s=-0.3",
            [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
            lowdin_coeffs(maximally_coherent_image(_gram2(-0.3), +1)).real,
            1e-9,
        )
    )
    rows.append(
        _row(
            "orthonormal coeffs of coherent image (-) at s=0.3",
            [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)],
            lowdin_coeffs(maximally_coherent_image(_gram2(0.3), -1)).real,
            1e-9,
        )
    )

    beta_04 = _beta_weights(0.4, 0.6)
    beta_01 = _beta_weights(0.1, 0.6)
    rows.append(_row("weights gamma=0.6 s=0.4", [0.66, 0.34], beta_04.weights, 1e-2))
    rows.append(_row("weights gamma=0.6 s=0.1", [0.715, 0.285], beta_01.weights, 1e-3))
    rows.append(
        _row("golden-state weights s=-0.3: uniform 1/3", [1 / 3, 1 / 3, 1 / 3], weights_pure(golden).weights, 1e-9)
    )

    mixed = DensityOperator(half, np.array([[0.6, 0.2], [0.2, 0.4]]))
    diagonal = DensityOperator(half, np.diag([0.6, 0.4]))
    maxmixed = DensityOperator(half, np.eye(2) / 2.0)
    rows.append(
        _row(
            "transformed density (mixed example)",
            [[0.572, 0.375], [0.375, 0.428]],
            lowdin_density(mixed).matrix.real,
            1e-3,
        )
    )
    rows.append(
        _row(
            "transformed density (diagonal example)",
            [[0.587, 0.25], [0.25, 0.413]],
            lowdin_density(diagonal).matrix.real,
            1e-3,
        )
    )
    rows.append(
        _row(
            "transformed density (maximally mixed)",
            [[0.5, 0.25], [0.25, 0.5]],
            lowdin_density(maxmixed).matrix.real,
            1e-9,
        )
    )
    rows.append(_row("weights (mixed example)", [0.572, 0.428], weights_density(mixed).weights, 1e-3))
    rows.append(_row("weights (diagonal example)", [0.587, 0.413], weights_density(diagonal).weights, 1e-3))
    rows.append(_row("weights (maximally mixed)", [0.5, 0.5], weights_density(maxmixed).weights, 1e-9))
    rows.append(
        _row(
            "closed-form w1 at (p, q, s) = (0.6, 0.2, 0.5)",
            0.5722,
            closed_form_2d_weights(0.6, 0.2, 0.5).weights[0],
            1e-4,
        )
    )
    rows.append(
        _row(
            "closed form q=0, s=0 reduces to (p, 1-p), p=0.37",
            [0.37, 0.63],
            closed_form_2d_weights(0.37, 0.0, 0.0).weights,
            1e-12,
        )
    )
    artifact, genuine = offdiagonal_decomposition(diagonal)
    rows.append(_row("decomposition (diagonal example): artifact off-diagonal", 0.25, artifact[0, 1].real, 1e-9))
    rows.append(_row("decomposition (diagonal example): genuine part", 0.0, np.max(np.abs(genuine)), 1e-9))

    rows.append(_row("entropy of weights gamma=0.6 s=0.4", 0.925, shannon_entropy(beta_04), 2e-3))
    rows.append(_row("entropy of weights gamma=0.6 s=0.1", 0.862, shannon_entropy(beta_01), 2e-3))
    rows.append(
        _row(
            "entropy at s=0, gamma=1: maximal",
            1.0,
            shannon_entropy(_beta_weights(0.0, 1.0)),
            1e-12,
        )
    )
    rows.append(
        _row("participation ratio of golden-state weights", 3.0, participation_ratio(weights_pure(golden)), 1e-9)
    )
    return rows


def _display(arr: np.ndarray) -> str:
    a = np.atleast_1d(arr)
    if a.ndim == 1:
        return ", ".join(f"{x:.6g}" for x in a)
    return "; ".join(", ".join(f"{x:.6g}" for x in row) for row in a)


def render_table(rows: list[CheckRow]) -> str:
    header = f"{'check':<58} {'expected':<24} {'computed':<24} {'|delta|':<9} {'tol':<7} status"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:<58} {_display(r.expected):<24} {_display(r.computed):<24} "
            f"{r.delta:<9.2e} {r.tol:<7.0e} {'PASS' if r.passed else 'FAIL'}"
        )
    n_pass = sum(r.passed for r in rows)
    lines.append("-" * len(header))
    lines.append(f"{len(rows)} checks: {n_pass} passed, {len(rows) - n_pass} failed")
    return "\n".join(lines)
