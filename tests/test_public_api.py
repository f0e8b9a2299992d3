import re
from pathlib import Path

import numpy as np
import pytest

import lowdin_kit

README = Path(__file__).resolve().parent.parent / "README.md"

# The public API. A change to lowdin_kit.__all__ is a deliberate edit of this list.
PUBLIC_NAMES = [
    "BasisSet",
    "ConvergenceFailure",
    "DegenerateTrace",
    "DensityOperator",
    "DimensionMismatch",
    "GramMatrix",
    "HermitianEigenDecomposition",
    "InvalidParameters",
    "LinearlyDependent",
    "LowdinKitError",
    "LowdinTransformedState",
    "MeasureReport",
    "NotHermitian",
    "NotNormalized",
    "NotPositiveDefinite",
    "OrthoMethod",
    "OrthoResult",
    "OverlapSpec",
    "PureState",
    "UnsupportedDimension",
    "WeightDistribution",
    "ZeroState",
    "chirgwin_coulson_weights",
    "closed_form_2d_weights",
    "distortion",
    "golden_state_3d",
    "gram_from_overlaps",
    "gram_from_vectors",
    "gram_schmidt",
    "hermitian_eig",
    "induce_nonorthogonal",
    "inverse_participation_ratio",
    "lowdin_canonical",
    "lowdin_coeffs",
    "lowdin_density",
    "lowdin_symmetric",
    "maximally_coherent_image",
    "measure_report",
    "normalize_pure",
    "offdiagonal_decomposition",
    "participation_ratio",
    "random_gram",
    "shannon_entropy",
    "weights_density",
    "weights_pure",
]


def test_all_is_the_pinned_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert lowdin_kit.__all__ == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace = {}
    exec("from lowdin_kit import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert block, "README has no python block under 'Library quick start'"
    exec(compile(block.group(1), str(README), "exec"), {})
    numbers = [float(x) for x in re.findall(r"\d+\.\d+(?:e[-+]?\d+)?", capsys.readouterr().out)]
    # The block's comments promise weights ~ (0.66, 0.34) and an entropy ~ 0.925 bits.
    assert numbers[:2] == pytest.approx([0.66, 0.34], abs=5e-3)
    assert numbers[2:] == pytest.approx([0.925], abs=5e-4)


_BIG = 10**400  # a Python integer beyond the largest float
_G2 = lowdin_kit.GramMatrix([[1.0, 0.2], [0.2, 1.0]])
_OVERFLOWING_ENTRIES = {
    "PureState": (lambda: lowdin_kit.PureState(_G2, [_BIG, 0]), "state coefficients"),
    "normalize_pure": (lambda: lowdin_kit.normalize_pure(_G2, [_BIG, 0]), "state coefficients"),
    "DensityOperator": (lambda: lowdin_kit.DensityOperator(_G2, [[_BIG, 0], [0, 1]]), "coefficient matrix"),
    "GramMatrix": (lambda: lowdin_kit.GramMatrix([[1, _BIG], [_BIG, 1]]), "overlap matrix"),
    "BasisSet": (lambda: lowdin_kit.BasisSet([[_BIG, 0], [0, 1]]), "basis vectors"),
    "gram_from_vectors": (lambda: lowdin_kit.gram_from_vectors([[_BIG, 0], [0, 1]]), "basis vectors"),
    "WeightDistribution": (lambda: lowdin_kit.WeightDistribution([_BIG, 0]), "weights"),
    "hermitian_eig": (lambda: lowdin_kit.hermitian_eig([[_BIG, 0], [0, 1]]), "matrix"),
    "LowdinTransformedState": (
        lambda: lowdin_kit.LowdinTransformedState([[_BIG, 0], [0, 1]]), "transformed state",
    ),
    "shannon_entropy": (lambda: lowdin_kit.shannon_entropy([_BIG, 0]), "weights"),
    "measure_report": (lambda: lowdin_kit.measure_report([_BIG, 0]), "weights"),
}


@pytest.mark.parametrize("entry", _OVERFLOWING_ENTRIES)
def test_integer_beyond_float_range_is_a_value_error(entry):
    # Each entry names its argument, as OverlapSpec names its pair.
    call, what = _OVERFLOWING_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{what}: entry too large for a float$"):
        call()


# numpy's array conversion and Python's float() parse text; the library does not,
# as the file parser does not. Its scalar arguments are held to the parser's rule.
_NOT_NUMBERS = {
    "GramMatrix": (lambda: lowdin_kit.GramMatrix([["1", "0"], ["0", "1"]]),
                   "overlap matrix: expected numbers, got text"),
    "normalize_pure": (lambda: lowdin_kit.normalize_pure(_G2, ["1", "0"]),
                       "state coefficients: expected numbers, got text"),
    "closed_form_2d_weights": (lambda: lowdin_kit.closed_form_2d_weights("0.5", 0.1, 0.3),
                               "p: expected a number, got '0.5'"),
    "random_gram": (lambda: lowdin_kit.random_gram(3, 1, ("-0.2", "0.2")),
                    "overlap_range: expected a number, got '-0.2'"),
    "golden_state_3d": (lambda: lowdin_kit.golden_state_3d("-0.2"), "s: expected a number, got '-0.2'"),
    "object array": (lambda: lowdin_kit.DensityOperator(_G2, np.array([[0.5, "0"], [0, 0.5]], dtype=object)),
                     "coefficient matrix: expected numbers, got text"),
    "bytes": (lambda: lowdin_kit.WeightDistribution([b"0.5", b"0.5"]), "weights: expected numbers, got text"),
    "bool scalar": (lambda: lowdin_kit.golden_state_3d(False), "s: expected a number, got False"),
    "bool range": (lambda: lowdin_kit.random_gram(3, 1, (False, 0.2)), "overlap_range: expected a number, got False"),
    "big scalar": (lambda: lowdin_kit.closed_form_2d_weights(_BIG, 0.1, 0.3), "p: integer too large for a float"),
    "big range": (lambda: lowdin_kit.random_gram(3, 1, (-_BIG, 0.2)), "overlap_range: integer too large for a float"),
}


@pytest.mark.parametrize("entry", _NOT_NUMBERS)
def test_text_and_bools_are_value_errors(entry):
    call, message = _NOT_NUMBERS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
