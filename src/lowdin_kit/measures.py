"""Delocalization measures over Lowdin weight distributions."""

from __future__ import annotations

import numpy as np

from .linalg import _ValueRecord
from .states import WeightDistribution

# Weights below this are treated as exact zeros inside the entropy sum.
_ZERO_CLAMP = 1e-15


def _distribution(w) -> WeightDistribution:
    return w if isinstance(w, WeightDistribution) else WeightDistribution(w)


class MeasureReport(_ValueRecord):
    """Bundle of the three delocalization measures of one distribution."""

    _fields = ("entropy", "participation_ratio", "inverse_participation_ratio")

    def __init__(self, entropy: float, participation_ratio: float, inverse_participation_ratio: float):
        self.__dict__.update(entropy=entropy, participation_ratio=participation_ratio,
                             inverse_participation_ratio=inverse_participation_ratio)


def shannon_entropy(w) -> float:
    """H = -sum w_k log2 w_k in bits, with 0 log 0 = 0.

    Zero for a point mass, log2(d) for the uniform distribution.
    """
    weights = _distribution(w).weights
    nonzero = weights[weights > _ZERO_CLAMP]
    return -float((nonzero * np.log2(nonzero)).sum())


def participation_ratio(w) -> float:
    """PR = 1 / sum w_k^2, the effective number of occupied basis states."""
    return 1.0 / inverse_participation_ratio(w)


def inverse_participation_ratio(w) -> float:
    """IPR = sum w_k^2; higher values mean stronger localization."""
    weights = _distribution(w).weights
    return float((weights**2).sum())


def measure_report(w) -> MeasureReport:
    w = _distribution(w)
    ipr = inverse_participation_ratio(w)
    return MeasureReport(
        entropy=shannon_entropy(w),
        participation_ratio=1.0 / ipr,
        inverse_participation_ratio=ipr,
    )
