"""Delocalization measures over Lowdin weight distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import WeightDistribution

# Weights below this are treated as exact zeros inside the entropy sum.
_ZERO_CLAMP = 1e-15


def _distribution(w) -> WeightDistribution:
    return w if isinstance(w, WeightDistribution) else WeightDistribution(w)


@dataclass(frozen=True)
class MeasureReport:
    """Bundle of the three delocalization measures of one distribution."""

    entropy: float
    participation_ratio: float
    inverse_participation_ratio: float


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
