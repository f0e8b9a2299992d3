import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdin_kit import (
    OverlapSpec,
    WeightDistribution,
    gram_from_overlaps,
    inverse_participation_ratio,
    measure_report,
    normalize_pure,
    participation_ratio,
    shannon_entropy,
    weights_pure,
)
from lowdin_kit import measures


def distributions(min_size=2, max_size=8):
    """Strategy for normalized weight vectors."""
    return (
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=min_size, max_size=max_size)
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


class TestShannonEntropy:
    def test_beta_weights_s04(self):
        assert shannon_entropy([0.66, 0.34]) == pytest.approx(0.925, abs=2e-3)

    def test_beta_weights_s01(self):
        assert shannon_entropy([0.715, 0.285]) == pytest.approx(0.862, abs=2e-3)

    def test_uniform_two_level_exact(self):
        assert shannon_entropy([0.5, 0.5]) == 1.0

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log2_d(self):
        for d in (2, 3, 4, 8):
            w = np.full(d, 1.0 / d)
            assert shannon_entropy(w) == pytest.approx(np.log2(d), abs=1e-12)

    def test_zero_weights_ignored(self):
        assert shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0, abs=1e-15)


class TestParticipationRatio:
    def test_uniform_three_level(self):
        assert participation_ratio([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass(self):
        assert participation_ratio([1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_beta_weights(self):
        # 1 / (0.66^2 + 0.34^2)
        assert participation_ratio([0.66, 0.34]) == pytest.approx(1.8142235123, abs=1e-9)
        assert participation_ratio([0.66, 0.34]) == pytest.approx(1.8143, abs=1e-3)


class TestInverseParticipationRatio:
    def test_uniform(self):
        for d in (2, 5):
            assert inverse_participation_ratio(np.full(d, 1.0 / d)) == pytest.approx(
                1.0 / d, abs=1e-15
            )

    def test_point_mass(self):
        assert inverse_participation_ratio([1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_beta_weights(self):
        assert inverse_participation_ratio([0.715, 0.285]) == pytest.approx(0.59245, abs=1e-9)
        assert inverse_participation_ratio([0.715, 0.285]) == pytest.approx(0.5925, abs=1e-3)


class TestMeasureReport:
    def test_bundle_consistency(self):
        r = measure_report([0.66, 0.34])
        assert r.entropy == shannon_entropy([0.66, 0.34])
        assert r.participation_ratio * r.inverse_participation_ratio == pytest.approx(
            1.0, abs=1e-12
        )

    def test_bounds(self):
        r = measure_report([0.9, 0.05, 0.05])
        assert 0.0 <= r.entropy <= np.log2(3)
        assert 1.0 <= r.participation_ratio <= 3.0
        assert 1.0 / 3.0 <= r.inverse_participation_ratio <= 1.0

    def test_raw_vector_is_checked_once(self, monkeypatch):
        expected = measure_report(WeightDistribution(np.array([0.66, 0.34])))
        built = []

        class Counted(WeightDistribution):
            def __init__(self, weights):
                built.append(self)
                super().__init__(weights)

        monkeypatch.setattr(measures, "WeightDistribution", Counted)
        r = measure_report([0.66, 0.34])
        assert len(built) == 1
        assert r == expected


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(w=distributions())
    def test_permutation_invariance(self, w):
        rng = np.random.default_rng(int(w.size))
        perm = rng.permutation(w.size)
        shuffled = w[perm]
        assert shannon_entropy(shuffled) == pytest.approx(shannon_entropy(w), abs=1e-12)
        assert participation_ratio(shuffled) == pytest.approx(participation_ratio(w), abs=1e-9)
        assert inverse_participation_ratio(shuffled) == pytest.approx(
            inverse_participation_ratio(w), abs=1e-12
        )

    @settings(max_examples=80, deadline=None)
    @given(w=distributions())
    def test_reciprocity(self, w):
        assert participation_ratio(w) * inverse_participation_ratio(w) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_two_level_monotone_in_imbalance(self):
        ts = np.linspace(0.5, 0.95, 10)
        entropies = [shannon_entropy([t, 1.0 - t]) for t in ts]
        prs = [participation_ratio([t, 1.0 - t]) for t in ts]
        assert entropies[0] == pytest.approx(1.0, abs=1e-12)
        assert prs[0] == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.diff(entropies) < 0)
        assert np.all(np.diff(prs) < 0)
        # symmetric under t -> 1 - t
        assert shannon_entropy([0.3, 0.7]) == pytest.approx(
            shannon_entropy([0.7, 0.3]), abs=1e-15
        )

    def test_entropy_rises_with_overlap_in_beta_family(self):
        def beta_entropy(s):
            g = gram_from_overlaps(OverlapSpec(2, [(1, 2, s)]))
            return shannon_entropy(weights_pure(normalize_pure(g, [1.0, 0.6])))

        assert beta_entropy(0.1) < beta_entropy(0.4)

    def test_accepts_weight_distribution_objects(self):
        w = WeightDistribution(np.array([0.25, 0.75]))
        assert shannon_entropy(w) == shannon_entropy([0.25, 0.75])
