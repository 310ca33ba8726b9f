"""Row-kernel tests: forward values, masking, and algebraic properties.

Expected decimals were frozen from 50-digit evaluation of the defining
formulas (mpmath), independent of the library code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasoftmax import (
    ALL_KINDS,
    EmptyRow,
    NonFiniteInput,
    ShapeMismatch,
    VariantKind,
    apply_variant,
    masked_extrema,
    masked_softmax,
    variant_weights,
)

from oracle_matrix import reference_weights

SA_KINDS = (VariantKind.V1, VariantKind.V2, VariantKind.V3, VariantKind.V4)
BASELINE = VariantKind.BASELINE


class TestSoftmaxRow:
    def test_uniform_pair(self):
        out = apply_variant([0.0, 0.0], BASELINE)
        np.testing.assert_allclose(out, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_ordered_pair(self):
        # 50-digit evaluation of e^z / sum e^z at z = [1, 2]
        out = apply_variant([1.0, 2.0], BASELINE)
        np.testing.assert_allclose(out, [0.26894142137, 0.73105857863], atol=1e-5)

    def test_sum_to_one_large_magnitudes(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = int(rng.integers(1, 65))
            z = rng.uniform(-30.0, 30.0, t)
            w = apply_variant(z, BASELINE)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w[:t] > 0.0)

    def test_shift_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.uniform(-20, 20, 8)
            c = rng.uniform(-50, 50)
            a = apply_variant(z, BASELINE)
            b = apply_variant(z + c, BASELINE)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_empty_row_rejected(self):
        with pytest.raises(EmptyRow):
            apply_variant([], BASELINE)

    def test_two_dimensional_row_rejected(self):
        with pytest.raises(ShapeMismatch, match="1-D"):
            apply_variant([[1.0, 2.0]], BASELINE)

    def test_nonfinite_live_entry_rejected(self):
        with pytest.raises(NonFiniteInput):
            apply_variant([np.nan, 1.0], BASELINE)
        with pytest.raises(NonFiniteInput):
            apply_variant([np.inf, 1.0], BASELINE)


class TestMaskedTail:
    """The batched kernels under a prefix mask: the first ``valid`` entries
    of a row are live, the tail is masked."""

    def test_single_live_entry(self):
        out = variant_weights(np.array([7.0, 3.0, 9.0]), np.arange(3) < 1, BASELINE)
        assert out[0] == 1.0
        assert out[1] == 0.0 and out[2] == 0.0

    def test_nonfinite_masked_entry_ignored(self):
        out = variant_weights(np.array([0.0, np.nan]), np.arange(2) < 1, BASELINE)
        assert out[0] == 1.0 and out[1] == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_masked_tail_exactly_zero(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(50):
            t = int(rng.integers(1, 12))
            valid = int(rng.integers(1, t + 1))
            w = variant_weights(rng.uniform(-9, 9, t), np.arange(t) < valid, kind)
            assert np.all(w[valid:] == 0.0)


class TestMaskedExtrema:
    def test_masked_entry_excluded(self):
        mn, mx, amin, amax = masked_extrema(np.array([3.0, 1.0, 5.0]), np.array([True, True, False]))
        assert (mn, amin) == (1.0, 1)
        assert (mx, amax) == (3.0, 0)

    def test_tie_goes_to_lowest_index(self):
        mn, mx, amin, amax = masked_extrema(np.array([2.0, 2.0]), np.array([True, True]))
        assert amin == 0 and amax == 0
        assert mn == mx == 2.0

    def test_singleton(self):
        mn, mx, amin, amax = masked_extrema(np.array([-4.0, 9.0]), np.array([True, False]))
        assert mn == mx == -4.0
        assert amin == amax == 0


class TestApplyVariant:
    def test_v4_ordered_pair(self):
        # threshold min(1,0)=0, denominator max(2,0)=2: scaler [0.5, 1]
        out = apply_variant([1.0, 2.0], VariantKind.V4)
        np.testing.assert_allclose(out, [0.134470710678, 0.731058578593], atol=1e-5)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 7.3, 30.0])
    def test_v4_constant_positive_row_collapses_to_softmax(self, c):
        for t in (2, 3, 8):
            z = np.full(t, c)
            v4 = apply_variant(z, VariantKind.V4)
            base = apply_variant(z, BASELINE)
            np.testing.assert_allclose(v4, base, rtol=0, atol=1e-9)

    def test_v2_singleton_is_zero(self):
        out = apply_variant([5.0], VariantKind.V2)
        assert out[0] == 0.0

    def test_v1_zero_logits(self):
        out = apply_variant([0.0, 0.0], VariantKind.V1)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_baseline_matches_masked_softmax(self):
        z = np.array([0.3, -2.0, 1.7])
        np.testing.assert_array_equal(
            apply_variant(z, BASELINE), masked_softmax(z, np.ones(3, dtype=bool)))

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            apply_variant([1.0], VariantKind.V3, eps=0.0)

    @pytest.mark.parametrize("kind", (VariantKind.V3, VariantKind.V4))
    def test_bounded_variants_stay_within_softmax(self, kind):
        rng = np.random.default_rng(31)
        for _ in range(100):
            t = int(rng.integers(2, 16))
            z = rng.uniform(-9, 9, t)
            w = apply_variant(z, kind)
            base = apply_variant(z, BASELINE)
            assert np.all(w >= 0.0)
            assert np.all(w <= base + 1e-15)
            assert w.sum() <= 1.0 + 1e-12


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=16),
       st.sampled_from(list(ALL_KINDS)))
@settings(max_examples=200, deadline=None)
def test_weights_finite_and_masked_zero(values, kind):
    w = apply_variant(values, kind)
    assert np.all(np.isfinite(w))
    if kind is VariantKind.BASELINE:
        assert abs(w.sum() - 1.0) <= 1e-12


class TestOrderPreservation:
    @pytest.mark.parametrize("kind", (VariantKind.V2, VariantKind.V3, VariantKind.V4))
    def test_shifted_variants_preserve_strict_order(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(500):
            t = int(rng.integers(2, 12))
            z = rng.uniform(-9, 9, t)
            if np.unique(z).size < t:
                continue
            w = apply_variant(z, kind)
            order = np.argsort(z)
            assert np.all(np.diff(w[order]) > 0.0)

    def test_v1_preserves_order_above_minus_one(self):
        # x * e^x is increasing only for x >= -1
        rng = np.random.default_rng(13)
        for _ in range(500):
            t = int(rng.integers(2, 12))
            z = rng.uniform(-1.0, 9.0, t)
            if np.unique(z).size < t:
                continue
            w = apply_variant(z, VariantKind.V1)
            order = np.argsort(z)
            assert np.all(np.diff(w[order]) > 0.0)

    def test_v1_inversion_below_minus_one(self):
        # Regression: both entries below -1 invert the ranking. Frozen from
        # 50-digit evaluation: weights [-0.00123394575986, -0.999876605424].
        w = apply_variant([-10.0, -1.0], VariantKind.V1)
        np.testing.assert_allclose(w, [-0.00123394575986, -0.999876605424], atol=1e-11)
        assert w[0] > w[1]


class TestSingletonTable:
    # a single live logit c: each variant's forced output.
    @pytest.mark.parametrize("c", [-3.0, -0.5, 0.0, 0.5, 3.0])
    def test_all_kinds(self, c):
        row = [c]
        assert apply_variant(row, BASELINE)[0] == 1.0
        assert apply_variant(row, VariantKind.V1)[0] == c
        assert apply_variant(row, VariantKind.V2)[0] == 0.0
        assert apply_variant(row, VariantKind.V3)[0] == 0.0
        v4 = apply_variant(row, VariantKind.V4)[0]
        if c > 0:
            assert abs(v4 - 1.0) <= 1e-9
        else:
            assert v4 == 0.0


class TestAgainstMatrixReference:
    @pytest.mark.parametrize("kind,name", [
        (VariantKind.BASELINE, "softmax"),
        (VariantKind.V1, "v1"),
        (VariantKind.V2, "v2"),
        (VariantKind.V3, "v3"),
        (VariantKind.V4, "v4"),
    ])
    def test_rows_match_whole_matrix_reference(self, kind, name):
        rng = np.random.default_rng(17)
        for _ in range(20):
            t = int(rng.integers(1, 10))
            scores = rng.normal(0.0, 3.0, (t, t))
            expected = reference_weights(scores, name)
            # row i: its live prefix scores[i, :i+1], zero elsewhere
            got = np.zeros((t, t))
            for i in range(t):
                got[i, :i + 1] = apply_variant(scores[i, :i + 1], kind)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_variant_kind_from_string():
    assert VariantKind.from_string("V4") is VariantKind.V4
    assert VariantKind.from_string(" baseline ") is VariantKind.BASELINE
    with pytest.raises(ValueError):
        VariantKind.from_string("v9")
