"""Diagnostics tests: sweep values and ordering, trace comparisons, dumps."""

import numpy as np
import pytest

from sasoftmax import (
    ALL_KINDS,
    DEFAULT_EPS,
    EmptyHistory,
    LengthMismatch,
    NonFiniteInput,
    RunMetrics,
    SweepSpec,
    VariantKind,
    dump_attention,
    grad_norm_trace,
    mean_diff,
    profile_row,
    saturation_sweep,
    sweep_to_csv,
)
from sasoftmax import diagnostics, jacobians


def uniform_jacobian_frobenius(t: int) -> float:
    """Direct formula evaluation: diag(1/t) - (1/t^2) on the uniform row."""
    a = np.full(t, 1.0 / t)
    j = np.diag(a) - np.outer(a, a)
    return float(np.sqrt((j * j).sum()))


class TestSweep:
    def test_profile_rows(self):
        np.testing.assert_array_equal(profile_row("one_peak", 3.0, 4), [3, 0, 0, 0])
        np.testing.assert_array_equal(profile_row("one_trough", 3.0, 4), [-3, 0, 0, 0])
        np.testing.assert_array_equal(profile_row("uniform", 3.0, 4), [0, 0, 0, 0])

    def test_uniform_point_matches_direct_formula(self):
        spec = SweepSpec(gaps=(0.0,), t=4, kinds=(VariantKind.BASELINE,), profile="one_peak")
        rec = saturation_sweep(spec)[0]
        assert abs(rec.frob_norm - uniform_jacobian_frobenius(4)) <= 1e-12
        assert abs(rec.frob_norm - 0.4330127018922193) <= 1e-12

    def test_peak_point_diagonals(self):
        spec = SweepSpec(gaps=(10.0,), t=4,
                         kinds=(VariantKind.BASELINE, VariantKind.V1))
        base, v1 = saturation_sweep(spec)
        assert abs(base.diag_peak - 1.36162696101e-4) <= 1e-12
        assert abs(v1.diag_peak - 1.00122544572) <= 1e-9

    def test_one_jacobian_call_per_kind(self, monkeypatch):
        # every gap of a kind goes through diagnostics' binding in one stack,
        # and the records keep their values and their order
        spec = SweepSpec(gaps=tuple(range(16, 1, -2)), t=4)
        want = saturation_sweep(spec)
        calls = []

        def counting(z, kind, eps=DEFAULT_EPS):
            calls.append((np.shape(z), kind))
            return jacobians.variant_jacobian(z, kind, eps)

        monkeypatch.setattr(diagnostics, "variant_jacobian", counting)
        assert saturation_sweep(spec) == want
        assert calls == [((8, 4), kind) for kind in ALL_KINDS]
        rows = [profile_row(spec.profile, g, 4) for g in range(2, 17, 2)]
        assert [r.g for r in want[::len(ALL_KINDS)]] == [float(g) for g in range(2, 17, 2)]
        for kind in ALL_KINDS:
            for row, r in zip(rows, (r for r in want if r.kind is kind)):
                jac = jacobians.variant_jacobian(row, kind).entries
                assert r.frob_norm == float(np.sqrt(np.sum(jac * jac)))
                assert r.diag_peak == float(jac[0, 0])
                assert r.rowgrad_sum == float(np.sum(np.abs(jac[:, 0])))

    def test_record_ordering(self):
        spec = SweepSpec(gaps=(4.0, 2.0), t=3,
                         kinds=(VariantKind.V2, VariantKind.BASELINE))
        recs = saturation_sweep(spec)
        assert [(r.g, r.kind) for r in recs] == [
            (2.0, VariantKind.BASELINE), (2.0, VariantKind.V2),
            (4.0, VariantKind.BASELINE), (4.0, VariantKind.V2)]

    def test_extreme_case_vanishing(self):
        spec = SweepSpec(gaps=tuple(range(2, 17, 2)), t=4, kinds=(VariantKind.BASELINE,))
        norms = [r.frob_norm for r in saturation_sweep(spec)]
        assert np.all(np.diff(norms) < 0.0)
        assert norms[-1] < 1e-5

    def test_amplification_ordering(self):
        peak = SweepSpec(gaps=(4.0, 8.0, 12.0, 16.0), t=4,
                         kinds=(VariantKind.BASELINE, VariantKind.V1))
        for base, v1 in zip(*[iter(saturation_sweep(peak))] * 2):
            assert v1.frob_norm > base.frob_norm
        trough = SweepSpec(gaps=(4.0, 8.0, 12.0, 16.0), t=4,
                           kinds=(VariantKind.BASELINE, VariantKind.V2),
                           profile="one_trough")
        for base, v2 in zip(*[iter(saturation_sweep(trough))] * 2):
            assert v2.rowgrad_sum > base.rowgrad_sum

    def test_bit_exact_reproducibility(self):
        spec = SweepSpec(gaps=(1.0, 5.0, 9.0), t=5)
        assert saturation_sweep(spec) == saturation_sweep(spec)
        assert sweep_to_csv(saturation_sweep(spec)) == sweep_to_csv(saturation_sweep(spec))

    def test_csv_schema(self):
        spec = SweepSpec(gaps=(2.0,), t=4)
        text = sweep_to_csv(saturation_sweep(spec))
        lines = text.strip().split("\n")
        assert lines[0] == "g,kind,frob_norm,diag_peak,rowgrad_sum"
        assert len(lines) == 1 + len(ALL_KINDS)
        assert lines[1].startswith("2,baseline,")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(gaps=())
        with pytest.raises(ValueError):
            SweepSpec(gaps=(1.0,), t=1)
        with pytest.raises(ValueError):
            SweepSpec(gaps=(1.0,), profile="sideways")


class TestGradNormTrace:
    def test_identical_histories_zero_diff(self):
        m = RunMetrics(loss=[1.0, 0.9], grad_norm=[2.0, 1.5], step_time=[0.1, 0.1])
        trace = grad_norm_trace(m, m)
        assert [r.diff for r in trace] == [0.0, 0.0]
        assert mean_diff(trace) == 0.0

    def test_positive_difference(self):
        a = RunMetrics(loss=[1.0], grad_norm=[3.0], step_time=[0.0])
        b = RunMetrics(loss=[1.0], grad_norm=[1.0], step_time=[0.0])
        assert grad_norm_trace(a, b)[0].diff == 2.0

    def test_empty_history_rejected(self):
        empty = RunMetrics()
        full = RunMetrics(loss=[1.0], grad_norm=[1.0], step_time=[0.0])
        with pytest.raises(EmptyHistory):
            grad_norm_trace(empty, full)

    def test_length_mismatch_rejected(self):
        a = RunMetrics(loss=[1.0], grad_norm=[1.0], step_time=[0.0])
        b = RunMetrics(loss=[1.0, 2.0], grad_norm=[1.0, 2.0], step_time=[0.0, 0.0])
        with pytest.raises(LengthMismatch):
            grad_norm_trace(a, b)


class TestDumpAttention:
    def test_uniform_two_row_body(self, tmp_path):
        weights = np.array([[1.0, 0.0], [0.5, 0.5]])
        (path,) = dump_attention([weights], tmp_path)
        assert path.read_text() == "1,0\n0.5,0.5\n"

    def test_negative_weight_survives(self, tmp_path):
        # v1 weights are negative when all live logits sit below -1; the dump
        # must carry the sign through
        from sasoftmax import apply_variant
        row = apply_variant([-10.0, -1.0], VariantKind.V1)
        weights = np.array([[1.0, 0.0], row])
        (path,) = dump_attention([weights], tmp_path)
        body = path.read_text()
        assert ",-0.9998" in body

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(55)
        weights = [rng.normal(size=(4, 4)), rng.normal(size=(4, 4))]
        paths = dump_attention(weights, tmp_path)
        first = [p.read_bytes() for p in paths]
        paths = dump_attention(weights, tmp_path)
        assert [p.read_bytes() for p in paths] == first

    def test_one_file_per_layer(self, tmp_path):
        paths = dump_attention([np.eye(2), np.eye(2), np.eye(2)], tmp_path)
        assert [p.name for p in paths] == [
            "attention_layer0.csv", "attention_layer1.csv", "attention_layer2.csv"]

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(NonFiniteInput):
            dump_attention([np.array([[np.inf]])], tmp_path)

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(NonFiniteInput):
            dump_attention([np.array([[np.nan]])], tmp_path)
