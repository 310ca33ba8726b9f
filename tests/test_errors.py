"""Every bad run setting raises the one ConfigError, which is both a library
error and a ValueError; bad input to the batched kernels raises EmptyRow or
ShapeMismatch."""

import numpy as np
import pytest

from sasoftmax import (
    AttentionInput,
    ConfigError,
    DEFAULT_EPS,
    EmptyRow,
    SaSoftmaxError,
    ShapeMismatch,
    SweepSpec,
    TrainConfig,
    VariantKind,
    apply_variant,
    attention_forward,
    causal_mask,
    gradcheck,
    saturation_sweep,
    variant_jacobian,
    variant_scaler,
    variant_weight_vjp,
    variant_weights,
)
from sasoftmax.jacobians import FD_STEP, _fd_full_rows

NAN, INF = float("nan"), float("inf")
ROW = [1.0, 2.0]
SPEC = SweepSpec(gaps=(2.0,), t=2)
# one live row whose v3 scaler divides by x_max - x_min + eps = 0 at eps = 0
TIED = np.ones((1, 2))
LIVE = np.ones((1, 2), dtype=bool)
V3 = VariantKind.V3

BAD_SETTINGS = {
    "train_lr_nan": lambda: TrainConfig(corpus_path="", lr=NAN),
    "train_layers_0": lambda: TrainConfig(corpus_path="", layers=0),
    "train_betas": lambda: TrainConfig(corpus_path="", adam_betas=(1.0, 0.95)),
    "train_odd_rope": lambda: TrainConfig(corpus_path="", d_model=7),
    "train_kind_str": lambda: TrainConfig(corpus_path="", kind="v4"),
    "train_layers_float": lambda: TrainConfig(corpus_path="", layers=2.5),
    "train_d_model_str": lambda: TrainConfig(corpus_path="", d_model="32"),
    "train_seq_len_float": lambda: TrainConfig(corpus_path="", seq_len=64.0),
    "train_batch_bool": lambda: TrainConfig(corpus_path="", batch=True),
    "train_steps_float": lambda: TrainConfig(corpus_path="", steps=10.0),
    "train_seed_str": lambda: TrainConfig(corpus_path="", seed="0"),
    "kind_name": lambda: VariantKind.from_string("v9"),
    "row_kind_str": lambda: apply_variant(ROW, "v4"),
    "attention_kind_str": lambda: attention_forward(
        AttentionInput(TIED.T, TIED.T, TIED.T, kind="v1")),
    "sweep_no_gaps": lambda: SweepSpec(gaps=()),
    "sweep_gap_nan": lambda: SweepSpec(gaps=(1.0, NAN)),
    "sweep_gap_inf": lambda: SweepSpec(gaps=(-INF,)),
    "sweep_t_1": lambda: SweepSpec(gaps=(1.0,), t=1),
    "sweep_t_float": lambda: SweepSpec(gaps=(1.0,), t=4.5),
    "sweep_t_whole_float": lambda: SweepSpec(gaps=(1.0,), t=4.0),
    "sweep_t_str": lambda: SweepSpec(gaps=(1.0,), t="4"),
    "sweep_t_bool": lambda: SweepSpec(gaps=(1.0,), t=True),
    "sweep_gaps_float": lambda: SweepSpec(gaps=1.0),
    "sweep_gaps_text": lambda: SweepSpec(gaps="2,4"),
    "sweep_gap_str": lambda: SweepSpec(gaps=("a",)),
    "sweep_gap_bool": lambda: SweepSpec(gaps=(1.0, True)),
    "sweep_gap_none": lambda: SweepSpec(gaps=(None,)),
    "sweep_gap_huge_int": lambda: SweepSpec(gaps=(10 ** 400,)),
    "sweep_gaps_2d": lambda: SweepSpec(gaps=np.ones((2, 2))),
    "sweep_profile": lambda: SweepSpec(gaps=(1.0,), profile="sideways"),
    "sweep_no_kinds": lambda: SweepSpec(gaps=(1.0,), kinds=()),
    "sweep_kind_str": lambda: SweepSpec(gaps=(2.0,), kinds=("v2",)),
    "sweep_kind_str_mixed": lambda: SweepSpec(gaps=(2.0,), kinds=(VariantKind.V1, "v2")),
    "sweep_eps_0": lambda: saturation_sweep(SPEC, eps=0.0),
    "sweep_eps_nan": lambda: saturation_sweep(SPEC, eps=NAN),
    "sweep_eps_inf": lambda: saturation_sweep(SPEC, eps=INF),
    "variant_eps_nan": lambda: apply_variant(ROW, VariantKind.V3, eps=NAN),
    "fd_h_nan": lambda: _fd_full_rows(np.array([ROW]), V3, DEFAULT_EPS, NAN),
    "fd_eps_inf": lambda: _fd_full_rows(np.array([ROW]), V3, INF, FD_STEP),
    "jacobian_eps_0": lambda: variant_jacobian(ROW, V3, eps=0.0),
    "weights_eps_0": lambda: variant_weights(TIED, LIVE, V3, eps=0.0),
    "vjp_eps_0": lambda: variant_weight_vjp(TIED, LIVE, TIED, V3, eps=0.0),
    "attention_eps_0": lambda: attention_forward(
        AttentionInput(TIED.T, TIED.T, TIED.T, kind=V3, eps=0.0)),
    "gradcheck_h_0": lambda: gradcheck(samples=1, h=0.0),
    "gradcheck_tol_nan": lambda: gradcheck(samples=1, tol_rel=NAN),
    "gradcheck_tol_inf": lambda: gradcheck(samples=1, tol_rel=INF),
    "gradcheck_kinds": lambda: gradcheck(samples=1, kinds=()),
    "gradcheck_kind_str": lambda: gradcheck(
        samples=2, t_range=(1, 1), kinds=(VariantKind.V4, "v3", "nonsense")),
    "gradcheck_seed_neg": lambda: gradcheck(samples=1, t_range=(1, 2), seed=-1),
    "gradcheck_seed_float": lambda: gradcheck(samples=1, t_range=(1, 1), seed=1.5),
    "gradcheck_seed_bool": lambda: gradcheck(samples=1, t_range=(1, 1), seed=True),
    "gradcheck_samples_float": lambda: gradcheck(samples=2.0, t_range=(1, 1)),
    "gradcheck_samples_bool": lambda: gradcheck(samples=True, t_range=(1, 1)),
    "gradcheck_t_range_triple": lambda: gradcheck(samples=2, t_range=(1, 2, 3)),
    "gradcheck_t_range_int": lambda: gradcheck(samples=2, t_range=5),
    "gradcheck_t_range_float": lambda: gradcheck(samples=2, t_range=(1.5, 3)),
    "gradcheck_t_range_float_hi": lambda: gradcheck(samples=2, t_range=(1, 2.0)),
    "gradcheck_t_range_bool": lambda: gradcheck(samples=2, t_range=(True, 2)),
    "gradcheck_t_range_str": lambda: gradcheck(samples=2, t_range="12"),
}

# (2, 3) scores whose second row has no live entry
SCORES = np.ones((2, 3))
NO_LIVE = np.array([[True, False, False], [False, False, False]])
V4 = VariantKind.V4

BAD_INPUTS = {
    "weights_empty_row": (EmptyRow, lambda: variant_weights(SCORES, NO_LIVE, V4)),
    "weights_baseline_empty_row": (
        EmptyRow, lambda: variant_weights(SCORES, NO_LIVE, VariantKind.BASELINE)),
    "weights_empty_1d_row": (
        EmptyRow, lambda: variant_weights(SCORES[0], np.zeros(3, dtype=bool), V4)),
    "scaler_v3_empty_row": (EmptyRow, lambda: variant_scaler(SCORES, NO_LIVE, V3)),
    "vjp_empty_row": (EmptyRow, lambda: variant_weight_vjp(SCORES, NO_LIVE, SCORES, V4)),
    "weights_mask_shape": (
        ShapeMismatch, lambda: variant_weights(SCORES, np.ones((2, 2), dtype=bool), V4)),
    "weights_mask_wider": (
        ShapeMismatch, lambda: variant_weights(SCORES, np.ones((4, 2, 3), dtype=bool), V4)),
    "weights_scalar_scores": (ShapeMismatch, lambda: variant_weights(1.0, True, V4)),
    "scaler_mask_shape": (
        ShapeMismatch, lambda: variant_scaler(SCORES, np.ones((3, 3), dtype=bool), V3)),
    "vjp_mask_shape": (ShapeMismatch, lambda: variant_weight_vjp(
        SCORES, np.ones((2, 2), dtype=bool), SCORES, V4)),
    "vjp_grad_shape": (ShapeMismatch, lambda: variant_weight_vjp(
        SCORES, np.ones((2, 3), dtype=bool), np.ones((2, 2)), V4)),
    # a 0/1 mask of another dtype is not read as truthy
    "weights_int_mask": (ShapeMismatch, lambda: variant_weights(SCORES, np.ones((2, 3), int), V4)),
    "weights_float_mask": (ShapeMismatch, lambda: variant_weights(SCORES, np.ones((2, 3)), V4)),
    "scaler_int_mask": (ShapeMismatch, lambda: variant_scaler(SCORES, np.ones((2, 3), int), V3)),
    "scaler_float_mask": (ShapeMismatch, lambda: variant_scaler(SCORES, np.ones((2, 3)), V3)),
    "vjp_int_mask": (ShapeMismatch, lambda: variant_weight_vjp(
        SCORES, np.ones((2, 3), int), SCORES, V4)),
    "vjp_float_mask": (ShapeMismatch, lambda: variant_weight_vjp(
        SCORES, np.ones((2, 3)), SCORES, V4)),
}


def test_config_error_is_library_error_and_value_error():
    assert issubclass(ConfigError, SaSoftmaxError)
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("name", BAD_SETTINGS)
def test_bad_setting_raises_config_error(name):
    with pytest.raises(ConfigError):
        BAD_SETTINGS[name]()


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_kernel_input_raises_named_error(name):
    error, call = BAD_INPUTS[name]
    with pytest.raises(error):
        call()


def test_shared_mask_broadcasts_over_batch():
    # one (T, T) causal mask serves (B, T, T) scores, and a mask row of
    # length 1 broadcasts along its row
    scores = np.random.default_rng(1).uniform(-3, 3, (2, 4, 4))
    grad_w = np.ones((4, 4))
    for kind in (VariantKind.BASELINE, V3, V4):
        w = variant_weights(scores, causal_mask(4), kind)
        assert w.shape == scores.shape
        assert w[1].tobytes() == variant_weights(scores[1], causal_mask(4), kind).tobytes()
        assert variant_scaler(scores, causal_mask(4), kind).shape == scores.shape
        dz = variant_weight_vjp(scores, causal_mask(4), grad_w, kind)
        assert dz.shape == scores.shape
    whole_rows = variant_weights(scores, np.ones((4, 1), dtype=bool), V4)
    live = variant_weights(scores, np.ones((4, 4), dtype=bool), V4)
    assert whole_rows.tobytes() == live.tobytes()


def test_numpy_integers_and_arrays_accepted():
    # the integer rule takes numpy integers, as the CLI's and checkpoints' ints
    want = saturation_sweep(SweepSpec(gaps=(2.0, 4.0), t=3))
    assert saturation_sweep(SweepSpec(gaps=np.array([2.0, 4.0]), t=np.int64(3))) == want
    assert saturation_sweep(SweepSpec(gaps=[np.int32(2), 4], t=3)) == want
    cfg = TrainConfig(corpus_path="", layers=np.int64(1), d_model=np.int32(8),
                      seq_len=np.int64(4), batch=np.uint8(2), steps=np.int64(0), seed=np.int64(3))
    assert cfg.layers == 1 and cfg.seed == 3


def test_finite_negative_and_zero_gaps_accepted():
    records = saturation_sweep(SweepSpec(gaps=(-3.0, 0.0), t=3, kinds=(VariantKind.V4,)))
    assert [r.g for r in records] == [-3.0, 0.0]
    assert all(np.isfinite(r.frob_norm) for r in records)
