"""Self-adjusting softmax attention: scoring kernels, analytic gradients,
vanishing-gradient diagnostics, and a micro language-model trainer."""

from .errors import (
    CacheMismatch,
    CheckpointError,
    ConfigError,
    CorpusTooSmall,
    EmptyHistory,
    EmptyRow,
    LengthMismatch,
    NonFiniteGradient,
    NonFiniteInput,
    OddHeadDim,
    SaSoftmaxError,
    ShapeMismatch,
    TextTooShort,
    UnknownSymbol,
)
from .variants import (
    ALL_KINDS,
    DEFAULT_EPS,
    VariantKind,
    apply_variant,
    masked_extrema,
    masked_softmax,
    variant_scaler,
    variant_weights,
)
from .jacobians import (
    GradCheckReport,
    JacobianBlock,
    gradcheck,
    reports_to_json,
    variant_jacobian,
    variant_weight_vjp,
)
from .attention import (
    AttentionCache,
    AttentionGrads,
    AttentionInput,
    attention_backward,
    attention_forward,
    causal_mask,
    rope_rotate,
    rope_rotate_back,
    scaled_scores,
)
from .diagnostics import (
    SweepRecord,
    SweepSpec,
    TraceRow,
    dump_attention,
    grad_norm_trace,
    mean_diff,
    profile_row,
    saturated_probe_config,
    saturation_sweep,
    sweep_to_csv,
)
from .microlm import (
    AdamState,
    RunMetrics,
    TrainConfig,
    TrainResult,
    Vocabulary,
    adam_step,
    attention_maps,
    backward,
    evaluate_ppl,
    forward_loss,
    global_grad_norm,
    init_adam,
    init_params,
    load_checkpoint,
    load_corpus,
    metrics_to_csv,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
