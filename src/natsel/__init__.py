"""Desk-scale training toolkit with group-competition loss weighting.

Groups of training images are stitched into one composite, pushed through
the classifier without gradients, and each member's posterior at its true
label becomes a raw score.  Normalizing within the group gives competition
scores that map affinely to per-sample loss weights: positive slope boosts
group winners, negative slope boosts losers.
"""

from .analysis import (
    ClassScoreStats,
    CorrelationReport,
    FitLine,
    correlation_report,
    linear_correlation,
    ns_distribution,
)
from .cli import LAYOUT_AXIS, RHO_AXIS, SIGMA_AXIS, main, run_experiment, sweep
from .config import (
    DataSettings,
    ExperimentConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)
from .data import (
    Dataset,
    build_splits,
    class_sampling_probs,
    inject_label_noise,
    load_cifar_binary,
    load_idx,
    longtail_counts,
)
from .errors import (
    AnalysisError,
    ConfigError,
    FormatError,
    NatselError,
    NumericError,
    ShapeError,
    TrainingDiverged,
)
from .imageops import GridLayout, bilinear_resize
from .model import (
    Classifier,
    ClassifierConfig,
    ConvSpec,
    LossConfig,
    load_checkpoint,
    sample_losses,
    save_checkpoint,
    softmax_rows,
)
from .nscore import NSResult, batch_ns_scores
from .seeds import derive_seed
from .tensor import GradTape, backward
from .trainer import (
    MetricsRecord,
    Run,
    TrainConfig,
    evaluate,
    sgd_momentum_step,
    train,
    weighted_batch_loss,
)
from .weighting import WeightingConfig, compute_weights

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tensor core
    "GradTape", "backward",
    # model
    "Classifier", "ClassifierConfig", "ConvSpec", "LossConfig",
    "softmax_rows", "sample_losses", "save_checkpoint", "load_checkpoint",
    # image ops
    "GridLayout", "bilinear_resize",
    # competition scoring
    "NSResult", "batch_ns_scores",
    # weighting
    "WeightingConfig", "compute_weights",
    # data
    "Dataset", "build_splits", "longtail_counts", "inject_label_noise",
    "class_sampling_probs", "load_idx", "load_cifar_binary",
    # trainer
    "TrainConfig", "MetricsRecord", "Run", "train", "evaluate",
    "weighted_batch_loss", "sgd_momentum_step",
    # analysis
    "ClassScoreStats", "FitLine", "CorrelationReport", "ns_distribution",
    "linear_correlation", "correlation_report",
    # config + cli
    "ExperimentConfig", "DataSettings", "parse_config", "serialize_config",
    "apply_overrides", "run_experiment", "sweep", "main",
    "SIGMA_AXIS", "RHO_AXIS", "LAYOUT_AXIS",
    # seeds + errors
    "derive_seed", "NatselError", "ShapeError", "NumericError",
    "ConfigError", "FormatError", "AnalysisError", "TrainingDiverged",
]
