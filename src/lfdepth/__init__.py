"""Focal-stack depth estimation on a self-contained autodiff core.

Training, gradients and checkpoints are float64; inference runs in float32.
"""

from .cmfa import Cmfa
from .cru import Cru, node_count, zero_fuse
from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    FormatError,
    LfdepthError,
    NumericalCheckError,
    ShapeError,
    UsageError,
)
from .metrics import DepthMetrics, aggregate, evaluate
from .model import (
    LADDER,
    DepthNet,
    NetworkConfig,
    ladder_config,
    loss_terms,
    prediction_loss,
)
from .params import ModuleParams, load_params, save_params
from .synthdata import (
    GenSpec,
    Scene,
    augment,
    generate_dataset,
    generate_scene,
    load_split,
    read_scene,
    write_scene,
)
from .tensor import Tensor, as_tensor, no_grad
from .train import (
    Adam,
    TrainState,
    ablation_run,
    evaluate_model,
    format_table,
    load_checkpoint,
    save_checkpoint,
    train_model,
)

__version__ = "0.1.0"
