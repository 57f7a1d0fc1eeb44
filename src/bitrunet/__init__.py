"""Desk-scale CNN-Transformer segmentation network and its tooling."""

from .checkpoint import load_checkpoint, save_checkpoint
from .model import BiTrUnetModel, ModelConfig, parameter_count
from .tensor import Tape, Tensor

__version__ = "0.1.0"

__all__ = [
    "BiTrUnetModel",
    "ModelConfig",
    "Tape",
    "Tensor",
    "load_checkpoint",
    "parameter_count",
    "save_checkpoint",
    "__version__",
]
