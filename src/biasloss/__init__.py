"""Variance-weighted loss training engine for compact CNNs.

The package provides a numpy-backed reverse-mode autodiff engine, the CNN
building blocks of a small skip-block network, the variance-weighted
cross-entropy loss with its baselines, deterministic data ingestion and
augmentation, an SGD training harness, and a per-layer activation-variance
profiler. See README.md for an overview and the demos/ directory for
narrative walkthroughs.
"""

from . import autodiff, data, diagnostics, layers, losses, train
from .autodiff import GradStore, Node, backward, forward, unfold
from .layers import MicroNetSpec, SkipblockNetMicro
from .losses import (BiasLossConfig, LossBatch, VarianceRecord,
                     batch_variances, bias_loss, bias_weight, cross_entropy,
                     focal_loss, minmax_scale, sample_variance)
from .train import TrainConfig, evaluate, train_run

__version__ = "0.1.0"

__all__ = [
    "autodiff", "data", "diagnostics", "layers", "losses", "train",
    "GradStore", "Node", "backward", "forward", "unfold",
    "MicroNetSpec", "SkipblockNetMicro",
    "BiasLossConfig", "LossBatch", "VarianceRecord",
    "batch_variances", "bias_loss", "bias_weight", "cross_entropy",
    "focal_loss", "minmax_scale", "sample_variance",
    "TrainConfig", "evaluate", "train_run",
]
