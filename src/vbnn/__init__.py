"""Variational Bayes for single-hidden-layer binary classifiers.

Fits a mean-field Gaussian posterior over the network weights with a
score-function gradient estimator (optionally variance-reduced by control
variates), produces posterior-predictive classifications, and measures how
close the fitted conditional label density is to a known truth.
"""

from .model import (
    LabeledBatch,
    NetworkParams,
    NetworkShape,
    PriorConfig,
    ShapeMismatchError,
)
from .optimizer import Schedule, TrainConfig, TrainReport, train
from .prediction import PredictiveConfig, predictive_probabilities
from .variational import Posterior, SampleMatrix, VariationalParams

__all__ = [
    "LabeledBatch",
    "NetworkParams",
    "NetworkShape",
    "PriorConfig",
    "ShapeMismatchError",
    "Schedule",
    "TrainConfig",
    "TrainReport",
    "train",
    "PredictiveConfig",
    "predictive_probabilities",
    "Posterior",
    "SampleMatrix",
    "VariationalParams",
]

__version__ = "0.1.0"
