"""Variational Bayes for single-hidden-layer binary classifiers.

Fits a mean-field Gaussian posterior over the network weights with a
score-function gradient estimator (optionally variance-reduced by control
variates), produces posterior-predictive classifications, and measures how
close the fitted conditional label density is to a known truth.
"""

__version__ = "0.1.0"
