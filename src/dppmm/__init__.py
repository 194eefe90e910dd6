"""Generative modeling of time-varying densities from sampled snapshots.

The model chains projection-pursuit optimal transport maps from a Gaussian
base through successive snapshots and interpolates between snapshot times
with per-trajectory cubic transport splines. Includes the synthetic SDE
benchmark systems and MMD-based evaluation used to validate it. The package
binds no names itself: import them from its modules (``dppmm.dynamic``,
``dppmm.metrics`` and so on).
"""
