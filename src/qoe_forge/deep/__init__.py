"""Minimal autodiff core and the three trainable tabular networks."""
