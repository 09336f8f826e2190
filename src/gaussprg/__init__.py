"""Moment-design pseudorandom generator for polynomial threshold functions
of Gaussians, with Hermite-analysis utilities and an empirical
verification harness. Names are imported from their modules; each
module's ``__all__`` lists its public names."""

__version__ = "0.1.0"
