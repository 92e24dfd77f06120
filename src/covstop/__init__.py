"""Covariance-driven sequential stopping for radar micro-management.

The package tracks target uncertainty through measurement-dependent
Riccati recursions, prices stopping decisions by mutual-information
log-determinant costs, and searches monotone parametrized stop/continue
policies by simultaneous-perturbation stochastic approximation, with a
scalar value-iteration oracle for validating the monotone structure.
"""

__version__ = "0.1.0"
