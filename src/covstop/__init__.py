"""Covariance-driven sequential stopping for radar micro-management.

The package tracks target uncertainty through measurement-dependent
Riccati recursions, prices stopping decisions by mutual-information
log-determinant costs, and searches monotone parametrized stop/continue
policies by simultaneous-perturbation stochastic approximation, with a
scalar value-iteration oracle for validating the monotone structure.
"""

__version__ = "0.1.0"

from .errors import ContractError, CovstopError, NumericalError
from .filter_core import (TargetModel, det_ratio_lyapunov, det_ratio_riccati,
                          eigenvalues_sorted, loewner_geq, lyapunov_update,
                          riccati_update)
from .gmti import MacroMode, Scenario
from .observability import (Belief, CostWeights, StoppingCase,
                            mutual_information, stopping_cost,
                            transformed_running_cost)
from .optimizer import (RolloutResult, SpsaSchedule, evaluate_cost,
                        periodic_policy_cost, rollout, spsa_gradient,
                        spsa_optimize)
from .policy import (Action, ParamLayout, PolicyFamily, PolicyParams,
                     reparam_positive, reparam_spherical, verify_monotone)

__all__ = [
    "Action", "Belief", "ContractError", "CostWeights", "CovstopError",
    "MacroMode", "NumericalError", "ParamLayout", "PolicyFamily",
    "PolicyParams", "RolloutResult", "Scenario", "SpsaSchedule",
    "StoppingCase", "TargetModel", "det_ratio_lyapunov", "det_ratio_riccati",
    "eigenvalues_sorted", "evaluate_cost", "loewner_geq", "lyapunov_update",
    "mutual_information", "periodic_policy_cost", "reparam_positive",
    "reparam_spherical", "riccati_update", "rollout", "spsa_gradient",
    "spsa_optimize", "stopping_cost", "transformed_running_cost",
    "verify_monotone",
]
