"""Test-side helpers on single beliefs.

``transformed_running_cost`` expands the continue action's running cost
by brute force over every joint detect/miss outcome, on the scalar
``belief_step`` and ``stopping_cost``: the reference that the
value-iteration oracle's running cost and the running cost's
monotonicity are checked against. ``replace_slot`` swaps one covariance
of a belief, for the tests that raise one slot in the Loewner order.
"""

from itertools import product

import numpy as np

from covstop.observability import Belief, belief_step, stopping_cost


def replace_slot(belief: Belief, slot: str, target: int,
                 value: np.ndarray) -> Belief:
    """Copy of ``belief`` with its ``slot`` ("posterior" or "prior")
    covariance of ``target`` swapped for ``value``."""
    slots = {"posterior": list(belief.posteriors),
             "prior": list(belief.priors)}
    slots[slot][target] = value
    return Belief(tuple(slots["posterior"]), tuple(slots["prior"]), belief.a)


def transformed_running_cost(belief, weights, models, priorities) -> float:
    """Continue-action running cost in stop-value-zero coordinates.

    Equals operating cost minus the current stopping cost plus the
    expected stopping cost after one transition, the expectation taken
    over the joint detect/miss outcome of all targets (independent
    Bernoulli per target).
    """
    priorities = np.asarray(priorities, dtype=float)
    total = weights.operating_cost - stopping_cost(belief, weights)
    n = belief.n_targets
    p_d = np.array([models[l].p_d for l in range(n)])
    for outcome in product((False, True), repeat=n):
        prob = 1.0
        for l in range(n):
            prob *= p_d[l] if outcome[l] else 1.0 - p_d[l]
        if prob == 0.0:
            continue
        stepped = belief_step(belief, outcome, models, priorities)
        total += prob * stopping_cost(stepped, weights)
    return total
