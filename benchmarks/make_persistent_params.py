"""Write the hand-built eigen-sum policy used by the `persistent` workload.

The policy is fixed, not trained, so a change to the SPSA search cannot
change how much work the workload does. Every target gets the same
weights on its largest posterior and prior eigenvalues, theta_l =
theta_bar_l = 0.006 * e_1 (the eigen families square the unconstrained
phi, so phi = sqrt(0.006) * e_1). On the bundled orbital scenario these
weights give stop times spread across the 60-epoch horizon: over 80
macro cycles at seed 1 the quartiles of tau are 25, 40 and 55, and
about a fifth of the cycles run to the horizon.

Run from the repository root:

    python3 benchmarks/make_persistent_params.py
"""

import json
import math
from pathlib import Path

N_TARGETS = 4
STATE_DIM = 4
WEIGHT = 0.006


def build() -> dict:
    block = [math.sqrt(WEIGHT)] + [0.0] * (STATE_DIM - 1)
    # theta blocks for every target, then theta_bar blocks.
    phi = block * (2 * N_TARGETS)
    return {
        "family": "eigen-sum",
        "phi": phi,
        "layout": {"n_targets": N_TARGETS, "state_dim": STATE_DIM,
                   "share_other": False, "tie_priors": False, "a": 0},
    }


if __name__ == "__main__":
    out = Path(__file__).with_name("persistent_params.json")
    out.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
