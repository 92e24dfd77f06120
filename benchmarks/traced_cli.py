"""Run one covstop CLI invocation in-process with per-layer spans.

    python3 benchmarks/traced_cli.py RESULT_JSON CLI_ARG...

Every function in LAYER_FUNCTIONS is wrapped in each covstop module that
holds a reference to it, because the modules import each other's names
(``covstop.gmti.rollout`` and ``covstop.optimizer.rollout`` are the same
function looked up in two places). Each call records a span: name,
start, end and the enclosing span. Spans stay in memory; when
``covstop.cli.main`` returns, the per-function call counts, self times
(inclusive time minus the time covered by child spans) and result
counters are written to RESULT_JSON. The process exits with the CLI's
exit code. The source tree is not modified.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

LAYER_FUNCTIONS = (
    ("filter_core", "riccati_update"),
    ("filter_core", "lyapunov_update"),
    ("observability", "belief_step"),
    ("observability", "stopping_cost"),
    ("policy", "decision_statistic"),
    ("optimizer", "rollout"),
    ("optimizer", "evaluate_cost"),
    ("optimizer", "spsa_minimize"),
    ("optimizer", "spsa_gradient"),
    ("optimizer", "periodic_cost_curve"),
    ("streams", "stream"),
    ("streams", "child_seed"),
    ("gmti", "run_macro_cycles"),
    ("gmti", "models_at_location"),
    ("dp_oracle", "value_iterate"),
    ("cli", "write_csv"),
    ("config", "load_scenario"),
    ("config", "params_from_dict"),
)

COUNTERS = ("optimizer.rollout.truncated", "optimizer.rollout.tau_sum",
            "optimizer.spsa_gradient.zero", "dp_oracle.value_iterate.iterations",
            "cli.write_csv.bytes")


def _count_result(name: str, args, result, counters: dict) -> None:
    if name == "optimizer.rollout":
        counters["optimizer.rollout.truncated"] += int(result.truncated)
        counters["optimizer.rollout.tau_sum"] += int(result.tau)
    elif name == "optimizer.spsa_gradient":
        counters["optimizer.spsa_gradient.zero"] += int(not np.any(result))
    elif name == "dp_oracle.value_iterate":
        counters["dp_oracle.value_iterate.iterations"] += int(result.n_iterations)
    elif name == "cli.write_csv":
        counters["cli.write_csv.bytes"] += Path(args[0]).stat().st_size


class Tracer:
    """In-memory span recorder for the wrapped layer functions."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span]
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name_id, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            _count_result(name, args, result, counters)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "covstop" or key.startswith("covstop.")]
        for module_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"covstop.{module_name}"], fn_name)
            traced = self.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def summary(self) -> dict:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for (name_id, start, end, _), covered in zip(self.spans, child_time):
            entry = layers[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += end - start - covered
        return {"layers": layers, "counters": self.counters}


def main(argv: list[str]) -> int:
    import covstop.cli

    result_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    code = covstop.cli.main(cli_args)
    result_path.write_text(json.dumps(tracer.summary(), sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
