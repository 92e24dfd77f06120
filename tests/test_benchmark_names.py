"""The covstop names that the benchmark scripts look up must resolve.

``benchmarks/traced_cli.py`` wraps each of its LAYER_FUNCTIONS by name
once ``covstop.cli`` is imported, ``benchmarks/setup_probe.py`` replaces
its WORK_ENTRIES on ``covstop.cli``, and ``benchmarks/run.py`` checks
the sweep workload against ``optimizer.periodic_policy_cost`` on a
scenario rebuilt with ``config.scenario_from_dict``. A name missing
here breaks every benchmark run while the rest of the suite passes.
The scripts are read, never changed.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

import covstop.cli
from covstop import config, optimizer

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def benchmark_script(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,fn_name",
                         benchmark_script("traced_cli").LAYER_FUNCTIONS)
def test_traced_layer_function_resolves(module_name, fn_name):
    module = sys.modules[f"covstop.{module_name}"]
    assert callable(getattr(module, fn_name))


@pytest.mark.parametrize("name", benchmark_script("setup_probe").WORK_ENTRIES)
def test_setup_probe_work_entry_resolves(name):
    assert callable(getattr(covstop.cli, name))


def test_sweep_check_reference_runs():
    spec = json.loads(config._bundled_path("flyby").read_text())
    scenario = config.scenario_from_dict(spec).with_overrides(
        operating_cost=0.8, p_d=0.75, tau_max=5)
    assert math.isfinite(optimizer.periodic_policy_cost(scenario, 3, 1, 2))
