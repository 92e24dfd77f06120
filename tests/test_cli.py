import argparse
import csv
import errno
import gc
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import covstop
from covstop import cli, optimizer, sampling
from covstop.cli import main
from covstop.config import (_bundled_path, params_from_dict, params_to_dict,
                            stock_scenario)
from covstop.dp_oracle import make_scalar_model, value_iterate
from covstop.errors import ContractError, NumericalError
from covstop.filter_core import (TargetModel, loewner_geq, lyapunov_update,
                                 riccati_update)
from covstop.policy import ParamLayout, PolicyFamily
from covstop.sampling import ordered_pair, random_pd, random_transition
from covstop.streams import child_seed, stream


# Subcommands that take --params and --config.
PARAMS_COMMANDS = ("periodic-sweep", "flyby", "persistent")


def csv_values(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return [cell for row in csv.reader(lines[2:]) for cell in row]


@pytest.fixture
def stop_first_params(tmp_path):
    # Eigen-sum weights on the priority target's prior only: the
    # statistic is about 100 times the prior's trace, so every rollout
    # stops at epoch 1.
    layout = ParamLayout(PolicyFamily.EIGEN_SUM, 4, 4)
    phi = np.zeros(layout.n_params)
    phi[16:20] = 10.0
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params_to_dict(layout.build(phi), layout)))
    return path


@pytest.fixture
def persistent_params(tmp_path):
    # Eigen-sum weights 0.006 on the largest posterior and prior
    # eigenvalue of every target: stop times spread over the horizon.
    layout = ParamLayout(PolicyFamily.EIGEN_SUM, 4, 4)
    phi = np.zeros(layout.n_params)
    phi[::4] = math.sqrt(0.006)
    path = tmp_path / "persistent_params.json"
    path.write_text(json.dumps(params_to_dict(layout.build(phi), layout)))
    return path


@pytest.fixture
def singular_config(tmp_path):
    # A zero sampling period freezes the covariances, and target 0
    # starts from a zero covariance, so its determinant stays 0.
    spec = json.loads(_bundled_path("flyby").read_text())
    spec["model"]["period"] = 0.0
    spec["targets"][0]["posterior_cov"] = [0.0, 0.0, 0.0, 0.0]
    spec["targets"][0]["prior_cov"] = [0.0, 0.0, 0.0, 0.0]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(spec))
    return path


# Config values of the wrong type or shape, by their path in the file.
MALFORMED_CONFIG = [
    (("sigma_p",), "abc"),
    (("tau_max",), "x"),
    (("seed",), "x"),
    (("seed",), -1),
    (("seed",), 2.5),
    (("seed",), True),
    (("model", "period"), "x"),
    (("model", "p_d"), None),
    (("priorities",), "a"),
    (("weights", "alpha"), ["a", 0.05, 0.05, 0.05]),
    (("platform",), [1.0, 2.0]),
    (("targets",), 5),
    (("targets", 0, "posterior_cov"), [[100.0, 0.0], [0.0]]),
    (("targets", 0, "estimate"), [130.0, 5.5]),
    (("targets", 0, "true_state"), [100.0, 3.0, 40.0]),
]
# Numbers that are not JSON numbers, or not JSON integers where one is
# due; each of these ran as if it were one.
ORBIT = {"kind": "orbit", "radius": 30000.0, "speed": 250.0,
         "altitude": 5000.0}
NON_NUMBER_CONFIG = [
    (("tau_max",), 20.9),
    (("tau_max",), True),
    (("tau_max",), "20"),
    (("sigma_p",), True),
    (("weights", "operating_cost"), "0.8"),
    (("weights", "alpha"), [True, True, True, True]),
    (("model", "p_d"), True),
    (("model", "period"), "0.1"),
    (("priorities",), ["0.6", "0.39", "0.008", "0.002"]),
    (("platform", "state"), [10000.0, True, -30000.0, 85.0]),
    (("platform", "altitude"), "8473.3"),
    (("platform",), {**ORBIT, "n_locations": 72.0}),
    (("platform",), {**ORBIT, "start_location": True}),
    (("targets", 0, "posterior_cov"), ["100", 25.0, 100.0, 25.0]),
    (("targets", 0, "estimate"), [130.0, 5.5, 84.0, "8.1"]),
    (("targets", 1, "true_state"), [True, 3.0, 40.0, 7.0]),
]
# Numbers that are JSON numbers but break the run, by the file they are
# in ("flyby" and "persistent" are the bundled scenarios, "params" the
# persistent_params fixture) and their path there. The first five
# overflowed building the models, in Python float arithmetic; the NaNs,
# infinities and the estimate (whose Jacobian is NaN) reached the CSVs;
# the rest were accepted silently, 1e200 squaring to an infinite weight.
BAD_NUMBER_FILE = [
    ("flyby", ("model", "sigma_a_deg"), 1e200),
    ("flyby", ("model", "sigma_rdot"), 1e200),
    ("flyby", ("platform", "altitude"), 1e200),
    ("flyby", ("model", "period"), 1e100),
    ("flyby", ("model", "sigma_r"), 10**401 - 1),
    ("flyby", ("weights", "alpha", 0), math.nan),
    ("flyby", ("weights", "beta", 0), math.inf),
    ("flyby", ("model", "delta"), math.nan),
    ("flyby", ("targets", 0, "estimate"), [1e200, 0.0, 0.0, 0.0]),
    ("flyby", ("priorities", 1), math.nan),
    ("flyby", ("sigma_p",), math.nan),
    ("persistent", ("platform", "altitude"), math.inf),
    ("params", ("phi", 0), math.nan),
    ("params", ("phi", 0), math.inf),
    ("params", ("phi", 0), 1e200),
]


# Scenario-file refusals with the key or covariance their message must
# name; DELETE removes the key. A covariance the size of no state, and a
# horizon of more epochs than numpy can index, gave tracebacks.
DELETE = object()
ASYMMETRIC = [[100.0, 1.0, 0.0, 0.0], [0.0, 25.0, 0.0, 0.0],
              [0.0, 0.0, 100.0, 0.0], [0.0, 0.0, 0.0, 25.0]]
NAMED_CONFIG = [
    (("bogus",), 1.0, "bogus"),
    (("model", "bogus"), 1.0, "bogus"),
    (("model",), DELETE, "model"),
    (("seed",), DELETE, "seed"),
    (("weights",), 5, "weights"),
    (("targets", 0, "posterior_cov"), [[100.0, 0.0, 0.0, 0.0]],
     "targets[0].posterior_cov"),
    (("platform", "kind"), "helix", "platform kind"),
    (("targets", 0, "posterior_cov"), ASYMMETRIC, "P0[0]"),
    (("targets", 0, "posterior_cov"), [1.0, 1.0], "P0[0]"),
    (("targets", 0, "prior_cov"), [1.0, 1.0], "Pbar0[0]"),
    (("tau_max",), 10**30, "run too large for memory"),
]


def named_config_id(case):
    keys, value, _ = case
    text = "deleted" if value is DELETE else json.dumps(value,
                                                        separators=(",", ":"))
    return f"{'.'.join(map(str, keys))}={text}"


def bad_number_id(case):
    document, keys, value = case
    text = ("401-digits" if isinstance(value, int)
            else json.dumps(value, separators=(",", ":")))
    return f"{document}:{'.'.join(map(str, keys))}={text}"


# Tiny-budget runs of the subcommands, by name; persistent has its own
# rerun test below.
RERUN_ARGV = {
    "periodic-sweep": ["periodic-sweep", "--rollouts", "5"],
    "optimize": ["optimize", "--family", "eigen-sum", "--iterations", "2",
                 "--restarts", "1", "--rollouts-per-eval", "2"],
    "flyby": ["flyby", "--rollouts", "2", "--pd-grid", "0.75",
              "--cnu-grid", "0.8,1.6"],
    "dp-threshold": ["dp-threshold", "--grid", "8"],
    "verify-properties": ["verify-properties", "--samples", "5"],
    "validate-linearization": ["validate-linearization", "--seeds", "1"],
}


class TestPeriodicSweep:
    @pytest.mark.parametrize("command", list(RERUN_ARGV))
    def test_reruns_identical_manifest_complete_values_finite(
            self, command, tmp_path, stop_first_params):
        argv = RERUN_ARGV[command]
        if command == "flyby":
            argv = argv + ["--params", str(stop_first_params)]
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(argv + ["--seed", "3", "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        manifest = json.loads(outputs[0]["manifest.json"])
        assert manifest["outputs"] == sorted(set(outputs[0]) -
                                             {"manifest.json"})
        for name in manifest["outputs"]:
            if not name.endswith(".csv"):
                continue
            for cell in csv_values(tmp_path / "a" / name):
                try:
                    value = float(cell)
                except ValueError:
                    # state labels, metric names and empty gamma cells
                    assert command == "validate-linearization"
                    continue
                assert math.isfinite(value)

    def test_envelope_best_is_min_of_periodic_costs(self, tmp_path,
                                                    stop_first_params):
        # the best periodic cost and k are those of the mean_cost
        # column, to the last digit
        out = tmp_path / "out"
        assert main(["periodic-sweep", "--rollouts", "80", "--params",
                     str(stop_first_params), "--seed", "8",
                     "--out", str(out)]) == 0
        rows = list(csv.reader(
            (out / "periodic_costs.csv").read_text().splitlines()[2:]))
        (envelope,) = csv.reader(
            (out / "envelope.csv").read_text().splitlines()[2:])
        best = int(np.argmin([float(mean) for _, mean, _ in rows]))
        assert envelope[1] == rows[best][1]
        assert envelope[2] == str(best + 1)

    def test_columns_are_each_k_s_mean_and_stderr(self, tmp_path,
                                                  monkeypatch):
        # To the last bit of curve[:, k]'s mean and std / sqrt(rollouts);
        # from 80 rows up curve.mean(axis=0) differs in the last bits.
        curves = []
        curve_of = cli.periodic_cost_curve

        def kept(*args, **kwargs):
            curves.append(curve_of(*args, **kwargs))
            return curves[-1]

        monkeypatch.setattr(cli, "periodic_cost_curve", kept)
        out = tmp_path / "out"
        assert main(["periodic-sweep", "--rollouts", "80", "--seed", "8",
                     "--out", str(out)]) == 0
        (curve,) = curves
        rows = list(csv.reader(
            (out / "periodic_costs.csv").read_text().splitlines()[2:]))
        assert rows == [
            [str(k + 1), repr(float(curve[:, k].mean())),
             repr(float(curve[:, k].std() / np.sqrt(80)))]
            for k in range(curve.shape[1])]

    def test_params_sweep_simulates_its_seeds_once(self, tmp_path,
                                                   monkeypatch):
        # Eigen-sum weights 0.1 on every largest eigenvalue stop the
        # paths from epoch 2 to the horizon; 300 rollouts are two chunks.
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 4, 4)
        phi = np.zeros(layout.n_params)
        phi[::4] = math.sqrt(0.1)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params_to_dict(layout.build(phi), layout)))
        calls = []
        path_chunks = optimizer._path_chunks

        def counted(*args, **kwargs):
            calls.append(args)
            return path_chunks(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_path_chunks", counted)
        out = tmp_path / "out"
        assert main(["periodic-sweep", "--rollouts", "300", "--params",
                     str(path), "--seed", "8", "--out", str(out)]) == 0
        assert len(calls) == 1
        (envelope,) = csv.reader(
            (out / "envelope.csv").read_text().splitlines()[2:])
        params, _ = params_from_dict(json.loads(path.read_text()))
        assert envelope[0] == repr(optimizer.evaluate_cost(
            stock_scenario("flyby"), params,
            child_seed(8, "cli.periodic.eval"), 300))


class TestPersistent:
    def test_reruns_identical_manifest_complete_values_finite(
            self, tmp_path, persistent_params):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["persistent", "--cycles", "5", "--seed", "3",
                         "--params", str(persistent_params),
                         "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        manifest = json.loads(outputs[0]["manifest.json"])
        assert manifest["outputs"] == sorted(set(outputs[0]) -
                                             {"manifest.json"})
        for name in manifest["outputs"]:
            for cell in csv_values(tmp_path / "a" / name):
                assert math.isfinite(float(cell))
        taus = [int(row[1]) for row in csv.reader(
            (tmp_path / "a" / "stop_times.csv").read_text().splitlines()[2:])]
        assert len(taus) == 5
        trace_rows = (tmp_path / "a" / "logdet_trace.csv").read_text() \
            .splitlines()[2:]
        assert len(trace_rows) == 4 * sum(taus)


# Tiny-budget runs of the subcommands that take --params.
PARAMS_ARGV = {
    "periodic-sweep": ["periodic-sweep", "--rollouts", "5"],
    "flyby": ["flyby", "--rollouts", "2", "--pd-grid", "0.75",
              "--cnu-grid", "0.8"],
    "persistent": ["persistent", "--cycles", "2"],
}


def run_outputs(argv, out):
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def config_hash_of(outputs):
    return json.loads(outputs["manifest.json"])["config_hash"]


class TestConfigHashNamesThePolicy:
    @pytest.mark.parametrize("command", PARAMS_COMMANDS)
    def test_params_content_is_hashed_and_its_path_is_not(
            self, command, tmp_path, stop_first_params):
        # phi_0 weighs a posterior eigenvalue; the prior weight alone
        # already stops every path at epoch 1, so only the policy's
        # record tells the two runs apart.
        doc = json.loads(stop_first_params.read_text())
        doc["phi"][0] = 0.5
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc))
        (tmp_path / "elsewhere").mkdir()
        moved = tmp_path / "elsewhere" / "params.json"
        moved.write_bytes(stop_first_params.read_bytes())
        argv = PARAMS_ARGV[command] + ["--params"]
        base = run_outputs(argv + [str(stop_first_params)], tmp_path / "a")
        other = run_outputs(argv + [str(changed)], tmp_path / "b")
        assert run_outputs(argv + [str(moved)], tmp_path / "c") == base
        assert config_hash_of(other) != config_hash_of(base)
        assert json.loads(other["manifest.json"])["config"]["params"] \
            == doc
        for name, text in base.items():
            if name != "manifest.json":
                _, rows = text.split(b"\n", 1)
                assert other[name] != text
                assert other[name].endswith(rows)

    def test_training_flags_are_hashed(self, tmp_path):
        argv = RERUN_ARGV["optimize"]
        flag = argv.index("--iterations") + 1
        hashes = {config_hash_of(run_outputs(
            argv[:flag] + [n] + argv[flag + 1:], tmp_path / n))
            for n in ("1", "2")}
        assert len(hashes) == 2


# Tiny runs of every subcommand (PARAMS: a params file) and the first
# work-layer entry each reaches, as covstop.cli looks it up.
WORK_ENTRY_ARGV = [
    (RERUN_ARGV["optimize"], "spsa_optimize"),
    (RERUN_ARGV["periodic-sweep"], "periodic_cost_curve"),
    (RERUN_ARGV["flyby"] + ["--params", "PARAMS"], "policy_costs"),
    (["persistent", "--cycles", "2", "--params", "PARAMS"],
     "run_macro_cycles"),
    (RERUN_ARGV["validate-linearization"], "validate_linearization"),
    (RERUN_ARGV["dp-threshold"], "value_iterate"),
    (RERUN_ARGV["verify-properties"], "verify_monotone"),
]
# periodic-sweep under --params also writes envelope.csv.
OUTPUT_ARGV = WORK_ENTRY_ARGV + [
    (RERUN_ARGV["periodic-sweep"] + ["--params", "PARAMS"],
     "periodic_cost_curve")]
OUTPUT_IDS = ([argv[0] for argv, _ in WORK_ENTRY_ARGV]
              + ["periodic-sweep-params"])


# Flags whose values the CLI checks itself; their errors name them.
CLI_CHECKED_FLAGS = ("--rollouts", "--kmax", "--pd-grid", "--cnu-grid",
                     "--cycles", "--grid", "--samples", "--seeds",
                     "--iterations", "--restarts", "--rollouts-per-eval",
                     "--epsilon", "--c-nu", "--pd", "--tau-max", "--f", "--q",
                     "--r")


# Sizes refused as too large for memory before anything is allocated:
# by numpy, with a ValueError, or by the CLI's bound on a count that
# sizes the run's arrays (MAX_COUNT).
UNINDEXABLE_ARGV = [
    ["periodic-sweep", "--tau-max", str(10**21)],
    ["periodic-sweep", "--rollouts", "500", "--tau-max", str(10**17)],
    ["flyby", "--tau-max", str(10**20)],
    ["persistent", "--tau-max", str(10**20)],
    ["dp-threshold", "--grid", str(10**21)],
    ["verify-properties", "--samples", str(10**17)],
    ["verify-properties", "--samples", str(10**20)],
    ["validate-linearization", "--seeds", str(10**23)],
    ["optimize", "--tau-max", str(10**17)],
    ["optimize", "--tau-max", str(10**20)],
]


def with_params(argv, params):
    return [str(params) if a == "PARAMS" else a for a in argv]


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["periodic-sweep", "--rollouts", "0"],
        ["periodic-sweep", "--rollouts", "-3"],
        ["periodic-sweep", "--kmax", "0"],
        ["flyby", "--rollouts", "0"],
        ["flyby", "--pd-grid", "0.6,abc"],
        ["flyby", "--cnu-grid", "0.8,x"],
        ["flyby", "--cnu-grid", "nan"],
        ["persistent", "--cycles", "0"],
        ["persistent", "--cycles", "-2"],
        ["periodic-sweep", "--c-nu", "nan"],
        ["periodic-sweep", "--c-nu", "inf"],
        ["periodic-sweep", "--c-nu", "-1"],
        ["periodic-sweep", "--pd", "1.5"],
        ["periodic-sweep", "--tau-max", "0"],
        ["flyby", "--c-nu", "nan"],
        ["flyby", "--pd-grid", "0.5,2"],
        ["flyby", "--cnu-grid", "0.8,-1"],
        ["dp-threshold", "--f", "nan"],
        ["dp-threshold", "--q", "inf"],
        ["dp-threshold", "--q", "-1"],
        ["dp-threshold", "--r", "inf"],
        ["dp-threshold", "--pd", "2"],
        ["dp-threshold", "--c-nu", "nan"],
        ["dp-threshold", "--c-nu", "0"],
        ["dp-threshold", "--grid", "0"],
        ["dp-threshold", "--grid", "16", "--f", "1e200"],
        ["verify-properties", "--samples", "0"],
        ["verify-properties", "--samples", "-1"],
        ["validate-linearization", "--seeds", "0"],
        ["optimize", "--restarts", "0"],
        ["optimize", "--epsilon", "nan"],
        ["periodic-sweep", "--kmax", "99"],
        ["optimize", "--rollouts-per-eval", "0"],
        ["optimize", "--iterations", "-1"],
        *UNINDEXABLE_ARGV,
        # Counts that only set how long a run takes, above MAX_COUNT.
        ["flyby", "--rollouts", str(10**20)],
        ["periodic-sweep", "--rollouts", str(10**20)],
        ["persistent", "--cycles", str(10**20)],
        ["optimize", "--rollouts-per-eval", str(10**20)],
        ["optimize", "--iterations", str(10**20)],
        ["optimize", "--restarts", str(10**20)],
    ])
    def test_bad_input_exits_2(self, argv, tmp_path, stop_first_params,
                               capsys):
        out = tmp_path / "out"
        refused = argv[-2]  # each case ends with its refused flag and value
        unindexable = argv in UNINDEXABLE_ARGV
        if argv[0] in PARAMS_COMMANDS:
            argv = argv + ["--params", str(stop_first_params)]
        code = main(argv + ["--seed", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "validation error:" in err
        if unindexable:  # too large, not bad input
            assert err.startswith("validation error: run too large for "
                                  "memory: ")
            assert len(err.splitlines()) == 1
        elif refused in CLI_CHECKED_FLAGS:
            assert err.startswith(f"validation error: {refused} ")
            assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv,line", [
        (["periodic-sweep", "--c-nu", "-1"],
         "--c-nu -1.0: operating cost must be finite and positive"),
        (["persistent", "--pd", "1.5"], "--pd 1.5: p_d must lie in [0, 1]"),
        (["flyby", "--tau-max", "0"],
         "--tau-max 0: tau_max must be at least 1"),
        (["flyby", "--cnu-grid", "0.8,-1"],
         "--cnu-grid -1.0: operating cost must be finite and positive"),
        (["dp-threshold", "--f", "1e200"],
         "--f 1e+200: f**2, h**2, q and r must be finite"),
        (["dp-threshold", "--q", "-1"], "--q -1.0: q and r must be positive"),
        (["dp-threshold", "--pd", "2"], "--pd 2.0: p_d must lie in [0, 1]"),
    ])
    def test_library_refusal_names_flag_and_value(self, argv, line,
                                                  tmp_path, capsys):
        # The library's rule, prefixed with the flag and the value refused.
        out = tmp_path / "out"
        assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"validation error: {line}\n"
        assert not out.exists()

    def test_other_value_error_propagates(self, tmp_path, monkeypatch):
        def value_iterate(*args, **kwargs):  # near numpy's size messages
            raise ValueError("Maximum allowed")

        monkeypatch.setattr(cli, "value_iterate", value_iterate)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="^Maximum allowed$"):
            main(["dp-threshold", "--grid", "8", "--seed", "1", "--out",
                  str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["flyby", "persistent"])
    def test_training_flags_are_not_checked_under_params(
            self, command, tmp_path, stop_first_params):
        argv = PARAMS_ARGV[command] + [
            "--params", str(stop_first_params), "--iterations", "-1",
            "--restarts", "0", "--rollouts-per-eval", "0", "--epsilon", "nan"]
        assert main(argv + ["--seed", "1", "--out", str(tmp_path / "out")]) \
            == 0

    def test_zero_iterations_train(self, tmp_path):
        argv = ["optimize", "--family", "eigen-sum", "--iterations", "0",
                "--restarts", "1", "--rollouts-per-eval", "2"]
        assert main(argv + ["--seed", "1", "--out", str(tmp_path / "out")]) \
            == 0

    @pytest.mark.parametrize("command", [
        "periodic-sweep", "flyby", "persistent", "optimize", "dp-threshold",
        "verify-properties", "validate-linearization"])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([command, "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "validation error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", PARAMS_COMMANDS)
    @pytest.mark.parametrize("flag,content", [
        ("--params", None),
        ("--config", None),
        ("--config", "{not json"),
        ("--config", "[1, 2]"),
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.1],
                                 "layout": {"n_targets": 4,
                                            "state_dim": 4}})),
        ("--params", json.dumps({"family": "eigen-max2", "phi": [],
                                 "layout": {"n_targets": 4,
                                            "state_dim": 4}})),
        ("--params", "[1, 2]"),
        ("--params", json.dumps({"family": "eigen-sum", "phi": ["a"],
                                 "layout": {"n_targets": 4,
                                            "state_dim": 4}})),
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.1] * 4,
                                 "layout": {"n_targets": 2,
                                            "state_dim": 1}})),
        # phi entries that are not JSON numbers
        ("--params", json.dumps({"family": "eigen-sum", "phi": [True] * 32,
                                 "layout": {"n_targets": 4,
                                            "state_dim": 4}})),
        ("--params", json.dumps({"family": "eigen-sum",
                                 "phi": ["0.1"] * 32,
                                 "layout": {"n_targets": 4,
                                            "state_dim": 4}})),
        # Layout entries of the wrong JSON type, or a priority target
        # out of range; each is otherwise a valid 4-target layout.
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.1] * 32,
                                 "layout": {"n_targets": 4.7,
                                            "state_dim": 4}})),
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.1] * 32,
                                 "layout": {"n_targets": 4,
                                            "state_dim": True}})),
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.1] * 32,
                                 "layout": {"n_targets": 4, "state_dim": 4,
                                            "a": True}})),
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.1] * 16,
                                 "layout": {"n_targets": 4, "state_dim": 4,
                                            "share_other": "false"}})),
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.1] * 16,
                                 "layout": {"n_targets": 4, "state_dim": 4,
                                            "tie_priors": 1}})),
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.1] * 16,
                                 "layout": {"n_targets": 4, "state_dim": 4,
                                            "share_other": True,
                                            "a": 7}})),
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.1] * 32,
                                 "layout": {"n_targets": 4, "state_dim": 4,
                                            "a": -1}})),
        # Valid layouts whose priority target is not the scenario's (0):
        # the shared layout puts the priority block on target 2's row.
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.3] * 8,
                                 "layout": {"n_targets": 4, "state_dim": 4,
                                            "share_other": True,
                                            "tie_priors": True, "a": 2}})),
        ("--params", json.dumps({"family": "eigen-sum", "phi": [0.3] * 16,
                                 "layout": {"n_targets": 4, "state_dim": 4,
                                            "tie_priors": True, "a": 2}})),
    ])
    def test_unreadable_or_invalid_file_exits_2(
            self, command, flag, content, tmp_path, stop_first_params,
            capsys):
        # None stands for a file that does not exist.
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        files = {"--params": str(stop_first_params), flag: str(path)}
        size = (["--cycles", "1"] if command == "persistent"
                else ["--rollouts", "2"])
        out = tmp_path / "out"
        code = main([command] + size
                    + [item for pair in files.items() for item in pair]
                    + ["--seed", "1", "--out", str(out)])
        assert code == 2
        assert "validation error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key", [("weights", "case"),
                                             (None, "macro_mode")])
    def test_unknown_config_choice_exits_2(self, section, key, tmp_path,
                                           capsys):
        spec = json.loads(_bundled_path("flyby").read_text())
        (spec[section] if section else spec)[key] = "no-such-choice"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main(["periodic-sweep", "--rollouts", "2", "--config",
                     str(path), "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "no-such-choice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys,value,named",
        [(keys, value, None)
         for keys, value in MALFORMED_CONFIG + NON_NUMBER_CONFIG]
        + NAMED_CONFIG,
        ids=[".".join(map(str, keys)) for keys, _ in MALFORMED_CONFIG]
        + [".".join(map(str, keys)) + "=" + json.dumps(value)
           for keys, value in NON_NUMBER_CONFIG]
        + list(map(named_config_id, NAMED_CONFIG)))
    def test_malformed_config_value_exits_2(self, keys, value, named,
                                            tmp_path, capsys):
        spec = json.loads(_bundled_path("flyby").read_text())
        node = spec
        for key in keys[:-1]:
            node = node[key]
        if value is DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main(["periodic-sweep", "--rollouts", "2", "--config",
                     str(path), "--seed", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("validation error:")
        if named is not None:
            assert named in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("case", BAD_NUMBER_FILE,
                             ids=map(bad_number_id, BAD_NUMBER_FILE))
    def test_bad_number_in_file_exits_2(self, case, tmp_path,
                                        persistent_params, capsys):
        document, keys, value = case
        source = (persistent_params if document == "params"
                  else _bundled_path(document))
        spec = json.loads(source.read_text())
        node = spec
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(spec))
        argv = {"flyby": ["periodic-sweep", "--rollouts", "2",
                          "--config", str(path)],
                "persistent": ["persistent", "--cycles", "2", "--config",
                               str(path), "--params", str(persistent_params)],
                "params": ["persistent", "--cycles", "2",
                           "--params", str(path)]}[document]
        out = tmp_path / "out"
        code = main(argv + ["--seed", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("validation error:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["periodic-sweep", "--rollouts", "3", "--c-nu", "1e308"],
        ["flyby", "--params", "PARAMS", "--rollouts", "2", "--pd-grid",
         "0.75", "--cnu-grid", "1e308"],
        ["optimize", "--family", "eigen-sum", "--iterations", "2",
         "--restarts", "2", "--rollouts-per-eval", "2", "--c-nu", "1e308"],
    ], ids=["periodic-sweep", "flyby", "optimize"])
    def test_overflowing_sample_cost_exits_3(self, argv, tmp_path,
                                             persistent_params, capsys):
        # 1e308 is a finite operating cost, but two epochs of it are not.
        # The search's iterates then grow until their weights overflow;
        # only the one failure line may reach stderr, no numpy warning.
        argv = [str(persistent_params) if a == "PARAMS" else a for a in argv]
        out = tmp_path / "out"
        code = main(argv + ["--seed", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure:")
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["alpha", "beta"])
    @pytest.mark.parametrize("argv", [
        ["periodic-sweep", "--rollouts", "3"],
        ["flyby", "--params", "PARAMS", "--rollouts", "2", "--pd-grid",
         "0.75", "--cnu-grid", "0.8"],
        ["optimize", "--family", "eigen-sum", "--iterations", "2",
         "--restarts", "2", "--rollouts-per-eval", "2"],
    ], ids=["periodic-sweep", "flyby", "optimize"])
    def test_overflowing_cost_weights_exit_3(self, argv, weight, tmp_path,
                                             persistent_params, capsys):
        # Information weights of 1e308 overflow the weighted
        # log-determinants, so every sample cost is inf or NaN: the one
        # failure line, and no numpy warning, may reach stderr.
        spec = json.loads(_bundled_path("flyby").read_text())
        spec["weights"][weight] = [1e308] * 4
        config = tmp_path / "config.json"
        config.write_text(json.dumps(spec))
        argv = [str(persistent_params) if a == "PARAMS" else a for a in argv]
        out = tmp_path / "out"
        code = main(argv + ["--config", str(config), "--seed", "1",
                            "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure:")
        assert not out.exists()

    def test_overflowing_operating_cost_leaves_macro_cycles_alone(
            self, tmp_path, capsys):
        # The macro trace holds no cost, so an operating cost whose
        # sample costs would overflow changes nothing it writes.
        params = Path(__file__).resolve().parents[1] / "benchmarks" \
            / "persistent_params.json"
        outputs = {}
        for c_nu in ("0.8", "1e308"):
            out = tmp_path / c_nu
            code = main(["persistent", "--params", str(params), "--cycles",
                         "3", "--c-nu", c_nu, "--seed", "1",
                         "--out", str(out)])
            assert code == 0
            assert capsys.readouterr().err == ""
            outputs[c_nu] = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(outputs["1e308"]["manifest.json"])
        assert manifest["outputs"] == ["logdet_trace.csv", "stop_times.csv"]
        assert sorted(outputs["1e308"]) == ["logdet_trace.csv",
                                            "manifest.json",
                                            "stop_times.csv"]
        for name in manifest["outputs"]:
            body = [b.split(b"\n", 1)[1] for b in
                    (outputs["0.8"][name], outputs["1e308"][name])]
            assert body[0] == body[1]

    @pytest.mark.parametrize("argv", [
        ["periodic-sweep", "--rollouts", "2"],
        ["flyby", "--rollouts", "2", "--pd-grid", "0.75",
         "--cnu-grid", "0.8"],
        ["persistent", "--cycles", "2"],
    ])
    def test_singular_covariance_exits_3(self, argv, tmp_path,
                                         stop_first_params, singular_config,
                                         capsys):
        out = tmp_path / "out"
        code = main(argv + ["--config", str(singular_config),
                            "--params", str(stop_first_params),
                            "--seed", "1", "--out", str(out)])
        assert code == 3
        assert "numerical failure:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("module,argv", [
        # A 1e8-epoch horizon needs a 95 GiB engine state buffer, which
        # the engine must ask for before drawing 3.2 GB of detections.
        (optimizer, ["periodic-sweep", "--rollouts", "3", "--tau-max",
                     "100000000"]),
        # 1e8 samples are more than MAX_COUNT, which the CLI must
        # refuse before the suites' first draw.
        (cli, ["verify-properties", "--samples", "100000000"]),
    ], ids=["periodic-sweep", "verify-properties"])
    def test_run_too_large_for_memory_exits_2(self, module, argv, tmp_path,
                                              monkeypatch, capsys):
        # The fake refuses more than 1e8 entries as numpy refuses what it
        # cannot allocate, without trying.
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if np.prod(shape) > 10**8:
                raise MemoryError(f"Unable to allocate an array with "
                                  f"shape {shape}")
            return real_empty(shape, *args, **kwargs)

        def stream(*args):
            raise AssertionError("samples drawn before the buffers")

        monkeypatch.setattr(np, "empty", empty)
        monkeypatch.setattr(module, "stream", stream)
        out = tmp_path / "out"
        code = main(argv + ["--seed", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("validation error:")
        assert not out.exists()

    def test_dp_threshold_divergence_exits_3(self, tmp_path, capsys):
        # f**2 is finite, f**2 * p is not: the next covariances overflow,
        # and the run must stop before its first sweep, with one line on
        # stderr, instead of sweeping 100,000 times.
        out = tmp_path / "out"
        code = main(["dp-threshold", "--grid", "16", "--f", "1e154",
                     "--seed", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure:")
        assert "before iteration 1:" in err[0]
        assert not out.exists()

    def test_dp_threshold_monotonicity_violations_exit_3(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        # Violations are reported, not fatal: the outputs are written and
        # the exit code says the table is not monotone.
        monkeypatch.setattr(cli, "check_monotone_policy", lambda qtable: 2)
        out = tmp_path / "out"
        code = main(["dp-threshold", "--grid", "8", "--seed", "1",
                     "--out", str(out)])
        assert code == 3
        assert "monotonicity violations 2" in capsys.readouterr().out
        for name in ("qtable.csv", "threshold.csv", "manifest.json"):
            assert (out / name).is_file()

    @pytest.mark.parametrize("case", ["existing-file", "below-a-file",
                                      "file-name-taken", "file-name-linked"])
    def test_unusable_out_exits_2(self, case, tmp_path, monkeypatch, capsys):
        # An existing non-directory --out, one below a file, and a file
        # name taken by a directory or a symlink are all refused before
        # any work.
        blocker = tmp_path / "blocker"
        out = {"existing-file": blocker, "below-a-file": blocker / "out",
               "file-name-taken": tmp_path / "out",
               "file-name-linked": tmp_path / "out"}[case]
        if case == "file-name-taken":
            (out / "threshold.csv").mkdir(parents=True)
        else:
            blocker.write_text("")
        if case == "file-name-linked":
            out.mkdir()
            (out / "threshold.csv").symlink_to(blocker)
        monkeypatch.setattr(cli, "value_iterate", lambda model: pytest.fail(
            "the run started before --out was checked"))
        code = main(["dp-threshold", "--grid", "8", "--seed", "1",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"validation error: cannot write --out "
                                 f"{out}")
        assert not (out / "manifest.json").exists()
        assert not (out / "qtable.csv").exists()
        if case != "file-name-taken":
            assert blocker.read_text() == ""

    def test_empty_out_exits_2(self, tmp_path, monkeypatch, capsys):
        # An empty --out, as from an unset shell variable, is refused
        # before any work: taken as the current directory, it would
        # delete keep.txt, a stale output of its manifest. An explicit
        # "." still means the current directory.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "keep.txt").write_text("kept\n")
        manifest = json.dumps({"outputs": ["keep.txt"]})
        (tmp_path / "manifest.json").write_text(manifest)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "periodic_cost_curve",
                          lambda *args, **kwargs: pytest.fail(
                              "the run started before --out was checked"))
            code = main(["periodic-sweep", "--rollouts", "2", "--seed", "1",
                         "--out", ""])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("validation error: --out ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "keep.txt", "manifest.json"]
        assert (tmp_path / "keep.txt").read_text() == "kept\n"
        assert (tmp_path / "manifest.json").read_text() == manifest
        assert main(["periodic-sweep", "--rollouts", "2", "--seed", "1",
                     "--out", "."]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "periodic_costs.csv"]

    @pytest.mark.parametrize("argv,entry", WORK_ENTRY_ARGV,
                             ids=lambda value: value[0]
                             if isinstance(value, list) else None)
    def test_failing_run_writes_nothing(self, argv, entry, tmp_path,
                                        stop_first_params, monkeypatch,
                                        capsys):
        def fail(*args, **kwargs):
            raise NumericalError(f"{entry} failed")

        monkeypatch.setattr(cli, entry, fail)
        argv = with_params(argv, stop_first_params)
        out = tmp_path / "out"
        code = main(argv + ["--seed", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"numerical failure: {entry} failed"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,entry", OUTPUT_ARGV, ids=OUTPUT_IDS)
    def test_declared_names_are_the_files_written(self, argv, entry, tmp_path,
                                                  stop_first_params):
        argv = with_params(argv, stop_first_params) + [
            "--seed", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        args = cli.build_parser().parse_args(argv)
        assert manifest["outputs"] == sorted(cli._output_names(args))

    @pytest.mark.parametrize("argv,entry", OUTPUT_ARGV, ids=OUTPUT_IDS)
    def test_taken_output_name_is_refused_before_the_run(
            self, argv, entry, tmp_path, stop_first_params, monkeypatch,
            capsys):
        # A trained run would lose its training to a name that only the
        # write finds taken.
        monkeypatch.setattr(cli, entry, lambda *args, **kwargs: pytest.fail(
            "the run started before its output names were checked"))
        out = tmp_path / "out"
        argv = with_params(argv, stop_first_params) + [
            "--seed", "1", "--out", str(out)]
        names = cli._output_names(cli.build_parser().parse_args(argv))
        for name in names + ["manifest.json"]:
            (out / name).mkdir(parents=True)
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"validation error: cannot write --out {out}: "
                           f"{name} exists and is not a regular file"]
            (out / name).rmdir()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("earlier_run", [False, True],
                             ids=["new-out", "reused-out"])
    def test_write_failing_part_way_leaves_out_as_it_was(
            self, earlier_run, tmp_path, monkeypatch, capsys):
        # The second file cannot be written (a full disk, say): --out
        # holds exactly the files it held before, and nothing else.
        out = tmp_path / "out"
        if earlier_run:
            assert main(["dp-threshold", "--grid", "4", "--seed", "2",
                         "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.glob("out/*")}
        written, write_csv = [], cli.write_csv

        def fail_second(path, *args):
            written.append(path.name)
            if len(written) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            write_csv(path, *args)

        monkeypatch.setattr(cli, "write_csv", fail_second)
        code = main(["dp-threshold", "--grid", "8", "--seed", "1",
                     "--out", str(out)])
        assert code == 2
        assert written == ["qtable.csv", "threshold.csv"]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"validation error: cannot write --out {out}: [Errno 28] No "
            f"space left on device")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_out_linked_to_another_filesystem(self, tmp_path):
        # Files are renamed into --out from a directory on its own
        # filesystem, whatever filesystem --out's parent is on.
        shm = Path("/dev/shm")
        if not shm.is_dir() or shm.stat().st_dev == tmp_path.stat().st_dev:
            pytest.skip("needs /dev/shm on another filesystem")
        target = Path(tempfile.mkdtemp(dir=shm))
        try:
            (tmp_path / "out").symlink_to(target)
            assert main(["dp-threshold", "--grid", "4", "--seed", "1",
                         "--out", str(tmp_path / "out")]) == 0
            assert sorted(p.name for p in target.iterdir()) == [
                "manifest.json", "qtable.csv", "threshold.csv"]
        finally:
            for path in target.iterdir():
                path.unlink()
            target.rmdir()

    @pytest.mark.parametrize("grid", [["--pd-grid", "0.5,2"],
                                      ["--cnu-grid", "0.8,-1"]],
                             ids=["pd-grid", "cnu-grid"])
    def test_flyby_checks_grid_before_training(self, grid, tmp_path,
                                               monkeypatch, capsys):
        def work(*args, **kwargs):
            raise AssertionError("work started before the grid was checked")

        monkeypatch.setattr(cli, "spsa_optimize", work)
        monkeypatch.setattr(cli, "policy_costs", work)
        out = tmp_path / "out"
        code = main(["flyby", "--rollouts", "2", *grid, *TRAIN_ARGV,
                     "--seed", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"validation error: {grid[0]} ")
        assert not out.exists()


def test_every_flag_has_help():
    parser = cli.build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for command, sub in commands.items():
        for action in sub._actions:
            assert action.help, (command, action.option_strings)


def test_optimize_prints_the_re_rank_cost(tmp_path, monkeypatch, capsys):
    # best_cost is the nominees' re-rank mean, not the trailing-window
    # mean that nominated them.
    results = []

    def spsa_optimize(*args):
        results.append(optimizer.spsa_optimize(*args))
        return results[-1]

    monkeypatch.setattr(cli, "spsa_optimize", spsa_optimize)
    argv = ["optimize", "--family", "eigen-sum", "--iterations", "2",
            "--restarts", "2", "--rollouts-per-eval", "2"]
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / "out")]) == 0
    (result,) = results
    assert capsys.readouterr().out.splitlines() == [
        f"best re-rank cost {result.best_cost:.6g} (restart "
        f"{result.best_restart}, iteration {result.best_iteration})"]
    # The params file is the search's pick, built on the run's layout.
    doc = json.loads((tmp_path / "out" / "best_params.json").read_text())
    assert doc["phi"] == result.best_phi.tolist()
    params, layout = params_from_dict(doc)
    assert layout == ParamLayout(PolicyFamily.EIGEN_SUM, 4, 4)
    built = layout.build(result.best_phi)
    np.testing.assert_array_equal(params.theta, built.theta)
    np.testing.assert_array_equal(params.theta_bar, built.theta_bar)


def test_shared_tied_training_is_read_back(tmp_path):
    # One eigen-sum block for the priority target and one for its rivals,
    # tied across posteriors and priors: 8 parameters.
    trained = tmp_path / "trained"
    assert main(["optimize", "--family", "eigen-sum", "--iterations", "2",
                 "--restarts", "1", "--rollouts-per-eval", "2",
                 "--share-other", "--tie-priors", "--seed", "1",
                 "--out", str(trained)]) == 0
    path = trained / "best_params.json"
    doc = json.loads(path.read_text())
    assert doc["layout"]["share_other"] is True
    assert doc["layout"]["tie_priors"] is True
    assert len(doc["phi"]) == 8
    out = tmp_path / "sweep"
    assert main(["periodic-sweep", "--rollouts", "20", "--params", str(path),
                 "--seed", "1", "--out", str(out)]) == 0
    (envelope,) = csv.reader(
        (out / "envelope.csv").read_text().splitlines()[2:])
    policy = ParamLayout(PolicyFamily.EIGEN_SUM, 4, 4, share_other=True,
                         tie_priors=True).build(np.array(doc["phi"]))
    assert envelope[0] == repr(optimizer.evaluate_cost(
        stock_scenario("flyby"), policy, child_seed(1, "cli.periodic.eval"),
        20))


class TestReusedOut:
    def test_rerun_without_params_drops_envelope(self, tmp_path,
                                                 stop_first_params):
        out = tmp_path / "out"
        for extra in (["--params", str(stop_first_params)], []):
            assert main(["periodic-sweep", "--rollouts", "5", *extra,
                         "--seed", "1", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "periodic_costs.csv"]

    def test_only_listed_plain_files_directly_in_out_go(self, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        (out / "listed-dir").mkdir()
        for path in (tmp_path / "outside.csv", out / "sub" / "inner.csv",
                     out / "stale.csv", out / "a..b.csv", out / "unlisted.csv",
                     out / "qtable.csv"):
            path.write_text("x\n")
        (out / "link.csv").symlink_to(tmp_path / "outside.csv")
        listed = ["../outside.csv", "sub/inner.csv", str(out / "unlisted.csv"),
                  "listed-dir", "link.csv", "a..b.csv", "missing.csv",
                  "stale.csv", "qtable.csv", "manifest.json"]
        (out / "manifest.json").write_text(json.dumps({"outputs": listed}))
        assert main(["dp-threshold", "--grid", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "a..b.csv", "link.csv", "listed-dir", "manifest.json",
            "qtable.csv", "sub", "threshold.csv", "unlisted.csv"]
        assert (out / "sub" / "inner.csv").is_file()
        assert (tmp_path / "outside.csv").read_text() == "x\n"

    @pytest.mark.parametrize("manifest", [
        "{", "", "[]", '{"outputs": "stale.csv"}', '{"outputs": [1]}',
        '{"output": ["stale.csv"]}'])
    def test_manifest_that_does_not_parse_deletes_nothing(
            self, manifest, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.csv").write_text("x\n")
        (out / "manifest.json").write_text(manifest)
        assert main(["dp-threshold", "--grid", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        assert (out / "stale.csv").read_text() == "x\n"


# The scalar per-belief stack and the per-matrix covariance updates, by
# defining module: the reference that tests and the benchmark compare
# the path engine and the stacked steps against.
SCALAR_REFERENCE = [("optimizer", "rollout"),
                    ("observability", "belief_step"),
                    ("observability", "stopping_cost"),
                    ("observability", "mutual_information"),
                    ("policy", "decision_statistic"), ("policy", "decide"),
                    ("filter_core", "lyapunov_update"),
                    ("filter_core", "riccati_update")]
TRAIN_ARGV = ["--family", "eigen-sum", "--iterations", "1", "--restarts",
              "1", "--rollouts-per-eval", "2"]
# Tiny-budget runs of every subcommand and every policy source; PARAMS
# and PERSISTENT_PARAMS stand for the fixtures' files.
REFERENCE_FREE_ARGV = {
    **RERUN_ARGV,
    "flyby": RERUN_ARGV["flyby"] + ["--params", "PARAMS"],
    "periodic-sweep-params": ["periodic-sweep", "--rollouts", "5",
                              "--params", "PARAMS"],
    "flyby-trained": ["flyby", "--rollouts", "2", "--pd-grid", "0.75",
                      "--cnu-grid", "0.8", *TRAIN_ARGV],
    "persistent-trained": ["persistent", "--cycles", "2", *TRAIN_ARGV],
    "persistent-params": ["persistent", "--cycles", "3", "--params",
                          "PERSISTENT_PARAMS"],
}


@pytest.mark.parametrize("run", list(REFERENCE_FREE_ARGV))
def test_cli_never_calls_scalar_reference(run, tmp_path, monkeypatch,
                                          stop_first_params,
                                          persistent_params):
    # Every covstop module's reference to a scalar function raises, as
    # benchmarks/traced_cli.py wraps them.
    modules = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "covstop"]
    for module_name, fn_name in SCALAR_REFERENCE:
        original = getattr(sys.modules[f"covstop.{module_name}"], fn_name)

        def called(*args, _name=fn_name, **kwargs):
            raise AssertionError(f"the CLI called {_name}")

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, called)
    files = {"PARAMS": str(stop_first_params),
             "PERSISTENT_PARAMS": str(persistent_params)}
    argv = [files.get(arg, arg) for arg in REFERENCE_FREE_ARGV[run]]
    assert main(argv + ["--seed", "3", "--out", str(tmp_path / "out")]) == 0


def per_matrix_det_ratio(p, update):
    # det(update(P)) / det(P) from two slogdets; 0 if det(update(P)) is
    # not positive.
    sign, logdet = np.linalg.slogdet(p)
    assert sign > 0.0
    sign_next, logdet_next = np.linalg.slogdet(update(p))
    return float(np.exp(logdet_next - logdet)) if sign_next > 0.0 else 0.0


def per_sample_theorem2(n_samples, seed, pair):
    """_theorem2_suite's report, one TargetModel and four determinant
    ratios at a time, from the same draws in the same order."""
    gen = stream(seed, "verify.theorem2")
    stock = stock_scenario("flyby").models[0]
    violations, worst = 0, 0.0
    for i in range(n_samples):
        m = 4
        if i % 10 == 0:
            f, q = stock.F, stock.Q + 1e-8 * np.eye(4)
        else:
            f = random_transition(gen, m, gen.uniform(0.5, 1.5))
            q = random_pd(gen, m, gen.uniform(0.3, 3.0))
        model = TargetModel(F=f, G=np.eye(m), H=gen.normal(size=(3, m)),
                            Q=q, r_base=random_pd(gen, 3, 1.0, jitter=1e-3),
                            p_d=1.0, delta=1.0)
        p1, p2 = pair(gen, m, gen.uniform(0.5, 2.0))
        for update in (lambda p: lyapunov_update(p, model),
                       lambda p: riccati_update(p, model, 1.0)):
            r1 = per_matrix_det_ratio(p1, update)
            r2 = per_matrix_det_ratio(p2, update)
            slack = r1 - r2 - 1e-9 * max(abs(r1), abs(r2))
            if slack > 0.0:
                violations += 1
                worst = max(worst, slack)
    return {"samples": n_samples, "violations": violations, "worst": worst}


def per_sample_operators(n_samples, seed, pair):
    """_operator_monotonicity_suite's report, one pair of matrices at a
    time, from the same draws in the same order."""
    gen = stream(seed, "verify.operators")
    model = stock_scenario("flyby").models[0]
    violations = 0
    for _ in range(n_samples):
        p1, p2 = pair(gen, 4, gen.uniform(0.5, 2.0))
        tol = 1e-9 * float(np.trace(p1))
        violations += not loewner_geq(lyapunov_update(p1, model),
                                      lyapunov_update(p2, model), tol)
        violations += not loewner_geq(riccati_update(p1, model, 0.6),
                                      riccati_update(p2, model, 0.6), tol)
    return {"samples": n_samples, "violations": violations}


def swapped_pair(gen, m, scale):
    # The mutant: P1 <= P2 instead of P1 >= P2.
    p1, p2 = ordered_pair(gen, m, scale)
    return p2, p1


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("pair", [ordered_pair, swapped_pair],
                         ids=["drawn", "swapped"])
def test_stacked_suites_match_per_sample_loop(pair, seed, monkeypatch):
    monkeypatch.setattr(cli, "ordered_pair", pair)
    theorem2 = cli._theorem2_suite(300, seed)
    expected = per_sample_theorem2(300, seed, pair)
    assert theorem2 == expected
    assert theorem2["worst"].hex() == expected["worst"].hex()
    operators = cli._operator_monotonicity_suite(300, seed)
    assert operators == per_sample_operators(300, seed, pair)
    if pair is swapped_pair:
        assert theorem2["violations"] > 0 and operators["violations"] > 0


# Each count flag; the command that takes it, with every other count
# flag at 1; the command's first work call; and the refusal's prefix, too
# large for memory where the count sizes the run's arrays.
MEMORY = "run too large for memory: "
COUNT_FLAGS = [
    (["flyby", "--params", "PARAMS"], "--rollouts", "policy_costs", ""),
    (["periodic-sweep"], "--rollouts", "periodic_cost_curve", ""),
    (["persistent", "--params", "PARAMS"], "--cycles", "run_macro_cycles",
     ""),
    *[(["optimize", "--iterations", "1", "--restarts", "1",
        "--rollouts-per-eval", "1"], flag, "spsa_optimize", "")
      for flag in ("--iterations", "--restarts", "--rollouts-per-eval")],
    (["validate-linearization"], "--seeds", "validate_linearization",
     MEMORY),
    (["dp-threshold"], "--grid", "value_iterate", MEMORY),
    (["verify-properties"], "--samples", "_theorem2_suite", MEMORY),
]


@pytest.mark.parametrize("argv,flag,work,prefix", COUNT_FLAGS,
                         ids=[f"{a[0]}{f}" for a, f, _, _ in COUNT_FLAGS])
def test_count_bound_is_inclusive(argv, flag, work, prefix, tmp_path,
                                  monkeypatch, capsys, stop_first_params):
    # MAX_COUNT runs; one more is refused before the command's first work
    # call, with one line and no --out.
    monkeypatch.setattr(cli, "MAX_COUNT", 5)
    argv = with_params(argv, stop_first_params)
    assert main(argv + [flag, "5", "--seed", "1",
                        "--out", str(tmp_path / "at")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, work, None)  # any work call would fail
    out = tmp_path / "over"
    assert main(argv + [flag, "6", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"validation error: {prefix}{flag} 6 is more than 5, the most a "
        f"count flag takes\n")
    assert not out.exists()


def test_blocked_report_matches_one_block(tmp_path, monkeypatch, capsys):
    # 50 samples in blocks of 7, the last of them partial (1 sample), and
    # in one block.
    reports = []
    for block in (7, 50):
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK", block)
        out = tmp_path / str(block)
        assert main(["verify-properties", "--samples", "50", "--seed", "1",
                     "--out", str(out)]) == 0
        reports.append((out / "properties_report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_first_violation_in_a_later_block(seed, monkeypatch):
    # Pairs are swapped from the 11th draw on, which falls in the second
    # block of 7; the counts and the worst slack equal one block's.
    reports = []
    for block in (7, 1024):
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK", block)
        draws = 0

        def late_swap(gen, m, scale):
            nonlocal draws
            draws += 1
            p1, p2 = ordered_pair(gen, m, scale)
            return (p1, p2) if draws <= 10 else (p2, p1)

        monkeypatch.setattr(cli, "ordered_pair", late_swap)
        reports.append(cli._theorem2_suite(60, seed))
        draws = 0
        reports.append(cli._operator_monotonicity_suite(60, seed))
    assert reports[:2] == reports[2:]
    assert reports[0]["worst"].hex() == reports[2]["worst"].hex()
    assert reports[0]["violations"] > 0 and reports[1]["violations"] > 0
    monkeypatch.setattr(sampling, "SAMPLE_BLOCK", 7)
    draws = 0
    assert cli._theorem2_suite(10, seed)["violations"] == 0
    draws = 0
    assert cli._operator_monotonicity_suite(10, seed)["violations"] == 0


@pytest.mark.parametrize("suite,error,message", [
    (cli._theorem2_suite, ContractError, "P must have positive determinant"),
    (cli._operator_monotonicity_suite, NumericalError,
     "covariance update is not positive definite"),
], ids=["theorem2", "operators"])
def test_bad_sample_in_a_later_block(suite, error, message, monkeypatch):
    # The 11th pair is not positive definite. In blocks of 7 it is in the
    # second block, which raises one block's error before the third is
    # drawn; in one block the error is the same.
    bad = -np.eye(4)
    bad[0, 0] = 1.0  # determinant -1
    for block, drawn in ((7, 14), (1024, 40)):
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK", block)
        draws = 0

        def bad_eleventh(gen, m, scale):
            nonlocal draws
            draws += 1
            pair = ordered_pair(gen, m, scale)
            return (bad, bad) if draws == 11 else pair

        monkeypatch.setattr(cli, "ordered_pair", bad_eleventh)
        with pytest.raises(error, match=f"^{message}$"):
            suite(40, 1)
        assert draws == drawn


def test_suite_memory_does_not_grow_with_samples():
    # The operator suite at 5,000 samples: its stacks held every sample
    # at once before (a traced peak of 9.2 MB); one block of 1,024 peaks
    # near 2.7 MB.
    tracemalloc.start()
    try:
        cli._operator_monotonicity_suite(5000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_cli_import_loads_no_scipy():
    src = Path(covstop.__file__).resolve().parents[1]
    code = ("import sys, covstop.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.strip() == "[]"


# dp-threshold runs that exit 0, 2 (bad input) and 3 (numerical failure).
EXIT_ARGV = {
    0: ["dp-threshold", "--grid", "16", "--seed", "1"],
    2: ["dp-threshold", "--grid", "0", "--seed", "1"],
    3: ["dp-threshold", "--grid", "16", "--f", "1e154", "--seed", "1"],
}


def cli_process(args):
    """``python`` with ``args``, importing covstop from this tree."""
    src = Path(covstop.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))


def tree_bytes(out):
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestProcessEntry:
    @pytest.mark.parametrize("code", sorted(EXIT_ARGV))
    def test_run_freezes_once_after_main_and_exits_with_its_code(
            self, code, monkeypatch):
        frozen = gc.get_freeze_count()
        events = []
        monkeypatch.setattr(cli, "main", lambda: events.append("main") or code)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == code
        assert events == ["main", "freeze"]
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("code", sorted(EXIT_ARGV))
    def test_main_leaves_the_heap_unfrozen(self, code, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        assert main(EXIT_ARGV[code] + ["--out", str(tmp_path / "out")]) \
            == code
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("code", sorted(EXIT_ARGV))
    def test_module_process_matches_in_process_main(self, code, tmp_path,
                                                    capsys):
        argv = EXIT_ARGV[code]
        assert main(argv + ["--out", str(tmp_path / "a")]) == code
        expected = capsys.readouterr()
        done = cli_process(["-m", "covstop.cli", *argv,
                            "--out", str(tmp_path / "b")])
        assert done.returncode == code
        assert (done.stdout, done.stderr) == (expected.out, expected.err)
        assert tree_bytes(tmp_path / "b") == tree_bytes(tmp_path / "a")
        assert (tmp_path / "b").exists() == (code == 0)

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_entries_freeze_then_flush_and_run_exit_handlers(self, entry,
                                                             tmp_path):
        # ``python -m covstop.cli`` (the module run as __main__) and the
        # console script named in pyproject.toml, called as an installed
        # script calls it. The exit handler runs after the heap was
        # frozen, and prints after the run's own buffered output.
        if entry == "module":
            call = "import runpy; runpy.run_module('covstop.cli', " \
                   "run_name='__main__')"
        else:
            tomllib = pytest.importorskip("tomllib")
            pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
            with open(pyproject, "rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"]["covstop"]
            module, name = target.split(":")
            call = f"from {module} import {name}; sys.exit({name}())"
        argv = ["covstop"] + EXIT_ARGV[0] + ["--out", str(tmp_path / "out")]
        code = ("import atexit, gc, sys; atexit.register(lambda: print("
                "'frozen', gc.get_freeze_count() > 0)); "
                f"sys.argv = {argv!r}; {call}")
        done = cli_process(["-c", code])
        assert done.returncode == 0
        lines = done.stdout.splitlines()
        assert lines[0].startswith("value iteration:")
        assert lines[1:] == ["frozen True"]


def per_cell(value) -> str:
    # The row-by-row cell rule the columnar writer must reproduce.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)


def expand_grid(columns):
    # A grid table's 1-D columns: row r of the axes' C-order product has
    # each axis's value at r's index on it, and each cell array's
    # element at that index. Tables of 1-D columns pass unchanged.
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object)
               for c in columns]
    k = max(c.ndim for c in columns)
    if k < 2:
        return columns
    index = np.indices([len(a) for a in columns[:k]]).reshape(k, -1)
    return ([a[i] for a, i in zip(columns[:k], index)]
            + [c.reshape(-1) for c in columns[k:]])


def reference_write_csv(path, names, columns, cfg_hash, units):
    # The per-cell writer that piece formatting replaced: one Python
    # call per cell and one join per row, over a grid's expanded columns,
    # written 4,096 rows at a time.
    def cells(column):
        kind = column.dtype.kind
        if kind == "f":
            return map(float.__repr__, column.tolist())
        if kind in "iu":
            return map(str, column.tolist())
        if kind == "b":
            return map(("0", "1").__getitem__, column.tolist())
        values = column.tolist()
        if set(map(type, values)) == {str}:
            return values
        return map(per_cell, values)

    columns = expand_grid(columns)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg_hash} units: {units}\n"
                 + ",".join(names) + "\n")
        for start in range(0, len(columns[0]), 4096):
            block = [cells(c[start:start + 4096]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


# Column sets by name: every dtype kind the writer formats, float cells
# whose repr is unusual, text cells that look like % conversions, more
# rows than the split threshold (so many pieces), and none.
_BIG = cli.CSV_SPLIT_ROWS + 1
REFERENCE_COLUMNS = {
    "kinds": [
        np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16,
                  0.1 + 0.2]),
        np.array([0.1, -0.0, math.nan, math.inf, 1e-45, 3.4e38, 1.0 / 3.0],
                 dtype=np.float32),
        np.array([np.iinfo(np.int64).min, -1, 0, 1, 7, 42,
                  np.iinfo(np.int64).max]),
        np.array([np.iinfo(np.uint64).max, 0, 1, 2**63, 5, 6, 7],
                 dtype=np.uint64),
        np.array([True, False, False, True, True, False, True]),
        ["a", None, np.float64(0.1), np.bool_(True), 7, np.float64(-0.0),
         ""],
        [np.bool_(False), 3, None, "b", np.float64(math.nan), 1e16, True],
        ["%", "%s", "%%", "%r%d", "100%", "", "%(a)s"],
    ],
    "two-blocks": [
        np.random.default_rng(0).standard_normal(_BIG),
        np.arange(_BIG) - 7,
        np.arange(_BIG) % 3 == 0,
        np.array([f"%s{i}" for i in range(_BIG)], dtype=object),
    ],
    "no-rows": [np.array([]), np.array([], dtype=int), []],
}

# Grid axes by name: every kind, floats whose repr is unusual and texts
# that look like % conversions, mixed objects, 1 x N and N x 1 grids,
# three axes, an empty axis, and leading axes longer than a piece of 2.
FLOAT_AXIS = np.array([-0.0, 1e16, 1e-05, 0.1 + 0.2, math.nan])
TEXT_AXIS = ["%", "%s", "%%", "a%db", ""]
GRID_AXES = {
    "float-int": [FLOAT_AXIS, np.array([-7, 0, 2**40])],
    "bool-text": [np.array([True, False]), TEXT_AXIS],
    "text-float": [TEXT_AXIS, FLOAT_AXIS],
    "mixed-uint": [[None, 0.5, "%x", np.bool_(True), np.float64(-0.0)],
                   np.array([0, 2**64 - 1], dtype=np.uint64)],
    "1xN": [np.array([0.5]), FLOAT_AXIS],
    "Nx1": [TEXT_AXIS, np.array([1e-05])],
    "three-axes": [np.array([3, 1], dtype=np.int8), np.array([False, True]),
                   TEXT_AXIS],
    "empty-axis": [FLOAT_AXIS, np.array([])],
}


def grid_cells(shape):
    # One cell array of each kind the writer formats, of the given shape.
    n = math.prod(shape)
    mixed = [None, 0.1, "%s", np.bool_(True), -0.0, 7, ""]
    return [np.random.default_rng(n).standard_normal(shape),
            np.arange(n).reshape(shape) - 3,
            (np.arange(n) % 3 == 0).reshape(shape),
            np.array([f"%{i}%%" for i in range(n)], dtype=object)
            .reshape(shape),
            np.array([mixed[i % 7] for i in range(n)], dtype=object)
            .reshape(shape)]


def set_piece_rows(monkeypatch, rows):
    # Pieces of ``rows`` rows, and one process per ``rows`` rows (as many
    # as the CPUs allow).
    monkeypatch.setattr(cli, "CSV_PIECE_ROWS", rows)
    monkeypatch.setattr(cli, "CSV_SPLIT_ROWS", rows)


class TestWriteCsv:
    TYPED = [
        np.array([1e-05, 1e+16, -0.0, 0.1, 1.0 / 3.0]),
        np.array([3, -7, 0, 127, -128], dtype=np.int8),
        np.array([10**12, -1, 0, 2, 5]),
        np.array([True, False, True, True, False]),
    ]
    MIXED = [
        [1e-05, np.float64(1e+16), 7, np.int8(-3), True],
        [np.bool_(False), "label", "", -0.0, np.float64(-0.0)],
        ["", 0.5, "", np.float64(1e-05), "a b"],
    ]

    @pytest.mark.parametrize("block_rows", [2, 65536])
    def test_columns_match_per_cell_rule(self, block_rows, tmp_path,
                                         monkeypatch):
        set_piece_rows(monkeypatch, block_rows)
        columns = self.TYPED + self.MIXED
        names = [f"c{i}" for i in range(len(columns))]
        path = tmp_path / "t.csv"
        cli.write_csv(path, names, columns, "abc", "x=units")
        rows = zip(*[list(c) for c in columns])
        expected = "".join(f"{line}\n" for line in
                           ["# config_hash=abc units: x=units", ",".join(names)]
                           + [",".join(map(per_cell, row)) for row in rows])
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("block_rows", [3, 65536])
    def test_preformatted_text_columns_match_float_columns(
            self, block_rows, tmp_path, monkeypatch):
        set_piece_rows(monkeypatch, block_rows)
        grid = np.array([1e-05, 1e+16, -0.0, 0.1, 1.0 / 3.0, 2.0])
        repeated = np.repeat(grid, 3)
        tiled = np.tile(grid[::-1], 3)
        texts = [np.repeat(np.array(list(map(per_cell, grid)), dtype=object),
                           3),
                 np.tile(np.array(list(map(per_cell, grid[::-1])),
                                  dtype=object), 3)]
        assert all(c.dtype == object for c in texts)
        floats_path, texts_path = tmp_path / "f.csv", tmp_path / "t.csv"
        cli.write_csv(floats_path, ["a", "b"], [repeated, tiled], "h", "u")
        cli.write_csv(texts_path, ["a", "b"], texts, "h", "u")
        assert texts_path.read_bytes() == floats_path.read_bytes()

    @pytest.mark.parametrize("block_rows", [2, 65536])
    @pytest.mark.parametrize("name", list(GRID_AXES))
    def test_grid_matches_expanded_columns(self, name, block_rows, tmp_path,
                                           monkeypatch):
        set_piece_rows(monkeypatch, block_rows)
        axes = GRID_AXES[name]
        columns = axes + grid_cells(tuple(len(a) for a in axes))
        names = [f"c{i}" for i in range(len(columns))]
        paths = [tmp_path / f"{run}.csv" for run in ("grid", "flat", "ref")]
        cli.write_csv(paths[0], names, columns, "abc", "x=%s units")
        cli.write_csv(paths[1], names, expand_grid(columns), "abc",
                      "x=%s units")
        reference_write_csv(paths[2], names, columns, "abc", "x=%s units")
        grid, flat, ref = (path.read_bytes() for path in paths)
        assert grid == flat == ref
        assert grid.count(b"\n") == 2 + math.prod(map(len, axes))

    @pytest.mark.parametrize("shape", [(200_000,), (400, 500)],
                             ids=["flat", "grid"])
    def test_traced_peak_does_not_grow_with_rows(self, shape, tmp_path,
                                                 monkeypatch):
        # 200,000 rows of 7 columns on one process. Formatted in pieces of
        # 65,536 rows with a template per row, the flat table peaked at
        # 30 MB traced; pieces of 2,048 rows take about 0.7 MB. The grid's
        # pieces are its 500-row last axis.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        n = math.prod(shape)
        gen = np.random.default_rng(11)
        cells = [gen.standard_normal(n), gen.standard_normal(n) * 1e-300,
                 np.arange(n) - n // 2, np.arange(n, dtype=np.uint32),
                 np.arange(n) % 3 == 0]
        axes = ([np.arange(shape[0]) * 0.5, gen.standard_normal(shape[1])]
                if len(shape) == 2 else [np.arange(n) * 0.25, np.arange(n)])
        columns = axes + [c.reshape(shape) for c in cells]
        names = [f"c{i}" for i in range(len(columns))]
        path, expected = tmp_path / "t.csv", tmp_path / "ref.csv"
        tracemalloc.start()
        try:
            cli.write_csv(path, names, columns, "abc", "x=%s units")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        reference_write_csv(expected, names, columns, "abc", "x=%s units")
        assert path.read_bytes() == expected.read_bytes()

    def test_no_rows_writes_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["a", "b"], [[], np.array([])], "h", "u")
        assert path.read_text() == "# config_hash=h units: u\na,b\n"

    @pytest.mark.parametrize("name", list(REFERENCE_COLUMNS))
    def test_matches_reference_writer(self, name, tmp_path):
        columns = REFERENCE_COLUMNS[name]
        names = [f"c{i}" for i in range(len(columns))]
        path, expected = tmp_path / "t.csv", tmp_path / "ref.csv"
        cli.write_csv(path, names, columns, "abc", "x=%s units")
        reference_write_csv(expected, names, columns, "abc", "x=%s units")
        assert path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("names,columns,culprit", [
        (["a", "b"], [np.arange(3.0), np.arange(2)], "column b"),
        (["a", "b"], [[1, 2], np.ones((2, 2))], "column b"),
        (["a", "b"], [np.arange(2), [1, 2, 3]], "column b"),
        (["a"], [np.arange(2), np.arange(2)], "1 names for 2 columns"),
        # Grids: cells transposed, raveled or of another rank, and an axis
        # that is not 1-D.
        (["a", "b", "c"], [np.arange(2), np.arange(3), np.ones((3, 2))],
         "column c"),
        (["a", "b", "c", "d"], [np.arange(2), np.arange(3), np.ones((2, 3)),
                                np.ones(6)], "column d"),
        (["a", "b", "c", "d"], [np.arange(2), np.arange(3), np.ones((2, 3)),
                                np.ones((2, 3, 1))], "column c"),
        (["a", "b", "c", "d"], [np.arange(2), np.arange(3), np.ones((2, 3)),
                                [[1, 2, 3], [4, 5]]], "column d"),
    ])
    def test_ragged_columns_raise(self, names, columns, culprit, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ContractError, match=culprit):
            cli.write_csv(path, names, columns, "h", "u")
        assert not path.exists()


class Cell:
    # An object cell whose text is "c". Formatting it first calls
    # ``in_parent`` in the process that made it, and ``in_worker`` in any
    # other (a forked worker).
    def __init__(self, in_worker=None, in_parent=None):
        self.owner = os.getpid()
        self.in_worker, self.in_parent = in_worker, in_parent

    def __str__(self):
        act = self.in_parent if os.getpid() == self.owner else self.in_worker
        if act is not None:
            act()
        return "c"


def fail_cell():
    raise ValueError("cell 9 cannot be formatted")


@pytest.fixture
def split_writer(tmp_path, monkeypatch):
    # Pieces of 2 rows, and one process per 2 rows. Yields a function
    # that sets the CPU count and returns the list of pids the writer
    # forks. Afterwards every worker has been reaped, and the directory
    # holds no file but the tables the test wrote.
    set_piece_rows(monkeypatch, 2)
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def set_cpus(cpus):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        return forked

    monkeypatch.setattr(os, "fork", counted_fork)
    yield set_cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert {p.name for p in tmp_path.iterdir()} <= {"t.csv", "ref.csv"}


class TestSplitWriter:
    # Tables of more than CSV_SPLIT_ROWS rows are split among processes.
    # Flat: 7 rows in 4 pieces; 3 parts of 1, 1 and 2 pieces, or 2 parts
    # of 2 pieces. Grids: 5 x 3 (2 pieces per axis-0 value, so parts
    # split an axis-0 value's rows) and 2 x 2 x 5 (3 pieces per leading
    # pair). Every kind of cell, texts that look like % conversions and
    # non-ASCII text are in each part.
    TABLES = {
        "flat": REFERENCE_COLUMNS["kinds"] + [
            ["é", "%s", "", "ß%", "a", "b", "%%"]],
        "grid": GRID_AXES["float-int"] + grid_cells((5, 3)),
        "three-axes": GRID_AXES["three-axes"] + grid_cells((2, 2, 5)),
    }

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", list(TABLES))
    def test_bytes_equal_reference_writer(self, name, cpus, split_writer,
                                          tmp_path):
        forked = split_writer(cpus)
        columns = self.TABLES[name]
        names = [f"c{i}" for i in range(len(columns))]
        path, expected = tmp_path / "t.csv", tmp_path / "ref.csv"
        cli.write_csv(path, names, columns, "abc", "x=%s units")
        reference_write_csv(expected, names, columns, "abc", "x=%s units")
        assert path.read_bytes() == expected.read_bytes()
        assert len(forked) == cpus - 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_worker_error_is_raised_as_the_serial_writer_raises_it(
            self, cpus, split_writer, tmp_path):
        # Cell 9 is in the last part: a worker's at 2 and 3 CPUs.
        forked = split_writer(cpus)
        cells = [Cell() for _ in range(12)]
        cells[9] = Cell(fail_cell, fail_cell)
        with pytest.raises(ValueError, match="^cell 9 cannot be formatted$"):
            cli.write_csv(tmp_path / "t.csv", ["a", "b"],
                          [np.arange(12), cells], "h", "u")
        assert len(forked) == cpus - 1

    def test_killed_worker_part_is_written_by_the_parent(self, split_writer,
                                                         tmp_path):
        forked = split_writer(3)
        kill = lambda: os.kill(os.getpid(), signal.SIGKILL)  # noqa: E731
        cells = [Cell(kill) for _ in range(12)]
        path, expected = tmp_path / "t.csv", tmp_path / "ref.csv"
        cli.write_csv(path, ["a", "b"], [np.arange(12), cells], "h", "u")
        reference_write_csv(expected, ["a", "b"], [np.arange(12), cells],
                            "h", "u")
        assert path.read_bytes() == expected.read_bytes()
        assert len(forked) == 2

    @pytest.mark.parametrize("module,name", [(os, "fork"),
                                             (tempfile, "TemporaryFile")])
    def test_worker_that_cannot_start_leaves_its_part_to_the_parent(
            self, module, name, split_writer, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise BlockingIOError(errno.EAGAIN, "Resource unavailable")

        split_writer(3)
        monkeypatch.setattr(module, name, refuse)
        columns = self.TABLES["grid"]
        names = [f"c{i}" for i in range(len(columns))]
        path, expected = tmp_path / "t.csv", tmp_path / "ref.csv"
        cli.write_csv(path, names, columns, "abc", "x=%s units")
        reference_write_csv(expected, names, columns, "abc", "x=%s units")
        assert path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError])
    def test_parent_error_kills_running_workers(self, error, split_writer,
                                                tmp_path):
        # The workers would sleep for 20 s; the parent's first part raises
        # at once, and the workers are killed and reaped.
        def stall():
            time.sleep(20)

        def parent_fails():
            raise error("parent failed")

        forked = split_writer(3)
        cells = [Cell(in_parent=parent_fails)] + [Cell(stall)] * 11
        start = time.monotonic()
        with pytest.raises(error, match="parent failed"):
            cli.write_csv(tmp_path / "t.csv", ["a", "b"],
                          [np.arange(12), cells], "h", "u")
        assert time.monotonic() - start < 10
        assert len(forked) == 2

    @pytest.mark.parametrize("split_rows,forks", [(3, 2), (5, 1), (7, 0)])
    def test_parts_follow_the_split_threshold(self, split_rows, forks,
                                              split_writer, tmp_path,
                                              monkeypatch):
        # 7 rows in pieces of 2, at 3 CPUs: one process per split_rows
        # rows, the parts still cut at piece boundaries.
        forked = split_writer(3)
        monkeypatch.setattr(cli, "CSV_SPLIT_ROWS", split_rows)
        columns = self.TABLES["flat"]
        names = [f"c{i}" for i in range(len(columns))]
        path, expected = tmp_path / "t.csv", tmp_path / "ref.csv"
        cli.write_csv(path, names, columns, "abc", "x=%s units")
        reference_write_csv(expected, names, columns, "abc", "x=%s units")
        assert path.read_bytes() == expected.read_bytes()
        assert len(forked) == forks

    def test_fork_decisions_of_the_benchmark_tables(self, monkeypatch):
        # At 2 CPUs: oracle's grid-512 qtable.csv (262,144 rows) on two
        # processes, persistent's logdet_trace.csv (about 15,000 rows) on
        # one.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert cli._csv_processes(262_144) == 2
        assert cli._csv_processes(15_000) == 1
        assert cli._csv_processes(cli.CSV_SPLIT_ROWS) == 1
        assert cli._csv_processes(cli.CSV_SPLIT_ROWS + 1) == 2

    def test_grid_512_parts_are_its_axis_0_values(self, tmp_path,
                                                  monkeypatch):
        # Oracle's qtable.csv: 512 pieces of 512 rows, one per P_a value,
        # split 256 and 256 between 2 processes.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        split, seen = cli._write_split, []

        def recorded(fh, write_rows, parts, directory):
            seen.append(parts)
            split(fh, write_rows, parts, directory)

        monkeypatch.setattr(cli, "_write_split", recorded)
        grid = np.linspace(0.0, 1.0, 512)
        values = np.random.default_rng(3).standard_normal((512, 512))
        path, expected = tmp_path / "t.csv", tmp_path / "ref.csv"
        cli.write_csv(path, ["a", "b", "v"], [grid, grid, values], "h", "u")
        assert seen == [[(0, 256), (256, 512)]]
        reference_write_csv(expected, ["a", "b", "v"], [grid, grid, values],
                            "h", "u")
        assert path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("cpus,parts", [
        (2, [(0, 4), (4, 9)]),
        (3, [(0, 3), (3, 6), (6, 9)]),
    ])
    def test_parts_are_cut_by_piece_count(self, cpus, parts, split_writer,
                                          tmp_path, monkeypatch):
        # A 3 x 5 grid in pieces of 2 rows: 9 pieces of 2, 2 and 1 rows,
        # cut at pieces 9 * i // P.
        forked = split_writer(cpus)
        split, seen = cli._write_split, []

        def recorded(fh, write_rows, parts, directory):
            seen.append(parts)
            split(fh, write_rows, parts, directory)

        monkeypatch.setattr(cli, "_write_split", recorded)
        columns = [np.array([-7, 0, 2**40]), FLOAT_AXIS] + grid_cells((3, 5))
        names = [f"c{i}" for i in range(len(columns))]
        path, expected = tmp_path / "t.csv", tmp_path / "ref.csv"
        cli.write_csv(path, names, columns, "abc", "x=%s units")
        assert seen == [parts]
        reference_write_csv(expected, names, columns, "abc", "x=%s units")
        assert path.read_bytes() == expected.read_bytes()
        assert len(forked) == cpus - 1

    def test_one_part_forks_nothing_and_opens_no_file(self, split_writer,
                                                      tmp_path, monkeypatch):
        # 2 rows, one process per 2 rows: one part, even at 3 CPUs.
        def refuse(*args, **kwargs):
            raise AssertionError("a one-part table opened a temporary file")

        forked = split_writer(3)
        monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
        columns = [np.array([0.5, -0.0]), ["%s", "é"]]
        path, expected = tmp_path / "t.csv", tmp_path / "ref.csv"
        cli.write_csv(path, ["a", "b"], columns, "h", "u")
        reference_write_csv(expected, ["a", "b"], columns, "h", "u")
        assert path.read_bytes() == expected.read_bytes()
        assert forked == []

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_process_without_fork_or_affinity(self, missing,
                                                  monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert cli._csv_processes(10 * cli.CSV_SPLIT_ROWS) == 2
        monkeypatch.delattr(os, missing)
        assert cli._csv_processes(10 * cli.CSV_SPLIT_ROWS) == 1


@pytest.mark.parametrize("argv", [
    ["dp-threshold", "--grid", "64"],
    ["persistent", "--cycles", "6", "--params", "PERSISTENT_PARAMS"],
    ["flyby", "--rollouts", "2", "--params", "PARAMS"],
])
def test_cli_outputs_match_reference_writer(argv, tmp_path, monkeypatch,
                                            persistent_params,
                                            stop_first_params):
    files = {"PARAMS": str(stop_first_params),
             "PERSISTENT_PARAMS": str(persistent_params)}
    argv = [files.get(arg, arg) for arg in argv] + ["--seed", "3", "--out"]
    outputs = []
    for run in ("new", "ref"):
        if run == "ref":
            monkeypatch.setattr(cli, "write_csv", reference_write_csv)
        assert main(argv + [str(tmp_path / run)]) == 0
        outputs.append({p.name: p.read_bytes()
                        for p in (tmp_path / run).iterdir()})
    assert outputs[0] == outputs[1]


def test_dp_threshold_qtable_matches_float_column_write(tmp_path):
    # qtable.csv repeats and tiles preformatted grid texts; the bytes
    # must equal writing the expanded float grids directly.
    out = tmp_path / "out"
    assert main(["dp-threshold", "--grid", "16", "--seed", "1",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    model = make_scalar_model(n_a=16, n_other=16)
    qtable = value_iterate(model)
    grid_a, grid_o = qtable.grids
    expected = tmp_path / "expected.csv"
    cli.write_csv(expected, ["P_a", "P_other", "V", "Q_continue", "action"],
                  [np.repeat(grid_a, len(grid_o)),
                   np.tile(grid_o, len(grid_a)), qtable.value.ravel(),
                   qtable.q_continue.ravel(), qtable.action.ravel()],
                  manifest["config_hash"],
                  "P=squared state units, V/Q=nats, action: 1=stop "
                  "2=continue")
    assert (out / "qtable.csv").read_bytes() == expected.read_bytes()
