import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covstop
from covstop import cli
from covstop.cli import main
from covstop.config import _bundled_path, params_to_dict
from covstop.dp_oracle import make_scalar_model, value_iterate
from covstop.policy import ParamLayout, PolicyFamily


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
        ["flyby", "--c-nu", "nan"],
        ["dp-threshold", "--f", "nan"],
        ["dp-threshold", "--q", "inf"],
        ["dp-threshold", "--c-nu", "nan"],
        ["dp-threshold", "--grid", "0"],
        ["dp-threshold", "--grid", "16", "--f", "1e200"],
        ["verify-properties", "--samples", "0"],
        ["verify-properties", "--samples", "-1"],
        ["validate-linearization", "--seeds", "0"],
        ["optimize", "--restarts", "0"],
        ["optimize", "--epsilon", "nan"],
    ])
    def test_bad_input_exits_2(self, argv, tmp_path, stop_first_params,
                               capsys):
        out = tmp_path / "out"
        if argv[0] in PARAMS_COMMANDS:
            argv = argv + ["--params", str(stop_first_params)]
        code = main(argv + ["--seed", "1", "--out", str(out)])
        assert code == 2
        assert "validation error:" in capsys.readouterr().err
        assert not out.exists()

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
        "keys,value", MALFORMED_CONFIG + NON_NUMBER_CONFIG,
        ids=[".".join(map(str, keys)) for keys, _ in MALFORMED_CONFIG]
        + [".".join(map(str, keys)) + "=" + json.dumps(value)
           for keys, value in NON_NUMBER_CONFIG])
    def test_malformed_config_value_exits_2(self, keys, value, tmp_path,
                                            capsys):
        spec = json.loads(_bundled_path("flyby").read_text())
        node = spec
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main(["periodic-sweep", "--rollouts", "2", "--config",
                     str(path), "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "validation error:" in capsys.readouterr().err
        assert not out.exists()

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


# The scalar per-belief stack, by defining module: the reference that
# tests and the benchmark compare the path engine against.
SCALAR_REFERENCE = [("optimizer", "rollout"),
                    ("observability", "belief_step"),
                    ("observability", "stopping_cost"),
                    ("observability", "transformed_running_cost"),
                    ("observability", "mutual_information"),
                    ("policy", "decision_statistic"), ("policy", "decide")]
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


def test_cli_import_loads_no_scipy():
    src = Path(covstop.__file__).resolve().parents[1]
    code = ("import sys, covstop.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.strip() == "[]"


def per_cell(value) -> str:
    # The row-by-row cell rule the columnar writer must reproduce.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)


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
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
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
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        grid = np.array([1e-05, 1e+16, -0.0, 0.1, 1.0 / 3.0, 2.0])
        repeated = np.repeat(grid, 3)
        tiled = np.tile(grid[::-1], 3)
        texts = [np.repeat(cli._texts(grid), 3),
                 np.tile(cli._texts(grid[::-1]), 3)]
        assert all(c.dtype == object for c in texts)
        floats_path, texts_path = tmp_path / "f.csv", tmp_path / "t.csv"
        cli.write_csv(floats_path, ["a", "b"], [repeated, tiled], "h", "u")
        cli.write_csv(texts_path, ["a", "b"], texts, "h", "u")
        assert texts_path.read_bytes() == floats_path.read_bytes()

    def test_no_rows_writes_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["a", "b"], [[], np.array([])], "h", "u")
        assert path.read_text() == "# config_hash=h units: u\na,b\n"


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
