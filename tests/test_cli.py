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
from covstop.cli import _bundled_path, main
from covstop.config import params_to_dict
from covstop.policy import ParamLayout, PolicyFamily


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


class TestPeriodicSweep:
    def test_reruns_identical_manifest_complete_values_finite(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["periodic-sweep", "--rollouts", "5", "--seed", "3",
                         "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        manifest = json.loads(outputs[0]["manifest.json"])
        assert manifest["outputs"] == sorted(set(outputs[0]) -
                                             {"manifest.json"})
        for name in manifest["outputs"]:
            for cell in csv_values(tmp_path / "a" / name):
                assert math.isfinite(float(cell))


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
    ])
    def test_bad_input_exits_2(self, argv, tmp_path, stop_first_params,
                               capsys):
        out = tmp_path / "out"
        code = main(argv + ["--params", str(stop_first_params), "--seed", "1",
                            "--out", str(out)])
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

    def test_no_rows_writes_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["a", "b"], [[], np.array([])], "h", "u")
        assert path.read_text() == "# config_hash=h units: u\na,b\n"
