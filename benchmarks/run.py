"""The covstop benchmark: CLI workloads, end-to-end metrics, traced layers.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it locates the repository from its own path and
needs ``src/covstop`` beside the ``benchmarks`` directory.

With ``--trace 0`` the workload's CLI invocations run as separate
``python -m covstop.cli`` processes, one at a time, over and over for
``--seconds`` seconds (and at least twice, so reruns can be compared).
One pass is the workload's invocations in order. Reported:

- ``wall_s``: median pass wall time, each process timed from start to
  exit;
- ``setup_s``: median over separate probe processes of the time from
  process start to the first call into a work layer (imports, argument
  parsing, scenario and parameter loading);
- ``peak_rss_mb``: median over passes of the largest child peak RSS,
  read from each child's own rusage.

``wall_s`` and ``setup_s`` are scaled to a nominal host speed: a fixed
calibration process (calibrate.py, no covstop code) runs just before
every pass and every probe, and each sample is multiplied by
REF_NOMINAL_S over its own calibration time before the median is
taken. On a shared 2-CPU host the raw times drift by 20-35 % within
minutes; the ratio removes most of the slow part of that drift. Raw
times are printed.

With ``--trace 1`` half the time goes to untraced passes and half to
passes run through ``traced_cli.py``, which wraps each layer function
and reports per-layer call counts, self times and result counters;
``trace.overhead_s`` is the traced minus the untraced median pass time
(both scaled as above).

Every pass's outputs are checked (exit code, manifest, finite CSVs,
byte-identical reruns, workload checks); a CLI invocation that exits
non-zero or fails a check counts as a failed operation. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PERSISTENT_PARAMS = BENCH / "persistent_params.json"
N_SETUP_PROBES = 5
SWEEP_CHECK_K = (1, 15)  # plus k_max; periodic_policy_cost cross-check
# Nominal calibrate.py time: wall_s and setup_s are scaled to the host
# speed at which the calibration task takes this long.
REF_NOMINAL_S = 0.45
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Pinned budgets. SMOKE_SIZES is the self-test's tiny version.
SIZES = {
    "train": {"iterations": 4, "restarts": 2, "rollouts_per_eval": 8,
              "rollouts": 100},
    "sweep": {"rollouts": 80},
    "persistent": {"cycles": 100},
    "oracle": {"grid": 512},
}
SMOKE_SIZES = {
    "train": {"iterations": 1, "restarts": 1, "rollouts_per_eval": 1,
              "rollouts": 3},
    "sweep": {"rollouts": 3},
    "persistent": {"cycles": 2},
    "oracle": {"grid": 16},
}


def _train(seed: int, work: Path, size: dict) -> list[list[str]]:
    return [
        ["optimize", "--family", "eigen-sum",
         "--iterations", str(size["iterations"]),
         "--restarts", str(size["restarts"]),
         "--rollouts-per-eval", str(size["rollouts_per_eval"]),
         "--seed", str(seed), "--out", str(work / "optimize")],
        ["periodic-sweep", "--rollouts", str(size["rollouts"]),
         "--params", str(work / "optimize" / "best_params.json"),
         "--seed", str(seed), "--out", str(work / "periodic-sweep")],
    ]


def _sweep(seed: int, work: Path, size: dict) -> list[list[str]]:
    return [["periodic-sweep", "--rollouts", str(size["rollouts"]),
             "--seed", str(seed), "--out", str(work / "periodic-sweep")]]


def _persistent(seed: int, work: Path, size: dict) -> list[list[str]]:
    return [["persistent", "--params", str(PERSISTENT_PARAMS),
             "--cycles", str(size["cycles"]),
             "--seed", str(seed), "--out", str(work / "persistent")]]


def _oracle(seed: int, work: Path, size: dict) -> list[list[str]]:
    return [["dp-threshold", "--grid", str(size["grid"]),
             "--seed", str(seed), "--out", str(work / "dp-threshold")]]


# name -> CLI invocations of one pass. `train` is the paper's pipeline;
# it is not listed in BENCHMARK.json because its work depends on the
# seed (about half of the random SPSA starts stop at epoch 1 and cost
# almost nothing), so its wall time is not steady across seeds.
WORKLOADS: dict[str, Callable[[int, Path, dict], list[list[str]]]] = {
    "train": _train,
    "sweep": _sweep,
    "persistent": _persistent,
    "oracle": _oracle,
}


@dataclass
class Call:
    """One CLI invocation and what it left behind."""

    argv: list[str]
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd: list[str], log: Path) -> tuple[int, float, float, str]:
    """Run one process; return (exit code, wall s, peak RSS MB, output)."""
    start = time.monotonic()
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, log.read_text()


def probe_setup(argv: list[str], work: Path) -> float | None:
    """Seconds from process start to the first work-layer call."""
    work.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    code, _, _, output = run_child(
        [sys.executable, str(BENCH / "setup_probe.py")] + argv,
        work / "probe.log")
    for line in output.splitlines():
        if code == 0 and line.startswith("SETUP_DONE "):
            return float(line.split()[1]) - start
    return None


# ---------------------------------------------------------------- checks

def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[2:]]


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True  # a text column


def _manifest_config(call: Call) -> dict:
    return json.loads((call.out / "manifest.json").read_text())["config"]


def envelope_gap(call: Call) -> float:
    policy_cost, best_cost, _ = _csv_rows(call.out / "envelope.csv")[0]
    return float(policy_cost) - float(best_cost)


def check_periodic(call: Call) -> list[str]:
    """periodic_costs.csv means against an independent periodic_policy_cost."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from covstop.config import scenario_from_dict
    from covstop.optimizer import periodic_policy_cost
    from covstop.streams import child_seed
    cfg = _manifest_config(call)
    scenario = scenario_from_dict(cfg["scenario"]).with_overrides(
        **cfg["overrides"])
    eval_seed = child_seed(cfg["seed"], "cli.periodic.eval")
    n_rollouts = int(call.option("--rollouts"))
    rows = _csv_rows(call.out / "periodic_costs.csv")
    failures = []
    for k in sorted({*SWEEP_CHECK_K, len(rows)}):
        expected = periodic_policy_cost(scenario, k, eval_seed, n_rollouts)
        got = float(rows[k - 1][1])
        if abs(got - expected) > 1e-12 * abs(expected):
            failures.append(f"periodic k={k}: csv {got!r} != {expected!r}")
    if "--params" in call.argv and not math.isfinite(envelope_gap(call)):
        failures.append("envelope gap is not finite")
    return failures


def check_persistent(call: Call) -> list[str]:
    cfg = _manifest_config(call)
    tau_max = cfg["overrides"].get("tau_max", cfg["scenario"]["tau_max"])
    n_targets = len(cfg["scenario"]["targets"])
    taus = [int(row[1]) for row in _csv_rows(call.out / "stop_times.csv")]
    n_rows = len(_csv_rows(call.out / "logdet_trace.csv"))
    failures = []
    if n_rows != n_targets * sum(taus):
        failures.append(f"logdet_trace.csv has {n_rows} rows, expected "
                        f"{n_targets} x {sum(taus)}")
    if any(not 1 <= tau <= tau_max for tau in taus):
        failures.append(f"a stop time lies outside [1, {tau_max}]")
    return failures


COMMAND_CHECKS = {"periodic-sweep": check_periodic,
                  "persistent": check_persistent}


def check_outputs(call: Call) -> list[str]:
    """Checks that depend only on the files written."""
    listed = json.loads((call.out / "manifest.json").read_text())["outputs"]
    written = sorted(p.name for p in call.out.iterdir()
                     if p.name != "manifest.json")
    failures = []
    if listed != written:
        failures.append(f"manifest lists {listed}, wrote {written}")
    for csv_path in sorted(call.out.glob("*.csv")):
        if not all(_finite(cell) for row in _csv_rows(csv_path)
                   for cell in row):
            failures.append(f"{csv_path.name} holds a NaN or inf")
    return failures + COMMAND_CHECKS.get(call.argv[0], lambda _: [])(call)


def check_call(call: Call, cache: dict) -> None:
    """Fill call.digests and call.failures; `cache` maps outputs to results."""
    if call.code != 0:
        call.failures = [f"{call.argv[0]} exited with code {call.code}"]
        return
    if not (call.out / "manifest.json").is_file():
        call.failures = [f"{call.argv[0]} wrote no manifest.json"]
        return
    call.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(call.out.iterdir())}
    key = json.dumps([call.argv[0], call.digests])
    if key not in cache:
        cache[key] = check_outputs(call)
    call.failures = list(cache[key])
    if call.argv[0] == "dp-threshold" and \
            "monotonicity violations 0" not in call.stdout:
        call.failures.append("dp-threshold reports monotonicity violations")


# ---------------------------------------------------------------- passes

@dataclass
class Pass:
    calls: list
    layers: dict | None = None  # traced passes only
    calibration_s: float = math.nan  # calibrate.py run just before

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * REF_NOMINAL_S / self.calibration_s

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.calls)


def run_pass(name: str, seed: int, size: dict, work: Path, cache: dict,
             reference: Pass | None, traced: bool) -> Pass:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = []
    layers: dict = {}
    for i, argv in enumerate(WORKLOADS[name](seed, work, size)):
        if traced:
            summary = work / f"trace{i}.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"),
                   str(summary)] + argv
        else:
            cmd = [sys.executable, "-m", "covstop.cli"] + argv
        code, wall, rss, output = run_child(cmd, work / f"call{i}.log")
        call = Call(argv, code, wall, rss, output)
        check_call(call, cache)
        if reference is not None and call.code == 0:
            if call.digests != reference.calls[i].digests:
                call.failures.append("outputs differ from the first run")
        if traced and code == 0:
            _merge_trace(layers, json.loads(summary.read_text()))
        calls.append(call)
    return Pass(calls, layers if traced else None)


def _call_counts(traced: Pass) -> dict:
    return {fn: entry["calls"] for fn, entry in traced.layers.items()
            if fn != "counters"}


def _merge_trace(total: dict, summary: dict) -> None:
    for fn, entry in summary["layers"].items():
        slot = total.setdefault(fn, {"calls": 0, "self_s": 0.0})
        slot["calls"] += entry["calls"]
        slot["self_s"] += entry["self_s"]
    counters = total.setdefault("counters", {})
    for key, value in summary["counters"].items():
        counters[key] = counters.get(key, 0) + value


def calibrate(work: Path) -> float:
    """Wall seconds of one calibrate.py process."""
    work.mkdir(parents=True, exist_ok=True)
    code, wall, _, output = run_child(
        [sys.executable, str(BENCH / "calibrate.py")], work / "calibrate.log")
    if code != 0:
        raise RuntimeError(f"calibration task failed:\n{output}")
    return wall


def run_passes(name: str, seed: int, size: dict, work: Path, seconds: float,
               min_passes: int, traced: bool, cache: dict,
               reference: Pass | None) -> list[Pass]:
    """Repeat passes, each after a calibration run, until another pass
    would overrun `seconds`."""
    passes: list[Pass] = []
    start = time.monotonic()
    while len(passes) < min_passes or (
            time.monotonic() - start
            + statistics.median(p.wall_s for p in passes) <= seconds):
        calibration = calibrate(work.parent / "calibrate")
        passes.append(run_pass(name, seed, size, work, cache,
                               reference or (passes[0] if passes else None),
                               traced))
        passes[-1].calibration_s = calibration
    return passes


# ---------------------------------------------------------------- metrics

def layer_metrics(traced: list[Pass], untraced: list[Pass]) -> dict:
    from traced_cli import LAYER_FUNCTIONS
    last = traced[-1].layers
    metrics = {}
    for module, fn in LAYER_FUNCTIONS:
        key = f"{module}.{fn}"
        metrics[f"{key}.calls"] = (last.get(key, {}).get("calls", 0), "count")
        self_times = [p.layers.get(key, {}).get("self_s", 0.0) for p in traced]
        metrics[f"{key}.self_s"] = (statistics.median(self_times), "s")
    counters = last.get("counters", {})
    rollouts = last.get("optimizer.rollout", {}).get("calls", 0)
    gradients = last.get("optimizer.spsa_gradient", {}).get("calls", 0)
    metrics["optimizer.rollout.truncated_frac"] = (
        counters.get("optimizer.rollout.truncated", 0) / rollouts
        if rollouts else 0.0, "ratio")
    metrics["optimizer.rollout.mean_tau"] = (
        counters.get("optimizer.rollout.tau_sum", 0) / rollouts
        if rollouts else 0.0, "epochs")
    metrics["optimizer.spsa_gradient.zero_frac"] = (
        counters.get("optimizer.spsa_gradient.zero", 0) / gradients
        if gradients else 0.0, "ratio")
    metrics["dp_oracle.value_iterate.iterations"] = (
        counters.get("dp_oracle.value_iterate.iterations", 0), "count")
    metrics["cli.write_csv.bytes"] = (
        counters.get("cli.write_csv.bytes", 0), "bytes")
    metrics["trace.overhead_s"] = (
        statistics.median(p.scaled_wall_s for p in traced)
        - statistics.median(p.scaled_wall_s for p in untraced), "s")
    return metrics


def environment() -> dict:
    import platform
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              work: Path, sizes: dict = SIZES) -> dict:
    """Run one workload; return the result object (last output line)."""
    size = sizes[name]
    cache: dict = {}
    setups = []  # (set-up seconds or None, calibration seconds)
    if not trace:
        first = WORKLOADS[name](seed, work / "probe", size)[0]
        for _ in range(N_SETUP_PROBES):
            calibration = calibrate(work / "calibrate")
            setups.append((probe_setup(first, work / "probe"), calibration))
    budget = seconds / 2 if trace else seconds
    untraced = run_passes(name, seed, size, work / "run", budget, 2, False,
                          cache, None)
    traced = run_passes(name, seed, size, work / "run", budget, 1, True,
                        cache, untraced[0]) if trace else []
    for later in traced[1:]:
        if _call_counts(later) != _call_counts(traced[0]):
            later.calls[-1].failures.append(
                "traced call counts differ between runs")
    calls = [c for p in untraced + traced for c in p.calls]
    attempted = len(calls) + len(setups)
    failed = sum(1 for c in calls if c.failures) \
        + sum(1 for s, _ in setups if s is None)

    walls = [p.wall_s for p in untraced]
    scaled_setups = [s * REF_NOMINAL_S / c for s, c in setups
                     if s is not None] or [math.nan]
    if trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": (statistics.median(p.scaled_wall_s for p in untraced),
                       "s"),
            "setup_s": (statistics.median(scaled_setups), "s"),
            "peak_rss_mb": (statistics.median(p.rss_mb for p in untraced),
                            "MB"),
        }
    details = {
        "workload": name, "seed": seed, "size": size,
        "runs": len(untraced), "traced_runs": len(traced),
        "calibration_s": [p.calibration_s for p in untraced + traced]
        + [c for _, c in setups],
        "raw_wall_s_quartiles": statistics.quantiles(walls, n=4),
        "raw_setup_s": [s for s, _ in setups],
        "digests": {c.argv[0]: c.digests for c in untraced[0].calls},
        "failures": sorted({f for c in calls for f in c.failures}),
        "environment": environment(),
    }
    if name == "train" and not untraced[0].calls[-1].failures:
        details["envelope_gap_nats"] = envelope_gap(untraced[0].calls[-1])
    return {"details": details, "correct": failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def report(result: dict) -> None:
    details = result["details"]
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"size {details['size']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    q1, q2, q3 = details["raw_wall_s_quartiles"]
    print(f"  untraced runs: {details['runs']} (raw wall quartiles "
          f"{q1:.4f} / {q2:.4f} / {q3:.4f} s); traced runs: "
          f"{details['traced_runs']}; set-up probes: "
          f"{len(details['raw_setup_s'])}")
    print(f"  calibration runs: median "
          f"{statistics.median(details['calibration_s']):.4f} s "
          f"(nominal {REF_NOMINAL_S} s); wall_s and setup_s are scaled "
          f"by nominal / calibration, one calibration per sample")
    if "envelope_gap_nats" in details:
        print(f"  envelope_gap {details['envelope_gap_nats']:.6g} nats "
              f"(policy cost minus best periodic cost; lower is better)")
    print(f"  operations attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for failure in details["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "covstop" / "cli.py").is_file():
        print(f"covstop sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
