"""Run the benchmark over several seeds, report spreads, record a baseline.

    python3 benchmarks/prove.py --seeds 1-10 [--workloads sweep,oracle]
                                [--trace] [--record]

For every workload (default: those in BENCHMARK.json) and seed it runs
``benchmarks/run.py`` for the configured ``run_seconds``, one run at a
time, and prints for each metric the median and the distance between
the first and third quartiles as a share of the median, computed with
``statistics.quantiles(values, n=4)``, beside the metric's bound.
``--trace`` makes traced runs instead. ``--record`` merges the results
into ``benchmarks/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"

# Which end-to-end metric each layer metric should move, and on which
# workload; "none" marks a prediction of no change.
LAYER_MAP = {
    "filter_core.riccati_update": {
        "moves": ["wall_s"], "on": ["sweep", "train"],
        "note": "small on persistent (one-hot priorities)"},
    "filter_core.lyapunov_update": {"moves": ["wall_s"], "on": ["persistent"]},
    "observability.belief_step": {
        "moves": ["wall_s"], "on": ["train", "sweep", "persistent"],
        "note": "calls = path-epochs"},
    "observability.stopping_cost": {
        "moves": ["wall_s"], "on": ["sweep"],
        "note": "once per rollout elsewhere"},
    "policy.decision_statistic": {
        "moves": ["wall_s"], "on": ["train", "persistent"],
        "none": ["sweep", "oracle"]},
    "optimizer.rollout": {
        "moves": ["wall_s", "envelope_gap"], "on": ["train"],
        "none": ["oracle"],
        "note": "truncated_frac and mean_tau read from each RolloutResult"},
    "optimizer.evaluate_cost": {"moves": ["wall_s"], "on": ["train"]},
    "optimizer.spsa_minimize": {
        "moves": ["wall_s"], "on": ["train"],
        "none": ["sweep", "persistent", "oracle"]},
    "optimizer.spsa_gradient": {
        "moves": ["envelope_gap", "wall_s"], "on": ["train"],
        "none": ["sweep", "persistent", "oracle"],
        "note": "zero_frac = share of exactly-zero gradients (plateau)"},
    "optimizer.periodic_cost_curve": {
        "moves": ["wall_s"], "on": ["sweep", "train"]},
    "streams.stream": {"moves": ["wall_s"], "on": ["train"]},
    "streams.child_seed": {"moves": ["wall_s"], "on": ["train"]},
    "gmti.run_macro_cycles": {"moves": ["wall_s"], "on": ["persistent"]},
    "gmti.models_at_location": {"moves": ["wall_s"], "on": ["persistent"]},
    "dp_oracle.value_iterate": {
        "moves": ["wall_s", "peak_rss_mb"], "on": ["oracle"]},
    "cli.write_csv": {"moves": ["wall_s"], "on": ["oracle", "persistent"]},
    "config.load_scenario": {"moves": ["setup_s"], "on": ["all"]},
    "config.params_from_dict": {"moves": ["setup_s"], "on": ["all"]},
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("nan")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    mode = "per_layer" if args.trace else "end_to_end"
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, spec["run_seconds"], args.trace)
                   for seed in seeds]
        bad = [r for r in results if not r["correct"]]
        print(f"{workload}: {len(results)} runs, {len(bad)} not correct")
        entry = {"seeds": seeds, "metrics": {}}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(values) >= 2:
                median, rel = spread(values)
            else:
                median, rel = values[0], float("nan")
            entry["metrics"][name] = {"median": median, "iqr_share": rel,
                                      "unit": unit, "values": values}
            if name in bounds:
                flag = "ok" if rel < bounds[name] / 3 else "WIDE"
                print(f"  {name:14s} median {median:.5g} {unit}  "
                      f"spread {rel:.4f}  bound {bounds[name]}  {flag}  "
                      f"{[round(v, 4) for v in values]}")
        if workload == "train" and not args.trace:
            gaps = [r["details"].get("envelope_gap_nats") for r in results]
            entry["envelope_gap_nats"] = gaps
            print(f"  envelope_gap per seed (nats): {gaps}")
        entry["digests"] = {str(r["details"]["seed"]): r["details"]["digests"]
                            for r in results}
        entry["environment"] = results[0]["details"]["environment"]
        entry["size"] = results[0]["details"]["size"]
        baseline.setdefault(mode, {})[workload] = entry
    if args.record:
        baseline["layer_map"] = LAYER_MAP
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True)
                            + "\n")
        print(f"recorded {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
