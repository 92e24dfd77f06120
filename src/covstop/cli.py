"""Command-line entry point.

Subcommands cover the stock experiments (fly-by sensitivity grid,
persistent-surveillance traces, linearity tables, DP threshold curve),
policy training and the property-verification suites. Every command
requires an explicit seed, a non-negative integer, from the flag or the
scenario file. Each writes plot-ready CSV files whose first line records
the generating config hash and the column units, and finishes with a
JSON run manifest. Outputs are byte
identical across reruns of the same (config, seed).

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (BUNDLED, _bundled_path, check_seed, config_hash,
                     load_scenario, params_from_dict, params_to_dict,
                     read_json, stock_scenario)
from .dp_oracle import (check_monotone_policy, extract_threshold,
                        make_scalar_model, value_iterate)
from .errors import ContractError, NumericalError
from .filter_core import (det_ratio_lyapunov, det_ratio_riccati, loewner_geq,
                          lyapunov_update, riccati_update, TargetModel)
from .gmti import Scenario, run_macro_cycles
from .linearization import validate_linearization
from .observability import StoppingCase
from .optimizer import (SpsaSchedule, evaluate_cost, periodic_cost_curve,
                        policy_costs, spsa_optimize)
from .policy import ParamLayout, PolicyFamily, verify_monotone
from .sampling import ordered_pair, random_pd, random_transition
from .streams import child_seed, stream

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)


# Rows formatted and written together; bounds the text held in memory.
CSV_BLOCK_ROWS = 65536


def _format_column(column: np.ndarray):
    """Cell texts of a 1-D column, as ``_fmt`` gives them cell by cell."""
    kind = column.dtype.kind
    if kind == "f":
        return map(float.__repr__, column.tolist())
    if kind in "iu":
        return map(str, column.tolist())
    if kind == "b":
        return map(("0", "1").__getitem__, column.tolist())
    cells = column.tolist()
    if set(map(type, cells)) == {str}:
        return cells
    return map(_fmt, cells)


def _texts(column: np.ndarray) -> np.ndarray:
    """Cell texts of a column as an object array, to repeat or tile
    without formatting each copy again."""
    return np.array(list(_format_column(column)), dtype=object)


def write_csv(path: Path, names: list, columns: list, cfg_hash: str,
              units: str) -> None:
    """Write equal-length 1-D columns under a config-hash and units line.

    An ndarray column is formatted by its dtype; any other sequence is
    taken as objects and formatted cell by cell, so mixed cells such as
    text labels and empty strings keep their own rule.
    """
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object)
               for c in columns]
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg_hash} units: {units}\n"
                 + ",".join(names) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            cells = [_format_column(c[start:start + CSV_BLOCK_ROWS])
                     for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_manifest(out_dir: Path, command: str, cfg: dict, seed: int,
                   files: list) -> None:
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "config": cfg,
        "seed": seed,
        "versions": {"covstop": __version__, "numpy": np.__version__},
        "outputs": sorted(files),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_run_scenario(args) -> tuple[Scenario, dict, int]:
    path = Path(args.config) if args.config else _bundled_path(args.scenario)
    scenario, raw = load_scenario(path)
    seed = args.seed if args.seed is not None else raw["seed"]
    overrides = {}
    if args.c_nu is not None:
        overrides["operating_cost"] = args.c_nu
    if args.pd is not None:
        overrides["p_d"] = args.pd
    if args.tau_max is not None:
        overrides["tau_max"] = args.tau_max
    scenario = scenario.with_overrides(**overrides)
    cfg = {"scenario": raw, "overrides": overrides, "seed": seed}
    return scenario, cfg, seed


def _parse_grid(flag: str, text: str) -> list[float]:
    """Comma-separated finite numbers."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise ContractError(f"{flag} must be a comma-separated list of "
                            f"numbers, got {text!r}") from None
    if not all(np.isfinite(values)):
        raise ContractError(f"{flag} values must be finite, got {text!r}")
    return values


def _load_params(path: str, scenario: Scenario):
    """Policy params from a JSON file, checked against the scenario."""
    params, _ = params_from_dict(read_json(path))
    expected = (scenario.n_targets, scenario.models[0].state_dim)
    if params.theta.shape != expected:
        raise ContractError(f"{path}: params cover (targets, state dim) "
                            f"{params.theta.shape}, the scenario {expected}")
    return params


def _require_count(flag: str, value: int) -> None:
    if value < 1:
        raise ContractError(f"{flag} must be at least 1, got {value}")


def _train_params(scenario, args, seed):
    layout = ParamLayout(family=PolicyFamily(args.family),
                         n_targets=scenario.n_targets,
                         state_dim=scenario.models[0].state_dim,
                         share_other=args.share_other,
                         tie_priors=args.tie_priors,
                         a=scenario.a)
    schedule = SpsaSchedule(n_iterations=args.iterations,
                            n_restarts=args.restarts,
                            rollouts_per_eval=args.rollouts_per_eval,
                            epsilon=args.epsilon)
    result = spsa_optimize(scenario, layout, schedule,
                           child_seed(seed, "cli.train"))
    return result, layout, schedule


def cmd_optimize(args) -> int:
    scenario, cfg, seed = _load_run_scenario(args)
    cfg["family"] = args.family
    result, layout, schedule = _train_params(scenario, args, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    h = config_hash(cfg)
    phi_cols = [f"phi_{i}" for i in range(layout.n_params)]
    trace = result.trace
    phis = np.array([t.phi for t in trace])
    write_csv(out / "spsa_trace.csv",
              ["restart", "iteration", "cost"] + phi_cols,
              [np.array([t.restart for t in trace]),
               np.array([t.iteration for t in trace]),
               np.array([t.cost for t in trace], dtype=float)]
              + list(phis.T),
              h, "cost=nats+epochs*c_nu, phi=unconstrained")
    (out / "best_params.json").write_text(
        json.dumps(params_to_dict(result.best_params, layout), indent=2,
                   sort_keys=True) + "\n")
    write_manifest(out, "optimize", cfg, seed,
                   ["spsa_trace.csv", "best_params.json"])
    print(f"best smoothed cost {result.best_cost:.6g} "
          f"(restart {result.best_restart}, iteration {result.best_iteration})")
    return 0


def cmd_flyby(args) -> int:
    scenario, cfg, seed = _load_run_scenario(args)
    pd_grid = _parse_grid("--pd-grid", args.pd_grid)
    cnu_grid = _parse_grid("--cnu-grid", args.cnu_grid)
    _require_count("--rollouts", args.rollouts)
    cfg["pd_grid"], cfg["cnu_grid"] = pd_grid, cnu_grid
    if args.params:
        params = _load_params(args.params, scenario)
    else:
        result, _, _ = _train_params(scenario, args, seed)
        params = result.best_params
    h = config_hash(cfg)
    rows = []
    eval_seed = child_seed(seed, "cli.flyby.eval")
    seeds = [child_seed(eval_seed, "pair", b) for b in range(args.rollouts)]
    for p_d in pd_grid:
        for c_nu in cnu_grid:
            variant = scenario.with_overrides(operating_cost=c_nu, p_d=p_d)
            taus, costs = policy_costs(variant, params, seeds)
            rows.append([p_d, c_nu, float(np.mean(costs)),
                         float(np.std(costs) / np.sqrt(len(costs))),
                         float(np.mean(taus))])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "figure4_grid.csv",
              ["p_d", "c_nu", "mean_cost", "stderr_cost", "mean_tau"],
              np.array(rows).T, h, "cost=nats+epochs*c_nu, tau=epochs")
    write_manifest(out, "flyby", cfg, seed, ["figure4_grid.csv"])
    return 0


def cmd_periodic_sweep(args) -> int:
    scenario, cfg, seed = _load_run_scenario(args)
    k_max = args.kmax if args.kmax is not None else scenario.tau_max
    cfg["kmax"] = k_max
    params = _load_params(args.params, scenario) if args.params else None
    h = config_hash(cfg)
    eval_seed = child_seed(seed, "cli.periodic.eval")
    curve = periodic_cost_curve(scenario, eval_seed, args.rollouts, k_max)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    means = np.array([curve[:, k].mean() for k in range(k_max)])
    stderrs = np.array([curve[:, k].std() / np.sqrt(curve.shape[0])
                        for k in range(k_max)])
    files = ["periodic_costs.csv"]
    write_csv(out / "periodic_costs.csv", ["k_stop", "mean_cost", "stderr"],
              [np.arange(1, k_max + 1), means, stderrs], h,
              "cost=nats+epochs*c_nu")
    if params is not None:
        policy_cost = evaluate_cost(scenario, params, eval_seed,
                                    args.rollouts)
        best = int(np.argmin(means))
        write_csv(out / "envelope.csv",
                  ["policy_cost", "best_periodic_cost", "best_k_stop"],
                  [[policy_cost], [means[best]], [best + 1]], h,
                  "cost=nats+epochs*c_nu")
        files.append("envelope.csv")
    write_manifest(out, "periodic-sweep", cfg, seed, files)
    return 0


def cmd_persistent(args) -> int:
    scenario, cfg, seed = _load_run_scenario(args)
    _require_count("--cycles", args.cycles)
    cfg["cycles"] = args.cycles
    if args.params:
        params = _load_params(args.params, scenario)
    else:
        result, _, _ = _train_params(scenario, args, seed)
        params = result.best_params
    h = config_hash(cfg)
    trace = run_macro_cycles(scenario, params, args.cycles,
                             child_seed(seed, "cli.persistent"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "logdet_trace.csv",
              ["cycle", "epoch", "target", "log_det_P", "log_det_Pbar",
               "detected", "action"],
              [trace.cycle, trace.epoch, trace.target,
               trace.log_det_posterior, trace.log_det_prior, trace.detected,
               trace.action],
              h, "log_det=nats, action: 1=stop 2=continue")
    write_csv(out / "stop_times.csv", ["cycle", "tau", "priority_target"],
              [np.arange(args.cycles), trace.stop_times,
               trace.priority_targets], h, "tau=epochs")
    write_manifest(out, "persistent", cfg, seed,
                   ["logdet_trace.csv", "stop_times.csv"])
    return 0


def cmd_validate_linearization(args) -> int:
    _require_count("--seeds", args.seeds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = {"command": "validate-linearization", "seeds": args.seeds,
           "seed": args.seed}
    h = config_hash(cfg)
    report = validate_linearization(n_seeds=args.seeds, seed=args.seed)
    files = []
    k_names = ["state"] + [f"k_{k}" for k in report.ks]
    write_csv(out / "table_d.csv", k_names,
              [report.state_labels] + list(report.d_values.T), h,
              "D=dimensionless relative Jacobian drift")
    files.append("table_d.csv")
    for g in report.gammas:
        tag = str(g).replace(".", "")
        name = f"table_e_gamma{tag}.csv"
        write_csv(out / name, k_names,
                  [report.state_labels] + list(report.e_values[g].T), h,
                  f"E=second/first order ratio, gamma={g}, "
                  f"mean over {report.n_seeds} tracks")
        files.append(name)
    flags = report.flags
    write_csv(out / "linearity_flags.csv",
              ["metric", "state", "k", "gamma", "value"],
              [[f[0] for f in flags], [f[1] for f in flags],
               [f[2] for f in flags],
               ["" if f[3] is None else f[3] for f in flags],
               [f[4] for f in flags]],
              h, "entries exceeding bounds D<=0.06 E<=0.02")
    files.append("linearity_flags.csv")
    write_manifest(out, "validate-linearization", cfg, args.seed, files)
    return 0


def cmd_dp_threshold(args) -> int:
    _require_count("--grid", args.grid)
    cfg = {"command": "dp-threshold", "f": args.f, "q": args.q, "r": args.r,
           "p_d": args.pd if args.pd is not None else 0.75,
           "c_nu": args.c_nu if args.c_nu is not None else 0.8,
           "grid": args.grid, "seed": args.seed}
    h = config_hash(cfg)
    model = make_scalar_model(f=args.f, q=args.q, r=args.r, p_d=cfg["p_d"],
                              c_nu=cfg["c_nu"], n_a=args.grid,
                              n_other=args.grid)
    qtable = value_iterate(model)
    violations = check_monotone_policy(qtable)
    threshold = extract_threshold(qtable)
    grid_a, grid_o = qtable.grids
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "qtable.csv",
              ["P_a", "P_other", "V", "Q_continue", "action"],
              [np.repeat(_texts(grid_a), len(grid_o)),
               np.tile(_texts(grid_o), len(grid_a)),
               qtable.value.ravel(), qtable.q_continue.ravel(),
               qtable.action.ravel()], h,
              "P=squared state units, V/Q=nats, action: 1=stop 2=continue")
    write_csv(out / "threshold.csv", ["P_other", "g"], [grid_o, threshold],
              h, "stop below g, continue at or above")
    write_manifest(out, "dp-threshold", cfg, args.seed,
                   ["qtable.csv", "threshold.csv"])
    print(f"value iteration: {qtable.n_iterations} iterations, residual "
          f"{qtable.residual:.3e}, monotonicity violations {violations}")
    return 0 if violations == 0 else 3


def _theorem2_suite(n_samples: int, seed: int) -> dict:
    gen = stream(seed, "verify.theorem2")
    gmti_model = stock_scenario("flyby").models[0]
    violations = 0
    worst = 0.0
    for i in range(n_samples):
        m = 4
        if i % 10 == 0:
            f = gmti_model.F
            q = gmti_model.Q + 1e-8 * np.eye(4)
        else:
            f = random_transition(gen, m, gen.uniform(0.5, 1.5))
            q = random_pd(gen, m, gen.uniform(0.3, 3.0))
        model = TargetModel(F=f, G=np.eye(m), H=gen.normal(size=(3, m)),
                            Q=q, r_base=random_pd(gen, 3, 1.0, jitter=1e-3),
                            p_d=1.0, delta=1.0)
        p1, p2 = ordered_pair(gen, m, gen.uniform(0.5, 2.0))
        for ratio_fn in (det_ratio_lyapunov,
                         lambda p, mo: det_ratio_riccati(p, mo, 1.0)):
            r1, r2 = ratio_fn(p1, model), ratio_fn(p2, model)
            slack = r1 - r2 - 1e-9 * max(abs(r1), abs(r2))
            if slack > 0.0:
                violations += 1
                worst = max(worst, slack)
    return {"samples": n_samples, "violations": violations, "worst": worst}


def _operator_monotonicity_suite(n_samples: int, seed: int) -> dict:
    gen = stream(seed, "verify.operators")
    model = stock_scenario("flyby").models[0]
    violations = 0
    for _ in range(n_samples):
        p1, p2 = ordered_pair(gen, 4, gen.uniform(0.5, 2.0))
        tol = 1e-9 * float(np.trace(p1))
        if not loewner_geq(lyapunov_update(p1, model),
                           lyapunov_update(p2, model), tol):
            violations += 1
        if not loewner_geq(riccati_update(p1, model, 0.6),
                           riccati_update(p2, model, 0.6), tol):
            violations += 1
    return {"samples": n_samples, "violations": violations}


def _policy_suite(n_samples: int, seed: int) -> dict:
    gen = stream(seed, "verify.policy")
    out = {}
    for family in PolicyFamily:
        layout = ParamLayout(family, n_targets=2, state_dim=4)
        params = layout.build(gen.uniform(-1.0, 1.0, layout.n_params))
        out[family.value] = verify_monotone(params, n_samples,
                                            child_seed(seed, family.value))
    return out


def cmd_verify_properties(args) -> int:
    _require_count("--samples", args.samples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = {"command": "verify-properties", "samples": args.samples,
           "seed": args.seed}
    report = {
        "det_ratio_monotone": _theorem2_suite(args.samples, args.seed),
        "operator_monotone": _operator_monotonicity_suite(
            args.samples, child_seed(args.seed, "operators")),
        "policy_monotone_violations": _policy_suite(
            args.samples, child_seed(args.seed, "policy")),
    }
    (out / "properties_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    write_manifest(out, "verify-properties", cfg, args.seed,
                   ["properties_report.json"])
    failed = (report["det_ratio_monotone"]["violations"]
              + report["operator_monotone"]["violations"]
              + sum(report["policy_monotone_violations"].values()))
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if failed == 0 else 3


def _add_scenario_args(p: argparse.ArgumentParser, scenario_default: str):
    p.add_argument("--config", help="scenario JSON path (default: bundled)")
    p.add_argument("--scenario", default=scenario_default,
                   choices=sorted(BUNDLED),
                   help="bundled scenario when --config is not given")
    p.add_argument("--seed", type=int,
                   help="run seed, a non-negative integer; overrides the "
                        "scenario file's")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--c-nu", dest="c_nu", type=float,
                   help="override operating cost")
    p.add_argument("--pd", type=float, help="override detection probability")
    p.add_argument("--tau-max", dest="tau_max", type=int,
                   help="override stopping horizon")


def _add_train_args(p: argparse.ArgumentParser):
    p.add_argument("--family", default="quadform",
                   choices=[f.value for f in PolicyFamily])
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--rollouts-per-eval", type=int, default=16)
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="SPSA step-gain numerator: iteration n steps by "
                        "epsilon/(n+2+s)^zeta, applied unscaled whatever "
                        "the start's magnitude")
    p.add_argument("--share-other", action="store_true")
    p.add_argument("--tie-priors", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covstop",
        description="Covariance-driven sequential stopping experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flyby", help="sample-path cost over a (p_d, c_nu) grid")
    _add_scenario_args(p, "flyby")
    _add_train_args(p)
    p.add_argument("--params", help="trained policy params JSON")
    p.add_argument("--pd-grid", default="0.6,0.75,0.9")
    p.add_argument("--cnu-grid", default="0.2,0.4,0.8,1.6")
    p.add_argument("--rollouts", type=int, default=500)
    p.set_defaults(func=cmd_flyby)

    p = sub.add_parser("persistent", help="macro/micro log-determinant traces")
    _add_scenario_args(p, "persistent")
    _add_train_args(p)
    p.add_argument("--params", help="trained policy params JSON")
    p.add_argument("--cycles", type=int, default=12)
    p.set_defaults(func=cmd_persistent)

    p = sub.add_parser("optimize", help="SPSA policy-parameter search")
    _add_scenario_args(p, "flyby")
    _add_train_args(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("periodic-sweep",
                       help="deterministic stopping-time cost sweep")
    _add_scenario_args(p, "flyby")
    p.add_argument("--kmax", type=int)
    p.add_argument("--rollouts", type=int, default=500)
    p.add_argument("--params", help="compare against trained params JSON")
    p.set_defaults(func=cmd_periodic_sweep)

    p = sub.add_parser("validate-linearization",
                       help="Jacobian drift and Taylor-ratio tables")
    p.add_argument("--seed", type=int, required=True,
                   help="run seed, a non-negative integer")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=100,
                   help="true-track realizations per table cell")
    p.set_defaults(func=cmd_validate_linearization)

    p = sub.add_parser("dp-threshold",
                       help="value-iteration oracle and threshold curve")
    p.add_argument("--seed", type=int, required=True,
                   help="run seed, a non-negative integer")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--f", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--pd", type=float)
    p.add_argument("--c-nu", dest="c_nu", type=float)
    p.set_defaults(func=cmd_dp_threshold)

    p = sub.add_parser("verify-properties",
                       help="sampled monotonicity property suites")
    p.add_argument("--seed", type=int, required=True,
                   help="run seed, a non-negative integer")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=cmd_verify_properties)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:  # every subcommand has --seed
            check_seed(args.seed, "--seed")
        return args.func(args)
    except ContractError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
