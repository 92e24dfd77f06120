"""Command-line entry point.

Subcommands cover the stock experiments (fly-by sensitivity grid,
persistent-surveillance traces, linearity tables, DP threshold curve),
policy training and the property-verification suites. Every command
requires an explicit seed, a non-negative integer, from the flag or the
scenario file. Each writes plot-ready CSV files whose first line records
the generating config hash and the column units, and finishes with a
JSON run manifest that lists exactly the files written. The hashed config
covers the policy a run uses: the content of its ``--params`` file, or
the flags it was trained with. Outputs are byte identical across reruns
of the same (config, seed).

A run makes ``--out`` and writes its outputs only after all its results
exist, so a run that fails while computing leaves no ``--out`` behind.
The outputs are written into a staging directory in ``--out`` and then
renamed into place, the manifest last, so a run that fails while
writing leaves the files in ``--out`` as they were. A table of
more than CSV_BLOCK_ROWS rows is formatted by up to one process per CPU
(forked workers, where the platform has ``os.fork``), with the bytes of
one process. A part whose worker fails is formatted again by the run's
own process, so an error surfaces as the one-process writer raises it.

Exit codes: 0 success, 2 validation error (bad input, a run too large
for memory, or an ``--out`` that cannot be made or written), 3 numerical
failure, a sample cost that overflows to a non-finite value included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .config import (BUNDLED, _bundled_path, check_seed, config_hash,
                     load_scenario, params_from_dict, params_to_dict,
                     read_json, stock_scenario)
from .dp_oracle import (check_monotone_policy, extract_threshold,
                        make_scalar_model, value_iterate)
from .errors import ContractError, NumericalError
from .filter_core import (correct, det_ratios, loewner_geq, moment_blocks,
                          predict)
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


# Rows formatted and written together; bounds the text that each process
# writing a table holds in memory. A table of more rows is split among
# up to one process per CPU (see write_csv).
CSV_BLOCK_ROWS = 65536


def _cell_spec(column: np.ndarray) -> str:
    """The ``%`` conversion of a column's ``_cell_values`` (float.__repr__
    for floats)."""
    kind = column.dtype.kind
    return "%r" if kind == "f" else "%d" if kind in "iub" else "%s"


def _cell_values(column: np.ndarray) -> list:
    """A 1-D column's cells as Python numbers, or else as ``_fmt`` texts."""
    cells = column.tolist()
    if column.dtype.kind in "fiub" or set(map(type, cells)) == {str}:
        return cells
    return list(map(_fmt, cells))


def _csv_processes(rows: int) -> int:
    """Processes that format a table: one per CSV_BLOCK_ROWS rows, at most
    one per CPU this process may run on, and one without ``os.fork``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), -(-rows // CSV_BLOCK_ROWS))


def _fork_writer(write_rows, pieces: tuple, directory: Path,
                 encoding: str) -> tuple:
    """(pid, file) of a forked worker that writes ``pieces`` into an
    unlinked temporary file in ``directory``, or (None, None) if either
    cannot be made. The worker exits 0 once the file is flushed, 1 if it
    raised; ``os._exit`` runs no exit hook and flushes no inherited
    buffer."""
    import tempfile  # loaded with numpy

    try:
        text = tempfile.TemporaryFile("w+", encoding=encoding, dir=directory)
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        text.close()
        return None, None
    if pid == 0:
        code = 1
        try:
            write_rows(text, *pieces)
            text.flush()
            code = 0
        finally:
            os._exit(code)
    return pid, text


def _write_split(fh, write_rows, parts: list, directory: Path) -> None:
    """Write each part, a range of pieces, in order: the first straight
    into ``fh`` and each other one by a ``_fork_writer`` worker, whose
    file is appended once it has exited 0. A part whose worker could not
    start or did not exit 0 is written here instead, so it raises what
    the serial writer raises. If this process raises, every worker still
    running is killed and reaped first."""
    import shutil  # loaded with numpy
    import signal

    fh.flush()  # a worker must inherit no buffered text
    workers = []  # [pieces, pid, file]; pid is None once reaped
    try:
        for pieces in parts[1:]:
            workers.append([pieces, *_fork_writer(write_rows, pieces,
                                                  directory, fh.encoding)])
        write_rows(fh, *parts[0])
        for worker in workers:
            pieces, pid, text = worker
            status = 1 if pid is None else os.waitpid(pid, 0)[1]
            worker[1] = None
            if status != 0:
                write_rows(fh, *pieces)
                continue
            fh.flush()
            text.seek(0)
            shutil.copyfileobj(text.buffer, fh.buffer)
    finally:
        for _, pid, text in workers:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if text is not None:
                text.close()


def write_csv(path: Path, names: list, columns: list, cfg_hash: str,
              units: str) -> None:
    """Write a table under a config-hash and units line.

    An ndarray column is formatted by its dtype: a float cell is the
    ``repr`` of the Python float, an integer cell its decimal digits and
    a bool cell 1 or 0. Any other sequence is taken as objects, each cell
    formatted by the same rule (other objects by ``str``). The columns
    are 1-D and as long as the first, or form a grid: if a column has
    k >= 2 dimensions, the leading k columns are 1-D axes, the others
    have shape (len(axis_1), ..., len(axis_k)), and each row is one point
    of the axes' product in C order (last axis fastest): its axis values,
    then its cells. Axis values are formatted once, into the row
    template. Raises ContractError unless each column has one name and
    its shape.

    The rows go out in pieces: at most CSV_BLOCK_ROWS rows of one value
    of the leading axes, formatted by one ``%``. A table of more than
    CSV_BLOCK_ROWS rows is cut, at piece boundaries, into P contiguous
    parts of near-equal rows, P = ``_csv_processes``. This process
    writes the first part straight into the file while P - 1 forked
    workers each write one of the others, piece by piece, into an
    unlinked temporary file beside it; their files are then appended in
    order. The bytes are those of the serial loop. A part whose worker
    fails is written by this process, so every error is raised as the
    serial writer raises it.
    """
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object)
               for c in columns]
    if len(names) != len(columns):
        raise ContractError(f"{path.name}: {len(names)} names for "
                            f"{len(columns)} columns")
    n_axes = max(c.ndim for c in columns)
    n_axes = n_axes if n_axes > 1 else 0
    axes, cells = columns[:n_axes], columns[n_axes:]
    shape = tuple(map(len, axes)) or (len(columns[0]),)
    for i, (name, column) in enumerate(zip(names, columns)):
        expected = shape[i:i + 1] if i < n_axes else shape
        if column.shape != expected:
            raise ContractError(f"{path.name}: column {name} has shape "
                                f"{column.shape}, not {expected}")
    texts = [[(_cell_spec(a) % v).replace("%", "%%")
              for v in _cell_values(a)] for a in axes]
    row = ",".join(map(_cell_spec, cells)) + "\n"
    tails = [t + "," + row for t in texts.pop()] if axes else [row] * shape[0]

    def write_rows(fh, first: int, stop: int | None) -> None:
        """Write pieces first to stop (None: the last) in file order."""
        pieces = ((index, slice(start, start + CSV_BLOCK_ROWS))
                  for index in np.ndindex(shape[:-1])
                  for start in range(0, shape[-1], CSV_BLOCK_ROWS))
        for index, block in islice(pieces, first, stop):
            prefix = "".join(t[i] + "," for t, i in zip(texts, index))
            values = [_cell_values(c[index][block]) for c in cells]
            fh.write((prefix + prefix.join(tails[block]))
                     % tuple(chain.from_iterable(zip(*values))))

    rows = int(np.prod(shape))
    n_parts = _csv_processes(rows)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg_hash} units: {units}\n"
                 + ",".join(names) + "\n")
        if n_parts < 2:
            write_rows(fh, 0, None)
            return
        # The row each piece starts at; a piece joins the part that holds
        # its middle row.
        starts = (np.arange(0, rows, shape[-1])[:, None]
                  + np.arange(0, shape[-1], CSV_BLOCK_ROWS)).ravel()
        owner = (starts + np.append(starts[1:], rows)) * n_parts // (2 * rows)
        bounds = np.searchsorted(owner, np.arange(n_parts + 1)).tolist()
        parts = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
        _write_split(fh, write_rows, parts, path.parent)


def _stale_outputs(out: Path) -> set:
    """Plain files directly in ``out`` that its earlier manifest lists;
    none if that manifest does not parse."""
    try:
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, TypeError, KeyError):
        return set()
    names = listed if isinstance(listed, list) else []
    return {n for n in names if isinstance(n, str) and "/" not in n
            and os.sep not in n and ".." not in n
            and os.path.isfile(out / n) and not os.path.islink(out / n)}


def write_outputs(args, cfg: dict, outputs: dict) -> None:
    """Make ``--out`` and write a finished run's files, then its manifest.

    ``outputs`` maps each file name to a CSV table ``(names, columns,
    units)``, which ``write_csv`` writes under the config hash, or to a
    JSON document. The hash is taken once, of the run's final ``cfg``,
    which also holds the run's seed. The manifest's ``command`` is the
    subcommand's name and its ``outputs`` are exactly the mapping's names.
    Every file is first written into a staging directory in ``--out``.
    Then the ``_stale_outputs`` this run does not write are deleted and
    each staged file is renamed into ``--out``, the manifest last. The
    staging directory is removed whether or not the writes succeed, so a
    write that fails part way leaves the files in ``--out`` as they
    were. Raises ContractError if ``--out`` cannot be made or
    written, and before it deletes or writes anything if one of the
    names exists in ``--out`` as anything but a regular file (a symlink
    too).
    """
    import tempfile  # loaded with numpy

    cfg_hash = config_hash(cfg)
    manifest = {
        "command": args.command,
        "config_hash": cfg_hash,
        "config": cfg,
        "seed": cfg["seed"],
        "versions": {"covstop": __version__, "numpy": np.__version__},
        "outputs": sorted(outputs),
    }
    out = Path(args.out)
    for name in [*outputs, "manifest.json"]:
        path = out / name  # writing would follow a symlink out of --out
        if os.path.islink(path) or (path.exists() and not path.is_file()):
            raise ContractError(f"cannot write --out {out}: {name} exists "
                                f"and is not a regular file")
    files = {**outputs, "manifest.json": manifest}
    try:
        out.mkdir(parents=True, exist_ok=True)
        # Inside --out, not beside it: a --out that is a mount point or a
        # symlink may sit on another filesystem than its parent.
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        try:
            for name, content in files.items():
                if isinstance(content, dict):
                    (staging / name).write_text(
                        json.dumps(content, indent=2, sort_keys=True) + "\n")
                else:
                    names, columns, units = content
                    write_csv(staging / name, names, columns, cfg_hash, units)
            for name in _stale_outputs(out) - files.keys():
                (out / name).unlink()
            for name in files:  # the manifest last
                os.replace(staging / name, out / name)
        finally:
            for path in staging.iterdir():
                path.unlink()
            staging.rmdir()
    except OSError as exc:
        raise ContractError(f"cannot write --out {out}: {exc}") from None


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
    """Params and layout from a JSON file, checked against the scenario."""
    params, layout = params_from_dict(read_json(path))
    expected = (scenario.n_targets, scenario.models[0].state_dim)
    if params.theta.shape != expected:
        raise ContractError(f"{path}: params cover (targets, state dim) "
                            f"{params.theta.shape}, the scenario {expected}")
    if layout.a != scenario.a:
        raise ContractError(f"{path}: params lay out priority target "
                            f"{layout.a}, the scenario's is {scenario.a}")
    return params, layout


def _require_count(flag: str, value: int) -> None:
    if value < 1:
        raise ContractError(f"{flag} must be at least 1, got {value}")


def _policy(scenario, args, seed: int, cfg: dict):
    """The run's policy and layout, and the SPSA result if it was trained.

    ``--params`` loads the policy and checks it against the scenario;
    without it SPSA trains one. ``cfg`` records the canonical params
    document (the file's content, not its path) or the training flags,
    so the config hash covers the policy.
    """
    if getattr(args, "params", None):
        params, layout = _load_params(args.params, scenario)
        cfg["params"] = params_to_dict(params, layout)
        return params, layout, None
    cfg["train"] = {flag: getattr(args, flag) for flag in (
        "family", "iterations", "restarts", "rollouts_per_eval", "epsilon",
        "share_other", "tie_priors")}
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
    return result.best_params, layout, result


def cmd_optimize(args) -> int:
    scenario, cfg, seed = _load_run_scenario(args)
    _, layout, result = _policy(scenario, args, seed, cfg)
    trace = result.trace
    phis = np.array([t.phi for t in trace])
    write_outputs(args, cfg, {
        "spsa_trace.csv": (
            ["restart", "iteration", "cost"]
            + [f"phi_{i}" for i in range(layout.n_params)],
            [np.array([t.restart for t in trace]),
             np.array([t.iteration for t in trace]),
             np.array([t.cost for t in trace], dtype=float)] + list(phis.T),
            "cost=nats+epochs*c_nu, phi=unconstrained"),
        "best_params.json": params_to_dict(result.best_params, layout),
    })
    print(f"best re-rank cost {result.best_cost:.6g} "
          f"(restart {result.best_restart}, iteration {result.best_iteration})")
    return 0


def cmd_flyby(args) -> int:
    scenario, cfg, seed = _load_run_scenario(args)
    pd_grid = _parse_grid("--pd-grid", args.pd_grid)
    cnu_grid = _parse_grid("--cnu-grid", args.cnu_grid)
    _require_count("--rollouts", args.rollouts)
    cfg["pd_grid"], cfg["cnu_grid"] = pd_grid, cnu_grid
    # Every cell's scenario is checked before a policy is trained.
    cells = [scenario.with_overrides(operating_cost=c_nu, p_d=p_d)
             for p_d in pd_grid for c_nu in cnu_grid]
    params, _, _ = _policy(scenario, args, seed, cfg)
    eval_seed = child_seed(seed, "cli.flyby.eval")
    seeds = [child_seed(eval_seed, "pair", b) for b in range(args.rollouts)]
    # Mean cost, its standard error and mean tau over the (p_d, c_nu) grid.
    stats = np.empty((3, len(pd_grid), len(cnu_grid)))
    for cell, variant in zip(stats.reshape(3, -1).T, cells):
        taus, costs = policy_costs(variant, params, seeds)
        cell[:] = (np.mean(costs), np.std(costs) / np.sqrt(len(costs)),
                   np.mean(taus))
    write_outputs(args, cfg, {"figure4_grid.csv": (
        ["p_d", "c_nu", "mean_cost", "stderr_cost", "mean_tau"],
        [np.array(pd_grid), np.array(cnu_grid), *stats],
        "cost=nats+epochs*c_nu, tau=epochs")})
    return 0


def cmd_periodic_sweep(args) -> int:
    scenario, cfg, seed = _load_run_scenario(args)
    k_max = args.kmax if args.kmax is not None else scenario.tau_max
    cfg["kmax"] = k_max
    params = _policy(scenario, args, seed, cfg)[0] if args.params else None
    eval_seed = child_seed(seed, "cli.periodic.eval")
    curve = periodic_cost_curve(scenario, eval_seed, args.rollouts, k_max)
    means = np.array([curve[:, k].mean() for k in range(k_max)])
    stderrs = np.array([curve[:, k].std() / np.sqrt(curve.shape[0])
                        for k in range(k_max)])
    outputs = {"periodic_costs.csv": (
        ["k_stop", "mean_cost", "stderr"],
        [np.arange(1, k_max + 1), means, stderrs], "cost=nats+epochs*c_nu")}
    if params is not None:
        policy_cost = evaluate_cost(scenario, params, eval_seed,
                                    args.rollouts)
        best = int(np.argmin(means))
        outputs["envelope.csv"] = (
            ["policy_cost", "best_periodic_cost", "best_k_stop"],
            [[policy_cost], [means[best]], [best + 1]],
            "cost=nats+epochs*c_nu")
    write_outputs(args, cfg, outputs)
    return 0


def cmd_persistent(args) -> int:
    scenario, cfg, seed = _load_run_scenario(args)
    _require_count("--cycles", args.cycles)
    cfg["cycles"] = args.cycles
    params, _, _ = _policy(scenario, args, seed, cfg)
    trace = run_macro_cycles(scenario, params, args.cycles,
                             child_seed(seed, "cli.persistent"))
    write_outputs(args, cfg, {
        "logdet_trace.csv": (
            ["cycle", "epoch", "target", "log_det_P", "log_det_Pbar",
             "detected", "action"],
            [trace.cycle, trace.epoch, trace.target, trace.log_det_posterior,
             trace.log_det_prior, trace.detected, trace.action],
            "log_det=nats, action: 1=stop 2=continue"),
        "stop_times.csv": (
            ["cycle", "tau", "priority_target"],
            [np.arange(args.cycles), trace.stop_times,
             trace.priority_targets], "tau=epochs"),
    })
    return 0


def cmd_validate_linearization(args) -> int:
    _require_count("--seeds", args.seeds)
    cfg = {"command": "validate-linearization", "seeds": args.seeds,
           "seed": args.seed}
    report = validate_linearization(n_seeds=args.seeds, seed=args.seed)
    k_names = ["state"] + [f"k_{k}" for k in report.ks]
    outputs = {"table_d.csv": (
        k_names, [report.state_labels] + list(report.d_values.T),
        "D=dimensionless relative Jacobian drift")}
    for g in report.gammas:
        tag = str(g).replace(".", "")
        outputs[f"table_e_gamma{tag}.csv"] = (
            k_names, [report.state_labels] + list(report.e_values[g].T),
            f"E=second/first order ratio, gamma={g}, "
            f"mean over {report.n_seeds} tracks")
    flags = report.flags
    outputs["linearity_flags.csv"] = (
        ["metric", "state", "k", "gamma", "value"],
        [[f[0] for f in flags], [f[1] for f in flags], [f[2] for f in flags],
         ["" if f[3] is None else f[3] for f in flags],
         [f[4] for f in flags]],
        "entries exceeding bounds D<=0.06 E<=0.02")
    write_outputs(args, cfg, outputs)
    return 0


def cmd_dp_threshold(args) -> int:
    _require_count("--grid", args.grid)
    cfg = {"command": "dp-threshold", "f": args.f, "q": args.q, "r": args.r,
           "p_d": args.pd if args.pd is not None else 0.75,
           "c_nu": args.c_nu if args.c_nu is not None else 0.8,
           "grid": args.grid, "seed": args.seed}
    model = make_scalar_model(f=args.f, q=args.q, r=args.r, p_d=cfg["p_d"],
                              c_nu=cfg["c_nu"], n_a=args.grid,
                              n_other=args.grid)
    qtable = value_iterate(model)
    violations = check_monotone_policy(qtable)
    threshold = extract_threshold(qtable)
    grid_a, grid_o = qtable.grids
    write_outputs(args, cfg, {
        "qtable.csv": (
            ["P_a", "P_other", "V", "Q_continue", "action"],
            [grid_a, grid_o, qtable.value, qtable.q_continue, qtable.action],
            "P=squared state units, V/Q=nats, action: 1=stop 2=continue"),
        "threshold.csv": (["P_other", "g"], [grid_o, threshold],
                          "stop below g, continue at or above"),
    })
    print(f"value iteration: {qtable.n_iterations} iterations, residual "
          f"{qtable.residual:.3e}, monotonicity violations {violations}")
    return 0 if violations == 0 else 3


def _theorem2_suite(n_samples: int, seed: int) -> dict:
    """det(L(P)) / det(P) and det(R(P)) / det(P) decrease in P.

    Each sample draws a model (every tenth is the stock GMTI one) and an
    ordered pair into stacks allocated before the first draw; one
    ``det_ratios`` call then decides them all.
    """
    m, mz = 4, 3
    f, q = np.empty((n_samples, m, m)), np.empty((n_samples, m, m))
    h, r = np.empty((n_samples, mz, m)), np.empty((n_samples, mz, mz))
    pairs = np.empty((2, n_samples, m, m))  # P1 >= P2
    gen = stream(seed, "verify.theorem2")
    stock = stock_scenario("flyby").models[0]
    stock_q = stock.Q + 1e-8 * np.eye(m)
    for i in range(n_samples):
        if i % 10 == 0:
            f[i], q[i] = stock.F, stock_q
        else:
            f[i] = random_transition(gen, m, gen.uniform(0.5, 1.5))
            q[i] = random_pd(gen, m, gen.uniform(0.3, 3.0))
        h[i] = gen.normal(size=(mz, m))
        r[i] = random_pd(gen, mz, 1.0, jitter=1e-3)
        pairs[:, i] = ordered_pair(gen, m, gen.uniform(0.5, 2.0))
    # r1 and r2: (Lyapunov, Riccati) ratios of each sample's P1 and P2.
    r1, r2 = np.stack(det_ratios(pairs, f, h, q, r), axis=1)
    slack = r1 - r2 - 1e-9 * np.maximum(np.abs(r1), np.abs(r2))
    violated = slack[slack > 0.0]
    return {"samples": n_samples, "violations": int(violated.size),
            "worst": float(violated.max(initial=0.0))}


def _operator_monotonicity_suite(n_samples: int, seed: int) -> dict:
    """The Lyapunov and Riccati maps of the stock GMTI model, at priority
    0.6, preserve the Loewner order of ordered pairs drawn into a stack
    allocated before the first draw."""
    pairs = np.empty((2, n_samples, 4, 4))  # P1 >= P2
    gen = stream(seed, "verify.operators")
    for i in range(n_samples):
        pairs[:, i] = ordered_pair(gen, 4, gen.uniform(0.5, 2.0))
    model = stock_scenario("flyby").models[0]
    posterior, bad = correct(pairs, *moment_blocks(
        model.F, model.H, model.Q, model.effective_noise(0.6)))
    if bad is not None:
        raise NumericalError("covariance update is not positive definite")
    # updated[0] and [1]: (Lyapunov, Riccati) updates of P1 and of P2.
    updated = np.stack([predict(pairs, model.F, model.Q), posterior], axis=1)
    geq = loewner_geq(updated[0], updated[1],
                      1e-9 * np.trace(pairs[0], axis1=-2, axis2=-1))
    return {"samples": n_samples, "violations": int(np.sum(~geq))}


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
    cfg = {"command": "verify-properties", "samples": args.samples,
           "seed": args.seed}
    report = {
        "det_ratio_monotone": _theorem2_suite(args.samples, args.seed),
        "operator_monotone": _operator_monotonicity_suite(
            args.samples, child_seed(args.seed, "operators")),
        "policy_monotone_violations": _policy_suite(
            args.samples, child_seed(args.seed, "policy")),
    }
    write_outputs(args, cfg, {"properties_report.json": report})
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
        # Every subcommand has --out; a typo should not cost a run.
        head = args.out  # becomes its nearest existing ancestor, or itself
        while head and not os.path.exists(head):
            head = os.path.dirname(head)
        if head and not os.path.isdir(head):
            raise ContractError(f"cannot write --out {args.out}: {head} "
                                f"exists and is not a directory")
        return args.func(args)
    except ContractError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"validation error: run too large for memory: {exc}",
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
