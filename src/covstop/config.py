"""Scenario and policy-parameter serialization.

One JSON document per scenario. Loading is strict: unknown keys are
rejected wherever they appear, covariances accept either a full matrix
(nested lists) or a flat list interpreted as a diagonal, and every
scenario must carry its own seed, a non-negative JSON integer, so no run
ever defaults to wall-clock randomness. Every other number in a scenario
or params document, alone or in a list, must be a JSON number (a boolean
or a numeric string is not) and finite (Python's json reads ``NaN`` and
``Infinity``, which are refused), and ``tau_max``, ``n_locations`` and
``start_location`` must be JSON integers. A scenario whose numbers are
too large to build its model matrices, or params whose weights would
not be finite, are refused too. The paper's two stock scenarios
are such documents, bundled with the package; ``stock_scenario`` loads
them. A params document's layout takes JSON integers (not booleans) for
``n_targets``, ``state_dim`` and ``a``, with 0 <= a < n_targets, and
JSON booleans for ``share_other`` and ``tie_priors``.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ContractError
from .filter_core import TargetModel
from .gmti import (MacroMode, OrbitSpec, PlatformState, Scenario,
                   jacobian_h, platform_orbit_state, system_matrices)
from .observability import CostWeights, StoppingCase
from .policy import ParamLayout, PolicyFamily, PolicyParams

# The stock scenarios, by name, as files inside the package.
BUNDLED = {"flyby": "configs/flyby.json", "persistent": "configs/persistent.json"}
# The JSON type of each params layout entry.
_LAYOUT_TYPES = {"n_targets": int, "state_dim": int, "share_other": bool,
                 "tie_priors": bool, "a": int}


def _bundled_path(name: str) -> Path:
    return Path(resources.files("covstop") / BUNDLED[name])


def _require_keys(d: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ContractError(f"{where} must be a JSON object")
    unknown = set(d) - required - optional
    if unknown:
        raise ContractError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ContractError(f"missing keys in {where}: {sorted(missing)}")


def _enum(cls, value, where: str):
    try:
        return cls(value)
    except ValueError:
        choices = [m.value for m in cls]
        raise ContractError(f"{where} must be one of {choices}, "
                            f"got {value!r}") from None


def _typed(value, kind: type, where: str):
    """``value`` if its type is exactly ``kind``: a JSON boolean is no int."""
    if type(value) is not kind:
        raise ContractError(f"{where} must be of type {kind.__name__}, "
                            f"got {value!r}")
    return value


def check_seed(value, where: str) -> int:
    """``value`` if it is a non-negative integer, else ContractError."""
    if _typed(value, int, where) < 0:
        raise ContractError(f"{where} must be non-negative, got {value}")
    return value


def _number(value, where: str) -> float:
    """``value`` as a float if it is a finite JSON number (not a boolean,
    and not the ``NaN`` or ``Infinity`` that Python's json reads)."""
    if type(value) not in (int, float):
        raise ContractError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ContractError(f"{where} is too large for a float") from None
    if not math.isfinite(number):
        raise ContractError(f"{where} must be finite, got {value!r}")
    return number


def _numbers(obj, where: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array."""
    pending = [obj]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        else:
            _number(item, f"{where} entry")
    return np.asarray(obj, dtype=float)


def _covariance_from(obj, where: str) -> np.ndarray:
    arr = _numbers(obj, where)
    if arr.ndim == 1:
        return np.diag(arr)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    raise ContractError(f"{where} must be a square matrix or a diagonal list")


def _state_vector(obj, where: str) -> np.ndarray:
    arr = _numbers(obj, where)
    if arr.shape != (4,) or not np.all(np.isfinite(arr)):
        raise ContractError(f"{where} must be a finite 4-vector")
    return arr


def scenario_from_dict(spec: dict) -> Scenario:
    """Build a validated scenario from its JSON representation.

    A value of the wrong type or shape is a ContractError, and so are
    numbers too large to build the models from: a floating-point
    overflow or invalid operation while the matrices are computed. ``name``
    labels the file, ``seed`` is read by the caller from the raw dict,
    and ``sigma_p`` and each target's ``true_state`` describe the truth
    model; the scenario keeps none of them, but they are validated all
    the same.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _scenario_from_dict(spec)
    except ContractError:
        raise
    except (TypeError, ValueError) as exc:
        raise ContractError(f"scenario: {exc}") from None
    except ArithmeticError as exc:
        raise ContractError(f"scenario: numbers too large to build the "
                            f"model matrices from: {exc}") from None


def _scenario_from_dict(spec: dict) -> Scenario:
    _require_keys(spec, {"name", "seed", "tau_max", "priorities", "weights",
                         "model", "platform", "targets"},
                  {"sigma_p", "macro_mode"}, "scenario")
    check_seed(spec["seed"], "seed")  # checked only; see the docstring
    _number(spec.get("sigma_p", 0.0), "sigma_p")
    weights_spec = spec["weights"]
    _require_keys(weights_spec, {"alpha", "beta", "operating_cost"},
                  {"case"}, "weights")
    weights = CostWeights(
        alpha=_numbers(weights_spec["alpha"], "weights.alpha"),
        beta=_numbers(weights_spec["beta"], "weights.beta"),
        operating_cost=_number(weights_spec["operating_cost"],
                               "weights.operating_cost"),
        case=_enum(StoppingCase, weights_spec.get("case", "avg-diff"),
                   "weights.case"))

    model_spec = spec["model"]
    _require_keys(model_spec, {"period", "sigma_x", "sigma_y", "sigma_r",
                               "sigma_a_deg", "sigma_rdot", "p_d"},
                  {"delta"}, "model")
    model = {key: _number(value, f"model.{key}")
             for key, value in model_spec.items()}

    platform_spec = spec["platform"]
    if not isinstance(platform_spec, dict):
        raise ContractError("platform must be a JSON object")
    orbit = None
    if platform_spec.get("kind") == "orbit":
        _require_keys(platform_spec, {"kind", "radius", "speed", "altitude"},
                      {"n_locations", "start_location"}, "platform")
        orbit = OrbitSpec(
            radius=_number(platform_spec["radius"], "platform.radius"),
            speed=_number(platform_spec["speed"], "platform.speed"),
            altitude=_number(platform_spec["altitude"], "platform.altitude"),
            n_locations=_typed(platform_spec.get("n_locations", 72), int,
                               "platform.n_locations"),
            start_location=_typed(platform_spec.get("start_location", 1),
                                  int, "platform.start_location"))
        platform = platform_orbit_state(orbit, orbit.start_location)
    elif platform_spec.get("kind") == "linear":
        _require_keys(platform_spec, {"kind", "state", "altitude"}, set(),
                      "platform")
        platform = PlatformState(
            _numbers(platform_spec["state"], "platform.state"),
            _number(platform_spec["altitude"], "platform.altitude"))
    else:
        raise ContractError("platform kind must be 'linear' or 'orbit'")

    estimates = []
    posteriors = []
    priors = []
    for i, target in enumerate(spec["targets"]):
        _require_keys(target, {"estimate", "posterior_cov"},
                      {"true_state", "prior_cov"}, f"targets[{i}]")
        estimates.append(_state_vector(target["estimate"],
                                       f"targets[{i}].estimate"))
        if "true_state" in target:
            _state_vector(target["true_state"], f"targets[{i}].true_state")
        post = _covariance_from(target["posterior_cov"],
                                f"targets[{i}].posterior_cov")
        posteriors.append(post)
        priors.append(_covariance_from(target["prior_cov"],
                                       f"targets[{i}].prior_cov")
                      if "prior_cov" in target else post.copy())

    f, g, q, r_base = system_matrices(
        model["period"], model["sigma_x"], model["sigma_y"],
        model["sigma_r"], math.radians(model["sigma_a_deg"]),
        model["sigma_rdot"])
    p_d = model["p_d"]
    delta = model.get("delta", 100.0)
    models = tuple(TargetModel(F=f, G=g, H=jacobian_h(e, platform), Q=q,
                               r_base=r_base, p_d=p_d, delta=delta)
                   for e in estimates)

    return Scenario(
        models=models,
        priorities=_numbers(spec["priorities"], "priorities"),
        weights=weights,
        tau_max=_typed(spec["tau_max"], int, "tau_max"),
        initial_posteriors=tuple(posteriors),
        initial_priors=tuple(priors),
        macro_mode=_enum(MacroMode, spec.get("macro_mode", "flyby-fixed"),
                         "macro_mode"),
        estimates=tuple(estimates),
        orbit=orbit)


def read_json(path: str | Path):
    """Parsed JSON file; an unreadable or malformed file is a ContractError."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ContractError(f"cannot read {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractError(f"cannot parse {path}: {exc}") from exc


def load_scenario(path: str | Path) -> tuple[Scenario, dict]:
    """Parse and validate a scenario file; returns (scenario, raw dict)."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ContractError(f"{path}: a scenario file holds a JSON object")
    if "seed" not in raw:
        raise ContractError(f"{path}: scenario files must carry a seed")
    return scenario_from_dict(raw), raw


def stock_scenario(name: str) -> Scenario:
    """The bundled "flyby" or "persistent" scenario.

    Both share four targets (their estimates and 10 m / 5 m/s initial
    sigmas), the constant-velocity model sampled at 0.1 s and the cost's
    operating cost of 0.8. Fly-by: a platform on a straight track whose
    altitude, 8473.3 m, gives a 15 degree depression angle at the
    initial ground range; a fixed priority split with most weight on
    target 0, p_d = 0.75, and a heavy posterior weight on the priority
    target. Persistent: a 30 km orbit at 5 km altitude and 250 m/s,
    one-hot priorities chosen each cycle by the macro-manager,
    p_d = 0.9, and zero prior weight on the measurement-free targets.
    Both run 60-epoch (6 s) horizons, which cover the stopping times.
    """
    if name not in BUNDLED:
        raise ContractError(f"no bundled scenario {name!r}; choose from "
                            f"{sorted(BUNDLED)}")
    scenario, _ = load_scenario(_bundled_path(name))
    return scenario


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """Short stable digest of a JSON-serializable configuration."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    return digest[:12]


def params_to_dict(params: PolicyParams, layout: ParamLayout) -> dict:
    if params.phi is None:
        raise ContractError("only phi-parametrized policies serialize")
    return {
        "family": params.family.value,
        "phi": [float(x) for x in params.phi],
        "layout": {
            "n_targets": layout.n_targets,
            "state_dim": layout.state_dim,
            "share_other": layout.share_other,
            "tie_priors": layout.tie_priors,
            "a": layout.a,
        },
    }


def params_from_dict(spec: dict) -> tuple[PolicyParams, ParamLayout]:
    """Policy params and their layout from a params document."""
    if not isinstance(spec, dict) or not isinstance(spec.get("layout"), dict):
        raise ContractError("params must be a JSON object with a layout "
                            "object")
    _require_keys(spec, {"family", "phi", "layout"}, set(), "params")
    lay = spec["layout"]
    _require_keys(lay, {"n_targets", "state_dim"},
                  {"share_other", "tie_priors", "a"}, "params.layout")
    layout = ParamLayout(
        _enum(PolicyFamily, spec["family"], "params.family"),
        **{key: _typed(value, _LAYOUT_TYPES[key], f"params.layout.{key}")
           for key, value in lay.items()})
    try:
        phi = _numbers(spec["phi"], "params.phi")
    except (TypeError, ValueError) as exc:
        raise ContractError(f"params: {exc}") from None
    with np.errstate(over="ignore"):  # an infinite weight is refused below
        params = layout.build(phi)
    if not (np.all(np.isfinite(params.theta))
            and np.all(np.isfinite(params.theta_bar))):
        raise ContractError("params: phi builds weights too large to be "
                            "finite")
    return params, layout
