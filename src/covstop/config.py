"""Scenario and policy-parameter serialization.

One JSON document per scenario. Loading is strict: unknown keys are
rejected wherever they appear, covariances accept either a full matrix
(nested lists) or a flat list interpreted as a diagonal, and every
scenario must carry its own seed so no run ever defaults to wall-clock
randomness.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import ContractError
from .gmti import (MacroMode, OrbitSpec, PlatformState, Scenario,
                   _linearized_models, platform_orbit_state)
from .observability import CostWeights, StoppingCase
from .policy import ParamLayout, PolicyFamily, PolicyParams


def _require_keys(d: dict, required: set, optional: set, where: str) -> None:
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


def _covariance_from(obj, where: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 1:
        return np.diag(arr)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    raise ContractError(f"{where} must be a square matrix or a diagonal list")


def scenario_from_dict(spec: dict) -> Scenario:
    """Build a validated scenario from its JSON representation."""
    _require_keys(spec, {"name", "seed", "tau_max", "priorities", "weights",
                         "model", "platform", "targets"},
                  {"sigma_p", "macro_mode"}, "scenario")
    weights_spec = spec["weights"]
    _require_keys(weights_spec, {"alpha", "beta", "operating_cost"},
                  {"case"}, "weights")
    weights = CostWeights(
        alpha=np.asarray(weights_spec["alpha"], dtype=float),
        beta=np.asarray(weights_spec["beta"], dtype=float),
        operating_cost=float(weights_spec["operating_cost"]),
        case=_enum(StoppingCase, weights_spec.get("case", "avg-diff"),
                   "weights.case"))

    model_spec = spec["model"]
    _require_keys(model_spec, {"period", "sigma_x", "sigma_y", "sigma_r",
                               "sigma_a_deg", "sigma_rdot", "p_d"},
                  {"delta"}, "model")

    platform_spec = spec["platform"]
    orbit = None
    if platform_spec.get("kind") == "orbit":
        _require_keys(platform_spec, {"kind", "radius", "speed", "altitude"},
                      {"n_locations", "start_location"}, "platform")
        orbit = OrbitSpec(radius=float(platform_spec["radius"]),
                          speed=float(platform_spec["speed"]),
                          altitude=float(platform_spec["altitude"]),
                          n_locations=int(platform_spec.get("n_locations", 72)),
                          start_location=int(
                              platform_spec.get("start_location", 1)))
        platform = platform_orbit_state(orbit.start_location, orbit.radius,
                                        orbit.speed, orbit.altitude)
    elif platform_spec.get("kind") == "linear":
        _require_keys(platform_spec, {"kind", "state", "altitude"}, set(),
                      "platform")
        platform = PlatformState(np.asarray(platform_spec["state"],
                                            dtype=float),
                                 float(platform_spec["altitude"]))
    else:
        raise ContractError("platform kind must be 'linear' or 'orbit'")

    estimates = []
    true_states = []
    posteriors = []
    priors = []
    for i, target in enumerate(spec["targets"]):
        _require_keys(target, {"estimate", "posterior_cov"},
                      {"true_state", "prior_cov"}, f"targets[{i}]")
        estimates.append(np.asarray(target["estimate"], dtype=float))
        true_states.append(np.asarray(target.get("true_state",
                                                 target["estimate"]),
                                      dtype=float))
        post = _covariance_from(target["posterior_cov"],
                                f"targets[{i}].posterior_cov")
        posteriors.append(post)
        priors.append(_covariance_from(target["prior_cov"],
                                       f"targets[{i}].prior_cov")
                      if "prior_cov" in target else post.copy())

    models = _linearized_models(
        tuple(estimates), platform,
        period=float(model_spec["period"]),
        sigma_x=float(model_spec["sigma_x"]),
        sigma_y=float(model_spec["sigma_y"]),
        sigma_r=float(model_spec["sigma_r"]),
        sigma_a=math.radians(float(model_spec["sigma_a_deg"])),
        sigma_rdot=float(model_spec["sigma_rdot"]),
        p_d=float(model_spec["p_d"]),
        delta=float(model_spec.get("delta", 100.0)))

    return Scenario(
        name=str(spec["name"]),
        models=models,
        priorities=np.asarray(spec["priorities"], dtype=float),
        weights=weights,
        tau_max=int(spec["tau_max"]),
        initial_posteriors=tuple(posteriors),
        initial_priors=tuple(priors),
        seed=int(spec["seed"]),
        sigma_p=float(spec.get("sigma_p", 0.0)),
        macro_mode=_enum(MacroMode, spec.get("macro_mode", "flyby-fixed"),
                         "macro_mode"),
        true_states=tuple(true_states),
        estimates=tuple(estimates),
        platform=platform,
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
    if not isinstance(spec, dict) or not isinstance(spec.get("layout"), dict):
        raise ContractError("params must be a JSON object with a layout "
                            "object")
    _require_keys(spec, {"family", "phi", "layout"}, set(), "params")
    lay = spec["layout"]
    _require_keys(lay, {"n_targets", "state_dim"},
                  {"share_other", "tie_priors", "a"}, "params.layout")
    try:
        layout = ParamLayout(family=_enum(PolicyFamily, spec["family"],
                                          "params.family"),
                             n_targets=int(lay["n_targets"]),
                             state_dim=int(lay["state_dim"]),
                             share_other=bool(lay.get("share_other", False)),
                             tie_priors=bool(lay.get("tie_priors", False)),
                             a=int(lay.get("a", 0)))
        phi = np.asarray(spec["phi"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"params: {exc}") from None
    return layout.build(phi), layout
