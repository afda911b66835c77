"""Single structured configuration document with embedded defaults.

Every tunable in the workbench lives in one nested dictionary; a config
file (JSON) and repeatable ``key=value`` overrides are applied on top.
Builder helpers turn sections into the typed configs the modules consume.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Dict, Optional, Sequence

from .controller import PpoConfig, RewardConfig
from .rates import (Bb84Config, CowConfig, E91Config, FiniteKeyConfig,
                    LinkParams, ProtocolConfig)
from .tcn import TcnConfig

DEFAULTS: Dict[str, Any] = {
    "link": {
        "alpha_db_per_km": 0.2,
        "distance_km": 50.0,
        "eta_det": 0.2,
        "y0": 5e-06,
        "e_d": 0.015,
        "e0": 0.5,
        "f_rep": 2.5e8,
        "theta": None,
    },
    "protocol": {
        "kind": "bb84",
        "q": 0.5,
        "f_ec": 1.16,
        "bb84": {"mu_s": 0.5, "mu_w": 0.1, "p_s": 0.8},
        "e91": {"v_source": 0.98},
        "cow": {"alpha_sq": 0.5, "monitor_fraction": 0.1},
        "finite_key": {"n_block": 1e6, "epsilon": 1e-10},
    },
    "channel": {
        "n_pulses": 1_000_000,
        "abort_qber": 0.11,
        "block_seconds": 1.0,
    },
    "tcn": {
        "layers": 4,
        "dilations": [1, 2, 4, 8],
        "kernel": 3,
        "hidden": 16,
        "window": 32,
        "lr": 3e-3,
        "epochs": 60,
        "batch_size": 64,
    },
    "ppo": {
        "gamma": 0.9,
        "clip_eps": 0.2,
        "lr": 3e-4,
        "epochs": 4,
        "rollout": 256,
        "minibatch": 64,
        "entropy_weight": 0.01,
        "log_std_init": -0.7,
        "hidden": [64, 64],
    },
    "reward": {
        "w_rate": 1.0,
        "w_err": 0.5,
        "qber_ref": 0.11,
        "abort_penalty": 1.0,
    },
    "loop": {
        "warmup": 100,
    },
    "train": {
        "tcn_scenarios": ["nominal", "sine-drift", "noise-sweep"],
        "tcn_blocks": 500,
        "ppo_updates": 300,
        "ppo_scenarios": ["noise-sweep", "splice-3db"],
        "ppo_blocks": 600,
    },
}


class OverrideError(KeyError):
    """An override referenced an unknown configuration key."""


def default_config() -> Dict[str, Any]:
    return copy.deepcopy(DEFAULTS)


def load_config(path: Optional[str]) -> Dict[str, Any]:
    """Defaults overlaid with a JSON document (sections may be partial)."""
    cfg = default_config()
    if path is None:
        return cfg
    with open(path) as fh:
        overlay = json.load(fh)
    _merge(cfg, overlay, prefix="")
    return cfg


def _merge(base: Dict[str, Any], overlay: Dict[str, Any], prefix: str) -> None:
    for key, val in overlay.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise OverrideError(f"unknown configuration key {path!r}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            _merge(base[key], val, prefix=path + ".")
        else:
            base[key] = val


def apply_overrides(cfg: Dict[str, Any], pairs: Sequence[str]) -> Dict[str, Any]:
    """Apply repeatable ``section.key=value`` overrides in place."""
    for pair in pairs:
        if "=" not in pair:
            raise OverrideError(f"override must look like key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        node = cfg
        parts = key.strip().split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise OverrideError(f"unknown configuration key {key!r}")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise OverrideError(f"unknown configuration key {key!r}")
        node[leaf] = _coerce(raw.strip(), node[leaf])
    return cfg


def _coerce(raw: str, current: Any) -> Any:
    if raw.lower() in ("null", "none"):
        return None
    if isinstance(current, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(current, int) and not isinstance(current, bool):
        try:
            return int(raw)
        except ValueError:
            return int(float(raw))
    if isinstance(current, float) or current is None:
        try:
            return float(raw)
        except ValueError:
            return raw
    if isinstance(current, list):
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = [_coerce(x, current[0] if current else 0.0) for x in raw.split(",")]
        if not isinstance(val, list):
            raise OverrideError(f"expected a list value, got {raw!r}")
        return val
    return raw


def config_json(cfg: Dict[str, Any]) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


# -- typed builders -------------------------------------------------------

def make_link(cfg: Dict[str, Any]) -> LinkParams:
    c = cfg["link"]
    return LinkParams(
        alpha_db_per_km=float(c["alpha_db_per_km"]),
        distance_km=float(c["distance_km"]),
        eta_det=float(c["eta_det"]),
        y0=float(c["y0"]),
        e_d=float(c["e_d"]),
        e0=float(c["e0"]),
        f_rep=float(c["f_rep"]),
        theta=None if c["theta"] is None else float(c["theta"]),
    )


def make_protocol(cfg: Dict[str, Any], kind: Optional[str] = None) -> ProtocolConfig:
    c = cfg["protocol"]
    return ProtocolConfig(
        kind=kind or c["kind"],
        q=float(c["q"]),
        f_ec=float(c["f_ec"]),
        bb84=Bb84Config(**{k: float(v) for k, v in c["bb84"].items()}),
        e91=E91Config(v_source=float(c["e91"]["v_source"])),
        cow=CowConfig(**{k: float(v) for k, v in c["cow"].items()}),
        finite_key=FiniteKeyConfig(n_block=float(c["finite_key"]["n_block"]),
                                   epsilon=float(c["finite_key"]["epsilon"])),
    )


def make_tcn_config(cfg: Dict[str, Any]) -> TcnConfig:
    c = cfg["tcn"]
    return TcnConfig(
        layers=int(c["layers"]),
        dilations=tuple(int(d) for d in c["dilations"]),
        kernel=int(c["kernel"]),
        hidden=int(c["hidden"]),
        window=int(c["window"]),
        lr=float(c["lr"]),
        epochs=int(c["epochs"]),
        batch_size=int(c["batch_size"]),
    )


def make_ppo_config(cfg: Dict[str, Any]) -> PpoConfig:
    c = cfg["ppo"]
    return PpoConfig(
        gamma=float(c["gamma"]),
        clip_eps=float(c["clip_eps"]),
        lr=float(c["lr"]),
        epochs=int(c["epochs"]),
        rollout=int(c["rollout"]),
        minibatch=int(c["minibatch"]),
        entropy_weight=float(c["entropy_weight"]),
        log_std_init=float(c["log_std_init"]),
        hidden=tuple(int(h) for h in c["hidden"]),
    )


def make_reward_config(cfg: Dict[str, Any], skr_ref: float) -> RewardConfig:
    c = cfg["reward"]
    return RewardConfig(
        w_rate=float(c["w_rate"]),
        w_err=float(c["w_err"]),
        skr_ref=float(skr_ref),
        qber_ref=float(c["qber_ref"]),
        abort_penalty=float(c["abort_penalty"]),
    )
