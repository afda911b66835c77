"""Single structured configuration document with embedded defaults.

Every tunable in the workbench lives in one nested dictionary; a config
file (JSON) and repeatable ``key=value`` overrides are applied on top.
The ``link``, ``protocol``, ``tcn``, ``ppo`` and ``reward`` sections are
read off the typed configs' own defaults, and builder helpers turn them
back into the typed configs the modules consume.
"""

from __future__ import annotations

import copy
import inspect
import json
from dataclasses import fields, is_dataclass
from typing import Any, Dict, Optional, Sequence

from .channel import DEFAULT_ABORT_QBER, DEFAULT_N_PULSES
from .controller import PpoConfig, RewardConfig
from .loop import BLOCK_SECONDS, WARMUP_BLOCKS, train_policy
from .rates import LinkParams, ProtocolConfig
from .tcn import TcnConfig


def _section(obj: Any, skip: Sequence[str] = ()) -> Dict[str, Any]:
    """A typed config's defaults as a config section: nested configs become
    sub-sections and tuples become lists."""
    def plain(val: Any) -> Any:
        if is_dataclass(val):
            return _section(val)
        return list(val) if isinstance(val, tuple) else val

    return {f.name: plain(getattr(obj, f.name)) for f in fields(obj) if f.name not in skip}


_TRAIN_POLICY = inspect.signature(train_policy).parameters

# The typed configs, the module constants and ``train_policy``'s arguments
# own their defaults; ``TcnConfig.features`` and ``RewardConfig.skr_ref``
# are fixed by the code, not configured.
DEFAULTS: Dict[str, Any] = {
    "link": _section(LinkParams()),
    "protocol": _section(ProtocolConfig()),
    "channel": {
        "n_pulses": DEFAULT_N_PULSES,
        "abort_qber": DEFAULT_ABORT_QBER,
        "block_seconds": BLOCK_SECONDS,
    },
    "tcn": _section(TcnConfig(), skip=("features",)),
    "ppo": _section(PpoConfig()),
    "reward": _section(RewardConfig(), skip=("skr_ref",)),
    "loop": {
        "warmup": WARMUP_BLOCKS,
    },
    "train": {
        "tcn_scenarios": ["nominal", "sine-drift", "noise-sweep"],
        "tcn_blocks": 500,
        "ppo_updates": _TRAIN_POLICY["updates"].default,
        "ppo_scenarios": list(_TRAIN_POLICY["scenarios"].default),
        "ppo_blocks": _TRAIN_POLICY["blocks_per_episode"].default,
    },
}


class OverrideError(KeyError):
    """An override referenced an unknown configuration key or gave a value
    its key cannot take."""


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
        node[leaf] = _coerce(key, raw.strip(), node[leaf])
    return cfg


def _coerce(key: str, raw: str, current: Any) -> Any:
    """``raw`` read as the type of the key's current value: an int leaf
    takes an integral number (``1e5`` too), a float or ``None`` leaf any
    number; a value that does not fit is an :class:`OverrideError` naming
    the key."""
    if raw.lower() in ("null", "none"):
        return None
    if isinstance(current, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(current, int):
        try:
            return int(raw)
        except ValueError:
            pass
        val = _number(key, raw)
        if not val.is_integer():
            raise OverrideError(f"configuration key {key!r} needs an integer, got {raw!r}")
        return int(val)
    if isinstance(current, float) or current is None:
        return _number(key, raw)
    if isinstance(current, list):
        proto = current[0] if current else 0.0
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            return [_coerce(key, x, proto) for x in raw.split(",")]
        if not isinstance(val, list):
            raise OverrideError(f"expected a list value, got {raw!r}")
        for x in val:
            if not _fits(x, proto):
                raise OverrideError(
                    f"configuration key {key!r} needs {type(proto).__name__} items, got {x!r}")
        return val
    return raw


def _fits(val: Any, proto: Any) -> bool:
    """Whether a JSON value can stand for one of ``proto``'s type: an int
    takes an integral number, a float any number."""
    if isinstance(val, bool) or not isinstance(proto, (int, float)):
        return type(val) is type(proto)
    if isinstance(proto, int):
        return isinstance(val, int) or (isinstance(val, float) and val.is_integer())
    return isinstance(val, (int, float))


def _number(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise OverrideError(f"configuration key {key!r} needs a number, got {raw!r}") from None


def config_json(cfg: Dict[str, Any]) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


# -- typed builders -------------------------------------------------------

def _cast(key: str, val: Any, default: Any) -> Any:
    if is_dataclass(default):
        if not isinstance(val, dict):
            raise ValueError(f"configuration key {key!r} must be a section")
        return _build(type(default), val, prefix=key + ".")
    if isinstance(default, tuple):
        if not isinstance(val, (list, tuple)):
            raise ValueError(f"configuration key {key!r} has unreadable value {val!r}")
        return tuple(_cast(key, v, default[0]) for v in val)
    if default is None and val is None:
        return None
    kind = float if default is None else type(default)
    if kind is int and isinstance(val, float) and not val.is_integer():
        raise ValueError(f"configuration key {key!r} needs an integer, got {val!r}")
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise ValueError(f"configuration key {key!r} has unreadable value {val!r}") from None


def _build(cls, section: Dict[str, Any], prefix: str = "", **fixed: Any):
    """Typed config from a section, each value cast to the type of the
    field's default (a ``None`` default takes a float); ``fixed`` fields
    are passed as given."""
    default = cls()
    return cls(**fixed, **{
        f.name: _cast(prefix + f.name, section[f.name], getattr(default, f.name))
        for f in fields(cls) if f.name in section and f.name not in fixed})


def make_link(cfg: Dict[str, Any]) -> LinkParams:
    return _build(LinkParams, cfg["link"], "link.")


def make_protocol(cfg: Dict[str, Any], kind: Optional[str] = None) -> ProtocolConfig:
    return _build(ProtocolConfig, cfg["protocol"], "protocol.",
                  **({"kind": kind} if kind else {}))


def make_tcn_config(cfg: Dict[str, Any]) -> TcnConfig:
    return _build(TcnConfig, cfg["tcn"], "tcn.")


def make_ppo_config(cfg: Dict[str, Any]) -> PpoConfig:
    return _build(PpoConfig, cfg["ppo"], "ppo.")


def make_reward_config(cfg: Dict[str, Any], skr_ref: float) -> RewardConfig:
    return _build(RewardConfig, cfg["reward"], "reward.", skr_ref=float(skr_ref))
