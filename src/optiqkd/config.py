"""Single structured configuration document with embedded defaults.

Every tunable in the workbench lives in one nested dictionary; a config
file (JSON) and repeatable ``key=value`` overrides are applied on top.
Each section is read off the defaults of its typed config in
:data:`SECTIONS`, and :func:`typed` turns it back into that config. A
``--config`` value and a ``--set`` value go through the same cast to the
type of the field's default.
"""

from __future__ import annotations

import copy
import json
from dataclasses import fields, is_dataclass
from typing import Any, Dict, Optional, Sequence

from . import nn
from .channel import ChannelConfig
from .controller import PpoConfig, RewardConfig
from .loop import LoopConfig, TrainConfig
from .rates import LinkParams, ProtocolConfig
from .tcn import TcnConfig

SECTIONS = {
    "link": LinkParams,
    "protocol": ProtocolConfig,
    "channel": ChannelConfig,
    "tcn": TcnConfig,
    "ppo": PpoConfig,
    "reward": RewardConfig,
    "loop": LoopConfig,
    "train": TrainConfig,
}
# Fields the caller sets, not the document: ``--protocol`` picks the kind.
_NOT_CONFIGURED = {"protocol": ("kind",)}


def _plain(val: Any) -> Any:
    """A typed value as a document value: a config becomes a section and a
    tuple a list."""
    if is_dataclass(val):
        return _section(val)
    return list(val) if isinstance(val, tuple) else val


def _section(obj: Any, skip: Sequence[str] = ()) -> Dict[str, Any]:
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj) if f.name not in skip}


DEFAULTS: Dict[str, Any] = {
    name: _section(cls(), skip=_NOT_CONFIGURED.get(name, ())) for name, cls in SECTIONS.items()}


class OverrideError(ValueError):
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
        try:
            overlay = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(overlay, dict):
        raise ValueError(f"config file {path} must hold a JSON object, "
                         f"not {type(overlay).__name__}")
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
    """Apply repeatable ``section.key=value`` overrides in place. The value
    is read as JSON (a bare word as a string; for a list key, a comma list
    as a list) and cast as :func:`typed` casts it, so an integral ``1e5``
    sets an int key; a value the key cannot take is an
    :class:`OverrideError` naming the key."""
    for pair in pairs:
        if "=" not in pair:
            raise OverrideError(f"override must look like key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        *path, leaf = key.split(".")
        node = cfg
        for part in path:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or leaf not in node or isinstance(node[leaf], dict):
            raise OverrideError(f"unknown configuration key {key!r}")
        default = SECTIONS[path[0]]()
        for part in [*path[1:], leaf]:
            default = getattr(default, part)
        try:
            node[leaf] = _plain(_cast(key, _parse(raw.strip(), default), default))
        except ValueError as exc:
            raise OverrideError(str(exc)) from None
    return cfg


def _parse(raw: str, default: Any) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        if isinstance(default, tuple):
            return [_parse(item.strip(), default[0]) for item in raw.split(",")]
        return raw


def config_json(cfg: Dict[str, Any]) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


# -- typed configs --------------------------------------------------------

def _cast(key: str, val: Any, default: Any) -> Any:
    """``val`` as the type of ``default``: a config takes a section, a tuple
    a list, an int an integral number, a float any number, a string a
    string; a number may also be written as a string."""
    if is_dataclass(default):
        return _build(type(default), val, prefix=key + ".")
    if isinstance(default, tuple):
        if not isinstance(val, (list, tuple)):
            raise ValueError(f"configuration key {key!r} has unreadable value {val!r}")
        return tuple(_cast(key, v, default[0]) for v in val)
    kind = type(default)
    if kind is int:
        return nn.as_int(val, f"configuration key {key!r}")
    try:
        if isinstance(val, bool) or (kind is str and not isinstance(val, str)):
            raise TypeError
        return kind(val)
    except (TypeError, ValueError):
        raise ValueError(f"configuration key {key!r} has unreadable value {val!r}") from None


def _build(cls, section: Any, prefix: str, **fixed: Any):
    """Typed config from a section, each value cast to the type of the
    field's default; ``fixed`` fields are passed as given. A value out of
    the config's range is refused naming the section."""
    if not isinstance(section, dict):
        raise ValueError(f"configuration key {prefix[:-1]!r} must be a section")
    default = cls()
    values = {f.name: _cast(prefix + f.name, section[f.name], getattr(default, f.name))
              for f in fields(cls) if f.name in section and f.name not in fixed}
    try:
        return cls(**fixed, **values)
    except ValueError as exc:
        raise type(exc)(f"{prefix[:-1]}: {exc}") from None


def typed(cfg: Dict[str, Any], name: str, **fixed: Any) -> Any:
    """Section ``name`` of ``cfg`` as its typed config, checked by the
    config's own range checks; ``fixed`` gives the fields the document does
    not hold (``protocol`` takes ``kind``)."""
    return _build(SECTIONS[name], cfg[name], name + ".", **fixed)
