"""The JSON config builder that chooses by type on every value: ``_coerce`` looks up each
value's field type and formats each value's path as it passes it down. It is the reference
that ``tests/test_config.py`` compares ``splitmev.config.build``, ``from_config`` and
``SimConfig.from_dict`` against: the same object, or the same exception class and message.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from splitmev.config import ConfigError, DomainError, require
from splitmev.failure_models import _FAMILIES
from splitmev.sequencer_sim import SimConfig

# JSON types accepted for each field type; a bool is never a number.
_JSON = {float: ((int, float), "expected a number"), int: (int, "expected an integer"),
         str: (str, "expected a string"), dict: (dict, "expected an object")}


def _fields(cls) -> dict:  # name -> (type, required: no default of either kind)
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is f.default_factory is MISSING) for f in fields(cls)}


def _coerce(tp, value, path: str):
    if tp in _JSON:
        kinds, msg = _JSON[tp]
        require(isinstance(value, kinds) and not isinstance(value, bool), path, msg)
        try:
            if tp is str:
                value.encode()  # a lone surrogate, which a JSON escape can make, cannot be written out
            return float(value) if tp is float else value
        except OverflowError:
            raise ConfigError(f"{path}: number out of range") from None
        except UnicodeEncodeError:
            raise ConfigError(f"{path}: not valid Unicode text") from None
    if is_dataclass(tp):
        return build(tp, value, path)
    item = get_args(tp)[0]  # of tuple[X, ...] or X | None, the only other field types
    if get_origin(tp) is tuple:
        require(isinstance(value, (list, tuple)), path, "expected a list")  # a tuple from Python callers
        return tuple(_coerce(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    return None if value is None else _coerce(item, value, path)


def build(cls, data, path: str = "config"):
    """Build dataclass ``cls`` from the JSON value at ``path``; only the top
    level may carry ``version``. The dataclass's own checks name ``path`` too."""
    require(isinstance(data, dict), path, "expected an object")
    spec = _fields(cls)
    for key in data:
        require(key in spec or (key == "version" and path == "config"), f"{path}.{key}", "unknown field")
    kwargs = {}
    for name, (tp, required) in spec.items():
        if name in data:
            kwargs[name] = _coerce(tp, data[name], f"{path}.{name}")
        elif required:
            raise ConfigError(f"{path}.{name}: required")
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # a field check's message starts with the field name
        raise ConfigError(f"{path}.{exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def from_config(family: str, parameters: dict):
    """``failure_models.from_config``, its message built on every call."""
    require(family in _FAMILIES, "config.model.family", f"unknown {family!r}; known: {sorted(_FAMILIES)}")
    return build(_FAMILIES[family], parameters, "config.model.parameters")


def sim_config_from_dict(d) -> SimConfig:
    """``SimConfig.from_dict`` through this module's ``build``."""
    if isinstance(d, dict) and isinstance(d.get("bots"), list):
        bots = [{"name": f"bot{i}", **b} if isinstance(b, dict) else b for i, b in enumerate(d["bots"])]
        d = {**d, "bots": bots}
    return build(SimConfig, d)
