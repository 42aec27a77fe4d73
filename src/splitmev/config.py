"""One builder for JSON configs: the fields of a frozen dataclass give the
allowed keys, the required keys and the type of each value. One reader for
every input file."""

from __future__ import annotations

import functools
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .amm_core import DomainError

# JSON types accepted for each field type; a bool is never a number.
_JSON = {float: ((int, float), "expected a number"), int: (int, "expected an integer"),
         str: (str, "expected a string"), dict: (dict, "expected an object")}


class ConfigError(DomainError):
    """Invalid configuration; the message starts with the offending field path."""


def read_input(path, error) -> tuple[str, bytes]:
    """The text of the input file at ``path``, decoded as strict UTF-8, and
    its bytes, read once; a file that cannot be read or decoded raises
    ``error`` naming the path."""
    try:
        with open(path, "rb", buffering=0) as fh:  # one unbuffered readall, sized by fstat
            raw = fh.read()
        return raw.decode("utf-8"), raw
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc  # an OSError's text names the path


def require(cond: bool, path: str, msg: str):
    """Raise ``ConfigError`` for the field at ``path`` unless ``cond`` holds."""
    if not cond:
        raise ConfigError(f"{path}: {msg}")


@functools.cache
def _fields(cls) -> dict:  # name -> (type, required: no default of either kind), keyword-only fields last
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is f.default_factory is MISSING)
            for f in sorted(fields(cls), key=lambda f: f.kw_only)}


def _coerce(tp, value, path: str):
    if tp in _JSON:
        kinds, msg = _JSON[tp]
        require(isinstance(value, kinds) and not isinstance(value, bool), path, msg)
        try:
            return float(value) if tp is float else value
        except OverflowError:
            raise ConfigError(f"{path}: number out of range") from None
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
