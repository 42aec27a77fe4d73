"""One builder for JSON configs: the fields of a frozen dataclass give the
allowed keys, the required keys and the type of each value, and the check
and conversion of each field's value is chosen once per class. One reader for
every input file, and one CSV row reader, ``read_rows``: a dataclass's fields
give the header and the type of each cell. ``check_address`` is the address
rule of those rows and of traces. The error classes of the CLI's exit
contract (2 for ``DomainError``, ``SchemaError`` and ``TraceParseError``, 3 for
``NoRootError``), which the modules that raise them re-export: ``cli.main``
catches them from here alone."""

from __future__ import annotations

import csv
import functools
import io
import os
import re
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

# JSON types accepted for each field type; a bool is never a number.
_JSON = {float: ((int, float), "expected a number"), int: (int, "expected an integer"),
         str: (str, "expected a string"), dict: (dict, "expected an object")}
_ADDR_RE = re.compile(r"0x[0-9a-f]{40}")  # applied with fullmatch, to a lowercased address
# the parser of each CSV cell whose field is an int or a bool; a field of any other type
# but str (a date) is parsed by that type's fromisoformat
_PARSE = {int: int, bool: lambda cell: cell.strip().lower() in ("1", "true", "yes")}


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ConfigError(DomainError):
    """Invalid configuration; the message starts with the offending field path."""


class SchemaError(ValueError):
    """Malformed record row or CSV header."""


class TraceParseError(ValueError):
    """Malformed trace frame; message carries the path to the bad frame."""


class NoRootError(RuntimeError):
    """A numerical anomaly: a residual nonpositive at q = D * 1e-9, so the root
    degenerates to 0; a threshold, expected profit or simulated block number that
    is not finite; or a simulated profit that is not finite."""


def read_input(path, error) -> tuple[str, bytes]:
    """The text of the input file at ``path``, decoded as strict UTF-8, and
    its bytes, read once; a file that cannot be read or decoded raises
    ``error`` naming the path."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:  # one read of fstat's size and a byte more, which a file of that size leaves unfilled
            size = os.fstat(fd).st_size
            raw = os.read(fd, size + 1)
            while len(raw) > size:  # longer than fstat said (a pipe, a growing file): read on to EOF
                size = len(raw)
                raw += os.read(fd, size + 1)
        finally:
            os.close(fd)
        return raw.decode("utf-8"), raw
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc  # an OSError's text names the path


def require(cond: bool, path: str, msg: str):
    """Raise ``ConfigError`` for the field at ``path`` unless ``cond`` holds."""
    if not cond:
        raise ConfigError(f"{path}: {msg}")


@functools.cache
def _fields(cls) -> dict:  # name -> (type, required: no default of either kind)
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is f.default_factory is MISSING) for f in fields(cls)}


@functools.cache
def _schema(cls, top: bool) -> tuple:
    """The keys allowed in a ``cls`` object (``version`` too at the top level), and each
    field's name, coercer and whether it is required."""
    spec = _fields(cls)
    coercers = [(name, _coercer(tp, f".{name}"), required) for name, (tp, required) in spec.items()]
    return (spec.keys() | {"version"} if top else spec.keys()), coercers


def check_address(value, name: str) -> str:
    """``str(value)`` lowercased, checked as an address: ``0x`` and 40 hex digits, either case."""
    address = str(value).lower()
    if not _ADDR_RE.fullmatch(address):
        raise SchemaError(f"bad {name} {value!r}")
    return address


def read_rows(path, text: str, cls) -> list:
    """The ``cls`` of each row of ``text``, the decoded content of the CSV file at
    ``path`` whose header is ``cls``'s fields. Errors name the path and the line,
    numbered as ``csv.DictReader`` numbers them (blank rows are not counted)."""
    spec = _fields(cls)
    header = list(spec)
    parsers = [(i, _PARSE.get(tp) or tp.fromisoformat) for i, (tp, _) in enumerate(spec.values()) if tp is not str]
    reader = csv.reader(io.StringIO(text, newline=""))
    items = []
    try:
        got = next(reader, None)
        if got != header:
            raise SchemaError(f"{path}: expected header {header}, got {got}")
        for line_no, row in enumerate(filter(None, reader), start=2):
            if len(row) != len(header):
                raise SchemaError(f"{path} line {line_no}: expected {len(header)} cells")
            try:
                for i, parse in parsers:  # in place: cheaper than a new list of cells
                    row[i] = parse(row[i])
                items.append(cls(*row))
            except ValueError as exc:  # a bad cell, or a check of cls (SchemaError)
                raise SchemaError(f"{path} line {line_no}: {exc}") from exc
    except csv.Error as exc:  # a cell over csv's field size limit (on Python 3.10, also a NUL)
        raise SchemaError(f"{path} line {reader.line_num}: {exc}") from exc
    return items


def _coercer(tp, place: str):
    """The check and conversion of a JSON value of type ``tp``, chosen once per field. An error
    names the value by ``place``, its path below the value that holds it (``.fee``, or ``""``)."""
    if tp in _JSON:
        kinds, msg = _JSON[tp]

        def coerce(value):
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ConfigError(f"{place}: {msg}")
            try:
                if tp is str:
                    value.encode()  # a lone surrogate, which a JSON escape can make, cannot be written out
                return float(value) if tp is float else value
            except OverflowError:
                raise ConfigError(f"{place}: number out of range") from None
            except UnicodeEncodeError:
                raise ConfigError(f"{place}: not valid Unicode text") from None
        return coerce
    if is_dataclass(tp):
        return functools.partial(build, tp, path=place)
    if get_origin(tp) is not tuple:  # X | None, the only other field type but tuple[X, ...]
        item = _coercer(get_args(tp)[0], place)
        return lambda value: None if value is None else item(value)
    item = _coercer(get_args(tp)[0], "")

    def coerce_tuple(value):
        if not isinstance(value, (list, tuple)):  # a tuple from Python callers
            raise ConfigError(f"{place}: expected a list")
        items = []
        try:
            for v in value:
                items.append(item(v))
        except ConfigError as exc:
            raise ConfigError(f"{place}[{len(items)}]{exc}") from exc.__cause__
        return tuple(items)
    return coerce_tuple


def build(cls, data, path: str = "config"):
    """Build dataclass ``cls`` from the JSON value at ``path``; only the top
    level may carry ``version``. The dataclass's own checks name ``path`` too.
    A nested value's path is its place below its parent, such as ``.pool``."""
    try:
        if not isinstance(data, dict):
            raise ConfigError(": expected an object")
        keys, schema = _schema(cls, path == "config")
        if not data.keys() <= keys:  # then name the first unknown key, in document order
            raise ConfigError(f".{next(key for key in data if key not in keys)}: unknown field")
        kwargs = {}
        for name, coerce, required in schema:
            if name in data:
                kwargs[name] = coerce(data[name])
            elif required:
                raise ConfigError(f".{name}: required")
        try:
            return cls(**kwargs)
        except ConfigError as exc:  # a field check's message starts with the field name
            raise ConfigError(f".{exc}") from exc
        except DomainError as exc:
            raise ConfigError(f": {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}{exc}") from exc.__cause__
