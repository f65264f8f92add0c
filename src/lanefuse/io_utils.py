"""File and JSON helpers: atomic writes, canonical JSON bytes, and typed
parsing of JSON objects against their dataclasses."""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import tempfile
import types
import typing
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = ["atomic_write_bytes", "atomic_write_text", "write_csv", "dumps", "from_json",
           "require_finite"]


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _to_json(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(obj) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, floats at repr
    precision. Dataclasses (at any depth) go through ``dataclasses.asdict``
    and numpy arrays through ``tolist``. NaN and +-inf raise ValueError, so
    no output file holds ``NaN`` or ``Infinity``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_to_json).encode("utf-8")


def require_finite(obj, names=None, error=ValueError) -> None:
    """Raise ``error`` naming the first of the dataclass ``obj``'s fields
    ``names`` (default: all) whose value is set but NaN or +-inf."""
    for name in names or [f.name for f in dataclasses.fields(obj)]:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise error(f"{name} must be finite, got {value!r}")


def from_json(tp, obj, name: str):
    """``obj``, a decoded JSON value, checked against the annotation ``tp``.

    ``tp`` is a dataclass, ``tuple[X, ...]``, a fixed-length ``tuple[X, Y]``,
    ``dict[str, X]``, ``X | None`` or a plain class. A dataclass is built
    from a JSON object whose unknown keys and missing required keys are
    errors; a missing field with a default takes it. A float accepts a JSON
    int and keeps its value, and rejects NaN, +-Infinity and ints beyond the
    float range; no number takes a boolean. Every error is a ValueError
    naming the dotted path under ``name``, e.g. ``config.controller.dt:
    expected float, got str``. A ValueError from the dataclass's own checks,
    whose message starts with the field name, is prefixed with the object's
    path.
    """
    return _reader(tp)(obj, name)


@functools.cache
def _reader(tp) -> Callable[[Any, str], Any]:
    """The checking reader of annotation ``tp``, built once per annotation;
    a dataclass's type hints are resolved here, once."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        read_list = _reader(list)
        variadic = len(args) == 2 and args[1] is Ellipsis
        items = tuple(_reader(a) for a in args[:1 if variadic else None])

        def read_tuple(obj, name):
            obj = read_list(obj, name)
            if not variadic and len(obj) != len(items):
                raise ValueError(f"{name}: expected {len(items)} values, got {len(obj)}")
            readers = itertools.repeat(items[0]) if variadic else items
            return tuple(read(v, f"{name}[{i}]") for i, (read, v) in enumerate(zip(readers, obj)))
        return read_tuple
    if origin is dict:
        read_dict, value = _reader(dict), _reader(args[1])
        return lambda obj, name: {k: value(v, f"{name}.{k}")
                                  for k, v in read_dict(obj, name).items()}
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        read_inner = _reader(inner)
        return lambda obj, name: None if obj is None else read_inner(obj, name)
    if dataclasses.is_dataclass(tp):
        hints, read_dict = typing.get_type_hints(tp), _reader(dict)
        fields = [(f.name, _reader(hints[f.name]),
                   f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
                  for f in dataclasses.fields(tp)]

        def read_dataclass(obj, name):
            obj = read_dict(obj, name)
            unknown = obj.keys() - hints.keys()
            if unknown:
                raise ValueError(f"{name}.{min(unknown)}: unknown field")
            kwargs = {}
            for key, read_field, required in fields:
                if key in obj:
                    kwargs[key] = read_field(obj[key], f"{name}.{key}")
                elif required:
                    raise ValueError(f"{name}.{key}: missing")
            try:
                return tp(**kwargs)
            except ValueError as exc:
                raise ValueError(f"{name}.{exc}") from None
        return read_dataclass
    accepted = (int, float) if tp is float else (tp,)

    def read_leaf(obj, name):
        if type(obj) not in accepted and (isinstance(obj, bool) or not isinstance(obj, accepted)):
            raise ValueError(f"{name}: expected {tp.__name__}, got {type(obj).__name__}")
        if tp is float:
            try:
                finite = math.isfinite(obj)
            except OverflowError as exc:  # an int beyond the float range
                raise ValueError(f"{name}: {exc}") from None
            if not finite:
                raise ValueError(f"{name}: expected a finite float, got {obj!r}")
        return obj
    return read_leaf
