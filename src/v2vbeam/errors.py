"""Exception hierarchy shared across the package, and the typed reader of
config documents, whose every error is a ConfigError."""

import contextlib
import copyreg
import dataclasses
import types
import typing
from pathlib import Path


class V2VBeamError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Exception's default reduce calls cls(*args), but several subclasses
        # take other constructor arguments than their one-message args; rebuild
        # with __new__ and restore the attributes instead, so an error raised in
        # a worker process arrives as the same type with the same message
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class OutOfRangeError(V2VBeamError):
    """A latitude or longitude lies outside decimal-degree bounds."""

    def __init__(self, field: str, value: float):
        self.field = field
        self.value = value
        super().__init__(f"{field} out of range: {value!r}")


class DegenerateRangeError(V2VBeamError, ValueError):
    """All latitudes (or longitudes) in a fitting set are equal, or a given
    range is empty or not finite (``reason`` says how). It is a ValueError too,
    so ``config_section`` reports a checkpoint's range as a ConfigError."""

    def __init__(self, field: str, reason: str | None = None):
        self.field = field
        super().__init__(reason or f"degenerate {field} range: min == max")


class SchemaMismatchError(V2VBeamError):
    """CSV header does not match the dataset schema."""


class RowParseError(V2VBeamError):
    """A CSV row could not be parsed into a sample."""

    def __init__(self, line: int, reason: str):
        self.line = line
        super().__init__(f"line {line}: {reason}")


class IndexMismatchError(V2VBeamError):
    """Stored best-beam column disagrees with the argmax of the row's powers."""

    def __init__(self, line: int, stored: int, computed: int):
        self.line = line
        self.stored = stored
        self.computed = computed
        super().__init__(
            f"line {line}: stored best beam {stored} != argmax of powers {computed}"
        )


class InvalidGeometryError(V2VBeamError):
    """Link distance fell below the channel's reference distance."""


class GeometryOutOfSectorError(V2VBeamError):
    """Transmitter left the receiver array's front half-plane."""


class EmptyDatasetError(V2VBeamError):
    """An operation that needs at least one sample got an empty dataset."""


class ShapeMismatchError(V2VBeamError):
    """Tensor shapes are inconsistent with the layer specification."""


class LengthMismatchError(V2VBeamError):
    """Paired prediction/truth sequences have different lengths."""


class ZeroGroundTruthPowerError(V2VBeamError):
    """A ground-truth beam has zero received power; the power ratio is undefined."""


class CodebookMismatchError(V2VBeamError):
    """Checkpoint and dataset disagree on the codebook size."""


class ConfigError(V2VBeamError):
    """A configuration document is malformed; the message names the field."""

    def __init__(self, field: str, reason: str):
        self.field = field
        super().__init__(f"config field '{field}': {reason}")


def read_value(value, kind, where: str):
    """``value`` of a JSON document as type ``kind``, or a ConfigError naming ``where``.

    A float takes any JSON number, an int only a JSON integer, a Path a string,
    a tuple a list of its item type and a dataclass an object, read as the
    section ``where`` by ``read_config``; ``X | None`` reads as ``X``.
    """
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        kind = typing.get_args(kind)[0]
    if dataclasses.is_dataclass(kind):
        return read_config(kind, value, where)
    if typing.get_origin(kind) is tuple:
        items = typing.get_args(kind)
        size = None if items[-1] is Ellipsis else len(items)
        if not isinstance(value, list) or size not in (None, len(value)):
            length = f" of {size}" if size else ""
            raise ConfigError(where, f"expected a list{length}, got {value!r}")
        return tuple(read_value(item, items[0], where) for item in value)
    if (kind, type(value)) in ((float, int), (Path, str)):
        return kind(value)
    if type(value) is not kind:
        raise ConfigError(where, f"expected {kind.__name__}, got {value!r}")
    return value


def read_object(doc, section: str) -> dict:
    """``doc`` if it is a JSON object, else a ConfigError naming ``section``."""
    if not isinstance(doc, dict):
        raise ConfigError(section or "<root>", f"expected an object, got {doc!r}")
    return doc


def read_fields(like, doc, section: str, *names: str, **keys: str) -> dict:
    """Fields of the dataclass ``like`` (a class or an instance) read from the
    JSON object ``doc``, the config's ``section``: each of ``names`` under its
    own name and each of ``keys`` under the key given, as its declared type.
    A field left out takes ``like``'s value, and is missing if it has none.
    Any other key of ``doc`` is an error.
    """
    read_object(doc, section)
    known = {*names, *keys.values()}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{section}.{key}" if section else key, "no such field")
    kinds = typing.get_type_hints(like if isinstance(like, type) else type(like))
    values = {}
    for name, key in [*zip(names, names), *keys.items()]:
        where = f"{section}.{key}" if section else key
        if key in doc:
            values[name] = read_value(doc[key], kinds[name], where)
        elif hasattr(like, name):
            values[name] = getattr(like, name)
        else:
            raise ConfigError(where, "missing")
    return values


def read_config(cls, doc, section: str, **given):
    """``cls(**given)`` with its other fields read from ``doc`` by ``read_fields``."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in given]
    fields = read_fields(cls, doc, section, *names)
    with config_section(section, cls):
        return cls(**given, **fields)


@contextlib.contextmanager
def config_section(section: str, cls=None):
    """Re-raise a ValueError as a ConfigError naming ``section``, or naming
    ``section.field`` when a field of the dataclass ``cls`` begins its message."""
    try:
        yield
    except ValueError as exc:
        name, _, reason = str(exc).partition(" ")
        if cls is not None and name in {f.name for f in dataclasses.fields(cls)}:
            raise ConfigError(f"{section}.{name}" if section else name, reason) from exc
        raise ConfigError(section, str(exc)) from exc
