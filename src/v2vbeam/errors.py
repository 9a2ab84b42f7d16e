"""Exception hierarchy shared across the package."""

import copyreg


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


class DegenerateRangeError(V2VBeamError):
    """All latitudes (or longitudes) in a fitting set are equal."""

    def __init__(self, field: str):
        self.field = field
        super().__init__(f"degenerate {field} range: min == max")


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
