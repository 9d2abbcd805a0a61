"""Exception hierarchy shared by all emodub modules.

The CLI maps these onto its exit-code contract: usage problems exit 2,
data/schema problems exit 3, numeric failures exit 4.
"""


class EmodubError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(EmodubError, ValueError):
    """A value violates a declared schema (wrong dimension, bad field, duplicate id)."""


class ShapeError(SchemaError):
    """Matrix shapes do not agree for a numeric operation."""


class FormatError(SchemaError):
    """A serialized file is malformed (bad magic, version, truncation)."""


class ArgumentError(EmodubError, ValueError):
    """An argument is outside its documented domain."""


class ConfigError(EmodubError, ValueError):
    """A layer or run configuration is invalid (e.g. a parameter size below 1)."""


class StateError(EmodubError, RuntimeError):
    """An operation was applied to an object in the wrong pipeline stage."""


class NumericError(EmodubError, ArithmeticError):
    """A numeric computation produced a non-finite result."""
