"""Exception types shared across the package."""

from __future__ import annotations


class TablescoutError(Exception):
    """Base class for all package-specific errors."""


class CorpusError(TablescoutError):
    """Malformed or unreadable corpus input (files, queries, gold annotations)."""


class ConfigError(TablescoutError):
    """Invalid command-line input: a flag, backend spec or source label, or a parameter out of range."""


class BackendError(TablescoutError):
    """A model service call failed or replied malformed, or a persisted artifact
    or a vector came from another backend than the one configured. Only an
    HTTP transport error, 429 or 5xx status is retried, in three attempts at
    most."""


class SelectionParseError(TablescoutError):
    """The selection response did not contain a usable JSON group structure."""
