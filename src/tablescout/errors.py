"""Exception types shared across the package."""

from __future__ import annotations


class TablescoutError(Exception):
    """Base class for all package-specific errors."""


class CorpusError(TablescoutError):
    """Malformed or unreadable corpus input (files, queries, gold annotations)."""


class ConfigError(TablescoutError):
    """Invalid command-line input: a flag, backend spec or source label, or a parameter out of range."""


class BackendError(TablescoutError):
    """A model service call failed or replied malformed. Only an HTTP transport
    error, 429 or 5xx status is retried, in three attempts at most."""


class BackendMismatchError(TablescoutError):
    """A persisted artifact was built with a different backend than the one configured."""


class SelectionParseError(TablescoutError):
    """The selection response did not contain a usable JSON group structure."""
