"""Exception types shared across the package."""

from __future__ import annotations


class TablescoutError(Exception):
    """Base class for all package-specific errors."""


class CorpusError(TablescoutError):
    """Malformed or unreadable corpus input (files, queries, gold annotations)."""


class ConfigError(TablescoutError):
    """Invalid configuration (flags, config file, parameter ranges)."""


class BackendError(TablescoutError):
    """A model service call failed after the configured retries."""


class BackendMismatchError(TablescoutError):
    """A persisted artifact was built with a different backend than the one configured."""


class SelectionParseError(TablescoutError):
    """The selection response did not contain a usable JSON group structure."""
