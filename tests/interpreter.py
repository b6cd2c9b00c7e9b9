"""The interpreter flags a test passes to the Python subprocess it starts."""

from __future__ import annotations

import sys


def interpreter_flags(config) -> list[str]:
    """This run's ``-X dev`` and warning filters as interpreter flags, so a
    warning a subprocess raises fails it as it would fail a test.

    The filters are the interpreter's own (``sys.warnoptions``) and pytest's
    ``-W`` options. A filter naming a category by module path, such as
    ``pytest.PytestUnraisableExceptionWarning``, is left out: an interpreter
    resolves ``-W`` before its site packages are importable, and only pytest
    raises that warning.
    """
    flags = ["-X", "dev"] if sys.flags.dev_mode else []
    for option in [*sys.warnoptions, *(config.getoption("pythonwarnings") or [])]:
        category = (option.split(":") + ["", "", ""])[2]
        if "." not in category:
            flags.append(f"-W{option}")
    return flags
