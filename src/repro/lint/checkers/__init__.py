"""Built-in checkers.  Importing this package registers them all."""

from repro.lint.checkers.rl005_bare_print import BarePrintChecker
from repro.lint.checkers.rl006_swallowed_exceptions import (
    SwallowedExceptionChecker,
)

__all__ = [
    "BarePrintChecker",
    "SwallowedExceptionChecker",
]
