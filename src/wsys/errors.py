"""Error types shared across the package.

Two failure modes are distinguished everywhere:

* :class:`ParseError` -- the input text could not be understood at all
  (malformed notation, non-bijective one-line image, out-of-range point).
* :class:`DomainError` -- the input was well-formed but violates a
  precondition of the requested operation (pivoting non-interlacing
  cycles, deleting a coloop, exceeding the reduction cap, ...).

:class:`InternalError` marks a failed internal consistency check: a bug,
never bad input.  Unlike ``assert`` it still fires under ``python -O``.

The command line maps them to distinct exit codes.
"""

import re


class ParseError(ValueError):
    """Malformed input text."""


class DomainError(ValueError):
    """Structurally valid input outside an operation's domain."""


class InternalError(RuntimeError):
    """An internal consistency check failed."""


def is_uint(text: str) -> bool:
    """True iff text is a nonempty run of ASCII digits.  ``str.isdigit``
    also accepts characters such as "²" that ``int`` rejects."""
    return re.fullmatch(r"[0-9]+", text) is not None


def bounded_uint(text: str, limit: int) -> int:
    """Value of a run of ASCII digits, or limit + 1 when the run is longer
    than the limit's: such a run is never converted, so a huge number in
    input text costs nothing beyond reading it."""
    digits = text.lstrip("0")
    if len(digits) > len(str(limit)):
        return limit + 1
    return int(digits or "0")
