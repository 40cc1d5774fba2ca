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


def shorten(text: str, unit: str = "characters", keep: int = 10) -> str:
    """text itself when at most 4 * keep long, else its first and last
    ``keep`` characters around "..." and its length: ``999...999 (5000
    digits)`` for keep = 3.  A message that quotes input stays one short
    line however long the input is."""
    if len(text) <= 4 * keep:
        return text
    return f"{text[:keep]}...{text[-keep:]} ({len(text)} {unit})"


def shorten_int(n: int) -> str:
    """n in decimal, whole up to 20 digits (every 64-bit integer), else
    shortened: ``-99999...99999 (4000 digits)``.  A message that quotes a
    number the input chose stays one short line."""
    text = shorten(str(abs(n)), "digits", 5)
    return f"-{text}" if n < 0 else text


class _LongRun(int):
    """limit + 1 standing for a digit run longer than the limit's.  It
    prints as the run, shortened past 12 digits, so that a message about it
    quotes what was typed rather than a number nobody typed."""

    def __new__(cls, limit: int, digits: str):
        self = super().__new__(cls, limit + 1)
        self.text = shorten(digits, "digits", 3)
        return self

    def __str__(self) -> str:
        return self.text

    __repr__ = __str__


def bounded_uint(text: str, limit: int) -> int:
    """Value of a run of ASCII digits, or limit + 1 (printing as the run)
    when the run is longer than the limit's: such a run is never
    converted, so a huge number in input text costs nothing beyond reading
    it."""
    digits = text.lstrip("0")
    if len(digits) > len(str(limit)):
        return _LongRun(limit, digits)
    return int(digits or "0")
