"""The one kind of table the package keeps for values it builds once:
every table that grows with its inputs is a :class:`Cache`, with
``stats()`` and ``clear()``.  A hit is a dict lookup in C, so hot loops
subscript a cache or bind its ``__getitem__``."""

from __future__ import annotations

from typing import Any, Callable, Hashable


class Cache(dict[Hashable, Any]):
    """key -> build(key), built on first use and kept until clear().  A
    bounded cache (``cap`` given) stores a value only while it holds fewer
    than ``cap`` entries; past that a miss returns a freshly built value.
    A build that raises stores nothing.  Without ``build`` a missing key
    is a KeyError, as in a dict."""

    __slots__ = ("build", "cap")

    def __init__(self, build: Callable[[Any], Any] | None = None, cap: int | None = None) -> None:
        super().__init__()
        self.build, self.cap = build, cap

    def __missing__(self, key: Hashable) -> Any:
        if self.build is None:
            raise KeyError(key)
        value = self.build(key)
        if self.cap is None or len(self) < self.cap:
            self[key] = value
        return value

    def stats(self) -> dict[str, Any]:
        """The entries held, and the cap of a bounded cache."""
        return {"entries": len(self)} if self.cap is None else {"entries": len(self), "cap": self.cap}
