"""Derived data of one immutable relation version, built once.

A relation object never changes after construction (updates produce a
new object, e.g. ``MaintainedTupleStore.snapshot()``), so anything
derived from its contents can live on the object itself and die with
it.  Two such things are expensive and read on every query:

* the content digest (capture records, coalescing keys, replay), a
  canonical-JSON SHA-256 of the whole relation;
* the flat-array image (``TupleColumns`` / ``AttributeColumns``) that
  the expected-rank and generating-function kernels run on.

:class:`VersionMemo` gives both relation classes ``digest()`` and
``columns()``.  Each value is built lazily on first use and exactly
once per object: a miss takes a per-value lock, re-checks and builds,
so concurrent first readers wait for one build instead of racing.
The build functions are looked up at call time
(``repro.obs.capture.relation_digest`` and the columns class's
``from_relation``), so wrappers installed on those names see every
build.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

__all__ = ["Lazy", "VersionMemo"]

_UNSET: Any = object()


class Lazy:
    """A value built on first use, exactly once (single flight).

    Reads after the build take no lock.  A build that raises leaves
    the slot empty, so the next reader tries again.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = _UNSET
        self._lock = threading.Lock()

    def get(self, build: Callable[..., Any], *args: Any) -> Any:
        value = self._value
        if value is _UNSET:
            with self._lock:
                value = self._value
                if value is _UNSET:
                    value = build(*args)
                    self._value = value
        return value


def _digest_of(relation: "VersionMemo") -> str:
    from repro.obs import capture

    return capture.relation_digest(relation)


def _columns_of(relation: "VersionMemo") -> Any:
    from repro.core import columnar

    return getattr(columnar, relation._COLUMNS).from_relation(relation)


class VersionMemo:
    """Mixin: the memoized digest and columns of a relation version.

    Subclasses call :meth:`_reset_memo` in ``__init__`` and name their
    columns class in ``_COLUMNS``.  A copy (``copy.copy``) or an
    unpickled relation is a new version with an empty memo.
    """

    _COLUMNS: str

    def _reset_memo(self) -> None:
        self._digest_memo = Lazy()
        self._columns_memo = Lazy()

    def digest(self) -> str:
        """Stable 16-hex content digest, computed once per object."""
        return self._digest_memo.get(_digest_of, self)

    def columns(self) -> Any:
        """Flat-array image of this version, built once per object."""
        return self._columns_memo.get(_columns_of, self)

    def __copy__(self) -> "VersionMemo":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._reset_memo()
        return clone

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_digest_memo"], state["_columns_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_memo()
