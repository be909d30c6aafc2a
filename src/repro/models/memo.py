"""Derived data of one immutable relation version, built once.

A relation object never changes after construction (updates produce a
new object, e.g. ``MaintainedTupleStore.snapshot()``), so anything
derived from its contents can live on the object itself and die with
it.  Three such things are expensive and read on every query:

* the content digest (capture records, coalescing keys, replay), a
  canonical-JSON SHA-256 of the whole relation; its text is joined
  from per-row fragments that the rows keep, so a version that shares
  rows and rules with a digested one encodes only its new ones (about
  2-3 ms for a tuple N = 8000 store snapshot after a write, 2 vCPUs);
* the flat-array image (``TupleColumns`` / ``AttributeColumns``) that
  the expected-rank and generating-function kernels run on; a store
  snapshot hands its relation a delta from an earlier version's
  columns, so its build is ``O(N)`` numpy work plus Python work per
  change (``TupleColumns.from_relation``);
* the rank tables the generating-function sweeps build from those
  columns (``repro.core.columnar``), which every median, quantile and
  positional semantics reads, and the normalized rank cdf of each
  pmf table that median and quantile top-k read (one more table the
  size of its source).

:class:`VersionMemo` gives both relation classes ``digest()``,
``columns()`` and ``table()``.  Each value is built lazily on first
use and exactly once per object: a miss takes a per-value lock,
re-checks and builds, so concurrent first readers wait for one build
instead of racing.  The build functions are looked up at call time
(``repro.obs.capture.relation_digest``, the columns class's
``from_relation`` and the callable handed to ``table()``), so
wrappers installed on those names see every build.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

__all__ = ["Lazy", "TABLE_BUDGET_BYTES", "VersionMemo"]

_UNSET: Any = object()

#: Largest table a relation version keeps, in bytes: an ``N x N``
#: float64 table up to ``N = 2048``.  A bigger table is built on every
#: call and dropped with its result.
TABLE_BUDGET_BYTES = 32 * 2**20


class Lazy:
    """A value built on first use, exactly once (single flight).

    Reads after the build take no lock.  A build that raises, or
    whose value ``keep`` rejects, leaves the slot empty, so the next
    reader builds again.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = _UNSET
        self._lock = threading.Lock()

    def peek(self) -> Any:
        """The value if built, else ``None``; never builds."""
        value = self._value
        return None if value is _UNSET else value

    def get(
        self,
        build: Callable[..., Any],
        *args: Any,
        keep: Callable[[Any], bool] | None = None,
    ) -> Any:
        value = self._value
        if value is _UNSET:
            with self._lock:
                value = self._value
                if value is _UNSET:
                    value = build(*args)
                    if keep is None or keep(value):
                        self._value = value
        return value


def _digest_of(relation: "VersionMemo") -> str:
    from repro.obs import capture

    return capture.relation_digest(relation)


def _columns_of(relation: "VersionMemo") -> Any:
    from repro.core import columnar

    return getattr(columnar, relation._COLUMNS).from_relation(relation)


def _freeze_if_sound(built: tuple[Any, Any]) -> bool:
    """Whether to keep ``(array, flaw)``; a kept array turns read-only."""
    table, flaw = built
    if flaw is not None:
        return False
    table.flags.writeable = False
    return True


class VersionMemo:
    """Mixin: the memoized digest, columns and tables of a version.

    Subclasses call :meth:`_reset_memo` in ``__init__`` and name their
    columns class in ``_COLUMNS``.  A copy (``copy.copy``) or an
    unpickled relation is a new version with an empty memo and no
    columns delta: its columns are built from its rows.
    """

    _COLUMNS: str

    def _reset_memo(self) -> None:
        self._digest_memo = Lazy()
        self._columns_memo = Lazy()
        self._table_memo: dict[Any, Lazy] = {}
        # What the columns build may derive this version's columns
        # from instead of the rows (a store's hand-off); taken once.
        self._columns_delta: Any = None

    def _take_columns_delta(self) -> Any:
        """The columns delta, dropped from the relation as it is read."""
        delta, self._columns_delta = self._columns_delta, None
        return delta

    def digest(self) -> str:
        """Stable 16-hex content digest, computed once per object."""
        return self._digest_memo.get(_digest_of, self)

    def columns(self) -> Any:
        """Flat-array image of this version, built once per object."""
        return self._columns_memo.get(_columns_of, self)

    def table(
        self,
        key: Any,
        nbytes: int,
        build: Callable[..., tuple[Any, Any]],
        *args: Any,
    ) -> tuple[Any, Any]:
        """``build(*args)``, once per object and ``key``: ``(array, flaw)``.

        ``build`` returns a numpy array and its flaw, ``None`` for a
        sound array.  ``nbytes`` is the array's size, known before the
        build: over :data:`TABLE_BUDGET_BYTES` every call builds and
        nothing is kept.  Otherwise a sound array is kept and made
        read-only, and a flawed one (a numerically distressed sweep,
        say) is returned but not kept.
        """
        if nbytes > TABLE_BUDGET_BYTES:
            return build(*args)
        slot = self._table_memo.get(key)
        if slot is None:
            slot = self._table_memo.setdefault(key, Lazy())
        return slot.get(build, *args, keep=_freeze_if_sound)

    def __copy__(self) -> "VersionMemo":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._reset_memo()
        return clone

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_digest_memo"], state["_columns_memo"]
        del state["_table_memo"], state["_columns_delta"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_memo()
