"""A miniature probabilistic database engine.

The paper's algorithms presume a probabilistic DBMS substrate in the
spirit of MystiQ / Trio / Orion: named uncertain relations plus a
ranking-query front end.  :class:`ProbabilisticDatabase` provides that
substrate — registration, persistence, metadata, and a ``topk`` query
entry point that routes through the semantics registry and records a
query log the experiments can inspect.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.core.result import TopKResult
from repro.core.semantics import rank
from repro.engine.io import load_json, save_json
from repro.obs import trace
from repro.obs.capture import query_outcome
from repro.obs.scope import query_scope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.query import ResilientExecutor
from repro.exceptions import EngineError, RelationNotFoundError
from repro.models.attribute import AttributeLevelRelation
from repro.models.tuple_level import TupleLevelRelation

__all__ = ["ProbabilisticDatabase", "QueryLogEntry", "QUERY_LOG_LIMIT"]

Relation = AttributeLevelRelation | TupleLevelRelation

#: The query log keeps this many most recent entries; a long-running
#: server would otherwise grow it by one entry per query for ever.
QUERY_LOG_LIMIT = 1000


@dataclass(frozen=True)
class QueryLogEntry:
    """One executed ranking query, for auditing and experiments.

    ``degraded`` / ``fallback_method`` are populated when the query
    ran through a :class:`~repro.engine.query.ResilientExecutor` and
    had to step down its degradation ladder.  ``trace_id`` links the
    entry to every span and event of the query in a JSONL trace
    (``None`` while observability is disabled) — in particular, a
    degraded entry shares its trace id with the executor spans that
    produced the fallback, so the *why* is one filter away.
    """

    relation: str
    method: str
    k: int
    options: Mapping[str, object]
    tuples_accessed: int | None
    answer: tuple[str, ...]
    degraded: bool = False
    fallback_method: str | None = None
    trace_id: str | None = None


class ProbabilisticDatabase:
    """A named collection of uncertain relations with a query front end.

    Examples
    --------
    >>> from repro.models import (TupleLevelRelation, TupleLevelTuple,
    ...                           ExclusionRule)
    >>> db = ProbabilisticDatabase()
    >>> db.create_relation("readings", TupleLevelRelation(
    ...     [TupleLevelTuple("a", 10.0, 0.9),
    ...      TupleLevelTuple("b", 8.0, 0.8)]))
    >>> db.topk("readings", 1).tids()
    ('a',)
    """

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._query_log: deque[QueryLogEntry] = deque(
            maxlen=QUERY_LOG_LIMIT
        )

    # ------------------------------------------------------------------
    # Catalog operations
    # ------------------------------------------------------------------
    def create_relation(self, name: str, relation: Relation) -> None:
        """Register a relation; names are unique."""
        if not name:
            raise EngineError("relation name must be non-empty")
        if name in self._relations:
            raise EngineError(f"relation {name!r} already exists")
        if not isinstance(
            relation, (AttributeLevelRelation, TupleLevelRelation)
        ):
            raise EngineError(
                f"unsupported relation type {type(relation).__name__}"
            )
        self._relations[name] = relation

    def replace_relation(self, name: str, relation: Relation) -> None:
        """Swap an existing relation's contents."""
        if name not in self._relations:
            raise RelationNotFoundError(f"no relation named {name!r}")
        self._relations[name] = relation

    def drop_relation(self, name: str) -> None:
        """Remove a relation from the catalog."""
        if name not in self._relations:
            raise RelationNotFoundError(f"no relation named {name!r}")
        del self._relations[name]

    def relation(self, name: str) -> Relation:
        """Fetch a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise RelationNotFoundError(
                f"no relation named {name!r}"
            ) from None

    def relation_names(self) -> tuple[str, ...]:
        """All registered names, in registration order."""
        return tuple(self._relations)

    def relation_digest(self, name: str) -> str:
        """Stable content digest of a stored relation.

        Relations are immutable, and each relation object computes its
        digest once, on first use (``relation.digest()``).  The serving
        layer keys request coalescing on it and capture records it per
        query; both read that one value, and :meth:`replace_relation`
        installs a new object with its own digest.
        """
        return self.relation(name).digest()

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def describe(self, name: str) -> dict[str, object]:
        """Metadata for one relation: model kind, sizes, uncertainty."""
        relation = self.relation(name)
        if isinstance(relation, AttributeLevelRelation):
            return {
                "name": name,
                "model": "attribute",
                "tuples": relation.size,
                "max_pdf_size": relation.max_pdf_size(),
                "possible_worlds": relation.world_count(),
            }
        return {
            "name": name,
            "model": "tuple",
            "tuples": relation.size,
            "rules": relation.rule_count,
            "expected_world_size": relation.expected_world_size(),
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def topk(
        self,
        name: str,
        k: int,
        method: str = "expected_rank",
        *,
        executor: "ResilientExecutor | None" = None,
        **options,
    ) -> TopKResult:
        """Run a ranking query against a stored relation.

        Every call is appended to :attr:`query_log`, which keeps the
        latest :data:`QUERY_LOG_LIMIT` entries.  Pass a
        :class:`~repro.engine.query.ResilientExecutor` to run the
        query down the retry/degradation ladder instead of the plain
        exact path; the log entry then records whether (and to what)
        the answer degraded.

        The query is captured and billed once, by the outermost
        :func:`~repro.obs.scope.query_scope`; this method adds the name,
        the version it ranked, the executor and its span's trace id.
        """
        relation = self.relation(name)
        with query_scope(
            relation, k, method, options, relation_name=name, executor=executor
        ) as record:
            # The db.topk span is the query's root: the planner,
            # kernel, retry, and degradation spans all nest under it
            # and inherit its trace id, which the log entry records
            # for correlation.
            with trace(
                "db.topk", relation=name, method=method, k=k
            ) as span:
                if executor is not None:
                    result = executor.execute(
                        relation, k, method=method, **options
                    )
                else:
                    result = rank(
                        relation, k, method=method, **options
                    )
            outcome = query_outcome(result, span.trace_id)
            if record is not None:
                record.result, record.outcome = result, outcome
            self._query_log.append(
                QueryLogEntry(
                    relation=name,
                    method=method,
                    k=k,
                    options=dict(options),
                    tuples_accessed=outcome.tuples_accessed,
                    answer=result.tids(),
                    degraded=outcome.degraded,
                    fallback_method=outcome.fallback_method,
                    trace_id=outcome.trace_id,
                )
            )
        return result

    @property
    def query_log(self) -> tuple[QueryLogEntry, ...]:
        """The latest :data:`QUERY_LOG_LIMIT` queries, oldest first."""
        return tuple(self._query_log)

    def clear_query_log(self) -> None:
        """Forget the query history."""
        self._query_log.clear()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: Path | str) -> None:
        """Persist every relation as ``<directory>/<name>.json``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, relation in self._relations.items():
            save_json(relation, directory / f"{name}.json")

    @classmethod
    def load(cls, directory: Path | str) -> "ProbabilisticDatabase":
        """Load a database previously written by :meth:`save`."""
        directory = Path(directory)
        if not directory.is_dir():
            raise EngineError(f"{directory} is not a directory")
        database = cls()
        for path in sorted(directory.glob("*.json")):
            database.create_relation(path.stem, load_json(path))
        return database
