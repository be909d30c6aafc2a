"""The rule catalogue: sixteen project-specific invariant checks.

Each rule is a small class with a stable ``RPRxxx`` code, a one-line
summary, a written rationale (also rendered by ``--list-rules`` and
``docs/static_analysis.md``), and one of two check shapes:

* **node rules** declare :attr:`Rule.node_types` and implement
  ``check(node, ctx)``; the engine builds a dispatch table so one
  walk of the tree serves every node rule;
* **flow rules** override ``check_module(ctx)`` and run once per
  module with the full :class:`~repro.analysis.context.ModuleContext`
  — including lazy per-scope dataflow (``ctx.dataflow``) and the
  project-wide call graph (``ctx.project``) when the engine analyzed
  more than this one file.

Adding a rule is a ~30-line class plus a registry entry either way.

Messages are deliberately stable strings: the baseline file keys on
``(path, code, message)``, so a rewording invalidates accepted
baseline entries (that is a feature — reworded rule, re-reviewed
exceptions — but do it knowingly).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.callgraph import scope_walk
from repro.analysis.cfg import Dataflow, header_expressions
from repro.analysis.context import ModuleContext, dotted_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callgraph import FunctionInfo

__all__ = ["RULES", "Rule", "rules_by_code"]

Violation = Iterator[tuple[ast.AST, str]]


class Rule:
    """Base class: subclasses override the metadata and ``check``."""

    code: str = "RPR000"
    name: str = "abstract"
    summary: str = ""
    rationale: str = ""
    node_types: tuple[type[ast.AST], ...] = ()

    def applies_to(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, node: ast.AST, ctx: ModuleContext) -> Violation:
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def check_module(self, ctx: ModuleContext) -> Violation:
        """Flow-rule hook: one call per module, after parsing.

        The default is a no-op; the engine only invokes this on rules
        that override it (so node rules pay nothing)."""
        return
        yield  # pragma: no cover - generator marker


# ----------------------------------------------------------------------
# RPR001 — unseeded randomness
# ----------------------------------------------------------------------

#: Module-level functions of :mod:`random` that draw from the hidden
#: process-global generator.
_GLOBAL_RANDOM = frozenset(
    {
        "betavariate", "binomialvariate", "choice", "choices",
        "expovariate", "gammavariate", "gauss", "getrandbits",
        "lognormvariate", "normalvariate", "paretovariate", "randbytes",
        "randint", "random", "randrange", "sample", "seed", "shuffle",
        "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)

#: ``numpy.random`` attributes that are fine to *reference*: the
#: modern Generator machinery (still checked for a missing seed at the
#: call sites below).
_NUMPY_SAFE = frozenset(
    {
        "BitGenerator", "Generator", "MT19937", "PCG64", "PCG64DXSM",
        "Philox", "SFC64", "SeedSequence", "default_rng",
    }
)

_SEEDED_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
    }
)


def _call_has_seed(node: ast.Call) -> bool:
    """Whether a constructor call passes a non-``None`` first seed."""
    if node.args:
        first = node.args[0]
        return not (
            isinstance(first, ast.Constant) and first.value is None
        )
    return any(
        keyword.arg == "seed"
        and not (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is None
        )
        for keyword in node.keywords
    )


class UnseededRandomness(Rule):
    code = "RPR001"
    name = "unseeded-randomness"
    summary = (
        "process-global or unseeded RNG on a deterministic path"
    )
    rationale = (
        "Deterministic replay (repro replay) re-runs captured queries "
        "and diffs answer digests; chaos runs replay their exact "
        "fault sequence from REPRO_FAULT_SEED.  Any draw from the "
        "process-global random module, the legacy numpy.random API, "
        "or an unseeded Random()/default_rng() makes the replay "
        "diverge from the capture for reasons no digest can explain."
    )
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Violation:
        target = ctx.resolve_call(node)
        if target is None:
            return
        head, _, tail = target.rpartition(".")
        if head == "random" and tail in _GLOBAL_RANDOM:
            yield node, (
                f"{target}() draws from the process-global RNG; "
                "thread a seeded random.Random through instead"
            )
        elif target == "random.SystemRandom":
            yield node, (
                "random.SystemRandom is OS entropy by design and can "
                "never replay deterministically"
            )
        elif target in _SEEDED_CONSTRUCTORS:
            if not _call_has_seed(node):
                yield node, (
                    f"{target}() without a seed breaks deterministic "
                    "replay; pass an explicit seed or rng"
                )
        elif head == "numpy.random" and tail not in _NUMPY_SAFE:
            yield node, (
                f"legacy numpy.random API ({target}) uses hidden "
                "global state; use numpy.random.default_rng(seed)"
            )


# ----------------------------------------------------------------------
# RPR002 — float equality on score/probability expressions
# ----------------------------------------------------------------------

#: Identifier tokens that mark a value as a score / probability /
#: statistic in this codebase's naming conventions.
_FLOAT_LEXICON = frozenset(
    {
        "expectation", "mass", "phi", "prob", "probabilities",
        "probability", "score", "scores", "statistic", "weight",
    }
)

#: Float literals that are exactly representable and conventionally
#: used as degenerate-case sentinels (certain / impossible / empty).
_EXEMPT_LITERALS = frozenset({0.0, 1.0, -1.0})


def _lexicon_match(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        identifier = node.attr
    elif isinstance(node, ast.Name):
        identifier = node.id
    else:
        return False
    lowered = identifier.lower()
    return any(
        token in _FLOAT_LEXICON for token in lowered.split("_")
    ) or "score" in lowered or "prob" in lowered


def _sentinel_constant(node: ast.AST) -> bool:
    """Constants that make a comparison exempt (or non-float)."""
    if not isinstance(node, ast.Constant):
        return False
    value = node.value
    if value is None or isinstance(value, (bool, str, bytes)):
        return True
    if isinstance(value, int):
        return value in (0, 1, -1)
    if isinstance(value, float):
        return value in _EXEMPT_LITERALS
    return False


class FloatEquality(Rule):
    code = "RPR002"
    name = "float-equality"
    summary = "== / != on score or probability expressions"
    rationale = (
        "The paper's value-invariance postulate means answers depend "
        "on score *order*, not magnitudes — and the capture layer "
        "digests statistics rounded to 9 significant digits so ulp "
        "noise never flips a digest.  An exact float comparison on a "
        "computed score or probability reintroduces that noise as a "
        "branch, flipping answers (and digests) across platforms.  "
        "Comparisons against the exact sentinels 0.0/±1.0 and inside "
        "__eq__/__ne__/__hash__ are exempt."
    )
    node_types = (ast.Compare,)

    def check(self, node: ast.Compare, ctx: ModuleContext) -> Violation:
        if ctx.enclosing_function(node) in (
            "__eq__", "__ne__", "__hash__"
        ):
            return
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            lhs, rhs = operands[index], operands[index + 1]
            if _sentinel_constant(lhs) or _sentinel_constant(rhs):
                continue
            literal = next(
                (
                    side
                    for side in (lhs, rhs)
                    if isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                ),
                None,
            )
            if literal is not None:
                yield node, (
                    "equality against a non-sentinel float literal "
                    "is platform-brittle; compare with math.isclose "
                    "or an explicit tolerance"
                )
            elif _lexicon_match(lhs) or _lexicon_match(rhs):
                yield node, (
                    "exact float equality on score/probability "
                    "values violates value invariance; compare with "
                    "math.isclose or an explicit tolerance"
                )


# ----------------------------------------------------------------------
# RPR003 — relation iteration bypassing the AccessCounter
# ----------------------------------------------------------------------

_ITER_WRAPPERS = frozenset(
    {"enumerate", "iter", "list", "reversed", "sorted", "tuple"}
)
_ORDERED_ACCESSORS = frozenset(
    {"order_by_expected_score", "order_by_score"}
)


def _unwrap_iterable(node: ast.AST) -> ast.AST:
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ITER_WRAPPERS
        and node.args
    ):
        node = node.args[0]
    return node


def _relation_like(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return "relation" in node.id.lower()
    if isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute
    ):
        return node.func.attr in _ORDERED_ACCESSORS
    return False


def _relation_rows_value(node: ast.AST) -> bool:
    """Whether a bound expression denotes raw relation rows.

    Matches what a dodger would alias: a ``.rows`` attribute read or
    anything :func:`_relation_like` itself accepts (possibly wrapped
    in ``list()``/``sorted()``/...).
    """
    unwrapped = _unwrap_iterable(node)
    if isinstance(unwrapped, ast.Attribute) and (
        unwrapped.attr == "rows"
    ):
        return True
    return _relation_like(unwrapped)


class UncountedRelationIteration(Rule):
    code = "RPR003"
    name = "uncounted-relation-iteration"
    summary = (
        "engine code iterating relation rows without the "
        "AccessCounter"
    )
    rationale = (
        "tuples_accessed is the paper's cost metric (Sections "
        "5.2/6.2) and the number EXPLAIN, capture/replay, and the "
        "perf-smoke gate all consume.  Engine-layer code that "
        "iterates relation rows directly — instead of through "
        "SortedAccessCursor / ResilientCursor or an explicit "
        "counter.charge() — silently under-counts, making pruning "
        "look better than it is and replay cost diffs meaningless."
    )
    node_types = (ast.For, ast.comprehension)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro.engine")

    def check(self, node: ast.AST, ctx: ModuleContext) -> Violation:
        assert isinstance(node, (ast.For, ast.comprehension))
        iterable = _unwrap_iterable(node.iter)
        if _relation_like(iterable):
            yield node.iter, (
                "iterates relation rows directly, bypassing "
                "AccessCounter/ResilientCursor accounting; use "
                "score_cursor()/expected_score_cursor() or charge "
                "the counter explicitly"
            )
        elif isinstance(iterable, ast.Name) and self._aliased_rows(
            iterable, ctx
        ):
            yield node.iter, (
                "relation rows reach this loop through an alias "
                "(assignment or tuple unpacking), bypassing "
                "AccessCounter/ResilientCursor accounting; use "
                "score_cursor()/expected_score_cursor() or charge "
                "the counter explicitly"
            )

    def _aliased_rows(
        self, name_node: ast.Name, ctx: ModuleContext, depth: int = 3
    ) -> bool:
        """Chase local reaching definitions of an iterated name."""
        scope = ctx.scope_of(name_node)
        flow = ctx.dataflow(scope)
        statement = ctx.statement_of(name_node, flow)
        if statement is None:
            return False
        return self._defs_are_rows(
            flow, statement, name_node.id, depth
        )

    def _defs_are_rows(
        self,
        flow: Dataflow,
        statement: ast.AST,
        name: str,
        depth: int,
    ) -> bool:
        if depth <= 0:
            return False
        definitions = flow.reaching(statement, name)
        if not definitions:
            return False
        for def_index, _, value in definitions:
            if value is None:
                continue
            if _relation_rows_value(value):
                return True
            chained = _unwrap_iterable(value)
            if isinstance(chained, ast.Name):
                def_statement = flow.cfg.nodes[def_index].statement
                if def_statement is not None and self._defs_are_rows(
                    flow, def_statement, chained.id, depth - 1
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# RPR004 — wall-clock reads
# ----------------------------------------------------------------------

_WALL_CLOCKS = frozenset(
    {
        "datetime.date.today",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "time.time",
    }
)


class WallClockRead(Rule):
    code = "RPR004"
    name = "wall-clock-read"
    summary = "time.time()/datetime.now() where monotonic time belongs"
    rationale = (
        "Span durations, retry deadlines, and capture wall_seconds "
        "are all measured with time.monotonic()/perf_counter() so "
        "that NTP steps and DST never produce negative or wild "
        "durations — and replay verdicts never depend on the clock "
        "of the machine that happens to run them.  Wall-clock reads "
        "belong only in human-facing report headers, captured once "
        "and passed as data."
    )
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Violation:
        target = ctx.resolve_call(node)
        if target in _WALL_CLOCKS:
            yield node, (
                f"{target}() reads the wall clock; timing and digest "
                "inputs need time.monotonic()/perf_counter() or a "
                "timestamp captured once and passed as data"
            )


# ----------------------------------------------------------------------
# RPR005 — broad exception handlers
# ----------------------------------------------------------------------

_BROAD = frozenset({"BaseException", "Exception"})


def _is_broad(expression: ast.expr | None) -> bool:
    if expression is None:
        return True
    if isinstance(expression, ast.Name):
        return expression.id in _BROAD
    if isinstance(expression, ast.Tuple):
        return any(_is_broad(item) for item in expression.elts)
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(inner, ast.Raise) and inner.exc is None
        for statement in handler.body
        for inner in ast.walk(statement)
    )


class BroadExcept(Rule):
    code = "RPR005"
    name = "broad-except"
    summary = "bare/broad except outside the robust/ degradation ladder"
    rationale = (
        "Fault injection only proves resilience if injected faults "
        "reach the retry policy and the degradation ladder.  A bare "
        "or Exception-wide handler on any other path swallows the "
        "injected TransientAccessError (and real bugs with it), so "
        "the chaos suite passes without exercising anything.  "
        "Handlers that re-raise are exempt, as is repro.robust — "
        "absorbing failures is that package's declared job."
    )
    node_types = (ast.ExceptHandler,)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.module.startswith("repro.robust")

    def check(
        self, node: ast.ExceptHandler, ctx: ModuleContext
    ) -> Violation:
        if _is_broad(node.type) and not _reraises(node):
            yield node, (
                "bare/broad except can swallow injected faults and "
                "real bugs; catch the specific repro.exceptions "
                "families or re-raise"
            )


# ----------------------------------------------------------------------
# RPR006 — unordered set iteration
# ----------------------------------------------------------------------

_ORDER_INSENSITIVE = frozenset(
    {"all", "any", "frozenset", "len", "max", "min", "set", "sorted",
     "sum"}
)


def _set_like(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        # ``seen | extra`` style set algebra — only when one side is
        # itself syntactically a set.
        return _set_like(node.left) or _set_like(node.right)
    return False


class UnorderedSetIteration(Rule):
    code = "RPR006"
    name = "unordered-set-iteration"
    summary = "iterating a set without sorted() on an output path"
    rationale = (
        "Set iteration order varies with PYTHONHASHSEED, so anything "
        "a set feeds — JSONL records, report sections, digest "
        "payloads, ranked output — silently differs between two "
        "runs of the same query on the same data.  The capture "
        "digest is built to be floating-point-stable; an unsorted "
        "set upstream defeats it with plain string ordering.  "
        "(Dicts keep insertion order and are not flagged; "
        "iteration inside order-insensitive reducers like sorted(), "
        "min(), sum() is exempt.)"
    )
    node_types = (ast.For, ast.comprehension, ast.Call)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Violation:
        if isinstance(node, ast.Call):
            # list(set(...)) / tuple(set(...)) materialise the
            # arbitrary order instead of iterating it.
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args
                and _set_like(node.args[0])
                and not ctx.inside_call_to(node, _ORDER_INSENSITIVE)
            ):
                yield node, (
                    f"{node.func.id}() over a set materialises "
                    "PYTHONHASHSEED-dependent order; use sorted()"
                )
            return
        assert isinstance(node, (ast.For, ast.comprehension))
        iterable = node.iter
        if _set_like(iterable) and not ctx.inside_call_to(
            iterable, _ORDER_INSENSITIVE
        ):
            yield iterable, (
                "iterating a set yields PYTHONHASHSEED-dependent "
                "order; wrap it in sorted() before it feeds output, "
                "digests, or ranked answers"
            )


# ----------------------------------------------------------------------
# RPR007 — metrics instruments constructed outside the registry
# ----------------------------------------------------------------------

_INSTRUMENTS = frozenset(
    {
        f"repro.obs{infix}.{name}"
        for infix in ("", ".metrics")
        for name in ("Counter", "Gauge", "Histogram")
    }
)


class InstrumentOutsideRegistry(Rule):
    code = "RPR007"
    name = "instrument-outside-registry"
    summary = "Counter/Gauge/Histogram built outside MetricsRegistry"
    rationale = (
        "The registry is the single collection point: snapshots, "
        "the --metrics-out JSONL tail, and Prometheus export all "
        "read it.  An instrument constructed directly is invisible "
        "to every one of those consumers and dodges the "
        "disabled-means-free contract the hot kernels rely on.  Use "
        "get_registry().counter()/gauge()/histogram() — or suppress "
        "deliberately where the bucket math is reused as plain "
        "arithmetic."
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.obs.metrics"

    def check(self, node: ast.Call, ctx: ModuleContext) -> Violation:
        target = ctx.resolve_call(node)
        if target in _INSTRUMENTS:
            instrument = target.rpartition(".")[2]
            yield node, (
                f"{instrument} constructed outside the registry is "
                "invisible to snapshots and Prometheus export; use "
                f"get_registry().{instrument.lower()}(name)"
            )


# ----------------------------------------------------------------------
# RPR008 — mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_CALLS = frozenset(
    {
        "bytearray", "collections.Counter", "collections.OrderedDict",
        "collections.defaultdict", "collections.deque", "dict", "list",
        "set",
    }
)


def _mutable_default(node: ast.AST, ctx: ModuleContext) -> bool:
    if isinstance(
        node,
        (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set,
         ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        target = ctx.resolve_call(node)
        return target in _MUTABLE_CALLS
    return False


class MutableDefaultArgument(Rule):
    code = "RPR008"
    name = "mutable-default-argument"
    summary = "list/dict/set default argument shared across calls"
    rationale = (
        "A mutable default is evaluated once and shared by every "
        "call, so one caller's appended rows or cached options leak "
        "into the next query — exactly the cross-query contamination "
        "the capture/replay machinery rebuilds fresh executors to "
        "rule out.  Default to None and construct inside the "
        "function."
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Violation:
        assert isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        arguments = node.args
        defaults = list(arguments.defaults) + [
            default
            for default in arguments.kw_defaults
            if default is not None
        ]
        for default in defaults:
            if _mutable_default(default, ctx):
                yield default, (
                    "mutable default argument is evaluated once and "
                    "shared across calls; default to None and build "
                    "it inside the function"
                )


# ----------------------------------------------------------------------
# RPR009 — blocking calls on the serving core's event-loop paths
# ----------------------------------------------------------------------

_BLOCKING_CALLS = frozenset(
    {
        "select.select",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.run",
        "time.sleep",
        "urllib.request.urlopen",
    }
)

#: Method names that are synchronous I/O on this codebase's common
#: receiver types (pathlib paths, sockets, file objects).
_BLOCKING_METHODS = frozenset(
    {
        "accept", "connect", "read_bytes", "read_text", "recv",
        "recvfrom", "sendall", "write_bytes", "write_text",
    }
)


class BlockingCallInAsyncServe(Rule):
    code = "RPR009"
    name = "blocking-call-in-async-serve"
    summary = (
        "synchronous sleep/file/socket call on a repro.serve "
        "event-loop path"
    )
    rationale = (
        "The serving core multiplexes every tenant on one asyncio "
        "event loop; a single time.sleep() or synchronous "
        "file/socket call inside a coroutine stalls admission, "
        "coalescing, and every other in-flight request at once — "
        "tail latencies blow past their deadlines with no fault "
        "injected at all.  Blocking work belongs behind await: "
        "asyncio primitives, or loop.run_in_executor() into the "
        "kernel worker pool (which is how queries are dispatched).  "
        "Plain synchronous functions in repro.serve are exempt — "
        "they run on worker threads, not the loop."
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro.serve")

    @staticmethod
    def _on_event_loop(node: ast.AST, ctx: ModuleContext) -> bool:
        """Whether the nearest enclosing def is ``async def``."""
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.AsyncFunctionDef):
                return True
            if isinstance(ancestor, ast.FunctionDef):
                return False
        return False

    def check(self, node: ast.Call, ctx: ModuleContext) -> Violation:
        if not self._on_event_loop(node, ctx):
            return
        target = ctx.resolve_call(node)
        if target in _BLOCKING_CALLS or target == "open":
            yield node, (
                f"{target}() blocks the event loop and stalls every "
                "in-flight request; await an asyncio primitive or "
                "dispatch via loop.run_in_executor()"
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _BLOCKING_METHODS
        ):
            yield node, (
                f".{node.func.attr}() is synchronous I/O on the "
                "event loop; await an asyncio stream or dispatch "
                "via loop.run_in_executor()"
            )


# ----------------------------------------------------------------------
# RPR010 — unstructured output on the serving and resilience layers
# ----------------------------------------------------------------------


class UnstructuredLogging(Rule):
    code = "RPR010"
    name = "unstructured-logging-in-serve"
    summary = (
        "print() or stdlib logging call inside repro.serve / "
        "repro.robust"
    )
    rationale = (
        "The serving and resilience layers are operated live: their "
        "output is grepped by trace id, joined with spans, and "
        "ingested by pipelines, which only works if every record is "
        "one JSON object with ambient trace-id/tenant correlation.  "
        "A print() or stdlib logging call emits an uncorrelated "
        "free-text line that fractures that stream — and print() "
        "additionally pollutes the line-JSON wire protocol when "
        "stdout is the transport.  Use "
        "repro.obs.logging.get_logger(...) instead; it is free "
        "while unconfigured, so library code may log "
        "unconditionally."
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith(
            ("repro.serve", "repro.robust")
        )

    def check(self, node: ast.Call, ctx: ModuleContext) -> Violation:
        target = ctx.resolve_call(node)
        if target is None:
            return
        if target == "print":
            yield node, (
                "print() emits an uncorrelated free-text line from "
                "library code; use repro.obs.logging.get_logger() "
                "so records carry trace ids and tenants"
            )
        elif target == "logging" or target.startswith("logging."):
            yield node, (
                "stdlib logging bypasses the structured JSON "
                "stream; use repro.obs.logging.get_logger() so "
                "records carry trace ids and tenants"
            )


# ----------------------------------------------------------------------
# RPR011 — resource accounting outside the cost-ledger chokepoint
# ----------------------------------------------------------------------

_CPU_CLOCKS = frozenset(
    {
        "os.times",
        "resource.getrusage",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
    }
)


class AccountingOutsideLedger(Rule):
    code = "RPR011"
    name = "accounting-outside-ledger"
    summary = (
        "CPU-clock read or ledger write outside repro.obs.costs"
    )
    rationale = (
        "Per-query resource accounting has one chokepoint: "
        "repro.obs.costs, where both clocks are injectable and every "
        "ledger write flows through CostLedger.record().  A direct "
        "time.process_time()/getrusage() read elsewhere produces "
        "numbers no fake clock can drive (untestable arithmetic) and "
        "no ledger ever sees (invisible cost); with accounting off "
        "it is also a clock read the bit-identical fault-free path "
        "promised not to make.  Run the query inside "
        "query_scope(), or meter through CostLedger.meter(), instead."
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.obs.costs"

    def check(self, node: ast.Call, ctx: ModuleContext) -> Violation:
        target = ctx.resolve_call(node)
        if target in _CPU_CLOCKS:
            yield node, (
                f"{target}() reads a CPU/resource clock outside the "
                "repro.obs.costs chokepoint; run the query inside "
                "query_scope() or meter through CostLedger.meter() so "
                "the read is injectable and the cost lands in the ledger"
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
            and isinstance(node.func.value, ast.Name)
            and "ledger" in node.func.value.id.lower()
        ):
            yield node, (
                "direct ledger .record() call outside "
                "repro.obs.costs; run the query inside query_scope() "
                "or meter through CostLedger.meter() so clocks and "
                "aggregates stay consistent"
            )


# ----------------------------------------------------------------------
# Flow rules (RPR012-RPR016): dataflow and call-graph backed
# ----------------------------------------------------------------------


def _enclosing_info(
    ctx: ModuleContext, node: ast.AST
) -> "FunctionInfo | None":
    """The call-graph entry for the def enclosing ``node``, if any."""
    if ctx.project is None:
        return None
    parts: list[str] = []
    for ancestor in ctx.ancestors(node):
        if isinstance(
            ancestor,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            parts.append(ancestor.name)
    if not parts:
        return None
    qualname = ".".join([ctx.module, *reversed(parts)])
    return ctx.project.functions.get(qualname)


#: Reads RPR001/RPR004 forbid by canonical name; RPR012 forbids the
#: same reads when they arrive laundered through an alias.
_ALIASABLE_READS = _WALL_CLOCKS | frozenset(
    f"random.{name}" for name in _GLOBAL_RANDOM
)


class AliasedNondeterminism(Rule):
    code = "RPR012"
    name = "aliased-nondeterminism"
    summary = (
        "RNG/clock read laundered through an alias "
        "(t = time.time; t())"
    )
    rationale = (
        "RPR001 and RPR004 match calls by their spelled name, so "
        "`t = time.time; t()` reads the wall clock without either "
        "firing — the read is a flow property, not a syntactic one.  "
        "This rule resolves the called expression through reaching "
        "definitions (assignments, tuple unpacking, chained aliases, "
        "single-binding module globals) and flags calls whose every "
        "possible target is a forbidden global-RNG draw or wall-clock "
        "read.  Deliberately injectable callables — parameters and "
        "module globals rebound via `global` (the configure(...) "
        "pattern) — resolve as unknown and stay exempt: injection is "
        "the sanctioned fix, laundering is not."
    )
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Violation:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if ctx.canonical(dotted) in _ALIASABLE_READS:
            return  # direct call: RPR001/RPR004 already own it
        targets, unknown = ctx.resolve_targets(node.func)
        if unknown or not targets:
            return
        flagged = sorted(
            target
            for target in targets
            if target in _ALIASABLE_READS
        )
        if flagged and len(flagged) == len(targets):
            yield node, (
                f"call resolves to {', '.join(flagged)} through an "
                "alias; aliasing does not make the read "
                "deterministic — inject a seeded Random or take a "
                "monotonic clock instead"
            )


class TransitiveBlockingInServe(Rule):
    code = "RPR013"
    name = "transitive-blocking-in-serve"
    summary = (
        "async serve path reaching a blocking call through helpers"
    )
    rationale = (
        "RPR009 sees one hop: time.sleep() spelled inside an async "
        "def.  Hide the sleep one plain function away and the event "
        "loop still stalls, the linter just stops looking.  This "
        "rule walks the project call graph from every repro.serve "
        "async def through resolved synchronous callees (imports, "
        "self-methods, nested defs) and reports the full chain to "
        "the blocking sink.  Awaited async callees do not propagate "
        "— awaiting yields the loop — and functions dispatched via "
        "run_in_executor are referenced, not called, so the "
        "sanctioned escape hatch stays silent."
    )
    node_types = ()

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro.serve")

    def check_module(self, ctx: ModuleContext) -> Violation:
        project = ctx.project
        if project is None:
            return
        for info in project.functions_in(ctx.module):
            if not info.is_async:
                continue
            for site in info.calls:
                if site.callee is None:
                    continue
                callee = project.functions[site.callee]
                if callee.is_async:
                    continue
                path = project.blocking_path(site.callee)
                if path is None:
                    continue
                chain = " -> ".join((callee.name,) + path)
                yield site.node, (
                    f"transitively blocks the event loop: {chain}; "
                    "dispatch the chain via loop.run_in_executor() "
                    "or make it truly async"
                )


_TASK_SPAWNERS = frozenset(
    {"asyncio.create_task", "asyncio.ensure_future"}
)


class OrphanedAwaitable(Rule):
    code = "RPR014"
    name = "orphaned-awaitable"
    summary = (
        "coroutine never awaited, or create_task() handle discarded"
    )
    rationale = (
        "A coroutine called as a bare statement never runs — the "
        "request it was meant to serve silently does nothing and "
        "Python's RuntimeWarning lands in whatever stderr nobody "
        "tails.  A create_task()/ensure_future() whose handle is "
        "dropped is worse: the event loop holds only a weak "
        "reference, so the task can be garbage-collected mid-flight "
        "and its exception is never retrieved.  Store the handle and "
        "await or cancel it on shutdown (the transport keeps a "
        "pending set with a done-callback for exactly this).  "
        "TaskGroup.create_task() is exempt — the group owns its "
        "children."
    )
    node_types = (ast.Expr,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Violation:
        assert isinstance(node, ast.Expr)
        value = node.value
        if not isinstance(value, ast.Call):
            return
        target = ctx.resolve_call(value)
        dotted = dotted_name(value.func)
        if target in _TASK_SPAWNERS or (
            dotted is not None
            and dotted.endswith(".create_task")
            and "loop" in dotted.rsplit(".", 2)[-2].lower()
        ):
            tail = (target or dotted or "").rpartition(".")[2]
            yield value, (
                f"{tail}() handle discarded; the loop keeps only a "
                "weak reference, so the task can vanish mid-flight "
                "and its exception is lost — store the handle and "
                "await or cancel it"
            )
            return
        project = ctx.project
        if project is None:
            return
        info = _enclosing_info(ctx, node)
        callee = project.resolve_reference(ctx, info, value.func)
        if callee is not None and callee.is_async:
            yield value, (
                f"coroutine {callee.name}() is created but never "
                "awaited, so its body never runs; await it or wrap "
                "it in a stored asyncio task"
            )


class ContextVarClaimLeak(Rule):
    code = "RPR015"
    name = "contextvar-claim-leak"
    summary = (
        "ContextVar .set() whose reset token escapes an exit path"
    )
    rationale = (
        "The query scope and spans set a ContextVar around one piece "
        "of work: token = var.set(...), work, var.reset(token).  If "
        "any exit path — an early return, or an exception out of the "
        "work — skips the reset, every later query in that task joins "
        "a scope that never closes and goes unrecorded.  This rule "
        "finds the set's CFG node and requires that no path reaches "
        "the function exit without passing a matching reset; try/finally "
        "satisfies it, straight-line code does not.  Tokens stored "
        "on attributes (self._token = var.set(...)) are exempt: "
        "that is the context-manager protocol, whose __exit__ lives "
        "in another scope."
    )
    node_types = (ast.Assign, ast.Expr)

    def _claimed_var(
        self, value: ast.AST, ctx: ModuleContext
    ) -> str | None:
        """The spelled receiver, when it is a known ContextVar."""
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "set"
        ):
            return None
        receiver = dotted_name(value.func.value)
        if receiver is None or ctx.project is None:
            return None
        candidates = {
            ctx.canonical(receiver),
            f"{ctx.module}.{receiver}",
        }
        if candidates & ctx.project.contextvars:
            return receiver
        return None

    def check(self, node: ast.AST, ctx: ModuleContext) -> Violation:
        if isinstance(node, ast.Expr):
            receiver = self._claimed_var(node.value, ctx)
            if receiver is not None:
                yield node.value, (
                    f"{receiver}.set() discards its reset token, so "
                    "the claim can never be released; bind the "
                    "token and reset it in a finally block"
                )
            return
        assert isinstance(node, ast.Assign)
        receiver = self._claimed_var(node.value, ctx)
        if receiver is None or len(node.targets) != 1:
            return
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            return  # attribute-stored token: context-manager protocol
        token = target.id
        scope = ctx.scope_of(node)
        flow = ctx.dataflow(scope)
        claim = flow.cfg.node_for(node)
        if claim is None:
            return
        resets = {
            cfg_node
            for cfg_node in flow.cfg.nodes
            if cfg_node.statement is not None
            and _resets_claim(cfg_node.statement, receiver, token)
        }
        if not resets or flow.cfg.escaping_path_exists(claim, resets):
            yield node.value, (
                f"{receiver}.set() token '{token}' is not reset on "
                "every exit path (an early return or an exception "
                "skips it); move the reset into a finally block"
            )


def _resets_claim(
    statement: ast.AST, receiver: str, token: str
) -> bool:
    """Whether this CFG statement performs ``receiver.reset(token)``.

    Only the statement's *own* expressions count — a reset buried in
    a compound statement's body belongs to that body's CFG node."""
    for expression in header_expressions(statement):  # type: ignore[arg-type]
        for node in ast.walk(expression):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reset"
                and dotted_name(node.func.value) == receiver
                and any(
                    isinstance(argument, ast.Name)
                    and argument.id == token
                    for argument in node.args
                )
            ):
                return True
    return False


#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "remove", "setdefault", "update",
    }
)


class CrossContextMutation(Rule):
    code = "RPR016"
    name = "cross-context-mutation"
    summary = (
        "module global mutated from both event-loop and thread "
        "contexts without a lock"
    )
    rationale = (
        "The serving core runs coroutines on one event loop and "
        "kernels on a thread pool; a module-level dict or list "
        "mutated from both sides is a data race the GIL only "
        "partially hides (check-then-act sequences interleave, and "
        "iteration during mutation raises).  This rule colors every "
        "function by reachability — loop color from async defs, "
        "thread color from executor/Thread dispatch targets — and "
        "flags unlocked mutation sites of a module-level mutable "
        "global touched by both colors.  Sites under `with "
        "...lock...:` are exempt, as are globals rebound (not "
        "mutated) via `global`."
    )
    node_types = ()

    def check_module(self, ctx: ModuleContext) -> Violation:
        project = ctx.project
        if project is None:
            return
        mutables = {
            name
            for name, values in ctx.module_bindings().items()
            if len(values) == 1
            and values[0] is not None
            and _mutable_default(values[0], ctx)
        }
        if not mutables:
            return
        sites: dict[str, list[tuple[str, ast.AST]]] = {}
        for info in project.functions_in(ctx.module):
            shadowed = ctx.scope_binding_values(info.node)
            for name in mutables:
                if name in shadowed:
                    continue
                for node in _mutation_sites(info.node, name):
                    if _under_lock(ctx, node):
                        continue
                    sites.setdefault(name, []).append(
                        (info.qualname, node)
                    )
        loop = project.loop_colored()
        thread = project.thread_colored()
        for name in sorted(sites):
            name_sites = sites[name]
            if not (
                any(q in loop for q, _ in name_sites)
                and any(q in thread for q, _ in name_sites)
            ):
                continue
            for qualname, node in name_sites:
                colors = []
                if qualname in loop:
                    colors.append("event-loop")
                if qualname in thread:
                    colors.append("thread-pool")
                if not colors:
                    continue
                yield node, (
                    f"module global '{name}' is mutated from both "
                    "event-loop and thread-pool contexts without a "
                    "lock; guard mutations with a threading.Lock "
                    "or confine them to one context"
                )


def _mutation_sites(
    scope: "ast.FunctionDef | ast.AsyncFunctionDef", name: str
) -> Iterator[ast.AST]:
    """Nodes in ``scope`` that mutate the module global ``name``."""
    for node in scope_walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            yield node
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    yield node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    yield node


def _under_lock(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether an enclosing ``with`` acquires something lock-like."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                dotted = dotted_name(item.context_expr) or (
                    dotted_name(item.context_expr.func)
                    if isinstance(item.context_expr, ast.Call)
                    else None
                )
                if dotted is not None and "lock" in dotted.lower():
                    return True
    return False


RULES: tuple[Rule, ...] = (
    UnseededRandomness(),
    FloatEquality(),
    UncountedRelationIteration(),
    WallClockRead(),
    BroadExcept(),
    UnorderedSetIteration(),
    InstrumentOutsideRegistry(),
    MutableDefaultArgument(),
    BlockingCallInAsyncServe(),
    UnstructuredLogging(),
    AccountingOutsideLedger(),
    AliasedNondeterminism(),
    TransitiveBlockingInServe(),
    OrphanedAwaitable(),
    ContextVarClaimLeak(),
    CrossContextMutation(),
)


def rules_by_code() -> dict[str, Rule]:
    """The registry keyed by ``RPRxxx`` code."""
    return {rule.code: rule for rule in RULES}
