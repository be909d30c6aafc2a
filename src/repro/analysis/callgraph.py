"""Project-wide symbol table and call graph with async coloring.

The serving core split the codebase into two execution colors: code
that runs on the asyncio event loop (``async def`` bodies and every
sync function they call directly) and code that runs on worker
threads (functions dispatched through ``loop.run_in_executor`` /
``Executor.submit`` / ``threading.Thread``).  Several invariants are
properties of that coloring, not of any one function: a blocking call
is fine on a worker thread and fatal two hops below an ``async def``;
module state is fine mutated from one color and a data race mutated
from both.

:class:`ProjectIndex` makes the coloring queryable.  Built once per
analysis run over every parsed module, it records a
:class:`FunctionInfo` for each ``def``/``async def`` (methods and
nested functions included, qualified as ``module.Class.method`` /
``module.outer.inner``), resolves call sites through import aliases,
``self.`` receivers, and lexical scope chains, then derives:

* **loop color** — reachable from any ``async def`` through plain
  (non-dispatched) call edges;
* **thread color** — reachable from any function *referenced* as an
  executor/thread target (the reference itself is not a call edge,
  which is exactly why executor dispatch is the sanctioned escape
  hatch for blocking work);
* **transitive blocking paths** — the lexically-first chain from a
  function to a known blocking sink (``time.sleep``, ``open``,
  socket/subprocess calls), memoized and cycle-safe.

Resolution is deliberately an *under*-approximation: a call through a
value we cannot resolve (a parameter, a stored callable) simply adds
no edge.  Rules built on the graph therefore miss rather than
hallucinate — the right failure mode for a CI gate.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.analysis.context import dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.context import ModuleContext

__all__ = [
    "BLOCKING_SINKS",
    "CallSite",
    "FunctionInfo",
    "ProjectIndex",
    "scope_walk",
]

#: Canonical call targets that block the calling thread.  These are
#: the *transitive* sinks RPR013 hunts through the graph; RPR009
#: keeps its own wider per-node set (method-name heuristics included)
#: for the direct one-hop case.
BLOCKING_SINKS = frozenset(
    {
        "open",
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

#: Mutable-container constructors recognised for module-level state.
MUTABLE_CONSTRUCTORS = frozenset(
    {
        "bytearray",
        "collections.Counter",
        "collections.OrderedDict",
        "collections.defaultdict",
        "collections.deque",
        "dict",
        "list",
        "set",
    }
)


class CallSite:
    """One call expression inside a function body."""

    __slots__ = ("node", "dotted", "lineno", "callee")

    def __init__(self, node: ast.Call, dotted: str | None) -> None:
        self.node = node
        self.dotted = dotted
        self.lineno = node.lineno
        #: Resolved project callee qualname, filled by the index.
        self.callee: str | None = None


class FunctionInfo:
    """One ``def``/``async def`` in the project symbol table."""

    __slots__ = (
        "qualname",
        "module",
        "name",
        "node",
        "is_async",
        "owner_class",
        "calls",
        "dispatch_refs",
        "direct_blocking",
    )

    def __init__(
        self,
        qualname: str,
        module: str,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        owner_class: str | None,
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.name = node.name
        self.node = node
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        self.owner_class = owner_class
        self.calls: list[CallSite] = []
        #: Expressions referenced as executor/thread targets.
        self.dispatch_refs: list[ast.expr] = []
        #: Blocking sinks called directly: ``(display, lineno)``.
        self.direct_blocking: list[tuple[str, int]] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        color = "async" if self.is_async else "sync"
        return f"<FunctionInfo {self.qualname} [{color}]>"


def _function_reference_args(
    dotted: str, call: ast.Call
) -> Iterator[ast.expr]:
    """Expressions this call treats as a thread-dispatch target.

    A ``copy_context().run`` target dispatches the argument after it:
    ``run_in_executor(pool, copy_context().run, work)`` runs ``work``.
    """
    tail = dotted.rpartition(".")[2]
    if tail in ("run_in_executor", "submit"):
        targets = call.args[1:] if tail == "run_in_executor" else call.args
        if targets and _is_context_run(targets[0]):
            targets = targets[1:]
        if targets:
            yield targets[0]
    elif tail in ("Thread", "Timer"):
        for keyword in call.keywords:
            if keyword.arg in ("target", "function"):
                yield keyword.value


def _is_context_run(node: ast.expr) -> bool:
    """``copy_context().run`` / ``contextvars.copy_context().run``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "run"
        and isinstance(node.value, ast.Call)
        and (dotted_name(node.value.func) or "").rpartition(".")[2]
        == "copy_context"
    )


class ProjectIndex:
    """Symbol table + call graph over one analysis run's modules."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.modules: dict[str, "ModuleContext"] = {}
        #: Qualnames of module-level ``ContextVar(...)`` bindings.
        self.contextvars: set[str] = set()
        self._loop_colored: set[str] | None = None
        self._thread_colored: set[str] | None = None
        self._blocking_paths: dict[str, tuple[str, ...] | None] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, contexts: Sequence["ModuleContext"]
    ) -> "ProjectIndex":
        index = cls()
        for ctx in contexts:
            index.modules[ctx.module] = ctx
            index._index_module(ctx)
        for info in index.functions.values():
            index._resolve_sites(info)
        return index

    def _index_module(self, ctx: "ModuleContext") -> None:
        self._index_body(ctx, ctx.tree.body, ctx.module, None)
        for name, values in ctx.module_bindings().items():
            if len(values) != 1 or values[0] is None:
                continue
            value = values[0]
            if isinstance(value, ast.Call):
                target = ctx.resolve_call(value)
                if target is not None and (
                    target == "contextvars.ContextVar"
                    or target.endswith(".ContextVar")
                    or target == "ContextVar"
                ):
                    self.contextvars.add(f"{ctx.module}.{name}")

    def _index_body(
        self,
        ctx: "ModuleContext",
        body: Sequence[ast.stmt],
        prefix: str,
        owner_class: str | None,
    ) -> None:
        for statement in body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                qualname = f"{prefix}.{statement.name}"
                info = FunctionInfo(
                    qualname, ctx.module, statement, owner_class
                )
                # Latest definition wins on a name collision, matching
                # runtime rebinding semantics.
                self.functions[qualname] = info
                self._collect_sites(info)
                self._index_body(
                    ctx, statement.body, qualname, None
                )
            elif isinstance(statement, ast.ClassDef):
                self._index_body(
                    ctx,
                    statement.body,
                    f"{prefix}.{statement.name}",
                    statement.name,
                )
            else:
                for block in _statement_blocks(statement):
                    self._index_body(
                        ctx, block, prefix, owner_class
                    )

    def _collect_sites(self, info: FunctionInfo) -> None:
        for node in scope_walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            site = CallSite(node, dotted)
            info.calls.append(site)
            if dotted is not None:
                info.dispatch_refs.extend(
                    _function_reference_args(dotted, node)
                )

    def _resolve_sites(self, info: FunctionInfo) -> None:
        ctx = self.modules[info.module]
        for site in info.calls:
            if site.dotted is None:
                continue
            canonical = ctx.canonical(site.dotted)
            if canonical in BLOCKING_SINKS:
                info.direct_blocking.append(
                    (canonical, site.lineno)
                )
                continue
            resolved = self._resolve_target(ctx, info, site.dotted)
            if resolved is not None:
                site.callee = resolved.qualname

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_reference(
        self,
        ctx: "ModuleContext",
        info: "FunctionInfo | None",
        expression: ast.AST,
    ) -> "FunctionInfo | None":
        """Resolve a function-valued expression (not a call) if we can."""
        dotted = dotted_name(expression)
        if dotted is None:
            return None
        return self._resolve_target(ctx, info, dotted)

    def _resolve_target(
        self,
        ctx: "ModuleContext",
        info: "FunctionInfo | None",
        dotted: str,
    ) -> "FunctionInfo | None":
        head, _, rest = dotted.partition(".")
        if head == "self":
            if info is None or info.owner_class is None:
                return None
            class_prefix = info.qualname.rpartition(".")[0]
            return self.functions.get(f"{class_prefix}.{rest}")
        if info is not None:
            # Lexical scope chain: innermost enclosing scope first,
            # stopping at the module boundary so a bare name in
            # ``repro.serve.core`` cannot leak into ``repro.serve``.
            prefix = info.qualname
            while True:
                candidate = self.functions.get(f"{prefix}.{dotted}")
                if candidate is not None and candidate is not info:
                    return candidate
                if prefix == info.module:
                    break
                prefix = prefix.rpartition(".")[0]
        canonical = ctx.canonical(dotted)
        for key in (
            canonical,
            f"{canonical}.__init__",
            f"{ctx.module}.{dotted}",
            f"{ctx.module}.{dotted}.__init__",
        ):
            candidate = self.functions.get(key)
            if candidate is not None:
                return candidate
        return None

    # ------------------------------------------------------------------
    # Coloring
    # ------------------------------------------------------------------
    def loop_colored(self) -> set[str]:
        """Functions that can run on the event loop."""
        if self._loop_colored is None:
            seeds = [
                info.qualname
                for info in self.functions.values()
                if info.is_async
            ]
            self._loop_colored = self._reachable(seeds)
        return self._loop_colored

    def thread_colored(self) -> set[str]:
        """Functions that can run on a worker thread."""
        if self._thread_colored is None:
            seeds = []
            for info in self.functions.values():
                ctx = self.modules[info.module]
                for reference in info.dispatch_refs:
                    target = self.resolve_reference(
                        ctx, info, reference
                    )
                    if target is not None:
                        seeds.append(target.qualname)
            self._thread_colored = self._reachable(seeds)
        return self._thread_colored

    def _reachable(self, seeds: Iterable[str]) -> set[str]:
        seen: set[str] = set()
        stack = list(seeds)
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            info = self.functions.get(qualname)
            if info is None:
                continue
            for site in info.calls:
                if site.callee is not None:
                    stack.append(site.callee)
        return seen

    # ------------------------------------------------------------------
    # Blocking paths
    # ------------------------------------------------------------------
    def blocking_path(
        self, qualname: str
    ) -> tuple[str, ...] | None:
        """The lexically-first chain from ``qualname`` to a blocking
        sink: ``("helper", "nap", "time.sleep")`` — or ``None``.

        The chain starts at ``qualname``'s own frame (its short name
        is *not* included) and ends with the sink's canonical name.
        Awaited async callees do not propagate: awaiting yields the
        loop; it is the synchronous chain that stalls it.
        """
        if qualname in self._blocking_paths:
            return self._blocking_paths[qualname]
        self._blocking_paths[qualname] = None  # cycle guard
        info = self.functions.get(qualname)
        if info is None:
            return None
        path: tuple[str, ...] | None = None
        events: list[tuple[int, tuple[str, ...]]] = []
        for target, lineno in info.direct_blocking:
            events.append((lineno, (target,)))
        for site in info.calls:
            if site.callee is None:
                continue
            callee = self.functions[site.callee]
            if callee.is_async:
                continue
            sub_path = self.blocking_path(site.callee)
            if sub_path is not None:
                events.append(
                    (site.lineno, (callee.name,) + sub_path)
                )
        if events:
            events.sort(key=lambda event: (event[0], event[1]))
            path = events[0][1]
        self._blocking_paths[qualname] = path
        return path

    def functions_in(self, module: str) -> list[FunctionInfo]:
        """This module's functions, in qualname order."""
        return sorted(
            (
                info
                for info in self.functions.values()
                if info.module == module
            ),
            key=lambda info: info.qualname,
        )


def _statement_blocks(
    statement: ast.stmt,
) -> Iterator[Sequence[ast.stmt]]:
    """Statement blocks nested directly inside a compound statement,
    so ``def`` under ``if TYPE_CHECKING:`` or ``try:`` is indexed at
    the same qualname prefix as its siblings."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(statement, field, None)
        if block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(statement, "handlers", ()):
        yield handler.body
    for case in getattr(statement, "cases", ()):
        yield case.body


def scope_walk(
    scope: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator[ast.AST]:
    """Walk a function body without entering nested scopes."""
    stack: list[ast.AST] = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
