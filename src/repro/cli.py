"""Command-line interface: ``python -m repro <command> ...``.

A handful of commands cover the everyday workflow without writing
Python:

* ``topk`` — run a ranking query over a relation file;
* ``describe`` — relation metadata (model, sizes, uncertainty);
* ``distribution`` — one tuple's exact rank distribution;
* ``explain`` — with two tuple ids, why one outranks the other; with
  none, a full query EXPLAIN report (plan, cost, timings, events);
* ``generate`` — write a synthetic workload to a relation file;
* ``capture`` — execute a workload file, recording every query to a
  capture JSONL (``--capture-out``, also available on ``topk``);
* ``replay`` — re-run a capture against the current code, diffing
  answer digests / tuples accessed / latency per query (exit 9 on
  any answer regression, 12 on degraded input);
* ``report`` — aggregate capture + trace JSONL into a session report
  (slowest queries, per-method latency percentiles, pruning
  efficacy, degradation rates);
* ``chrome-trace`` — convert a span JSONL trace into Chrome
  trace-event JSON loadable in Perfetto / ``chrome://tracing``;
* ``lint`` — run the :mod:`repro.analysis` invariant linter (exit 0
  clean, 1 findings, 13 internal analyzer error; see
  ``docs/static_analysis.md``);
* ``profile`` — run a query in a loop under the continuous sampling
  profiler and dump collapsed stacks or speedscope JSON
  (``--profile-out`` arms the same profiler on ``topk`` / ``serve``);
* ``bench trend`` — render ``BENCH_history.jsonl`` as a per-metric
  delta table (the perf-smoke gate's trend log, made readable);
* ``serve`` — the multi-tenant serving core (:mod:`repro.serve`) over
  one or more relation files: line-JSON requests in, typed responses
  out, either as a concurrent batch (``--workload`` / stdin) or a TCP
  server (``--port``); exit 11 when any request was shed (see
  ``docs/serving.md``).

Relation files are the CSV/JSON formats of :mod:`repro.engine.io`;
CSVs are sniffed by header (a ``value`` column means attribute-level,
a ``score`` column tuple-level).

Robustness
----------
File-reading commands take ``--lenient`` (quarantine malformed rows
instead of aborting; ``--quarantine-out`` persists the reject log as
JSONL).  ``topk`` and ``explain`` additionally take ``--deadline-ms``,
``--max-retries``, and the chaos knobs ``--inject-faults`` /
``--fault-seed`` / ``--fault-latency-ms``; any of the resilience flags
routes the query through the engine's
:class:`~repro.engine.query.ResilientExecutor` degradation ladder
(exact → pruned → Monte-Carlo) instead of the plain exact path.

Observability
-------------
``--metrics-out PATH`` enables collection for the invocation.  The
output format is ``--metrics-format``: ``json`` (default) streams
spans as JSON lines followed by a final metrics snapshot;
``prom`` writes the registry in Prometheus text exposition format
instead (no span stream — Prometheus has no span representation).

Errors never dump tracebacks: each :class:`~repro.exceptions.ReproError`
family maps to its own exit code (see :data:`EXIT_CODES`).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.analysis import cli as analysis_cli
from repro.core import rank
from repro.core.semantics import available_methods
from repro.engine.io import (
    load_attribute_csv,
    load_json,
    load_tuple_csv,
    save_attribute_csv,
    save_json,
    save_tuple_csv,
)
from repro.exceptions import (
    DeadlineExceededError,
    EngineError,
    ModelError,
    OverloadedError,
    RankingError,
    ReproError,
    SchemaError,
    UnknownMethodError,
    WorkloadError,
)
from repro.models.attribute import AttributeLevelRelation
from repro.robust import (
    Deadline,
    FaultInjector,
    QuarantineLog,
    RetryPolicy,
    fault_seed_from_env,
)

__all__ = [
    "EXIT_CODES",
    "build_parser",
    "exit_code_for",
    "load_relation",
    "main",
]

#: Exit code per error family, most-specific first.  Code 1 is the
#: catch-all for a :class:`ReproError` outside every named family and
#: 2 stays argparse's usage-error convention.  Two further codes are
#: returned directly (not raised): 9 — ``repro replay`` found an
#: answer-digest regression; 12 — ``replay`` / ``report`` /
#: ``chrome-trace`` ran on degraded input (corrupt JSONL lines,
#: dataset mismatches) without finding a regression.
EXIT_CODES: tuple[tuple[type[BaseException], int], ...] = (
    (DeadlineExceededError, 7),
    (OverloadedError, 11),  # admission control shed the request
    (SchemaError, 3),  # includes QuarantineError
    (ModelError, 4),
    (RankingError, 5),  # includes UnknownMethodError etc.
    (WorkloadError, 8),
    (EngineError, 6),  # remaining engine errors (incl. transient)
    (ReproError, 1),
    (OSError, 10),  # missing files and other environment errors
)


def exit_code_for(error: BaseException) -> int:
    """The process exit code for ``error`` (see :data:`EXIT_CODES`)."""
    for family, code in EXIT_CODES:
        if isinstance(error, family):
            return code
    return 1


def load_relation(
    path: Path | str,
    *,
    mode: str = "strict",
    quarantine: QuarantineLog | None = None,
    injector: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
):
    """Load a relation from ``.json`` or a sniffed ``.csv`` file.

    Keywords are forwarded to the :mod:`repro.engine.io` loaders: the
    strict/lenient ingest contract plus the resilience hooks (chaos
    injector, retry policy, shared deadline).
    """
    path = Path(path)
    keywords = dict(
        mode=mode,
        quarantine=quarantine,
        injector=injector,
        retry=retry,
        deadline=deadline,
    )
    if path.suffix.lower() == ".json":
        return load_json(path, **keywords)
    with path.open(newline="") as handle:
        header = next(csv.reader(handle), [])
    if "value" in header:
        return load_attribute_csv(path, **keywords)
    if "score" in header:
        return load_tuple_csv(path, **keywords)
    raise SchemaError(
        f"{path}: cannot tell the model from columns {header!r} "
        "(need a 'value' or 'score' column)"
    )


def _package_version() -> str:
    """The installed package version, or the source tree's fallback.

    ``importlib.metadata`` answers for installed copies; running
    straight from a checkout (``PYTHONPATH=src``) falls back to
    ``repro.__version__`` so ``--version`` works either way.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Ranking queries over probabilistic data "
            "(expected / median / quantile ranks and baselines)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "enable observability for this invocation and write spans "
            "plus a final metrics snapshot to PATH as JSON lines"
        ),
    )
    parser.add_argument(
        "--metrics-format",
        choices=["json", "prom"],
        default="json",
        help=(
            "--metrics-out format: 'json' streams spans as JSON lines "
            "plus a final snapshot; 'prom' writes the final registry "
            "in Prometheus text exposition format (default: json)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Ingest flags shared by every file-reading command.
    ingest = argparse.ArgumentParser(add_help=False)
    ingest.add_argument(
        "--lenient",
        dest="lenient",
        action="store_true",
        help=(
            "quarantine malformed input rows instead of aborting "
            "(default: strict, fail on the first bad row)"
        ),
    )
    ingest.add_argument(
        "--strict",
        dest="lenient",
        action="store_false",
        help="fail on the first malformed input row (the default)",
    )
    ingest.add_argument(
        "--quarantine-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "with --lenient, append rejected rows to PATH as JSON "
            "lines"
        ),
    )
    ingest.set_defaults(lenient=False)

    # Query flags shared by topk and explain.
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("-k", type=int, default=10, help="answers wanted")
    query.add_argument(
        "--method",
        default="expected_rank",
        choices=sorted(available_methods()),
        help="ranking semantics (default: expected_rank)",
    )
    query.add_argument(
        "--phi",
        type=float,
        default=None,
        help="quantile for quantile_rank methods",
    )
    query.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="probability threshold for pt_k",
    )
    query.add_argument(
        "--ties",
        choices=["shared", "by_index"],
        default=None,
        help="tie-breaking rule where the method supports it",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="emit the full result as JSON instead of text",
    )

    # Resilience flags shared by topk and explain; any of them routes
    # the query through the ResilientExecutor degradation ladder.
    resilience = argparse.ArgumentParser(add_help=False)
    resilience.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "wall-clock budget for the query; when it cannot be met "
            "the answer degrades exact -> pruned -> Monte-Carlo "
            "instead of failing"
        ),
    )
    resilience.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "extra attempts per degradation rung on transient "
            "data-access failures (default 3)"
        ),
    )
    resilience.add_argument(
        "--inject-faults",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "chaos demo: inject transient data-access faults at "
            "RATE in [0, 1] (deterministic per --fault-seed)"
        ),
    )
    resilience.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help=(
            "seed for injected faults (default: REPRO_FAULT_SEED "
            "or 0)"
        ),
    )
    resilience.add_argument(
        "--fault-latency-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="injected per-access latency for the chaos demo",
    )

    # Profiler flags shared by topk and serve.
    profile_flags = argparse.ArgumentParser(add_help=False)
    profile_flags.add_argument(
        "--profile-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "arm the sampling profiler for the whole command and "
            "write the dump to PATH (.txt collapsed stacks, "
            "otherwise speedscope JSON)"
        ),
    )
    profile_flags.add_argument(
        "--profile-hz",
        type=float,
        default=97.0,
        metavar="HZ",
        help="profiler sampling rate (default 97)",
    )

    # Capture flags shared by topk and the capture command.
    capture_flags = argparse.ArgumentParser(add_help=False)
    capture_flags.add_argument(
        "--capture-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "append one replayable capture record per executed query "
            "to PATH as JSON lines (see 'repro replay')"
        ),
    )
    capture_flags.add_argument(
        "--capture-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "cap the capture file at N bytes; when the cap trips, a "
            "truncation notice is written and later records dropped"
        ),
    )

    topk = commands.add_parser(
        "topk",
        parents=[
            ingest,
            query,
            resilience,
            capture_flags,
            profile_flags,
        ],
        help="run a top-k ranking query over a relation file",
    )
    topk.add_argument("file", type=Path, help="relation .csv or .json")

    describe = commands.add_parser(
        "describe", parents=[ingest], help="print relation metadata"
    )
    describe.add_argument("file", type=Path)

    distribution = commands.add_parser(
        "distribution",
        parents=[ingest],
        help="print one tuple's rank distribution",
    )
    distribution.add_argument("file", type=Path)
    distribution.add_argument("tid", help="tuple identifier")

    explain = commands.add_parser(
        "explain",
        parents=[ingest, query, resilience],
        help=(
            "with two tuple ids: why one outranks the other; with "
            "none: EXPLAIN a top-k query (plan, cost, timings, events)"
        ),
    )
    explain.add_argument("file", type=Path)
    explain.add_argument(
        "better",
        nargs="?",
        default=None,
        help="the higher-ranked tuple id (pairwise mode)",
    )
    explain.add_argument(
        "worse",
        nargs="?",
        default=None,
        help="the lower-ranked tuple id (pairwise mode)",
    )
    explain.add_argument(
        "--dry-run",
        action="store_true",
        help="plan the query but do not execute it",
    )
    explain.add_argument(
        "--cheap-access",
        action="store_true",
        help=(
            "plan assuming tuple access is cheap (exact pass) rather "
            "than the default expensive-access planning that prefers "
            "pruned scans"
        ),
    )

    churn = commands.add_parser(
        "churn",
        parents=[ingest],
        help="top-k churn under random input noise (robustness)",
    )
    churn.add_argument("file", type=Path)
    churn.add_argument("-k", type=int, default=5)
    churn.add_argument(
        "--noise",
        type=float,
        nargs="+",
        default=[0.01, 0.05, 0.1, 0.2],
        help="relative noise levels to probe",
    )
    churn.add_argument("--trials", type=int, default=20)
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument(
        "--method", default="expected_rank",
        choices=sorted(available_methods()),
    )

    audit = commands.add_parser(
        "audit",
        parents=[ingest],
        help="check the Section 4.1 ranking properties on a relation",
    )
    audit.add_argument("file", type=Path)
    audit.add_argument(
        "--methods",
        default="expected_rank,median_rank,u_topk,u_kranks,global_topk,"
        "expected_score",
        help="comma-separated method names to audit",
    )
    audit.add_argument(
        "--max-k",
        type=int,
        default=3,
        help="probe k = 1 .. max-k (default 3)",
    )
    audit.add_argument(
        "--threshold",
        type=float,
        default=0.4,
        help="PT-k threshold, when pt_k is among the methods",
    )

    capture = commands.add_parser(
        "capture",
        parents=[ingest, resilience, capture_flags],
        help=(
            "execute a workload file against a relation, recording "
            "a replayable capture (--capture-out is required)"
        ),
    )
    capture.add_argument(
        "file", type=Path, help="relation .csv or .json"
    )
    capture.add_argument(
        "workload",
        type=Path,
        help=(
            "workload JSONL: one query per line, e.g. "
            '{"k": 5, "method": "expected_rank"} (optional "phi", '
            '"threshold", "ties", or a nested "options" object)'
        ),
    )

    replay = commands.add_parser(
        "replay",
        parents=[ingest],
        help=(
            "re-run a capture against the current code and diff "
            "answers (exit 9 on regression, 12 on degraded input)"
        ),
    )
    replay.add_argument(
        "file", type=Path, help="relation .csv or .json"
    )
    replay.add_argument(
        "capture", type=Path, help="capture JSONL to replay"
    )
    replay.add_argument(
        "--json",
        action="store_true",
        help="emit the replay report as JSON instead of text",
    )

    report = commands.add_parser(
        "report",
        help=(
            "aggregate capture and trace JSONL into a session report "
            "(slowest queries, latency percentiles, pruning efficacy)"
        ),
    )
    report.add_argument(
        "--capture",
        type=Path,
        action="append",
        default=[],
        metavar="PATH",
        help="capture JSONL from --capture-out (repeatable)",
    )
    report.add_argument(
        "--trace",
        type=Path,
        action="append",
        default=[],
        metavar="PATH",
        help="span/metrics JSONL from --metrics-out (repeatable)",
    )
    report.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="slowest queries to list (default 5)",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the session report as JSON instead of text",
    )

    chrome = commands.add_parser(
        "chrome-trace",
        help=(
            "convert a span JSONL trace into Chrome trace-event JSON "
            "(loadable in Perfetto / chrome://tracing)"
        ),
    )
    chrome.add_argument(
        "trace", type=Path, help="span JSONL from --metrics-out"
    )
    chrome.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="output file (default: <trace>.chrome.json)",
    )

    lint = commands.add_parser(
        "lint",
        help=(
            "run the repro.analysis invariant linter over the "
            "codebase (see docs/static_analysis.md)"
        ),
    )
    analysis_cli.add_arguments(lint)

    serve = commands.add_parser(
        "serve",
        parents=[
            ingest,
            resilience,
            capture_flags,
            profile_flags,
        ],
        help=(
            "serve line-JSON ranking queries through the "
            "multi-tenant serving core: a concurrent batch from "
            "--workload/stdin, or a TCP server with --port (see "
            "docs/serving.md)"
        ),
    )
    serve.add_argument(
        "files",
        type=Path,
        nargs="+",
        help=(
            "relation files; each is registered under its file stem "
            'so requests address it as {"relation": "<stem>"}'
        ),
    )
    serve.add_argument(
        "--workload",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "JSONL request file for batch mode (default: read "
            "request lines from stdin)"
        ),
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help=(
            "run as a TCP server on PORT instead of batch mode "
            "(0 picks a free port; the bound address is printed on "
            "stderr)"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help=(
            "requests allowed in the system before admission sheds "
            "(default 64)"
        ),
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=50.0,
        help="per-tenant sustained requests/second (default 50)",
    )
    serve.add_argument(
        "--tenant-burst",
        type=float,
        default=20.0,
        help="per-tenant burst allowance in requests (default 20)",
    )
    serve.add_argument(
        "--drain-deadline-ms",
        type=float,
        default=2000.0,
        metavar="MS",
        help=(
            "graceful-drain budget before in-flight work is "
            "abandoned (default 2000)"
        ),
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable in-flight request coalescing",
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=4,
        help="kernel worker threads (default 4)",
    )
    serve.add_argument(
        "--admin-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "start the admin plane (/metrics /healthz /readyz /slo "
            "/costs /debug/flight /debug/profile) on PORT next to "
            "the TCP server (0 picks a free port; requires --port; "
            "see docs/observability.md)"
        ),
    )
    serve.add_argument(
        "--admin-host",
        default="127.0.0.1",
        help="admin plane bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--slo",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "JSON file of per-tenant SLO specs; burn-rate states "
            "export as slo.* gauges and the /slo endpoint"
        ),
    )
    serve.add_argument(
        "--flight-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "arm the flight recorder: recent spans/events are ring-"
            "buffered and anomalies dump JSONL + Chrome traces here"
        ),
    )
    serve.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help=(
            "write structured JSON logs to PATH ('-' for stderr); "
            "records carry trace ids and tenants"
        ),
    )

    profile = commands.add_parser(
        "profile",
        parents=[ingest, query],
        help=(
            "run a query in a loop under the sampling profiler for "
            "--seconds, then dump collapsed stacks or speedscope JSON"
        ),
    )
    profile.add_argument("file", type=Path, help="relation .csv or .json")
    profile.add_argument(
        "--seconds",
        type=float,
        default=2.0,
        metavar="S",
        help="how long to keep querying under the profiler (default 2)",
    )
    profile.add_argument(
        "--hz",
        type=float,
        default=97.0,
        help="profiler sampling rate (default 97)",
    )
    profile.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "dump destination (.txt collapsed stacks, otherwise "
            "speedscope JSON); with --json the document prints to "
            "stdout instead"
        ),
    )

    bench = commands.add_parser(
        "bench", help="benchmark utilities (history trends)"
    )
    bench_commands = bench.add_subparsers(
        dest="bench_command", required=True
    )
    trend = bench_commands.add_parser(
        "trend",
        help=(
            "render the perf-smoke history as a per-metric delta "
            "table (newest runs last)"
        ),
    )
    trend.add_argument(
        "--history",
        type=Path,
        default=Path("benchmarks/results/BENCH_history.jsonl"),
        metavar="PATH",
        help=(
            "history JSONL appended by the perf-smoke gate "
            "(default: benchmarks/results/BENCH_history.jsonl)"
        ),
    )
    trend.add_argument(
        "--last",
        type=int,
        default=10,
        metavar="N",
        help="show the most recent N runs (default 10)",
    )
    trend.add_argument(
        # Not ``--metric``: the root parser classifies option strings
        # before delegating to subparsers, and an abbreviation of the
        # global ``--metrics-out`` / ``--metrics-format`` is rejected
        # as ambiguous there.
        "--filter",
        default=None,
        metavar="GLOB",
        help="only metrics matching this shell-style pattern",
    )
    trend.add_argument(
        "--json",
        action="store_true",
        help="emit the trend table as JSON instead of text",
    )

    generate = commands.add_parser(
        "generate", help="write a synthetic workload"
    )
    generate.add_argument(
        "model", choices=["attribute", "tuple"], help="uncertainty model"
    )
    generate.add_argument("out", type=Path, help=".csv or .json output")
    generate.add_argument("-n", type=int, default=100, help="tuples")
    generate.add_argument(
        "--workload",
        default="uu",
        help="distribution code (uu/zipf/norm for attribute; "
        "uu/zipf/cor/anti for tuple)",
    )
    generate.add_argument("--seed", type=int, default=7)
    return parser


def _load_for(args, **resilience):
    """Load ``args.file`` honouring the shared ingest flags.

    Lenient mode collects rejects in a :class:`QuarantineLog`
    (persisted to ``--quarantine-out`` when given) and reports the
    summary on stderr so stdout stays parseable.
    """
    quarantine = None
    if getattr(args, "lenient", False):
        quarantine = QuarantineLog(
            path=getattr(args, "quarantine_out", None)
        )
    try:
        relation = load_relation(
            args.file,
            mode="lenient" if quarantine is not None else "strict",
            quarantine=quarantine,
            **resilience,
        )
    finally:
        if quarantine is not None:
            quarantine.close()
    if quarantine is not None and quarantine.rows:
        print(quarantine.summary(), file=sys.stderr)
    return relation


def _query_options(args) -> dict:
    """Method options from the shared query flags."""
    options = {}
    if args.phi is not None:
        options["phi"] = args.phi
    if args.threshold is not None:
        options["threshold"] = args.threshold
    if args.ties is not None:
        options["ties"] = args.ties
    return options


@contextmanager
def _profile_for(args) -> Iterator["object | None"]:
    """Arm the sampling profiler for ``--profile-out``, dump after."""
    out = getattr(args, "profile_out", None)
    if out is None:
        yield None
        return
    from repro.obs.profiler import SamplingProfiler

    profiler = SamplingProfiler(
        hz=getattr(args, "profile_hz", 97.0)
    )
    with profiler:
        yield profiler
    profiler.write(out)
    print(
        f"profile: {profiler.sample_count} samples to {out}",
        file=sys.stderr,
    )


def _build_executor(args):
    """``(executor, injector, retry)`` from the resilience flags.

    All three are ``None`` when no resilience flag was given, keeping
    default invocations bit-identical to the exact engine (and free of
    the resilience layer's overhead).
    """
    resilient = (
        args.deadline_ms is not None
        or args.max_retries is not None
        or args.inject_faults is not None
        or args.fault_latency_ms > 0
    )
    if not resilient:
        return None, None, None
    from repro.engine.query import ResilientExecutor

    seed = (
        args.fault_seed
        if args.fault_seed is not None
        else fault_seed_from_env()
    )
    injector = None
    if args.inject_faults is not None or args.fault_latency_ms > 0:
        injector = FaultInjector(
            error_rate=args.inject_faults or 0.0,
            latency_rate=1.0 if args.fault_latency_ms > 0 else 0.0,
            latency_seconds=args.fault_latency_ms / 1000.0,
            seed=seed,
        )
    retry = RetryPolicy(
        max_retries=(
            args.max_retries if args.max_retries is not None else 3
        ),
        base_delay=0.01,
        max_delay=0.1,
    )
    from repro.robust import BreakerBoard

    executor = ResilientExecutor(
        retry=retry,
        deadline_ms=args.deadline_ms,
        injector=injector,
        seed=seed,
        # One-shot queries never accumulate enough outcomes to trip a
        # breaker; wiring the board anyway puts per-rung states into
        # the EXPLAIN resilience envelope and capture records.
        breakers=BreakerBoard(),
    )
    return executor, injector, retry


@contextmanager
def _capture_for(args) -> Iterator["object | None"]:
    """Install a capture log for ``--capture-out``, restore after.

    Yields the installed :class:`~repro.obs.capture.CaptureLog`, or
    ``None`` when the flag was not given (in which case nothing is
    imported and nothing changes).
    """
    out = getattr(args, "capture_out", None)
    if out is None:
        yield None
        return
    from repro.obs.capture import CaptureLog, set_capture

    log = CaptureLog(
        out, max_bytes=getattr(args, "capture_max_bytes", None)
    )
    previous = set_capture(log)
    try:
        yield log
    finally:
        set_capture(previous)
        log.close()
    if log.truncated:
        print(
            f"warning: {out} hit --capture-max-bytes; "
            "later records were dropped",
            file=sys.stderr,
        )


def _execute_recorded(relation, k, method, options, executor, relation_name):
    """Run one query inside its query scope, named after the input.

    With no capture log or ledger installed the scope is a no-op and
    the plain path stays bit-identical to calling the engine directly.
    """
    from repro.obs.scope import query_scope

    with query_scope(
        relation,
        k,
        method,
        options,
        relation_name=relation_name,
        executor=executor,
    ) as record:
        if executor is not None:
            result = executor.execute(
                relation, k, method=method, **options
            )
        else:
            result = rank(relation, k, method=method, **options)
        if record is not None:
            record.result = result
    return result


def _command_topk(args) -> int:
    options = _query_options(args)
    executor, injector, retry = _build_executor(args)
    with _capture_for(args), _profile_for(args):
        if executor is None:
            relation = _load_for(args)
        else:
            # The deadline governs the query ladder, not the load:
            # the last ladder rung guarantees an answer, while an
            # expired deadline mid-load could only fail.  The load
            # still sees the chaos injector and survives its faults
            # via the retry policy.
            relation = _load_for(args, injector=injector, retry=retry)
        result = _execute_recorded(
            relation,
            args.k,
            args.method,
            options,
            executor,
            str(args.file),
        )
    if args.json:
        import json as json_module

        print(json_module.dumps(result.to_dict(), indent=2))
        return 0
    print(result.describe())
    accessed = result.metadata.get("tuples_accessed")
    if accessed is not None:
        print(f"tuples accessed: {accessed} of {relation.size}")
    for item in result:
        statistic = (
            "" if item.statistic is None else f"\t{item.statistic:.6g}"
        )
        print(f"{item.position + 1}\t{item.tid}{statistic}")
    if result.metadata.get("resilient"):
        meta = result.metadata
        print(
            f"resilience: degraded={meta['degraded']} "
            f"method={meta['fallback_method']} "
            f"attempts={meta['attempts']} "
            f"faults_survived={meta['faults_survived']} "
            f"faults_injected={meta['faults_injected']}"
        )
    return 0


def _command_describe(args) -> int:
    from repro.models.validation import diagnose

    relation = _load_for(args)
    if isinstance(relation, AttributeLevelRelation):
        print("model: attribute-level")
        print(f"tuples: {relation.size}")
        print(f"max pdf size: {relation.max_pdf_size()}")
        print(f"possible worlds: {relation.world_count()}")
        universe = relation.value_universe()
        print(
            f"score range: [{universe[0]:g}, {universe[-1]:g}] "
            f"over {len(universe)} distinct values"
        )
    else:
        print("model: tuple-level (x-relation)")
        print(f"tuples: {relation.size}")
        print(f"rules: {relation.rule_count}")
        multi = sum(
            1 for rule in relation.explicit_rules if not rule.is_singleton
        )
        print(f"multi-tuple rules: {multi}")
        print(
            f"expected world size: {relation.expected_world_size():g}"
        )
    findings = diagnose(relation)
    if findings:
        print("diagnostics:")
        for finding in findings:
            print(f"  - {finding}")
    return 0


def _command_distribution(args) -> int:
    relation = _load_for(args)
    if isinstance(relation, AttributeLevelRelation):
        from repro.core import attribute_rank_distribution

        dist = attribute_rank_distribution(relation, args.tid)
    else:
        from repro.core import tuple_rank_distribution

        dist = tuple_rank_distribution(relation, args.tid)
    print(f"rank distribution of {args.tid}:")
    for value, mass in dist.items():
        print(f"  Pr[rank = {value}] = {mass:.6g}")
    print(f"expected rank: {dist.expectation():.6g}")
    print(f"median rank: {dist.median()}")
    print(f"0.9-quantile rank: {dist.quantile(0.9)}")
    return 0


def _command_explain(args) -> int:
    if (args.better is None) != (args.worse is None):
        print(
            "error: explain takes either two tuple ids (pairwise "
            "mode) or none (query EXPLAIN)",
            file=sys.stderr,
        )
        return 2
    if args.better is not None:
        from repro.core.explain import explain_pair

        relation = _load_for(args)
        explanation = explain_pair(relation, args.better, args.worse)
        print(explanation.describe())
        return 0
    from repro.obs.explain import explain as explain_query

    executor, injector, retry = _build_executor(args)
    relation = _load_for(args, injector=injector, retry=retry)
    report = explain_query(
        relation,
        args.k,
        args.method,
        executor=executor,
        dry_run=args.dry_run,
        expensive_access=not args.cheap_access,
        **_query_options(args),
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.describe())
    return 0


def _command_churn(args) -> int:
    from repro.core.sensitivity import stability_profile

    relation = _load_for(args)
    profile = stability_profile(
        relation,
        args.k,
        noises=tuple(args.noise),
        trials=args.trials,
        method=args.method,
        rng=args.seed,
    )
    print(
        f"top-{args.k} churn under relative noise "
        f"({args.trials} trials, method {args.method}):"
    )
    for report in profile:
        core = sorted(report.stable_core())
        print(
            f"  noise ±{report.noise:.0%}: mean churn "
            f"{report.mean_churn:.1%}, stable core "
            f"{len(core)}/{args.k}"
        )
    return 0


def _command_audit(args) -> int:
    import functools

    from repro.bench.harness import Table
    from repro.core.properties import PROPERTY_NAMES, property_matrix

    relation = _load_for(args)
    methods = {}
    for name in args.methods.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in available_methods():
            known = ", ".join(sorted(available_methods()))
            raise UnknownMethodError(
                f"unknown ranking method {name!r}; available: {known}"
            )
        options = (
            {"threshold": args.threshold} if name == "pt_k" else {}
        )
        methods[name] = functools.partial(
            rank, method=name, **options
        )
    ks = list(range(1, max(args.max_k, 1) + 1))
    matrix = property_matrix(methods, [relation], ks=ks)
    table = Table(
        f"Ranking-property audit of {args.file}",
        ["method", *PROPERTY_NAMES],
    )
    for name, row in matrix.items():
        table.add_row(
            [name]
            + [
                "Y" if row[property_name].holds else "N"
                for property_name in PROPERTY_NAMES
            ]
        )
    print(table.render())
    failures = [
        (name, property_name, row[property_name].counterexample)
        for name, row in matrix.items()
        for property_name in PROPERTY_NAMES
        if not row[property_name].holds
    ]
    for name, property_name, counterexample in failures:
        print(f"  {name} / {property_name}: {counterexample}")
    return 0


def _command_profile(args) -> int:
    import json as json_module

    from repro.obs.profiler import SamplingProfiler

    if args.out is None and not args.json:
        print(
            "error: profile needs --out PATH or --json",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    options = _query_options(args)
    relation = _load_for(args)
    profiler = SamplingProfiler(hz=args.hz)
    executed = 0
    deadline = time.perf_counter() + args.seconds
    with profiler:
        while time.perf_counter() < deadline:
            rank(relation, args.k, method=args.method, **options)
            executed += 1
    if args.out is not None:
        profiler.write(args.out)
    if args.json:
        print(
            json_module.dumps(
                profiler.to_speedscope(name=str(args.file)),
                sort_keys=True,
            )
        )
    print(
        f"profiled {executed} queries over {args.seconds:g}s "
        f"({profiler.sample_count} samples)"
        + (f" to {args.out}" if args.out is not None else ""),
        file=sys.stderr,
    )
    return 0


def _command_bench(args) -> int:
    import json as json_module

    from repro.bench.trend import (
        load_history,
        render_trend,
        trend_table,
    )

    # Only one subcommand today; argparse enforces its presence.
    entries, problems = load_history(args.history)
    for problem in problems:
        print(
            f"warning: {args.history}: {problem}", file=sys.stderr
        )
    table = trend_table(
        entries, last=args.last, pattern=args.filter
    )
    if args.json:
        print(json_module.dumps(table, indent=2, sort_keys=True))
    else:
        print(render_trend(table))
    return 0


def _command_generate(args) -> int:
    from repro.bench.workloads import attribute_workload, tuple_workload

    if args.model == "attribute":
        relation = attribute_workload(args.workload, args.n, seed=args.seed)
        writer = save_attribute_csv
    else:
        relation = tuple_workload(args.workload, args.n, seed=args.seed)
        writer = save_tuple_csv
    if args.out.suffix.lower() == ".json":
        save_json(relation, args.out)
    else:
        writer(relation, args.out)
    print(f"wrote {relation.size} tuples to {args.out}")
    return 0


def _workload_query(record) -> tuple[int, str, dict]:
    """``(k, method, options)`` from one workload JSONL record."""
    k = int(record.get("k", 10))
    method = str(record.get("method", "expected_rank"))
    options = dict(record.get("options") or {})
    for key in ("phi", "threshold", "ties"):
        if key in record:
            options[key] = record[key]
    return k, method, options


def _command_capture(args) -> int:
    from repro.obs.capture import read_jsonl
    from repro.obs.replay import EXIT_PARTIAL_INPUT

    if args.capture_out is None:
        print(
            "error: capture requires --capture-out",
            file=sys.stderr,
        )
        return 2
    relation = _load_for(args)
    workload, problems = read_jsonl(args.workload)
    for problem in problems:
        print(
            f"warning: {args.workload}: {problem}", file=sys.stderr
        )
    executed = 0
    with _capture_for(args):
        for record in workload:
            k, method, options = _workload_query(record)
            # A fresh executor per query restarts the injector and
            # Monte-Carlo RNGs from their seeds, exactly as replay
            # will — one query's chaos never leaks into the next.
            executor, _, _ = _build_executor(args)
            _execute_recorded(
                relation,
                k,
                method,
                options,
                executor,
                str(args.file),
            )
            executed += 1
    print(
        f"captured {executed} queries from {args.workload} "
        f"to {args.capture_out}"
    )
    return EXIT_PARTIAL_INPUT if problems else 0


def _command_replay(args) -> int:
    import json as json_module

    from repro.obs.replay import replay_capture

    relation = _load_for(args)
    report = replay_capture(args.capture, relation)
    for problem in report.problems:
        print(
            f"warning: {args.capture}: {problem}", file=sys.stderr
        )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    return report.exit_code()


def _command_report(args) -> int:
    import json as json_module

    from repro.obs.capture import read_jsonl
    from repro.obs.report import build_report

    if not args.capture and not args.trace:
        print(
            "error: report needs at least one --capture or --trace",
            file=sys.stderr,
        )
        return 2
    capture_records: list[dict] = []
    trace_records: list[dict] = []
    problems: list[str] = []
    for path in args.capture:
        records, bad = read_jsonl(path)
        capture_records.extend(records)
        problems.extend(f"{path}: {item}" for item in bad)
    for path in args.trace:
        records, bad = read_jsonl(path)
        trace_records.extend(records)
        problems.extend(f"{path}: {item}" for item in bad)
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    report = build_report(
        capture_records,
        trace_records,
        top_n=args.top,
        sources={
            "captures": [str(path) for path in args.capture],
            "traces": [str(path) for path in args.trace],
        },
        problems=problems,
    )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    return report.exit_code()


def _command_chrome_trace(args) -> int:
    from repro.obs.capture import read_jsonl
    from repro.obs.chrome_trace import write_chrome_trace
    from repro.obs.replay import EXIT_PARTIAL_INPUT

    records, problems = read_jsonl(args.trace)
    for problem in problems:
        print(f"warning: {args.trace}: {problem}", file=sys.stderr)
    out = args.out
    if out is None:
        out = args.trace.with_suffix(".chrome.json")
    document = write_chrome_trace(records, out)
    spans = sum(
        1
        for event in document["traceEvents"]
        if event.get("ph") == "X"
    )
    print(f"wrote {spans} spans to {out}")
    return EXIT_PARTIAL_INPUT if problems else 0


def _command_lint(args) -> int:
    return analysis_cli.run(args)


def _serve_settings(args, seed: int):
    """``ServeSettings`` from the serve + resilience flags."""
    from repro.serve import ServeSettings

    return ServeSettings(
        queue_limit=args.queue_limit,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        default_deadline_ms=(
            args.deadline_ms
            if args.deadline_ms is not None
            else 5_000.0
        ),
        drain_deadline_ms=args.drain_deadline_ms,
        coalesce=not args.no_coalesce,
        max_workers=args.max_workers,
        max_retries=(
            args.max_retries if args.max_retries is not None else 3
        ),
        seed=seed,
    )


def _serve_forever(core, args) -> int:
    """TCP mode: serve until interrupted, then drain gracefully."""
    import asyncio

    from repro.serve import serve_admin, serve_tcp

    async def _run() -> None:
        server = await serve_tcp(core, args.host, args.port)
        bound = server.sockets[0].getsockname()
        print(f"serving on {bound[0]}:{bound[1]}", file=sys.stderr)
        admin = None
        if args.admin_port is not None:
            admin = await serve_admin(
                core, args.admin_host, args.admin_port, slo=core.slo
            )
            admin_bound = admin.sockets[0].getsockname()
            print(
                f"admin on {admin_bound[0]}:{admin_bound[1]}",
                file=sys.stderr,
            )
        try:
            await server.serve_forever()
        finally:
            server.close()
            await server.wait_closed()
            await core.drain()
            # Admin outlives the drain so /readyz reports "draining"
            # to probes for the whole graceful-shutdown window.
            if admin is not None:
                admin.close()
                await admin.wait_closed()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; drained", file=sys.stderr)
    return 0


def _command_serve(args) -> int:
    import asyncio
    import json as json_module
    import time as time_module

    from repro.engine.database import ProbabilisticDatabase
    from repro.obs import (
        FlightRecorder,
        SLOEngine,
        configure_logging,
        parse_slo_specs,
        set_flight_recorder,
    )
    from repro.serve import ServingCore, run_batch

    if args.admin_port is not None and args.port is None:
        print(
            "error: --admin-port requires --port (the admin plane "
            "accompanies the TCP server)",
            file=sys.stderr,
        )
        return 2
    if args.admin_port is not None:
        # An admin plane with an empty /metrics is useless; scraping
        # implies the operator wants the instruments live.
        from repro.obs import get_registry

        get_registry().enable()
    if args.log is not None:
        configure_logging(
            sys.stderr
            if args.log == "-"
            else open(args.log, "a", encoding="utf-8")
        )
    seed = (
        args.fault_seed
        if args.fault_seed is not None
        else fault_seed_from_env()
    )
    injector = None
    if args.inject_faults is not None or args.fault_latency_ms > 0:
        injector = FaultInjector(
            error_rate=args.inject_faults or 0.0,
            latency_rate=1.0 if args.fault_latency_ms > 0 else 0.0,
            latency_seconds=args.fault_latency_ms / 1000.0,
            seed=seed,
        )
    settings = _serve_settings(args, seed)
    slo = None
    if args.slo is not None:
        slo = SLOEngine(
            parse_slo_specs(args.slo), clock=time_module.monotonic
        )
    recorder = None
    if args.flight_dir is not None:
        recorder = FlightRecorder(dump_dir=args.flight_dir)
        recorder.arm()
        set_flight_recorder(recorder)
    # The serving core always carries a ledger: per-tenant cost
    # attribution is the point of a multi-tenant front end, and the
    # /costs endpoint reads it live.
    from repro.obs.costs import CostLedger

    ledger = CostLedger()
    database = ProbabilisticDatabase()
    with _capture_for(args), _profile_for(args):
        for path in args.files:
            args.file = path
            database.create_relation(path.stem, _load_for(args))
        core = ServingCore(
            database,
            settings=settings,
            injector=injector,
            slo=slo,
            ledger=ledger,
        )
        if args.port is not None:
            return _serve_forever(core, args)
        if args.workload is not None:
            lines = args.workload.read_text(
                encoding="utf-8"
            ).splitlines()
        else:
            lines = sys.stdin.read().splitlines()
        responses = asyncio.run(run_batch(core, lines))
    shed = sum(
        1
        for record in responses
        if record.get("status") == "shed"
    )
    errors = sum(
        1
        for record in responses
        if record.get("status") == "error"
    )
    for record in responses:
        print(json_module.dumps(record))
    print(
        f"served {len(responses)} requests: "
        f"{len(responses) - shed - errors} ok, "
        f"{shed} shed, {errors} errors",
        file=sys.stderr,
    )
    return 11 if shed else 0


_COMMANDS = {
    "topk": _command_topk,
    "lint": _command_lint,
    "describe": _command_describe,
    "distribution": _command_distribution,
    "explain": _command_explain,
    "churn": _command_churn,
    "audit": _command_audit,
    "generate": _command_generate,
    "profile": _command_profile,
    "bench": _command_bench,
    "capture": _command_capture,
    "replay": _command_replay,
    "report": _command_report,
    "chrome-trace": _command_chrome_trace,
    "serve": _command_serve,
}


def _run_with_metrics(args) -> int:
    """Run one command with a fresh enabled registry + metrics output.

    ``--metrics-format json`` (the default) streams spans to
    ``args.metrics_out`` as the command runs, then appends a final
    ``{"type": "metrics", ...}`` line with the registry snapshot.
    ``--metrics-format prom`` keeps the current sink (spans have no
    Prometheus representation) and writes the registry in Prometheus
    text exposition format once the command finishes.  The previous
    registry/sink are restored afterwards so library users embedding
    :func:`main` keep their own configuration.
    """
    from repro.obs import (
        JsonlSink,
        MetricsRegistry,
        set_registry,
        set_sink,
        trace,
    )

    registry = MetricsRegistry(enabled=True)
    previous_registry = set_registry(registry)
    if args.metrics_format == "prom":
        try:
            with trace(f"cli.{args.command}"):
                return _COMMANDS[args.command](args)
        finally:
            set_registry(previous_registry)
            args.metrics_out.write_text(registry.to_prometheus())
    sink = JsonlSink(args.metrics_out)
    previous_sink = set_sink(sink)
    try:
        with trace(f"cli.{args.command}"):
            return _COMMANDS[args.command](args)
    finally:
        set_sink(previous_sink)
        set_registry(previous_registry)
        sink.write({"type": "metrics", **registry.snapshot()})
        sink.close()


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if (
            args.metrics_format == "prom"
            and args.metrics_out is None
        ):
            print(
                "error: --metrics-format prom requires --metrics-out",
                file=sys.stderr,
            )
            return 2
        capture_out = getattr(args, "capture_out", None)
        capture_cap = getattr(args, "capture_max_bytes", None)
        if capture_cap is not None and capture_cap <= 0:
            print(
                "error: --capture-max-bytes must be positive",
                file=sys.stderr,
            )
            return 2
        if capture_out is not None:
            parent = capture_out.resolve().parent
            if not parent.is_dir():
                print(
                    f"error: --capture-out directory {parent} "
                    "does not exist",
                    file=sys.stderr,
                )
                return 2
        if args.metrics_out is not None:
            # Fail fast: the sink opens lazily on the first span, which
            # would otherwise surface a bad path only after the command
            # has already done its work.
            parent = args.metrics_out.resolve().parent
            if not parent.is_dir():
                print(
                    f"error: --metrics-out directory {parent} "
                    "does not exist",
                    file=sys.stderr,
                )
                return 2
            return _run_with_metrics(args)
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
