"""The benchmark: one command, four seeded closed-loop workloads.

    python3 perfbench/run.py --workload lib-scan --seed 1 --seconds 15 \
        --trace 0

Run from the repository root.  Each run builds its inputs from
``--seed`` (the same seed always gives the same relations and the same
request list), performs a fixed amount of work sized from
``--seconds``, checks every answer against ``repro.core.semantics.rank``
and prints one line per metric, then the result as a JSON object on
the last line.  End-to-end times are scaled to reference machine speed
(see :mod:`speed`); the raw times are printed beside them.
``--trace 0`` reports the end-to-end metrics (tracing off);
``--trace 1`` additionally runs the same list with per-layer wrappers
installed and reports the per-layer metrics.

Every run records its work counts under ``.perfbench_state``, keyed by
seed and by a digest of the code; a later run of the same seed and code
whose counts differ fails.
"""

from __future__ import annotations

import os

# Before numpy loads anywhere (here or in a child): one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
COVERAGE_FLOOR = 0.90

END_TO_END = (
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_relations(workload, seed: int, tmp: Path) -> None:
    from repro.datagen.attribute_gen import generate_attribute_relation
    from repro.datagen.tuple_gen import generate_tuple_relation
    from repro.engine.io import save_json

    import plan

    for index, rel in enumerate(workload.relations):
        generate = (
            generate_tuple_relation
            if rel.model == "tuple"
            else generate_attribute_relation
        )
        relation = generate(rel.size, seed=plan.data_seed(seed, index))
        save_json(relation, tmp / f"{rel.name}.json")


def code_digest() -> str:
    """Digest of the code under test and of the benchmark itself."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(base.parent).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(name: str, args, counts: dict) -> list[str]:
    """Compare with the first run of this seed and code; record it if
    first."""
    STATE.mkdir(exist_ok=True)
    path = STATE / (
        f"counts-{name}-seed{args.seed}-sec{args.seconds:g}"
        f"-trace{args.trace}-{code_digest()}.json"
    )
    if not path.exists():
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(counts, indent=1, sort_keys=True))
        partial.replace(path)
        return []
    first = json.loads(path.read_text())
    return [
        f"count {key}: first run {first.get(key)!r}, this run "
        f"{counts.get(key)!r}"
        for key in sorted(set(first) | set(counts))
        if first.get(key) != counts.get(key)
    ]


def scaled(values: list[float], factors: list[float]) -> list[float]:
    return [value * scale for value, scale in zip(values, factors)]


def end_to_end(result: dict) -> tuple[dict, dict, float]:
    """Scaled end-to-end metrics, their raw counterparts, the tail."""
    import stats

    timed = result["pass"]
    raw = sorted(timed["latencies"])
    scaled_sorted = sorted(scaled(timed["latencies"], timed["factors"]))
    tail = stats.tail_percentile(len(raw))
    setups = [elapsed for elapsed, _ in result["setups"]]
    metrics = {
        "throughput_qps": timed["ok"] / timed["busy_scaled"],
        "latency_p50_ms": stats.nearest_rank(scaled_sorted, 50.0) * 1000.0,
        "latency_tail_ms": stats.nearest_rank(scaled_sorted, tail) * 1000.0,
        "setup_s": statistics.median(
            elapsed * scale for elapsed, scale in result["setups"]
        ),
        "peak_rss_mb": result["rss_mb"],
    }
    raw_metrics = {
        "throughput_qps": timed["ok"] / timed["busy"],
        "latency_p50_ms": stats.nearest_rank(raw, 50.0) * 1000.0,
        "latency_tail_ms": stats.nearest_rank(raw, tail) * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["rss_mb"],
    }
    return metrics, raw_metrics, tail


def per_layer(name: str, result: dict) -> tuple[dict, list[str]]:
    timed, traced = result["pass"], result["traced"]
    problems = []
    metrics = dict(traced["metrics"])
    untraced_mean = statistics.fmean(scaled(timed["latencies"], timed["factors"]))
    traced_pass = traced["pass"]
    traced_mean = statistics.fmean(
        scaled(traced_pass["latencies"], traced_pass["factors"])
    )
    overhead = traced_mean / untraced_mean - 1.0
    metrics["trace.coverage_frac"] = traced["coverage"]
    metrics["trace.overhead_frac"] = overhead
    writes = scaled(timed["write_latencies"], timed["write_factors"])
    metrics["write_latency_p50_ms"] = (
        statistics.median(writes) * 1000.0 if writes else 0.0
    )
    print(f"traced self time per op by layer ({name}):")
    for layer, value in traced["self_ms_by_layer"].items():
        print(f"  {layer:20s} {value:10.3f} ms")
    print(
        f"coverage {traced['coverage']:.4f} of traced per-op wall time; "
        f"unattributed {1.0 - traced['coverage']:.4f}"
    )
    print(
        f"tracing overhead: mean op {untraced_mean * 1000:.3f} ms untraced, "
        f"{traced_mean * 1000:.3f} ms traced, at reference speed "
        f"({overhead:+.2%})"
    )
    if traced["coverage"] < COVERAGE_FLOOR:
        problems.append(
            f"per-layer coverage {traced['coverage']:.3f} < {COVERAGE_FLOOR}"
        )
    if traced_pass["counts"] != timed["counts"]:
        problems.append("traced pass counts differ from the untraced pass")
    return metrics, problems


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            "error: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import plan
    import servetcp
    import speed
    import tracing

    if args.workload not in plan.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = plan.WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        import numpy

        print(
            f"workload {args.workload} seed {args.seed} seconds "
            f"{args.seconds:g} trace {args.trace}"
        )
        print(
            f"nproc {len(os.sched_getaffinity(0))} python "
            f"{platform.python_version()} numpy {numpy.__version__} "
            f"OPENBLAS_NUM_THREADS {os.environ['OPENBLAS_NUM_THREADS']}"
        )
        write_relations(workload, args.seed, tmp)
        if args.workload == "serve-tcp":
            result = servetcp.run(
                args.seed, args.seconds, bool(args.trace), tmp, env
            )
        else:
            subprocess.run(
                [
                    sys.executable,
                    str(HERE / "inproc.py"),
                    args.workload,
                    str(args.seed),
                    str(args.seconds),
                    str(args.trace),
                    str(tmp),
                ],
                env=env,
                check=True,
                timeout=170,
            )
            result = json.loads((tmp / "result.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    timed = result["pass"]
    problems = list(timed["failures"])
    attempted = timed["attempted"]
    failed = len(timed["failures"])
    counts = dict(timed["counts"])
    try:
        metrics, raw_metrics, tail = end_to_end(result)
    except ValueError as error:
        print(f"error: --seconds too short: {error}", file=sys.stderr)
        return 2
    units = dict(END_TO_END)
    speeds = timed["factors"]
    print(
        f"operations {attempted} (latency samples {len(timed['latencies'])}, "
        f"tail percentile p{tail:g}), failed_frac {failed / attempted:.4f}"
    )
    print(
        f"machine speed vs reference (probe {speed.REFERENCE_SECONDS * 1000:g}"
        f" ms): median {statistics.median(speeds):.3f}, range "
        f"{min(speeds):.3f}-{max(speeds):.3f}"
    )
    print(f"  {'metric':28s} {'at ref speed':>14s} {'raw':>14s}")
    for key, value in metrics.items():
        label = f"{key} (p{tail:g})" if key == "latency_tail_ms" else key
        print(
            f"  {label:28s} {value:14.4f} {raw_metrics[key]:14.4f} {units[key]}"
        )
    if timed["write_latencies"]:
        writes = scaled(timed["write_latencies"], timed["write_factors"])
        print(
            f"  {'write_latency_p50_ms':28s} "
            f"{statistics.median(writes) * 1000:14.4f} "
            f"{statistics.median(timed['write_latencies']) * 1000:14.4f} ms"
        )
    if args.trace:
        traced = result["traced"]
        metrics, layer_problems = per_layer(args.workload, result)
        problems += layer_problems + traced["pass"]["failures"]
        attempted += traced["pass"]["attempted"]
        failed += len(traced["pass"]["failures"])
        counts.update(
            {f"traced.{key}": value for key, value in traced["counts"].items()}
        )
        units = {name: unit for name, unit in tracing.PER_LAYER}
        units.update(
            {
                "trace.coverage_frac": "frac",
                "trace.overhead_frac": "frac",
                "write_latency_p50_ms": "ms",
            }
        )
        for key, value in metrics.items():
            print(f"  {key:34s} {value:14.4f} {units[key]}")
    mismatches = check_counts(args.workload, args, counts)
    problems += mismatches
    print(f"counts {json.dumps(counts, sort_keys=True)}")
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
