"""The per-version memo: each relation object builds its digest and
columns once, lazily, and concurrent first readers share one build."""

from __future__ import annotations

import copy
import gc
import json
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.core.columnar import AttributeColumns, TupleColumns
from repro.datagen.attribute_gen import generate_attribute_relation
from repro.datagen.tuple_gen import generate_tuple_relation
from repro.engine import ProbabilisticDatabase
from repro.engine.io import load_json, save_json
from repro.obs import capture

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def builds(monkeypatch):
    """Count (and slow down) every digest and column build."""
    counts = {"digest": 0, "TupleColumns": 0, "AttributeColumns": 0}
    lock = threading.Lock()
    real_digest = capture.relation_digest

    def digest(relation):
        with lock:
            counts["digest"] += 1
        time.sleep(0.02)  # widen the race window
        return real_digest(relation)

    monkeypatch.setattr(capture, "relation_digest", digest)
    for cls in (TupleColumns, AttributeColumns):
        real = cls.__dict__["from_relation"].__func__

        def build(klass, relation, real=real, name=cls.__name__):
            with lock:
                counts[name] += 1
            time.sleep(0.02)
            return real(klass, relation)

        monkeypatch.setattr(cls, "from_relation", classmethod(build))
    return counts


def _race(target, threads: int = 8) -> list:
    barrier = threading.Barrier(threads)
    results: list = [None] * threads

    def run(index: int) -> None:
        barrier.wait()
        results[index] = target()

    workers = [
        threading.Thread(target=run, args=(index,)) for index in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return results


class TestSingleFlight:
    def test_racing_threads_build_each_value_once(self, builds):
        relation = generate_tuple_relation(300, seed=1)

        def read():
            return relation.columns(), relation.digest()

        results = _race(read)
        assert builds["TupleColumns"] == 1
        assert builds["digest"] == 1
        assert len({id(columns) for columns, _ in results}) == 1
        assert len({digest for _, digest in results}) == 1

    def test_racing_queries_and_coalescing_keys(self, builds):
        from repro.core.semantics import rank

        db = ProbabilisticDatabase()
        db.create_relation("live", generate_tuple_relation(300, seed=2))

        def query():
            rank(db.relation("live"), 5, "expected_rank_prune")
            return db.relation_digest("live")

        assert len(set(_race(query))) == 1
        assert builds["TupleColumns"] == 1
        assert builds["digest"] == 1

    def test_attribute_columns_built_once(self, builds):
        relation = generate_attribute_relation(40, seed=3)
        _race(relation.columns)
        assert builds["AttributeColumns"] == 1

    def test_failed_build_is_retried(self, monkeypatch):
        relation = generate_tuple_relation(20, seed=4)
        calls = []

        def flaky(relation):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return "d" * 16

        monkeypatch.setattr(capture, "relation_digest", flaky)
        with pytest.raises(RuntimeError):
            relation.digest()
        assert relation.digest() == "d" * 16
        assert relation.digest() == "d" * 16
        assert len(calls) == 2


class TestLaziness:
    def test_create_and_load_build_nothing(self, builds, tmp_path):
        relation = generate_tuple_relation(50, seed=5)
        save_json(relation, tmp_path / "r.json")
        db = ProbabilisticDatabase()
        db.create_relation("r", relation)
        db.create_relation("s", load_json(tmp_path / "r.json"))
        ProbabilisticDatabase.load(tmp_path)
        assert builds == {
            "digest": 0,
            "TupleColumns": 0,
            "AttributeColumns": 0,
        }
        assert db.relation_digest("r") == db.relation_digest("s")
        assert builds["digest"] == 2

    def test_digest_matches_the_from_scratch_hash(self):
        relation = generate_tuple_relation(30, seed=6)
        assert relation.digest() == capture.relation_digest(relation)

    def test_copy_and_pickle_start_cold(self, builds):
        relation = generate_tuple_relation(30, seed=7)
        relation.columns()
        clone = copy.copy(relation)
        revived = pickle.loads(pickle.dumps(relation))
        assert clone.tids() == revived.tids() == relation.tids()
        assert builds["TupleColumns"] == 1
        clone.columns()
        revived.columns()
        assert builds["TupleColumns"] == 3
        assert clone.digest() == revived.digest() == relation.digest()

    def test_replaced_versions_are_freed(self):
        db = ProbabilisticDatabase()
        old = generate_tuple_relation(200, seed=8)
        db.create_relation("live", old)
        db.topk("live", 5)
        db.relation_digest("live")
        ref = weakref.ref(old)
        db.replace_relation("live", generate_tuple_relation(200, seed=9))
        del old
        gc.collect()
        assert ref() is None
        db.clear_query_log()


def test_traced_run_hooks_install_and_see_memo_builds():
    """The perfbench tracer patches these names through
    ``owner.__dict__``; a moved hook fails every traced run."""
    script = textwrap.dedent(
        """
        import json
        import sys
        sys.path.insert(0, "perfbench")
        import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)
        from repro.datagen.tuple_gen import generate_tuple_relation
        from repro.engine import ProbabilisticDatabase
        db = ProbabilisticDatabase()
        db.create_relation("r", generate_tuple_relation(50, seed=1))
        db.relation_digest("r")
        db.topk("r", 3)
        db.topk("r", 3, "expected_rank_prune")
        print(json.dumps([span[1] for span in recorder.spans]))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    names = json.loads(done.stdout.strip().splitlines()[-1])
    assert names.count("engine.database.digest") == 1
    assert names.count("core.columnar.build") == 1
    assert names.count("core.rank") == 2
