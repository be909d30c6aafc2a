"""The per-version memo: each relation object builds its digest and
columns once, lazily, and concurrent first readers share one build.

The digest is assembled from per-row JSON fragments; it must equal the
SHA-256 of the whole canonical-JSON document, and the digests of
``DIGEST_CASES`` are pinned in ``tests/golden/relation_digests.json``
(recorded by the whole-document hash).  Regenerate that fixture only
for an intended change of digests::

    PYTHONPATH=src python tests/test_relation_memo.py
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import attribute_workload, tuple_workload
from repro.core.columnar import AttributeColumns, TupleColumns
from repro.datagen.attribute_gen import generate_attribute_relation
from repro.datagen.tuple_gen import generate_tuple_relation
from repro.engine import MaintainedTupleStore, ProbabilisticDatabase
from repro.engine.io import load_json, relation_document, save_json
from repro.exceptions import InvalidRuleError
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    ExclusionRule,
    TupleLevelRelation,
    TupleLevelTuple,
)
from repro.models.pdf import PROBABILITY_TOLERANCE
from repro.obs import capture

ROOT = Path(__file__).resolve().parents[1]
DIGEST_FIXTURE = ROOT / "tests" / "golden" / "relation_digests.json"

_ESCAPED_TIDS = (
    'quo"te',
    "back\\slash",
    "caf\u00e9",
    "\u65e5\u672c",
    "tab\t\n",
    "\U0001f3b2",
)
_ODD_ATTRIBUTES = {
    "zeta": [1, 2.5, None, True, "\u00fc"],
    "alpha": {"z": -0.0, "a": [{"k": 1e-300}, []], "m": {}},
    "count": 3,
    "flag": False,
}


def _escaped_tuple() -> TupleLevelRelation:
    rows = [
        TupleLevelTuple(tid, 10.0 - index, 0.3, {"label": tid})
        for index, tid in enumerate(_ESCAPED_TIDS)
    ]
    rules = [
        ExclusionRule('rule "q" \u00e9', [_ESCAPED_TIDS[0], _ESCAPED_TIDS[3]])
    ]
    return TupleLevelRelation(rows, rules=rules)


def _escaped_attribute() -> AttributeLevelRelation:
    return AttributeLevelRelation(
        AttributeTuple(tid, DiscretePDF([index, 2.5], [0.5, 0.5]), {tid: tid})
        for index, tid in enumerate(_ESCAPED_TIDS)
    )


def _odd_attributes_tuple() -> TupleLevelRelation:
    return TupleLevelRelation(
        [
            TupleLevelTuple("a", 3.0, 0.5, _ODD_ATTRIBUTES),
            TupleLevelTuple("b", 2.0, 0.25, {"n": 1}),
            TupleLevelTuple("c", 1.0, 0.25),
        ],
        rules=[ExclusionRule("r", ["c", "a"])],
    )


def _odd_attributes_attribute() -> AttributeLevelRelation:
    return AttributeLevelRelation(
        [
            AttributeTuple("a", DiscretePDF([1.0], [1.0]), _ODD_ATTRIBUTES),
            AttributeTuple("b", DiscretePDF([2.0], [1.0]), {"n": 1}),
        ]
    )


def _extreme_scores_tuple() -> TupleLevelRelation:
    scores = (-0.0, 1e-7, 1e16, 5e-324, -1e308, 0.1 + 0.2, 7, np.float64(2.5))
    return TupleLevelRelation(
        TupleLevelTuple(f"s{index}", score, np.float64(0.1) * (index % 3))
        for index, score in enumerate(scores)
    )


def _extreme_scores_attribute() -> AttributeLevelRelation:
    return AttributeLevelRelation(
        [
            AttributeTuple(
                "x", DiscretePDF([-0.0, 1e-7, 1e16], [0.2, 0.3, 0.5])
            ),
            AttributeTuple(
                "y", DiscretePDF([5e-324, 100, 70], [0.1, 0.4, 0.5])
            ),
            AttributeTuple(
                "z",
                DiscretePDF(
                    [np.float64(0.1) + np.float64(0.2), np.float64(3.0)],
                    [np.float64(0.25), np.float64(0.75)],
                ),
            ),
        ]
    )


def _clamped_probability_tuple() -> TupleLevelRelation:
    return TupleLevelRelation(
        [
            TupleLevelTuple("sure", 5.0, 1.0 + PROBABILITY_TOLERANCE),
            TupleLevelTuple("half", 4.0, 0.5),
            TupleLevelTuple("rest", 3.0, 0.5 + PROBABILITY_TOLERANCE / 2),
        ],
        rules=[ExclusionRule("pair", ["half", "rest"])],
    )


#: Relations whose digests are pinned in ``DIGEST_FIXTURE``.
DIGEST_CASES = {
    "tuple-uu": lambda: tuple_workload("uu", 200, seed=11),
    "tuple-zipf": lambda: tuple_workload("zipf", 200, seed=12),
    "tuple-rule3": lambda: generate_tuple_relation(
        120, rule_fraction=0.6, rule_size=3, seed=13
    ),
    "attribute-uu": lambda: attribute_workload("uu", 60, pdf_size=4, seed=14),
    "attribute-zipf": lambda: attribute_workload(
        "zipf", 60, pdf_size=4, seed=15
    ),
    "tuple-empty": lambda: TupleLevelRelation([]),
    "attribute-empty": lambda: AttributeLevelRelation([]),
    "tuple-escaped-tids": _escaped_tuple,
    "attribute-escaped-tids": _escaped_attribute,
    "tuple-odd-attributes": _odd_attributes_tuple,
    "attribute-odd-attributes": _odd_attributes_attribute,
    "tuple-extreme-scores": _extreme_scores_tuple,
    "attribute-extreme-scores": _extreme_scores_attribute,
    "tuple-clamped-probability": _clamped_probability_tuple,
}


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

    @pytest.mark.parametrize("case", sorted(DIGEST_CASES))
    def test_digest_matches_the_from_scratch_hash(self, case):
        relation = DIGEST_CASES[case]()
        expected = _document_digest(relation)
        assert capture.relation_digest(relation) == expected
        # A second digest reads the kept row fragments.
        assert relation.digest() == expected
        assert capture.relation_digest(relation) == expected

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


def _document_digest(relation) -> str:
    """The digest's definition: SHA-256 of the whole document as
    canonical JSON."""
    text = json.dumps(relation_document(relation), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class TestPinnedDigests:
    @pytest.fixture(scope="class")
    def pinned(self) -> dict:
        return json.loads(DIGEST_FIXTURE.read_text(encoding="utf-8"))

    def test_fixture_covers_every_case(self, pinned):
        assert sorted(pinned) == sorted(DIGEST_CASES)

    @pytest.mark.parametrize("case", sorted(DIGEST_CASES))
    def test_digest_is_pinned(self, pinned, case):
        assert DIGEST_CASES[case]().digest() == pinned[case]


def _random_writes(store, rng, writes):
    """Apply ``writes`` seeded random updates, yielding after each.

    Inserted ids carry the store version, so repeated calls on one
    store never reuse an id.
    """
    for _ in range(writes):
        kind = rng.choice(("insert", "delete", "probability", "score"))
        tids = sorted(store.score_order())
        try:
            if kind == "insert" or len(tids) < 5:
                rule = rng.choice((None, None, "g0", "g1", "g2"))
                store.insert(
                    f"n{store.version}",
                    score=rng.uniform(0.0, 100.0),
                    probability=rng.uniform(0.01, 0.3),
                    rule=rule,
                )
            elif kind == "delete":
                store.delete(rng.choice(tids))
            elif kind == "probability":
                store.update_probability(
                    rng.choice(tids), rng.uniform(0.0, 0.6)
                )
            else:
                store.update_score(rng.choice(tids), rng.uniform(0.0, 100.0))
        except InvalidRuleError:
            continue  # a rule would exceed mass 1; the store is unchanged
        yield kind


def _pickled(row):
    return pickle.loads(pickle.dumps(row))


class TestStoreDigests:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_snapshot_digest_matches_the_oracle(self, seed, tmp_path):
        rng = random.Random(seed)
        store = MaintainedTupleStore.from_relation(
            generate_tuple_relation(
                40, rule_fraction=0.5, rule_size=3, seed=seed
            )
        )
        multi_member = 0
        for step, _ in enumerate(_random_writes(store, rng, 60)):
            snapshot = store.snapshot()
            digest = snapshot.digest()
            assert digest == _document_digest(snapshot)
            path = tmp_path / f"{step}.json"
            save_json(snapshot, path)
            reloaded = load_json(path)
            assert reloaded.digest() == digest
            multi_member += len(snapshot.explicit_rules)
        assert multi_member > 0

    def test_copied_and_pickled_rows_keep_the_digest(self):
        for relation in (
            _odd_attributes_tuple(),
            _escaped_tuple(),
            _odd_attributes_attribute(),
            _extreme_scores_attribute(),
        ):
            digest = relation.digest()
            assert all(row._json is not None for row in relation)
            for clone in (copy.copy, _pickled):
                rows = [clone(row) for row in relation]
                assert [row._json for row in rows] == [
                    row._json for row in relation
                ]
                if isinstance(relation, TupleLevelRelation):
                    rebuilt = TupleLevelRelation(
                        rows, rules=relation.explicit_rules
                    )
                else:
                    rebuilt = AttributeLevelRelation(rows)
                assert rebuilt.digest() == digest

    def test_snapshot_digest_encodes_only_changed_rows(self, monkeypatch):
        encoded = []
        real = capture._tuple_row_json

        def counting(row):
            encoded.append(row.tid)
            return real(row)

        monkeypatch.setattr(capture, "_tuple_row_json", counting)
        store = MaintainedTupleStore.from_relation(
            generate_tuple_relation(300, seed=16)
        )
        store.snapshot().digest()
        assert len(encoded) == 300
        rng = random.Random(16)
        for writes in (1, 3, 10):
            encoded.clear()
            changed = sum(1 for _ in _random_writes(store, rng, writes))
            snapshot = store.snapshot()
            assert snapshot.digest() == _document_digest(snapshot)
            assert len(encoded) <= changed


    def test_rule_membership_changes_keep_the_document_digest(
        self, monkeypatch
    ):
        """Rules grow, shrink to a singleton (leaving the document),
        vanish and re-form; each new rule object's fragment is encoded
        once, rules shared with a digested version not at all."""
        encoded = []
        real = capture._rule_json

        def counting(rule):
            encoded.append(rule.rule_id)
            return real(rule)

        monkeypatch.setattr(capture, "_rule_json", counting)
        store = MaintainedTupleStore.from_relation(
            generate_tuple_relation(
                60, rule_fraction=0.5, rule_size=3, seed=21
            )
        )
        first = store.snapshot()
        assert first.digest() == _document_digest(first)
        assert len(encoded) == len(first.explicit_rules) > 2
        grown, shrunk, vanished = first.explicit_rules[:3]
        encoded.clear()
        store.insert("new", score=5.0, probability=0.0, rule=grown.rule_id)
        for tid in shrunk.tids[1:]:
            store.delete(tid)
        for tid in vanished.tids:
            store.delete(tid)
        second = store.snapshot()
        assert second.digest() == _document_digest(second)
        assert encoded == [grown.rule_id]
        assert shrunk.rule_id not in {
            rule.rule_id for rule in second.explicit_rules
        }
        encoded.clear()
        store.insert("back", score=1.0, probability=0.0, rule=shrunk.rule_id)
        third = store.snapshot()
        assert third.digest() == _document_digest(third)
        assert encoded == [shrunk.rule_id]

    def test_explicit_singleton_rules_stay_out_of_the_digest(self):
        rows = [TupleLevelTuple(tid, 1.0, 0.5) for tid in "abc"]
        relation = TupleLevelRelation(
            rows,
            rules=[ExclusionRule("solo", ["a"]), ExclusionRule("p", "bc")],
        )
        assert relation.digest() == _document_digest(relation)
        plain = TupleLevelRelation(
            rows, rules=[ExclusionRule("p", "bc")]
        )
        assert plain.digest() == relation.digest()


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


def _record() -> None:
    pinned = {
        case: DIGEST_CASES[case]().digest() for case in sorted(DIGEST_CASES)
    }
    DIGEST_FIXTURE.write_text(
        json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    _record()
