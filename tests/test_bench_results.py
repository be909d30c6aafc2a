"""The experiment suite's ``record`` fixture rewrites only its own tables.

``benchmarks/conftest.py`` persists each experiment table to
``results/<id>.txt``.  A session that runs one benchmark file must
leave every other committed table byte for byte as it was; the tables
it records start fresh, and a second table under the same id in the
same session is appended.
"""

from __future__ import annotations

from pathlib import Path

pytest_plugins = ["pytester"]

CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"


def test_one_file_session_rewrites_only_its_tables(pytester):
    pytester.makeconftest(CONFTEST.read_text(encoding="utf-8"))
    results = pytester.path / "results"
    results.mkdir()
    others = {
        "e01_other.txt": b"a committed table\n",
        "e17_other.txt": b"alpha  0.001  0.524\r\n\xff\n",
    }
    for name, data in others.items():
        (results / name).write_bytes(data)
    (results / "e05_mine.txt").write_text("a stale table\n")
    pytester.makepyfile(
        test_one_experiment="""
        from repro.bench import Table

        def test_records_two_tables(record):
            for title in ("first", "second"):
                table = Table(title, ["value"])
                table.add_row([1])
                record("e05_mine", table)
        """
    )

    pytester.runpytest().assert_outcomes(passed=1)

    for name, data in others.items():
        assert (results / name).read_bytes() == data
    mine = (results / "e05_mine.txt").read_text()
    assert "stale" not in mine
    assert mine.index("first") < mine.index("second")
    assert sorted(path.name for path in results.iterdir()) == sorted(
        [*others, "e05_mine.txt"]
    )
