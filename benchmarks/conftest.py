"""Shared infrastructure for the experiment suite.

Every experiment prints a paper-style table.  Because pytest captures
stdout, tables are (a) written to ``benchmarks/results/<exp>.txt`` so
they survive any run, and (b) replayed in the terminal summary at the
end of the session so ``pytest benchmarks/ --benchmark-only`` shows
them inline.

A session rewrites only the tables it records: the first ``record``
of an experiment id in a session truncates its file and later ones
append, so running one benchmark file (or a ``-m smoke`` slice) leaves
every other committed table as it was.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import Table

RESULTS_DIR = Path(__file__).parent / "results"

_SESSION_TABLES: list[Table] = []
_SESSION_IDS: set[str] = set()


@pytest.fixture
def record():
    """Persist a finished table and queue it for the terminal summary.

    Usage: ``record("e03_attr_scaling", table)``.
    """

    def _record(experiment_id: str, table: Table) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}.txt"
        rendered = table.render()
        if experiment_id in _SESSION_IDS:
            path.write_text(path.read_text() + "\n\n" + rendered + "\n")
        else:
            _SESSION_IDS.add(experiment_id)
            path.write_text(rendered + "\n")
        _SESSION_TABLES.append(table)
        print()
        print(rendered)

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _SESSION_TABLES:
        return
    terminalreporter.write_sep("=", "experiment tables")
    for table in _SESSION_TABLES:
        terminalreporter.write_line("")
        for line in table.render().splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
    terminalreporter.write_line(
        f"tables also written to {RESULTS_DIR}/"
    )
