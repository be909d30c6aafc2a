"""Measurement utilities behind the benchmark suite.

The experiment scripts report their results the way the paper does —
one table per figure, rows over a swept parameter, columns per
algorithm or distribution.  This module supplies the shared pieces:
wall-clock timing with repetition, sweep execution, and fixed-width
table rendering that survives ``pytest -s`` output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

__all__ = ["measure_seconds", "Table", "geometric_sweep", "growth_exponent"]


def measure_seconds(
    function: Callable[..., object],
    *,
    repeats: int = 3,
    warmup: int = 0,
    setup: Callable[[], object] | None = None,
) -> float:
    """Median wall-clock seconds of ``function()`` over ``repeats`` runs.

    With ``setup``, every run (warm-ups included) calls
    ``function(setup())`` and times only ``function``: e.g.
    ``setup=lambda: copy.copy(relation)`` hands each run a relation
    version whose columns are not built yet.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")

    def arguments() -> tuple:
        return () if setup is None else (setup(),)

    for _ in range(warmup):
        function(*arguments())
    samples = []
    for _ in range(repeats):
        args = arguments()
        start = time.perf_counter()
        function(*args)
        samples.append(time.perf_counter() - start)
    samples.sort()
    middle = len(samples) // 2
    if len(samples) % 2:
        return samples[middle]
    return 0.5 * (samples[middle - 1] + samples[middle])


def geometric_sweep(start: int, stop: int, *, factor: int = 2) -> list[int]:
    """``[start, start*factor, ...]`` up to and including ``stop``."""
    if start < 1 or stop < start or factor < 2:
        raise ValueError(
            f"invalid sweep (start={start!r}, stop={stop!r}, "
            f"factor={factor!r})"
        )
    values = []
    current = start
    while current <= stop:
        values.append(current)
        current *= factor
    return values


@dataclass
class Table:
    """A fixed-width results table, printed like the paper's figures.

    >>> table = Table("Demo", ["N", "time"])
    >>> table.add_row([100, 0.5])
    >>> text = table.render()
    """

    title: str
    columns: Sequence[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, values: Iterable[object]) -> None:
        """Append one row; lengths must match the header."""
        row = list(values)
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(row)

    def add_note(self, note: str) -> None:
        """Attach a free-form footnote rendered under the table."""
        self.notes.append(note)

    @staticmethod
    def _format_cell(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if value == 0.0:
                return "0"
            magnitude = abs(value)
            if magnitude >= 1000 or magnitude < 0.001:
                return f"{value:.3e}"
            return f"{value:.4g}"
        return str(value)

    def render(self) -> str:
        """The table as aligned monospaced text."""
        cells = [[self._format_cell(value) for value in row]
                 for row in self.rows]
        widths = [len(name) for name in self.columns]
        for row in cells:
            for index, text in enumerate(row):
                widths[index] = max(widths[index], len(text))
        separator = "-+-".join("-" * width for width in widths)
        lines = [self.title]
        lines.append(
            " | ".join(
                name.ljust(width)
                for name, width in zip(self.columns, widths)
            )
        )
        lines.append(separator)
        for row in cells:
            lines.append(
                " | ".join(
                    text.rjust(width) for text, width in zip(row, widths)
                )
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        """Print the rendered table, framed by blank lines."""
        print()
        print(self.render())
        print()

    def column(self, name: str) -> list[object]:
        """All values of one column, for programmatic assertions."""
        try:
            index = list(self.columns).index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        return [row[index] for row in self.rows]


def growth_exponent(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size).

    The scalability experiments assert *shape*, not absolute speed: an
    ``O(N log N)`` algorithm's exponent stays near one while a
    quadratic one approaches two.
    """
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need two aligned samples at least")
    xs = [math.log(value) for value in sizes]
    ys = [math.log(max(value, 1e-12)) for value in times]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    numerator = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    )
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator
