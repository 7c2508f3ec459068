"""The metric reference in docs/OBSERVABILITY.md names what is emitted.

A documented series or label that nothing emits is a bug, as is an
emitted one the reference does not name.
"""

import re
from pathlib import Path

from repro.cluster.engine import _EngineTimers

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def _row(series: str) -> list:
    """The cells of the reference table's row for ``series``."""
    for line in DOC.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells and cells[0] == f"`{series}`":
            return cells
    raise AssertionError(f"docs/OBSERVABILITY.md has no row for {series}")


def test_engine_op_labels_are_the_timed_ops():
    _series, kind, labels, meaning = _row("engine_op_seconds")
    assert (kind, labels) == ("histogram", "`op`")
    listed = meaning.partition("engine public ops:")[2].partition(".")[0]
    assert tuple(re.findall(r"`([a-z_]+)`", listed)) == _EngineTimers._OPS
