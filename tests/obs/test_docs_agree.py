"""The metric reference in docs/OBSERVABILITY.md names what is emitted.

A documented series, label, event type or log event that nothing emits
is a bug, as is an emitted one the reference does not name.  What the
code declares is read off ``src/`` with ``ast``: the literal name of
every ``counter`` / ``gauge`` / ``histogram`` family, of every
``emit(...)`` event and of every structured-log line.
"""

import ast
import itertools
import re
from pathlib import Path

from repro.cluster.engine import _EngineTimers
from repro.core.controlplane import _WORKERS
from repro.providers.health import BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "OBSERVABILITY.md"

#: The values a name formatted into an event name takes, by the variable
#: the f-string formats: ``f"breaker.{new}"``, ``f"controlplane.{name}"``.
_FORMATTED = {
    "new": (BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN),
    "name": tuple(_WORKERS),
}
_LOG_LEVELS = ("debug", "info", "warning", "error")
_EVENT_NAME = re.compile(r"[a-z_]+(\.[a-z_]+)+").fullmatch


def _row(series: str) -> list:
    """The cells of the reference table's row for ``series``."""
    for line in DOC.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells and cells[0] == f"`{series}`":
            return cells
    raise AssertionError(f"docs/OBSERVABILITY.md has no row for {series}")


def _first_cells(header: str) -> list:
    """The first cell of each body row of the table headed ``| header |``."""
    cells, inside = [], False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            if inside:
                break
            continue
        first = line.strip("|").split("|")[0].strip()
        if not inside:
            inside = first == header
        elif set(first) - set("-"):
            cells.append(first)
    assert cells, f"docs/OBSERVABILITY.md has no table headed {header!r}"
    return cells


def _names(node) -> set:
    """The names a call's name argument can take: a literal, or an
    f-string over :data:`_FORMATTED`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if not isinstance(node, ast.JoinedStr):
        return set()
    parts = []
    for part in node.values:
        if isinstance(part, ast.Constant):
            parts.append((part.value,))
        else:
            variable = ast.unparse(part.value)
            assert variable in _FORMATTED, (
                f"{ast.unparse(node)}: teach _FORMATTED what {variable!r} takes"
            )
            parts.append(_FORMATTED[variable])
    return {"".join(combo) for combo in itertools.product(*parts)}


def _declared() -> tuple:
    """(metric families, emitted event types, log events) in ``src/``."""
    families, events, logs = set(), set(), set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            method, args = node.func.attr, node.args
            if method in ("counter", "gauge", "histogram") and args:
                families |= {n for n in _names(args[0]) if n.startswith("scalia_")}
            elif method == "emit" and args:
                events |= _names(args[0])
            elif method in _LOG_LEVELS and args:
                logs |= {n for n in _names(args[0]) if _EVENT_NAME(n)}
            elif method == "log" and len(args) > 1:
                logs |= {n for n in _names(args[1]) if _EVENT_NAME(n)}
    return families, events, logs


def _log_bullets() -> set:
    """The log events the "Structured logs" bullets name, each before the
    parenthesised level that follows it."""
    text = DOC.read_text(encoding="utf-8").partition("## Structured logs")[2]
    section = text.partition("\n## ")[0]
    names = set()
    for bullet in re.split(r"\n- ", section)[1:]:
        names |= set(re.findall(r"`([a-z_.]+)`", bullet.partition("(")[0]))
    return names


def test_engine_op_labels_are_the_timed_ops():
    _series, kind, labels, meaning = _row("engine_op_seconds")
    assert (kind, labels) == ("histogram", "`op`")
    listed = meaning.partition("engine public ops:")[2].partition(".")[0]
    assert tuple(re.findall(r"`([a-z_]+)`", listed)) == _EngineTimers._OPS


def test_every_declared_family_has_a_row_and_every_row_is_declared():
    documented = {
        f"scalia_{name}"
        for cell in _first_cells("Series")
        for name in re.findall(r"`([a-z_]+)`", cell)
    }
    declared = _declared()[0]
    assert sorted(declared - documented) == [], "declared, not documented"
    assert sorted(documented - declared) == [], "documented, not declared"


def test_every_emitted_event_type_is_documented_and_every_documented_one_emitted():
    documented = {
        name for cell in _first_cells("Type") for name in re.findall(r"`([a-z_.]+)`", cell)
    }
    emitted = _declared()[1]
    assert sorted(emitted - documented) == [], "emitted, not documented"
    assert sorted(documented - emitted) == [], "documented, not emitted"


def test_every_log_event_is_documented_and_every_documented_one_written():
    documented = _log_bullets()
    written = _declared()[2]
    assert sorted(written - documented) == [], "written, not documented"
    assert sorted(documented - written) == [], "documented, not written"
