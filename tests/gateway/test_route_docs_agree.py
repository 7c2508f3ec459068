"""The route and error tables of docs/GATEWAY.md name what the gateway does.

A documented route that parses to no declared one, a declared route the
table does not list, and a documented status the gateway does not answer
are bugs.
"""

import re
from pathlib import Path

from repro.gateway.routes import ERRORS, ROUTES, parse_route, status_for_exception

DOC = Path(__file__).resolve().parents[2] / "docs" / "GATEWAY.md"


def _table(first_header: str) -> list:
    """The body rows, as cell lists, of the table whose header row starts
    with ``first_header`` (``\\|`` inside a cell is a literal ``|``)."""
    rows, inside = [], False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            if inside:
                break
            continue
        cells = [
            cell.strip().replace("\\|", "|")
            for cell in re.split(r"(?<!\\)\|", line.strip())[1:-1]
        ]
        if not inside:
            inside = cells[0] == first_header
        elif set(cells[0]) - set("-"):
            rows.append(cells)
    assert rows, f"docs/GATEWAY.md has no table headed {first_header!r}"
    return rows


def test_every_route_is_documented_once_and_every_documented_one_is_declared():
    documented = []
    for method, path, *_ in _table("Method"):
        target = path.strip("`").replace("{bucket}", "bkt").replace("{key}", "k")
        documented.append((method, parse_route(method, target).handler))
    declared = [(method, handler) for row in ROUTES for method, handler in row.methods.items()]
    assert sorted(documented) == sorted(declared)


def test_every_documented_error_answers_its_status():
    classes = {row.cls.__name__: row.cls for row in ERRORS}
    documented = set()
    for _condition, exception, status in _table("Condition"):
        statuses = {int(code) for code in re.findall(r"\b\d{3}\b", status)}
        if exception == "—":
            assert status_for_exception(RuntimeError("unmapped")) in statuses
            continue
        name = exception.strip("`")
        cls = classes[name]
        assert status_for_exception(cls.__new__(cls)) in statuses, name
        documented.add(name)
    # A typed error whose answer is not a plain 500 is documented.
    assert {row.cls.__name__ for row in ERRORS if row.status != 500} <= documented
