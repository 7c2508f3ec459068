"""The route and error tables of docs/GATEWAY.md name what the gateway does.

A documented route that parses to no declared one, a declared route the
table does not list, and a documented status or header the gateway does
not answer with are bugs.
"""

import re
from pathlib import Path

from repro.gateway.routes import ERRORS, ROUTES, error_answer, parse_route

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


#: What the header values of a row read off its exception.
_CARRIED = {"allow": "GET, HEAD", "etag": "e", "object_size": 7, "retry_after": 1.0}


def test_every_documented_error_answers_its_status():
    classes = {row.cls.__name__: row.cls for row in ERRORS}
    documented = set()
    for _condition, exception, status, headers in _table("Condition"):
        statuses = {int(code) for code in re.findall(r"\b\d{3}\b", status)}
        names = set(re.findall(r"`([A-Za-z-]+):", headers))
        if exception == "—":
            exc = RuntimeError("unmapped")
        else:
            name = exception.strip("`")
            exc = classes[name].__new__(classes[name])
            exc.__dict__.update(_CARRIED)
            documented.add(name)
        answer_status, answer_headers = error_answer(exc)
        assert answer_status in statuses, exception
        assert set(answer_headers) == names, exception
    # A typed error whose answer is not a plain 500 is documented.
    assert {row.cls.__name__ for row in ERRORS if row.status != 500} <= documented
