"""JSON and JSON-lines artifacts: the one writer and reader of each format.

A reader raises ValueError naming the file, and for JSON lines the line,
when the text is not JSON or `parse` finds it malformed (a missing key, a
wrong type or value).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

# What `parse` raises on a document of the wrong shape.
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError)


def write_json(path: Path | str, obj, indent: Optional[int] = 1) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=indent, sort_keys=True), encoding="utf-8")
    return path


def read_json(path: Path | str, parse: Callable = lambda obj: obj) -> Any:
    """parse(the document in `path`)."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except _MALFORMED as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_jsonl(path: Path | str, rows: Iterable, encode: Callable[[Any], str] = json.dumps) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(row) + "\n" for row in rows)
    return path


def read_jsonl(path: Path | str, parse: Callable = lambda obj: obj, parse_float=None) -> Iterator:
    """parse(the object on each line of `path`), one line at a time;
    `parse_float`, as in json.loads, reads the numbers with a fraction."""
    decode = json.JSONDecoder(parse_float=parse_float).decode
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                row = parse(decode(line.decode("utf-8")))
            except _MALFORMED as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            yield row
