"""Plain-text instance format, and the JSON writer for every report.

Layout: first line ``n m``; then for each color i in 0..m-1 a block starting
``graph i``, followed by one ``u v`` edge per line, closed by ``end``.
Blank lines and ``#`` comments are ignored anywhere.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Union

from .core import GraphCollection, SimpleGraph, build_graph


class InstanceFormatError(ValueError):
    """Malformed instance text; message carries the 1-based line number."""


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_instance(text: str) -> GraphCollection:
    stream = _tokens(text)

    def fail(lineno: int, why: str) -> InstanceFormatError:
        return InstanceFormatError(f"line {lineno}: {why}")

    try:
        lineno, head = next(stream)
    except StopIteration:
        raise InstanceFormatError("empty instance") from None
    if len(head) != 2:
        raise fail(lineno, "expected header 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise fail(lineno, "header values must be integers") from None

    graphs: list[SimpleGraph] = []
    for i in range(m):
        try:
            lineno, tok = next(stream)
        except StopIteration:
            raise InstanceFormatError(f"missing block 'graph {i}'") from None
        if tok != ["graph", str(i)]:
            raise fail(lineno, f"expected 'graph {i}', got {' '.join(tok)!r}")
        edges: list[tuple[int, int]] = []
        while True:
            try:
                lineno, tok = next(stream)
            except StopIteration:
                raise InstanceFormatError(f"graph {i} not terminated by 'end'") from None
            if tok == ["end"]:
                break
            if len(tok) != 2:
                raise fail(lineno, "expected edge 'u v'")
            try:
                u, v = int(tok[0]), int(tok[1])
            except ValueError:
                raise fail(lineno, "edge endpoints must be integers") from None
            edges.append((u, v))
        try:
            graphs.append(build_graph(n, edges))
        except ValueError as exc:
            raise InstanceFormatError(f"graph {i}: {exc}") from None

    for lineno, tok in stream:
        raise fail(lineno, f"trailing content {' '.join(tok)!r}")
    try:
        return GraphCollection(n, tuple(graphs))
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def format_instance(coll: GraphCollection) -> str:
    """Canonical text form: edges sorted, one trailing newline."""
    lines = [f"{coll.n} {coll.m}"]
    for i, g in enumerate(coll.graphs):
        lines.append(f"graph {i}")
        lines.extend(f"{u} {v}" for u, v in sorted(g.edges()))
        lines.append("end")
    return "\n".join(lines) + "\n"


_INT_ONLY = {int}
_INF = float("inf")


def format_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    With any ``indent`` the stdlib falls back to its pure-Python encoder;
    this writer recurses over dicts and lists itself, quotes strings with the
    C string encoder and writes a list of plain ints with one join. Only
    str, int, float, bool, None, list, tuple and str-keyed dict are accepted;
    anything else raises TypeError.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + _quote(key) + ": ")
            _write_json(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if {*map(type, obj)} == _INT_ONLY:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_scalar_text(obj))


def _scalar_text(obj) -> str:
    # the stdlib's order: str, None, bools, then int and float subclasses
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        if obj == -_INF:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def read_instance(path: Union[str, Path]) -> GraphCollection:
    return parse_instance(Path(path).read_text())


def write_instance(path: Union[str, Path], coll: GraphCollection) -> None:
    Path(path).write_text(format_instance(coll))
