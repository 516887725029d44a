"""Plain-text instance format, and the JSON writer for every report.

Layout: first line ``n m``; then for each color i in 0..m-1 a block starting
``graph i``, followed by one ``u v`` edge per line, closed by ``end``.
Blank lines and ``#`` comments are ignored anywhere.

Every JSON output is written by one writer: `write_json` streams it to a
file in chunks, and `format_json` returns the same text as a string. Both
give the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``, and both
take a `ColoredPath` or `ColoredCycle` as a leaf, written from its two
tuples as its ``to_json_dict()``, so a report need not build a dict per
witness.
"""
from __future__ import annotations

from functools import cache
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TextIO, Union

from .core import ColoredCycle, ColoredPath, GraphCollection, SimpleGraph, build_graph


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


# the scalar types the stdlib's C encoder writes exactly as `json.dumps`
_FLAT = {str, int, float, bool, type(None)}
# write_json hands its buffer to the file once it holds this many pieces
_FLUSH_PIECES = 4096


def format_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    A `ColoredPath` or `ColoredCycle` is also accepted, anywhere, and
    written as its ``to_json_dict()``. Besides those, only str, int, float,
    bool, None, list, tuple and str-keyed dict are accepted; anything else
    raises TypeError.
    """
    out: list[str] = []
    _write_json(obj, "\n", out, None)
    return "".join(out)


def write_json(obj, fh: TextIO) -> None:
    """Write ``format_json(obj) + "\\n"`` to the text file `fh`, in chunks:
    the buffer goes to `fh` after any list element that leaves it large, so
    a certificate is never held whole as one string."""
    out: list[str] = []
    _write_json(obj, "\n", out, fh.write)
    out.append("\n")
    fh.write("".join(out))


def _write_json(obj, newline: str, out: list[str], write) -> None:
    # With any indent the stdlib falls back to its pure-Python encoder; this
    # writer recurses over dicts and lists itself and leaves scalars, flat
    # lists of scalars and path witnesses to the C encoder.
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
            _write_json(obj[key], inner, out, write)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if {*map(type, obj)} <= _FLAT:
            out.append(_flat(obj, newline))
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write_json(v, inner, out, write)
            sep = "," + inner
            if write is not None and len(out) >= _FLUSH_PIECES:
                write("".join(out))
                out.clear()
        out.append(newline + "]")
    elif isinstance(obj, (ColoredPath, ColoredCycle)):
        out.append(_path_text(obj, newline))
    else:
        out.append(_encoder(newline)(obj, 0)[0])


def _path_text(path: ColoredPath | ColoredCycle, newline: str) -> str:
    """The ``to_json_dict()`` of a path or cycle, from its two tuples."""
    inner = newline + "  "
    return (
        "{" + inner + '"colors": ' + _flat(path.colors, inner)
        + "," + inner + '"vertices": ' + _flat(path.vertices, inner)
        + newline + "}"
    )


def _flat(seq, newline: str) -> str:
    """A list or tuple of JSON scalars, one item per line."""
    if not seq:
        return "[]"
    inner = newline + "  "
    # the C encoder writes "[a,<inner>b]"; its brackets get their own lines
    return "[" + inner + _encoder(inner)(seq, 0)[0][1:-1] + newline + "]"


@cache
def _encoder(inner: str):
    """The stdlib's C encoder with `"," + inner` between list items. It
    writes every scalar as `json.dumps` does but does not indent, so the
    item separator carries the indentation."""
    return c_make_encoder(None, _unencodable, _quote, None, ": ", "," + inner, True, False, True)


def _unencodable(obj):
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def read_instance(path: Union[str, Path]) -> GraphCollection:
    return parse_instance(Path(path).read_text())


def write_instance(path: Union[str, Path], coll: GraphCollection) -> None:
    Path(path).write_text(format_instance(coll))
