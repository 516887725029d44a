import json
from io import StringIO
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rainbowpan import io
from rainbowpan.core import ColoredCycle, ColoredPath
from rainbowpan.io import (
    InstanceFormatError,
    format_instance,
    format_json,
    parse_instance,
    read_instance,
    write_instance,
    write_json,
)
from .strategies import collections


@given(collections())
def test_format_parse_roundtrip(coll):
    assert parse_instance(format_instance(coll)) == coll


@given(collections())
def test_format_is_canonical_fixed_point(coll):
    text = format_instance(coll)
    assert format_instance(parse_instance(text)) == text


def test_comments_and_blank_lines_ignored():
    text = """
    # a tiny instance
    3 2

    graph 0
    0 1  # an edge
    end
    graph 1
    end
    """
    coll = parse_instance(text)
    assert coll.n == 3 and coll.m == 2
    assert coll.has_edge(0, 0, 1)
    assert coll[1].edge_count() == 0


def test_file_roundtrip(tmp_path):
    coll = parse_instance("2 1\ngraph 0\n0 1\nend\n")
    path = tmp_path / "inst.txt"
    write_instance(path, coll)
    assert read_instance(path) == coll


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("3\ngraph 0\nend\n", "header"),
        ("a b\n", "integers"),
        ("3 1\ngraph 1\nend\n", "expected 'graph 0'"),
        ("3 2\ngraph 0\nend\n", "missing block 'graph 1'"),
        ("3 1\ngraph 0\n0 1\n", "not terminated"),
        ("3 1\ngraph 0\n0 1 2\nend\n", "expected edge"),
        ("3 1\ngraph 0\n0 x\nend\n", "integers"),
        ("3 1\ngraph 0\n0 3\nend\n", "graph 0"),
        ("3 1\ngraph 0\n1 1\nend\n", "graph 0"),
        ("3 1\ngraph 0\nend\ngraph 1\nend\n", "trailing"),
        pytest.param("3 0\n", "at least one graph", id="m=0"),
        pytest.param("2 64\n" + "".join(f"graph {i}\nend\n" for i in range(64)),
                     "exceeds 63 graphs", id="m=64"),
    ],
)
def test_malformed_instances_rejected(text, fragment):
    with pytest.raises(InstanceFormatError, match=fragment):
        parse_instance(text)


def test_error_carries_line_number():
    with pytest.raises(InstanceFormatError, match="line 3"):
        parse_instance("3 1\ngraph 0\n0 1 2\nend\n")


# JSON values the stdlib can encode: every scalar spelling it has (NaN,
# infinities, -0.0, ints past 64 bits, escapes and non-ASCII text), nested in
# lists, tuples and str-keyed dicts
_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 1.7976931348623157e308, 5e-324]
_text = st.text(st.characters(), max_size=12) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", 'a"b\\c\nd\te']
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**80), 2**80)
    | st.sampled_from([0, -1, 2**63, -(2**63) - 1, 2**64 + 1])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(_SPECIAL_FLOATS)
    | _text
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=6)
    | st.dictionaries(_text, inner, max_size=5),
    max_leaves=30,
)


@given(_json_values)
def test_format_json_matches_stdlib(value):
    assert format_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_format_json_special_scalars():
    value = {"floats": _SPECIAL_FLOATS, "ints": [2**64 + 1, -(2**63)], "mixed": [1, True, None, 2.0]}
    assert format_json(value) == json.dumps(value, indent=2, sort_keys=True)


# Path witnesses as leaves: entries the C encoder must spell as the stdlib
# does (bools, negatives, ints past 63 and past 64 bits), and a one-vertex
# path with no colors
_entries = st.booleans() | st.integers(-3, 3) | st.integers(60, 70) | st.just(2**70)


@st.composite
def _witnesses(draw):
    cycle = draw(st.booleans())
    vertices = draw(st.lists(_entries, min_size=3 if cycle else 1, max_size=6, unique=True))
    size = len(vertices) if cycle else len(vertices) - 1
    colors = draw(st.lists(_entries, min_size=size, max_size=size, unique=True))
    return (ColoredCycle if cycle else ColoredPath)(tuple(vertices), tuple(colors))


_leaves = _witnesses() | st.just(ColoredPath((5,), ()))
_trees = st.recursive(
    _scalars | _leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_text, inner, max_size=5),
    max_leaves=20,
)


def _plain(value):
    """`value` with every path witness replaced by its to_json_dict()."""
    if isinstance(value, (ColoredPath, ColoredCycle)):
        return value.to_json_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@given(_trees)
def test_path_leaves_match_stdlib(tree):
    text = json.dumps(_plain(tree), indent=2, sort_keys=True)
    assert format_json(tree) == text
    fh = StringIO()
    write_json(tree, fh)
    assert fh.getvalue() == text + "\n"


def test_write_json_streams_a_long_list():
    """A list longer than the buffer goes to the file in several writes,
    which join to the one text."""
    doc = {"pairs": [{"k": i, "path": ColoredPath((-1, 64, 100 + i), (True, 2**70))}
                     for i in range(io._FLUSH_PIECES)]}
    chunks = []
    write_json(doc, SimpleNamespace(write=chunks.append))
    assert len(chunks) > 2
    assert "".join(chunks) == json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [{1, 2}, object(), {1: "a"}, [1, {2}], {"a": {"b": object()}}, {"a": 1, None: 2}],
    ids=["set", "object", "int-key", "nested-set", "nested-object", "none-key"],
)
def test_format_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        format_json(value)
