"""Hypothesis strategies shared across test modules."""
from __future__ import annotations

from hypothesis import strategies as st

from rainbowpan.core import (
    GraphCollection,
    SimpleGraph,
    SubCollectionView,
    build_graph,
    restrict,
)


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@st.composite
def graphs(draw, n: int | None = None, min_n: int = 1, max_n: int = 8) -> SimpleGraph:
    if n is None:
        n = draw(st.integers(min_n, max_n))
    edges = draw(st.lists(st.sampled_from(_pairs(n)), unique=True)) if n > 1 else []
    return build_graph(n, edges)


@st.composite
def collections(
    draw, min_n: int = 2, max_n: int = 7, min_m: int = 1, max_m: int = 5
) -> GraphCollection:
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(min_m, max_m))
    return GraphCollection(n, tuple(draw(graphs(n=n)) for _ in range(m)))


@st.composite
def views(draw, **kwargs) -> SubCollectionView:
    """A random collection with some vertices and colors removed (never all)."""
    coll = draw(collections(**kwargs))
    gone_v = draw(st.sets(st.integers(0, coll.n - 1), max_size=coll.n - 1))
    gone_c = draw(st.sets(st.integers(0, coll.m - 1), max_size=coll.m - 1))
    return restrict(coll, gone_v, gone_c)
