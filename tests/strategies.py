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
from rainbowpan.generate import gen_cor23_obstruction, gen_extremal_F


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


@st.composite
def shaped_collections(draw, max_n: int = 10) -> GraphCollection:
    """A random collection, or a planted half-clique, join or exceptional-family
    instance; possibly perturbed in one color by flipping one edge or by
    isolating one vertex."""
    kind = draw(st.sampled_from(["random", "ii", "iii", "f"]))
    seed = draw(st.integers(0, 1000))
    if kind == "random":
        coll = draw(collections(max_n=max_n, max_m=max_n))
    elif kind == "f":
        coll = gen_extremal_F(draw(st.sampled_from([7, 9])), seed=seed)
    else:
        coll = gen_cor23_obstruction(draw(st.sampled_from([4, 6, 8, 10])), kind, seed)
    change = draw(st.sampled_from(["none", "flip", "isolate"]))
    if coll.n == 1 or change == "none":
        return coll
    c = draw(st.integers(0, coll.m - 1))
    g = coll.graphs[c]
    if change == "flip":
        u, v = draw(st.sampled_from(_pairs(coll.n)))
        g = g.without_edge(u, v) if g.has_edge(u, v) else g.with_edge(u, v)
    else:
        u = draw(st.integers(0, coll.n - 1))
        g = build_graph(coll.n, [e for e in g.edges() if u not in e])
    return GraphCollection(coll.n, coll.graphs[:c] + (g,) + coll.graphs[c + 1 :])


@st.composite
def shaped_views(draw, max_n: int = 10) -> SubCollectionView:
    """A shaped collection with some vertices and colors removed (never all)."""
    coll = draw(shaped_collections(max_n=max_n))
    gone_v = draw(st.sets(st.integers(0, coll.n - 1), max_size=min(3, coll.n - 1)))
    gone_c = draw(st.sets(st.integers(0, coll.m - 1), max_size=min(2, coll.m - 1)))
    return restrict(coll, gone_v, gone_c)
