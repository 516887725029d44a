"""Both kernels' results, pinned to a record.

The parity tests compare the two kernels with each other; this file compares
each with a recorded digest, so a change that moves both kernels the same
way (a candidate order, an augmenting order, a node count) is caught too.
The digest is the sha256 of the JSON list of (status, vertices, colors,
nodes) over 200 seeded queries: 120 path and 80 cycle queries on dense
inputs at n <= 9 and sparse ones up to n = 64, under node limits that end in
FOUND, NONE and BUDGET. A deliberate change of the search updates it.

A second record pins the per-k queries of a certificate: the
(x, y, k, status, nodes) of every `kernels.find_path` call that a reference
per-k sweep makes, one `find_rainbow_path` query per k, on a few seeded
sparse collections and views of them, through each kernel, stopping where
`is_rainbow_panconnected` stops. `k_paths`, which the certificate reads,
answers every pair's sweep from one `kernels.find_paths` walk; it must
equal the reference sweep on every pair of those views. A third record
pins what the certificate itself asks: each walk's (x, y, k_lo, k_hi,
status, lengths found, nodes) and each per-k query made after a walk gave
up, in call order, through each kernel.
"""
import hashlib
import json
import random

import pytest

from rainbowpan import _kernel_py, kernels
from rainbowpan.analysis import is_rainbow_panconnected
from rainbowpan.core import GraphCollection, build_graph, distances, restrict
from rainbowpan.search import k_paths

from .kernel_input import pack
from .sweeps import reference_k_paths

DIGEST = "7ed63d6605575f9f79b2da424296cb998394b07217a0977f5aec6330b3fea6ce"
LIMITS = (1, 4, 30, 400, 20000)


def _instance(rng: random.Random):
    """(n, m, adj, alive): dense at n <= 9 or sparse up to n = 64, with an
    occasional dead vertex, which `alive` leaves out."""
    if rng.random() < 0.5:
        n = rng.randint(4, 9)
        m = rng.randint(2, min(6, n))
        p = rng.uniform(0.15, 0.7)
    else:
        n = rng.randint(10, 64)
        m = rng.randint(2, 63)
        p = rng.uniform(2.0, 8.0) / (n * m)  # union degree about 2 to 8
    vmask = (1 << n) - 1
    if rng.random() < 0.3:
        vmask &= ~(1 << rng.randrange(n))
    adj = [0] * (m * n)
    for c in range(m):
        for u in range(n):
            for v in range(u + 1, n):
                if (vmask >> u) & (vmask >> v) & 1 and rng.random() < p:
                    adj[c * n + u] |= 1 << v
                    adj[c * n + v] |= 1 << u
    rng.random()  # the former list-or-tuple coin; drawn so that QUERIES keep their record
    return n, m, pack(adj), [v for v in range(n) if (vmask >> v) & 1]


def _queries():
    """The 200 queries, each a (kind, args) pair."""
    rng = random.Random("kernel-pin")
    out = []
    while len(out) < 200:
        n, m, adj, alive = _instance(rng)
        limit = rng.choice(LIMITS)
        if len(out) < 120:
            x, y = rng.sample(alive, 2)
            k = rng.randint(2, min(len(alive), m + 1))
            out.append(("path", (n, adj, x, y, k, limit)))
        elif min(len(alive), m) >= 3:
            length = rng.randint(3, min(len(alive), m, 12))
            out.append(("cycle", (n, adj, length, limit)))
    return out


QUERIES = _queries()


def _results(impl):
    return [
        list(impl.find_path(*args) if kind == "path" else impl.find_cycle(*args))
        for kind, args in QUERIES
    ]


def _digest(results) -> str:
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


def test_queries_reach_every_status():
    statuses = [r[0] for r in _results(_kernel_py)]
    counts = {s: statuses.count(s) for s in (_kernel_py.FOUND, _kernel_py.NONE, _kernel_py.BUDGET)}
    assert min(counts.values()) >= 20, counts
    assert [kind for kind, _ in QUERIES].count("cycle") == 80


def test_pure_kernel_matches_the_record():
    assert _digest(_results(_kernel_py)) == DIGEST


def test_compiled_kernel_matches_the_record(kernel):
    assert _digest(_results(kernel)) == DIGEST


CERTIFICATE_DIGEST = "152122ef4af6fae4384ee3b9b924821f702df2e61b7e53e5cecc420e4f12fe9f"
TRAFFIC_DIGEST = "970230d36fb6a318e90f13c6615a19f71931901959d3068230f587925da7b2c2"
CERTIFICATE_SEEDS = (0, 15, 21, 25)


def _certificate_views():
    """Per seed, a collection of 3 to 5 random graphs on 6 to 9 vertices,
    and its view without one vertex and one color."""
    for seed in CERTIFICATE_SEEDS:
        rng = random.Random(seed)
        n, m = rng.randint(6, 9), rng.randint(3, 5)
        p = rng.uniform(0.25, 0.55)
        coll = GraphCollection(n, tuple(
            build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            for _ in range(m)
        ))
        yield coll
        yield restrict(coll, remove_vertices=(rng.randrange(n),), remove_colors=(rng.randrange(m),))


def _reference_certificate(view) -> None:
    """Sweep the pairs as the certificate does, by the reference sweep:
    up to the first k without a path."""
    alive = view.vertices
    for i, x in enumerate(alive):
        for y in alive[i + 1:]:
            swept = False
            for _, path in reference_k_paths(view, x, y):
                swept = True
                if path is None:
                    return
            if not swept:
                return


def _certificate_queries(monkeypatch, impl):
    """The certificates of the views on the kernel `impl`; the kernel calls
    they make, ("walk", x, y, k_lo, k_hi, status, lengths found, nodes) per
    `find_paths` walk and ("path", x, y, k, status, nodes) per `find_path`
    query, in call order; and the (x, y, k, status, nodes) of every path
    query their reference per-k sweeps ask. On every pair of every view,
    `k_paths` equals the reference sweep."""
    log = []

    def path_spy(*args):
        result = impl.find_path(*args)
        log.append(["path", *args[2:5], result[0], result[3]])
        return result

    def walk_spy(*args):
        status, paths, nodes = impl.find_paths(*args)
        log.append(["walk", *args[2:6], status, sorted(paths), nodes])
        return status, paths, nodes

    monkeypatch.setattr(kernels, "find_path", path_spy)
    monkeypatch.setattr(kernels, "find_paths", walk_spy)
    certs = [(view, is_rainbow_panconnected(view)) for view in _certificate_views()]
    traffic = list(log)
    for view, _ in certs:
        alive = view.vertices
        for i, x in enumerate(alive):
            for y in alive[i + 1:]:
                assert list(k_paths(view, x, y)) == list(reference_k_paths(view, x, y)), (x, y)
    log.clear()
    for view, _ in certs:
        _reference_certificate(view)
    assert all(call[0] == "path" for call in log)
    return certs, traffic, [call[1:] for call in log]


def test_certificate_views_reach_every_sweep_exit(monkeypatch):
    """Passing and failing certificates, a pair whose rainbow distance
    exceeds its union distance, and a union-joined pair with no rainbow
    path at all, which only the kernel can tell."""
    certs, traffic, calls = _certificate_queries(monkeypatch, _kernel_py)
    verdicts = [cert.verdict for _, cert in certs]
    assert True in verdicts and False in verdicts
    assert any(
        pair.distance is not None and pair.distance > distances(view.union_rows, pair.x)[pair.y]
        for view, cert in certs
        for pair in cert.pairs
    )
    assert any(
        cert.failure is not None
        and cert.failure[2] is None
        and distances(view.union_rows, cert.failure[0])[cert.failure[1]] is not None
        for view, cert in certs
    )
    statuses = {call[3] for call in calls}
    assert statuses == {_kernel_py.FOUND, _kernel_py.NONE}
    walks = {call[5] for call in traffic if call[0] == "walk"}
    assert walks == {_kernel_py.FOUND, _kernel_py.NONE, _kernel_py.BUDGET}
    assert any(call[0] == "path" for call in traffic)  # after a walk gave up


def test_pure_kernel_queries_match_the_record(monkeypatch):
    _, traffic, calls = _certificate_queries(monkeypatch, _kernel_py)
    assert _digest(calls) == CERTIFICATE_DIGEST
    assert _digest(traffic) == TRAFFIC_DIGEST


def test_compiled_kernel_queries_match_the_record(monkeypatch, kernel):
    _, traffic, calls = _certificate_queries(monkeypatch, kernel)
    assert _digest(calls) == CERTIFICATE_DIGEST
    assert _digest(traffic) == TRAFFIC_DIGEST
