"""Both kernels' results, pinned to a record.

The parity tests compare the two kernels with each other; this file compares
each with a recorded digest, so a change that moves both kernels the same
way (a candidate order, an augmenting order, a node count) is caught too.
The digest is the sha256 of the JSON list of (status, vertices, colors,
nodes) over 200 seeded queries: 120 path and 80 cycle queries on dense
inputs at n <= 9 and sparse ones up to n = 64, under node limits that end in
FOUND, NONE and BUDGET. A deliberate change of the search updates it.
"""
import hashlib
import json
import random

import pytest

from rainbowpan import _kernel_py

DIGEST = "23b0fd7a686c43f8b6f61c77aaa8ff9d8ee51bdc12f8e3cf701e40466ef4d312"
LIMITS = (1, 4, 30, 400, 20000)


def _instance(rng: random.Random):
    """(n, m, adj, vmask): dense at n <= 9 or sparse up to n = 64, with an
    occasional dead vertex; adj is a list or a tuple."""
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
    return n, m, tuple(adj) if rng.random() < 0.5 else adj, vmask


def _queries():
    """The 200 queries, each a (kind, args) pair."""
    rng = random.Random("kernel-pin")
    out = []
    while len(out) < 200:
        n, m, adj, vmask = _instance(rng)
        alive = [v for v in range(n) if (vmask >> v) & 1]
        limit = rng.choice(LIMITS)
        if len(out) < 120:
            x, y = rng.sample(alive, 2)
            k = rng.randint(2, min(len(alive), m + 1))
            out.append(("path", (n, m, adj, x, y, k, vmask, limit)))
        elif min(len(alive), m) >= 3:
            length = rng.randint(3, min(len(alive), m, 12))
            out.append(("cycle", (n, m, adj, length, vmask, limit)))
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
