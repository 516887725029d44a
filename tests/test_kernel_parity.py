"""Compiled and pure-Python kernels must agree exactly: same status, same
witness vertices and colors, same node counts. Any divergence means the
candidate ordering or augmenting order drifted.

The compiled kernel comes from the `kernel` fixture in `conftest.py`.
"""
import random
import sys

import pytest

from rainbowpan import SearchBudget, _kernel_py, constructive_panconnect, restrict
from rainbowpan.generate import GenSpec, generate

from .kernel_input import pack


def random_dense(seed: str):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    m = rng.randint(2, min(6, n))
    vmask = (1 << n) - 1
    if rng.random() < 0.3:
        vmask &= ~(1 << rng.randrange(n))
    p = rng.uniform(0.25, 0.8)
    adj = [0] * (m * n)
    for c in range(m):
        for u in range(n):
            for v in range(u + 1, n):
                alive = (vmask >> u) & (vmask >> v) & 1
                if alive and rng.random() < p:
                    adj[c * n + u] |= 1 << v
                    adj[c * n + v] |= 1 << u
    return n, m, adj, vmask


def survivors(vmask):
    return [v for v in range(64) if (vmask >> v) & 1]


class TestPathParity:
    def test_statuses_witnesses_nodes_agree(self, kernel):
        for seed in range(60):
            n, m, words, vmask = random_dense(f"pp:{seed}")
            adj = pack(words)
            alive = survivors(vmask)
            rng = random.Random(f"pp:q:{seed}")
            for _ in range(6):
                x, y = rng.sample(alive, 2)
                k = rng.randint(2, min(len(alive), m + 1))
                a = _kernel_py.find_path(n, adj, x, y, k, 10**9)
                b = kernel.find_path(n, adj, x, y, k, 10**9)
                assert a == b, (seed, x, y, k)

    def test_budget_cutoffs_agree(self, kernel):
        for seed in range(20):
            n, m, words, vmask = random_dense(f"pb:{seed}")
            adj = pack(words)
            alive = survivors(vmask)
            x, y = alive[0], alive[-1]
            k = min(len(alive), m + 1)
            for limit in (1, 2, 5, 17):
                a = _kernel_py.find_path(n, adj, x, y, k, limit)
                b = kernel.find_path(n, adj, x, y, k, limit)
                assert a == b, (seed, limit)


class TestPathsParity:
    """`find_paths` walks one pair's tree for a range of lengths; both
    kernels return the same (status, witnesses, nodes), and each witness is
    what `find_path` returns for its length."""

    def test_walks_agree(self, kernel):
        statuses = []
        for seed in range(60):
            n, m, words, vmask = random_dense(f"pw:{seed}")
            adj = pack(words)
            alive = survivors(vmask)
            rng = random.Random(f"pw:q:{seed}")
            for _ in range(6):
                x, y = rng.sample(alive, 2)
                k_hi = rng.randint(2, min(len(alive), m + 1))
                k_lo = rng.randint(1, k_hi)
                for limit in (10**9, rng.randint(1, 40)):
                    a = _kernel_py.find_paths(n, adj, x, y, k_lo, k_hi, limit)
                    assert a == kernel.find_paths(n, adj, x, y, k_lo, k_hi, limit)
                    statuses.append(a[0])
                    for k, witness in a[1].items():
                        assert k_lo <= k <= k_hi
                        assert _kernel_py.find_path(n, adj, x, y, k, 10**9)[1:3] == witness
                    if a[0] != _kernel_py.BUDGET:
                        for k in range(k_lo, k_hi + 1):
                            got = _kernel_py.find_path(n, adj, x, y, k, 10**9)
                            assert (got[0] == _kernel_py.FOUND) == (k in a[1]), (seed, x, y, k)
        assert {_kernel_py.FOUND, _kernel_py.NONE, _kernel_py.BUDGET} <= set(statuses)

    def test_walk_spends_no_more_than_the_queries_it_answers(self, kernel):
        """A walk's node count stays within what one query per length spends
        on the lengths the walk found and on the smallest one it did not
        (plus the node that tips it over): past that it gives up, as a
        budget stop. Without that rule, a short length with no path under
        longer ones with paths is decided only by exhausting the tree cut
        at the longest."""
        gave_up = 0
        for seed in range(60):
            n, m, words, vmask = random_dense(f"pg:{seed}")
            adj = pack(words)
            alive = survivors(vmask)
            rng = random.Random(f"pg:q:{seed}")
            for _ in range(6):
                x, y = rng.sample(alive, 2)
                k_hi = min(len(alive), m + 1)
                a = _kernel_py.find_paths(n, adj, x, y, 2, k_hi, 10**9)
                assert a == kernel.find_paths(n, adj, x, y, 2, k_hi, 10**9)
                status, paths, nodes = a
                alone = {k: _kernel_py.find_path(n, adj, x, y, k, 10**9)
                         for k in range(2, k_hi + 1)}
                bound = 1 + sum(alone[k][3] for k in paths)
                missing = [k for k in alone if k not in paths and alone[k][3]]
                if missing:
                    bound += alone[missing[0]][3]
                assert nodes <= bound, (seed, x, y)
                gave_up += status == _kernel_py.BUDGET
        assert gave_up > 10, gave_up

    def test_wide_walks_agree(self, kernel):
        for seed in range(30):
            n, m, words, vmask, hubs = random_sparse(f"pws:{seed}")
            adj = pack(words)
            alive = survivors(vmask)
            rng = random.Random(f"pws:q:{seed}")
            x = rng.choice(hubs)
            y = rng.choice([v for v in alive if v != x])
            k_hi = min(len(alive), m + 1)
            a = _kernel_py.find_paths(n, adj, x, y, 2, k_hi, TestWideParity.LIMIT)
            assert a == kernel.find_paths(n, adj, x, y, 2, k_hi, TestWideParity.LIMIT)

    def test_every_length_up_to_64(self, kernel):
        """n = 64 and m = 63: the line 0-1-...-63, edge (i, i+1) in colors
        i and i+1 mod 63, and an edge from each j < 62 to 63 in two colors.
        The walk from 0 to 63 goes down the line and finds every length
        from 2 to 64; under a small limit it stops with the short ones."""
        n, m = 64, 63
        adj = [0] * (m * n)

        def add(colors, u, v):
            for c in colors:
                adj[c * n + u] |= 1 << v
                adj[c * n + v] |= 1 << u

        for i in range(63):
            add((i, (i + 1) % 63), i, i + 1)
        for j in range(62):
            add(((j + 5) % 63, (j + 40) % 63), j, 63)
        first, second = pack(adj), pack(adj)  # equal inputs, each with its own tables
        for args in ((first, 0, 63, 2, 64), (second, 0, 63, 30, 64), (first, 0, 63, 64, 64)):
            a = _kernel_py.find_paths(n, *args, 10**6)
            assert a == kernel.find_paths(n, *args, 10**6)
            assert a[0] == _kernel_py.FOUND and sorted(a[1]) == list(range(args[3], 65))
        assert a[1][64][0] == list(range(64))
        one = kernel.find_path(n, first, 0, 63, 64, 10**6)
        assert one == _kernel_py.find_path(n, first, 0, 63, 64, 10**6)
        assert one[:3] == (_kernel_py.FOUND, *a[1][64])
        a = _kernel_py.find_paths(n, first, 0, 63, 2, 64, 40)
        assert a == kernel.find_paths(n, first, 0, 63, 2, 64, 40)
        assert a[0] == _kernel_py.BUDGET and a[1] and 64 not in a[1]


def test_compiled_kernel_keeps_no_reference_to_its_answers(kernel):
    """Each object the compiled kernel returns is referenced only by its
    container: its reference count is that of a fresh copy held the same
    way. A witness the walk's dict took without its own reference dropped
    would count one more and never be freed."""
    n = 6
    adj = pack([0b100010, 0b000101, 0b001010, 0b010100, 0b101000, 0b010001] * 6)
    status, paths, _ = kernel.find_paths(n, adj, 0, 3, 2, 6, 10**6)
    fresh = {k: (list(verts), list(cols)) for k, (verts, cols) in paths.items()}
    assert status == _kernel_py.FOUND and paths == fresh
    assert sys.getrefcount(paths) == sys.getrefcount(fresh)
    for k in paths:
        assert sys.getrefcount(paths[k]) == sys.getrefcount(fresh[k])
        for got, copy in zip(paths[k], fresh[k]):
            assert sys.getrefcount(got) == sys.getrefcount(copy)
    answer = list(kernel.find_path(n, adj, 0, 3, 4, 10**6))
    copy = [answer[0], list(answer[1]), list(answer[2]), answer[3]]
    assert answer == copy
    for i in (1, 2):
        assert sys.getrefcount(answer[i]) == sys.getrefcount(copy[i])


class TestCycleParity:
    def test_statuses_witnesses_nodes_agree(self, kernel):
        for seed in range(60):
            n, m, words, vmask = random_dense(f"cp:{seed}")
            adj = pack(words)
            top = min(len(survivors(vmask)), m)
            for length in range(3, top + 1):
                a = _kernel_py.find_cycle(n, adj, length, 10**9)
                b = kernel.find_cycle(n, adj, length, 10**9)
                assert a == b, (seed, length)

    def test_budget_cutoffs_agree(self, kernel):
        for seed in range(20):
            n, m, words, vmask = random_dense(f"cb:{seed}")
            adj = pack(words)
            top = min(len(survivors(vmask)), m)
            if top < 3:
                continue
            for limit in (1, 2, 5, 17):
                a = _kernel_py.find_cycle(n, adj, top, limit)
                b = kernel.find_cycle(n, adj, top, limit)
                assert a == b, (seed, limit)


class TestWideMasks:
    """n = 64 exercises full-width masks in the compiled kernel."""

    def test_path_at_word_boundary(self, kernel):
        n, m = 64, 2
        adj = [0] * (m * n)

        def add(c, u, v):
            adj[c * n + u] |= 1 << v
            adj[c * n + v] |= 1 << u

        add(0, 0, 63)
        add(1, 63, 32)
        a = _kernel_py.find_path(n, pack(adj), 0, 32, 3, 10**6)
        b = kernel.find_path(n, pack(adj), 0, 32, 3, 10**6)
        assert a == b
        assert a[0] == _kernel_py.FOUND and a[1] == [0, 63, 32]

    def test_cycle_in_top_bits(self, kernel):
        """A triangle on 61, 62, 63, and the square 60-61-62-63, where the
        reflection bound works at the top bit. From start 60, vertex 63
        comes first (one color against two), and the bound cuts [60, 63] at
        once: no vertex lies above path[1] = 63. At length 3 the bound also
        cuts [61, 62], and the start loop stops at 62, which has one vertex
        above it."""
        n = 64

        def build(m, edges):
            adj = [0] * (m * n)
            for colors, u, v in edges:
                for c in colors:
                    adj[c * n + u] |= 1 << v
                    adj[c * n + v] |= 1 << u
            return pack(adj)

        def ask(adj, length):
            got = _kernel_py.find_cycle(n, adj, length, 10**6)
            assert got == kernel.find_cycle(n, adj, length, 10**6), length
            return got

        triangle = build(3, [(range(3), 61, 62), (range(3), 62, 63), (range(3), 61, 63)])
        got = ask(triangle, 3)
        assert got[0] == _kernel_py.FOUND and got[1] == [61, 62, 63]

        square = build(4, [((0,), 60, 63), ((0, 1), 60, 61), (range(4), 61, 62), (range(4), 62, 63)])
        # the edgeless vertices 0..59 are no start; start 60 takes [60],
        # [60, 63], [60, 61] and, at length 4, [60, 61, 62] and the leaf
        assert ask(square, 4) == (_kernel_py.FOUND, [60, 61, 62, 63], [1, 3, 2, 0], 5)
        assert ask(square, 3) == (_kernel_py.NONE, None, None, 5)


class TestReflectionBound:
    """The spanning 12-cycle query the constructive replay asks on
    GenSpec(15, 14, 3, "random", min_degree=8) for pair (0, 2): the view
    without vertices 0, 2 and 9 and without color 0. From start vertex 1,
    whose largest neighbour comes first, every Hamiltonian path is rejected
    at its leaf; without the bound that costs 9,864,113 nodes before the
    first cycle below."""

    CYCLE = [1, 3, 4, 8, 6, 5, 11, 12, 14, 7, 10, 13]
    COLORS = [9, 7, 12, 1, 11, 8, 5, 2, 6, 4, 3, 0]  # positions among the view's colors

    @pytest.fixture(scope="class")
    def instance(self):
        coll = generate(GenSpec(15, 14, 3, "random", min_degree=8))
        view = restrict(coll, remove_vertices=(0, 2, 9), remove_colors=(0,))
        assert view.vertex_mask == 0b111110111111010 and len(view.colors) == 13
        return coll, view

    def test_both_kernels_find_the_first_cycle_within_1000_nodes(self, kernel, instance):
        _, view = instance
        args = (view.n, view.kernel_adj, 12, 1000)
        got = _kernel_py.find_cycle(*args)
        assert got == kernel.find_cycle(*args)
        assert got[:3] == (_kernel_py.FOUND, self.CYCLE, self.COLORS)

    def test_replay_pair_decides_within_the_replay_budget(self, instance):
        coll, _ = instance
        report = constructive_panconnect(coll, 0, 2, budget=SearchBudget(200_000))
        assert set(report.paths) | set(report.missing_k) == set(range(report.distance + 1, 16))


def bad_inputs():
    """(kernel function, case, error, arguments) for inputs that do not fit
    the compiled kernel's 64-slot tables or are not its one input format,
    most of them one change to a query on a 5-vertex, 3-color input that
    both kernels answer."""
    n, m = 5, 3
    words = [0b00110, 0b00101, 0b00011, 0, 0] * m
    adj = pack(words)
    # adj cases shared by every function: (case, error, adj)
    inputs = [
        ("adj tuple", TypeError, tuple(words)),
        ("adj list", TypeError, words),
        ("adj bytearray", TypeError, bytearray(adj)),
        ("short adj", ValueError, pack(words[:-1])),
        ("long adj", ValueError, pack(words + [0])),
        ("adj not whole words", ValueError, adj[:-1]),
    ]
    path = [
        ("n above 64", ValueError, (65, pack([0] * 65), 0, 1, 2, 10)),
        ("negative n", ValueError, (-1, b"", 0, 1, 2, 10)),
        ("m above 64", ValueError, (2, pack([0] * 130), 0, 1, 2, 10)),
        ("words at n = 0", ValueError, (0, pack([0]), 0, 1, 2, 10)),
        *((case, error, (n, bad, 0, 1, 2, 10)) for case, error, bad in inputs),
        ("negative x", ValueError, (n, adj, -1, 1, 2, 10)),
        ("x at n", ValueError, (n, adj, n, 1, 2, 10)),
        ("y at n", ValueError, (n, adj, 0, n, 2, 10)),
        ("k above n", ValueError, (n, adj, 0, 1, n + 1, 10)),
        ("row bit n", OverflowError, (n, pack([1 << n] + words[1:]), 0, 1, 2, 10)),
        ("last row bit n", OverflowError, (n, pack(words[:-1] + [1 << n]), 0, 1, 2, 10)),
    ]
    cycle = [
        ("n above 64", ValueError, (65, pack([0] * 65), 3, 10)),
        ("m above 64", ValueError, (3, pack([0] * 195), 3, 10)),
        *((case, error, (n, bad, 3, 10)) for case, error, bad in inputs),
        ("length above n", ValueError, (n, adj, n + 1, 10)),
        ("length below 3", ValueError, (n, adj, 1, 10)),
        ("row bit n", OverflowError, (n, pack([1 << n] + words[1:]), 3, 10)),
        ("last row bit n", OverflowError, (n, pack(words[:-1] + [1 << n]), 3, 10)),
    ]
    # find_paths asks lengths 2 to k, so a k above n is its k_hi
    paths = [(case, error, args[:4] + (2,) + args[4:]) for case, error, args in path]
    return ([("find_path",) + c for c in path] + [("find_paths",) + c for c in paths]
            + [("find_cycle",) + c for c in cycle])


BAD_INPUTS = bad_inputs()


@pytest.mark.parametrize("kind, case, error, args", BAD_INPUTS,
                         ids=[f"{kind}-{case}" for kind, case, _, _ in BAD_INPUTS])
def test_both_kernels_reject_inputs_outside_their_tables(kernel, kind, case, error, args):
    """Both kernels raise the same error before any search, with the same
    text but for a TypeError, which the C API words itself; the compiled
    kernel would otherwise read or write outside its tables."""
    texts = []
    for impl in (_kernel_py, kernel):
        with pytest.raises(error) as raised:
            getattr(impl, kind)(*args)
        texts.append(str(raised.value))
    assert error is TypeError or texts[0] == texts[1], texts


WORD_BITS = (31, 32, 63)


def random_sparse(seed: str):
    """Sparse input at n in [10, 64] and m in [2, 63]: holes in the vertex
    mask, bits 31, 32 and 63 alive when n has them, hubs joined to many
    vertices in one color each and repeated graphs, so that many candidates
    tie on their option count."""
    rng = random.Random(seed)
    n = rng.choice((rng.randint(10, 63), 33, 64))
    m = rng.randint(2, 63)
    vmask = (1 << n) - 1
    for v in rng.sample(range(n), rng.randint(1, n // 4)):
        vmask &= ~(1 << v)
    for b in WORD_BITS:
        if b < n:
            vmask |= 1 << b
    alive = survivors(vmask)
    adj = [0] * (m * n)

    def add(c, u, v):
        adj[c * n + u] |= 1 << v
        adj[c * n + v] |= 1 << u

    graphs = []
    for c in range(m):
        if graphs and rng.random() < 0.3:
            edges = rng.choice(graphs)
        else:
            edges = [rng.sample(alive, 2) for _ in range(rng.randint(len(alive) // 3, len(alive)))]
        graphs.append(edges)
        for u, v in edges:
            add(c, u, v)
    hubs = [b for b in WORD_BITS if b < n] or rng.sample(alive, 2)
    for hub in hubs:
        for v in rng.sample(alive, len(alive) // 3):
            if v != hub:
                add(rng.randrange(m), hub, v)
    return n, m, adj, vmask, hubs


class TestWideParity:
    """Sparse inputs up to 64 vertices and 63 colors, under node limits of a
    few thousand, so that BUDGET results are compared as well."""

    LIMIT = 3000

    @pytest.fixture
    def tied_lists(self, monkeypatch):
        """Counts the candidate lists in which two vertices tie on their
        option count."""
        seen = [0]
        original = _kernel_py._Search.ordered_candidates

        def spy(self, last, cand_mask):
            out = original(self, last, cand_mask)
            seen[0] += any(a[0] == b[0] for a, b in zip(out, out[1:]))
            return out

        monkeypatch.setattr(_kernel_py._Search, "ordered_candidates", spy)
        return seen

    def test_paths_agree(self, kernel, tied_lists):
        statuses = []
        for seed in range(30):
            n, m, words, vmask, hubs = random_sparse(f"wp:{seed}")
            adj = pack(words)
            alive = survivors(vmask)
            rng = random.Random(f"wp:q:{seed}")
            for _ in range(4):
                x = rng.choice(hubs)
                y = rng.choice([v for v in alive if v != x])
                k = rng.randint(2, min(len(alive), m + 1))
                a = _kernel_py.find_path(n, adj, x, y, k, self.LIMIT)
                b = kernel.find_path(n, adj, x, y, k, self.LIMIT)
                assert a == b, (seed, x, y, k)
                statuses.append(a[0])
        assert {_kernel_py.FOUND, _kernel_py.NONE, _kernel_py.BUDGET} <= set(statuses)
        assert tied_lists[0] > 100

    def test_cycles_agree(self, kernel, tied_lists):
        statuses = []
        for seed in range(20):
            n, m, words, vmask, _ = random_sparse(f"wc:{seed}")
            rng = random.Random(f"wc:q:{seed}")
            # the whole input, and the same input cut down to about ten
            # vertices, where exhaustive refutations end in NONE
            alive = survivors(vmask)
            keep = sum(1 << v for v in rng.sample(alive, min(10, len(alive))))
            for b in WORD_BITS:
                keep |= vmask & (1 << b)
            cut = [row & keep if (keep >> (i % n)) & 1 else 0 for i, row in enumerate(words)]
            for mask, rows in ((vmask, pack(words)), (keep, pack(cut))):
                top = min(len(survivors(mask)), m)
                if top < 3:
                    continue
                for length in sorted({3, rng.randint(3, top), top}):
                    a = _kernel_py.find_cycle(n, rows, length, self.LIMIT)
                    b = kernel.find_cycle(n, rows, length, self.LIMIT)
                    assert a == b, (seed, mask == keep, length)
                    statuses.append(a[0])
        assert {_kernel_py.FOUND, _kernel_py.NONE, _kernel_py.BUDGET} <= set(statuses)
        assert tied_lists[0] > 100


def test_ordered_candidates_skip_vertices_without_options():
    """Candidates come sorted by (option count, vertex), each read from
    last's option row; a vertex that no color joins to `last` is left out
    even when the mask offers it."""
    rng = random.Random("oc")
    for _ in range(200):
        n = rng.choice((12, 40, 64))
        m = rng.randint(2, 63)
        adj = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m * n)]
        last = rng.randrange(n)
        cand = rng.getrandbits(n)
        expect = []
        for v in range(n):
            om = sum(1 << c for c in range(m) if (adj[c * n + last] >> v) & 1)
            if (cand >> v) & 1 and om:
                expect.append((om.bit_count(), v, om))
        expect.sort(key=lambda t: (t[0], t[1]))
        tables = _kernel_py._tables(n, pack(adj))
        got = _kernel_py._Search(tables, 10).ordered_candidates(last, cand)
        assert got == expect


def queries(seed: str, n: int, m: int, vmask: int):
    """Path and cycle queries on one input whose vertices are `vmask`, in a
    seeded order: (kind, args after adj)."""
    rng = random.Random(seed)
    alive = survivors(vmask)
    asked = []
    for _ in range(8):
        x, y = rng.sample(alive, 2)
        asked.append(("find_path", (x, y, rng.randint(2, min(len(alive), m + 1)), 10**9)))
    for length in range(3, min(len(alive), m) + 1):
        asked.append(("find_cycle", (length, 10**9)))
    asked.append(("find_path", (alive[0], alive[-1], min(len(alive), m + 1), 5)))
    rng.shuffle(asked)
    return asked


class TestCachedParity:
    """The pure kernel keeps the tables of the last input. Queries that hit,
    miss or evict that cache give what the compiled kernel gives and what a
    cold call (an equal bytes object, which gets tables of its own) gives."""

    def ask(self, kernel, kind, n, adj, args):
        got = getattr(_kernel_py, kind)(n, adj, *args)
        assert got == getattr(kernel, kind)(n, adj, *args), (kind, args)
        tables = _kernel_py._cached
        fresh = bytes(bytearray(adj))  # equal to adj, another object
        assert got == getattr(_kernel_py, kind)(n, fresh, *args), (kind, args)
        assert _kernel_py._cached.adj is fresh
        _kernel_py._cached = tables  # so the next query on adj hits again
        return got

    def test_queries_on_one_tuple_hit_the_cache(self, kernel):
        for seed in range(30):
            n, m, words, vmask = random_dense(f"tc:{seed}")
            adj = pack(words)
            for kind, args in queries(f"tc:q:{seed}", n, m, vmask):
                self.ask(kernel, kind, n, adj, args)
                tables = _kernel_py._cached
                assert tables is not None and tables.adj is adj
            assert any(row is not None for row in tables.options) and tables.dists

    def test_distances_are_kept_per_source_and_scope(self, kernel):
        """Cycle searches cache distances over the vertices above each start;
        a later path query to that start needs them over every live vertex."""
        for seed in range(30):
            n, m, words, vmask = random_dense(f"ts:{seed}")
            adj = pack(words)
            alive = survivors(vmask)
            for length in range(min(len(alive), m), 2, -1):
                self.ask(kernel, "find_cycle", n, adj, (length, 10**9))
            for y in alive[1:]:
                for k in range(2, min(len(alive), m + 1) + 1):
                    self.ask(kernel, "find_path", n, adj, (alive[0], y, k, 10**9))

    def test_interleaved_inputs_evict_each_other(self, kernel):
        for seed in range(20):
            inputs = []
            for side in "ab":
                n, m, words, vmask = random_dense(f"ti:{side}:{seed}")
                inputs.append((n, pack(words), queries(f"ti:q:{side}:{seed}", n, m, vmask)))
            (na, a, qa), (nb, b, qb) = inputs
            for (ka, args_a), (kb, args_b) in zip(qa, qb):
                self.ask(kernel, ka, na, a, args_a)
                assert _kernel_py._cached.adj is a
                self.ask(kernel, kb, nb, b, args_b)
                assert _kernel_py._cached.adj is b

    def test_equal_distinct_tuple_gets_its_own_tables(self, kernel):
        for seed in range(20):
            n, m, words, vmask = random_dense(f"te:{seed}")
            first, second = pack(words), pack(words)
            assert first == second and first is not second
            for kind, args in queries(f"te:q:{seed}", n, m, vmask):
                a = self.ask(kernel, kind, n, first, args)
                assert self.ask(kernel, kind, n, second, args) == a
                assert _kernel_py._cached.adj is second
