"""Compiled and pure-Python kernels must agree exactly: same status, same
witness vertices and colors, same node counts. Any divergence means the
candidate ordering or augmenting order drifted.

When the extension is not installed, the committed `_kernel.c` is compiled
into a temporary directory with the C compiler and flags this interpreter was
built with; the tests skip only when no such compiler exists.
"""
import importlib.util
import random
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from rainbowpan import _kernel_py

KERNEL_C = Path(__file__).resolve().parents[1] / "src" / "rainbowpan" / "_kernel.c"


def _config(name: str, default: str) -> list[str]:
    return shlex.split(sysconfig.get_config_var(name) or default)


@pytest.fixture(scope="session")
def kernel(tmp_path_factory):
    try:
        return importlib.import_module("rainbowpan._kernel")
    except ImportError:
        pass
    cc = _config("CC", "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"rainbowpan._kernel is not installed and no C compiler ({cc[0]}) is on PATH")
    out = tmp_path_factory.mktemp("kernel")
    obj = out / "_kernel.o"
    target = out / ("_kernel" + (sysconfig.get_config_var("EXT_SUFFIX") or ".so"))
    compile_cmd = cc + _config("CFLAGS", "-O2") + _config("CCSHARED", "-fPIC")
    compile_cmd += ["-I", sysconfig.get_paths()["include"], "-c", str(KERNEL_C), "-o", str(obj)]
    for cmd in (compile_cmd, _config("LDSHARED", "cc -shared") + [str(obj), "-o", str(target)]):
        done = subprocess.run(cmd, capture_output=True, text=True)
        assert done.returncode == 0, f"building the kernel failed: {' '.join(cmd)}\n{done.stderr}"
    spec = importlib.util.spec_from_file_location("rainbowpan._kernel", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
            n, m, adj, vmask = random_dense(f"pp:{seed}")
            alive = survivors(vmask)
            rng = random.Random(f"pp:q:{seed}")
            for _ in range(6):
                x, y = rng.sample(alive, 2)
                k = rng.randint(2, min(len(alive), m + 1))
                a = _kernel_py.find_path(n, m, adj, x, y, k, vmask, 10**9)
                b = kernel.find_path(n, m, adj, x, y, k, vmask, 10**9)
                assert a == b, (seed, x, y, k)

    def test_budget_cutoffs_agree(self, kernel):
        for seed in range(20):
            n, m, adj, vmask = random_dense(f"pb:{seed}")
            alive = survivors(vmask)
            x, y = alive[0], alive[-1]
            k = min(len(alive), m + 1)
            for limit in (1, 2, 5, 17):
                a = _kernel_py.find_path(n, m, adj, x, y, k, vmask, limit)
                b = kernel.find_path(n, m, adj, x, y, k, vmask, limit)
                assert a == b, (seed, limit)


class TestCycleParity:
    def test_statuses_witnesses_nodes_agree(self, kernel):
        for seed in range(60):
            n, m, adj, vmask = random_dense(f"cp:{seed}")
            top = min(len(survivors(vmask)), m)
            for length in range(3, top + 1):
                a = _kernel_py.find_cycle(n, m, adj, length, vmask, 10**9)
                b = kernel.find_cycle(n, m, adj, length, vmask, 10**9)
                assert a == b, (seed, length)

    def test_budget_cutoffs_agree(self, kernel):
        for seed in range(20):
            n, m, adj, vmask = random_dense(f"cb:{seed}")
            top = min(len(survivors(vmask)), m)
            if top < 3:
                continue
            for limit in (1, 2, 5, 17):
                a = _kernel_py.find_cycle(n, m, adj, top, vmask, limit)
                b = kernel.find_cycle(n, m, adj, top, vmask, limit)
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
        vmask = (1 << 64) - 1
        a = _kernel_py.find_path(n, m, adj, 0, 32, 3, vmask, 10**6)
        b = kernel.find_path(n, m, adj, 0, 32, 3, vmask, 10**6)
        assert a == b
        assert a[0] == _kernel_py.FOUND and a[1] == [0, 63, 32]

    def test_cycle_in_top_bits(self, kernel):
        n, m = 64, 3
        adj = [0] * (m * n)

        def add(c, u, v):
            adj[c * n + u] |= 1 << v
            adj[c * n + v] |= 1 << u

        for c in range(3):
            add(c, 61, 62)
            add(c, 62, 63)
            add(c, 61, 63)
        vmask = (1 << 64) - 1
        a = _kernel_py.find_cycle(n, m, adj, 3, vmask, 10**6)
        b = kernel.find_cycle(n, m, adj, 3, vmask, 10**6)
        assert a == b
        assert a[0] == _kernel_py.FOUND and a[1] == [61, 62, 63]
