"""Checks on the package source itself."""
import ast
import importlib
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rainbowpan"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """`python -O` strips assert statements, so invariants must raise."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}; raise instead"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    """Every pretty-printed JSON output goes through `io.format_json`; an
    indented `json.dump`/`json.dumps` would bring back the stdlib's
    pure-Python encoder."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert not lines, f"{path.name} writes indented JSON at lines {lines}; use io.format_json"


def test_cli_import_leaves_multiprocessing_unloaded():
    """Only `verify --jobs N` with N > 1 uses a process pool, so importing
    the command line front end does not load multiprocessing."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, rainbowpan.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_kernel_c_uses_the_limited_api_only():
    """`_kernel.c` defines `Py_LIMITED_API` before it includes `Python.h`, so
    the headers declare the stable C API alone and the compile test below
    fails on any other call; and it reads no interpreter internals, which
    would need a branch per Python version."""
    source = (PACKAGE / "_kernel.c").read_text()
    limited = re.search(r"^#define Py_LIMITED_API\b", source, re.MULTILINE)
    include = re.search(r"^#include <Python\.h>", source, re.MULTILINE)
    assert limited and include and limited.start() < include.start()
    for name in ("PY_VERSION_HEX", "ob_digit", "PyUnstable_"):
        assert name not in source, name


def test_kernel_c_compiles_without_warnings(tmp_path):
    """`_kernel.c` is written by hand against the limited C API. It compiles
    with the C compiler this interpreter was built with and every warning of
    `-Wall -Wextra` turned into an error, an undeclared function among them;
    the test skips only when there is no such compiler."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]}) on PATH")
    include = sysconfig.get_paths()["include"]
    done = subprocess.run(
        cc + ["-Wall", "-Wextra", "-Werror", "-O2", "-fPIC", "-I", include,
              "-c", str(PACKAGE / "_kernel.c"), "-o", str(tmp_path / "_kernel.o")],
        capture_output=True,
        text=True,
        env=dict(os.environ, TMPDIR=str(tmp_path)),  # keep the compiler's scratch files here
    )
    assert done.returncode == 0, done.stderr


# the functions of `_kernel.c` and their twins in `_kernel_py`
KERNEL_TWINS = {
    "find_path": "find_path",
    "find_paths": "find_paths",
    "find_cycle": "find_cycle",
    "walk": "_walk",
    "build_rows": "_union_rows",
    "bfs": "_bfs",
    "path_extend": "_Search.path_extend",
    "close_path": "_Search.close_path",
    "own_nodes": "_Search.own_nodes",
    "cycle_extend": "_Search.cycle_extend",
    "try_candidates": "_Search.try_candidates",
    "order_candidates": "_Search.ordered_candidates",
    "push_edge": "_Search.push_edge",
    "kuhn": "_Search.kuhn",
    "result": "_Search.result",
}
# C plumbing with no search step of its own: a bit trick, the option mask
# the pure kernel reads from its option rows, copying the input into
# `State`, and building a Python list
C_ONLY = {"lowbit", "option_mask", "init_state", "int_list"}


def test_kernels_are_twins_function_for_function():
    """Every function of `_kernel.c` has its counterpart in the pure kernel
    or is named C-only plumbing, so a change to the search lands in the
    same place in both."""
    c_source = (PACKAGE / "_kernel.c").read_text()
    defined = set(re.findall(r"^static\b[^;{(]*?\b(\w+)\(", c_source, re.MULTILINE))
    assert not set(KERNEL_TWINS) & C_ONLY
    assert defined == set(KERNEL_TWINS) | C_ONLY, (
        f"unlisted: {defined - set(KERNEL_TWINS) - C_ONLY}, "
        f"missing: {(set(KERNEL_TWINS) | C_ONLY) - defined}"
    )
    kernel_py = importlib.import_module("rainbowpan._kernel_py")
    for c_name, py_name in KERNEL_TWINS.items():
        owner, _, attr = py_name.rpartition(".")
        scope = getattr(kernel_py, owner) if owner else kernel_py
        assert callable(getattr(scope, attr, None)), f"{c_name}: no {py_name}"


def test_pure_kernel_has_no_closures_and_no_finally():
    """The pure kernel's search is methods on one state object, as the C
    kernel's is functions on one `State`: no nested function, whose
    self-reference would need breaking, and so no `finally` to break it."""
    tree = ast.parse((PACKAGE / "_kernel_py.py").read_text())
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    nested = [
        inner.lineno
        for outer in ast.walk(tree) if isinstance(outer, funcs)
        for inner in ast.walk(outer) if inner is not outer and isinstance(inner, funcs)
    ]
    finally_lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Try) and node.finalbody]
    assert not nested, f"nested functions at lines {nested}"
    assert not finally_lines, f"finally blocks at lines {finally_lines}"


ROOT = PACKAGE.parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_perfbench(name: str):
    """The benchmark's module `perfbench/<name>.py`, imported under a name of
    its own (its dataclasses look their module up in `sys.modules`)."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_entry_points_resolve():
    """The benchmark's tracer `getattr`s every entry point it lists, so a
    renamed or removed function breaks traced benchmark runs."""
    tracing = _load_perfbench("tracing")
    missing = [
        f"{module}.{name}"
        for module, names in tracing.LAYERS.values()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    kernels = importlib.import_module("rainbowpan.kernels")
    missing += [f"rainbowpan.kernels.{name}" for name in ("find_path", "find_cycle")
                if not hasattr(kernels, name)]
    assert len(tracing.LAYERS) >= 8
    assert not missing, f"perfbench/tracing.py names missing entry points: {missing}"


def test_benchmark_workload_names_resolve():
    """Every `rp.<module>.<name>` the benchmark's workloads read exists."""
    used = set(re.findall(r"\brp\.(\w+)\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    missing = [
        f"{module}.{name}"
        for module, name in sorted(used)
        if not hasattr(importlib.import_module(f"rainbowpan.{module}"), name)
    ]
    assert len(used) >= 15
    assert not missing, f"perfbench/workloads.py reads missing names: {missing}"


# besides the first two items of each workload: one classify item per case
# and a pair of the F family whose replay reports the family verdict
BENCHMARK_ITEMS = (
    "classify:classify-i-n18-s0.txt",
    "classify:classify-ii-n18-s0.txt",
    "classify:classify-iii-n18-s0.txt",
    "replay:replay-F_family-n11-s0:0-9",
)


def test_benchmark_items_decide_and_keep_their_digests(tmp_path, capsys):
    """The workloads call methods on what the package returns and digest
    the JSON their checks build from it (`to_json_dict` of the theorem,
    obstruction, replay and path results), which no name check sees. A
    sample of each workload's items at seed 0 runs and is checked as a
    benchmark pass does: each is decided, has no problem, and has the
    digest that `perfbench/expected.json` records for it."""
    workloads = _load_perfbench("workloads")
    rp = workloads.Modules()
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    ran = []
    for name, workload in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        items = workload.setup(rp, tmp_path / name, 0)
        for item in items[:2] + [item for item in items if item.id in BENCHMARK_ITEMS]:
            checked = item.check(item.run())
            assert checked.decided and not checked.problems, (item.id, checked.problems)
            want = expected[name].get(item.id)
            assert want is None or workloads.digest(checked.doc) == want, item.id
            ran.append(item.id)
    capsys.readouterr()  # the CLI items print their verdicts
    assert set(BENCHMARK_ITEMS) < set(ran) and len(ran) == 12


def test_benchmark_parity_sample_finds_no_difference(kernel, tmp_path, monkeypatch):
    """`perfbench/run.py` replays the kernel calls the package makes, with
    the arguments it passed, on both kernels; on the `obstruction` items it
    compares some and finds no difference."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling hostspeed
    run, workloads = _load_perfbench("run"), _load_perfbench("workloads")
    rp = workloads.Modules()
    items = workloads.WORKLOADS["obstruction"].setup(rp, tmp_path, 0)
    compared, nodes, diffs = run.parity(rp, kernel, items)
    assert compared > 0 and nodes > 0 and not diffs, diffs


def test_benchmark_tracer_leaves_results_unchanged():
    """The benchmark's tracer wraps the package's entry points and reads the
    positional arguments of path and cycle queries to key repeats, so every
    call the package makes internally must pass what the tracer can read.
    Traced runs of a certificate, a constructive replay and two spanning
    queries must return what untraced runs do."""
    tracing = _load_perfbench("tracing")
    importlib.import_module("rainbowpan.cli")  # the tracer patches loaded modules
    from rainbowpan import analysis, constructions, search
    from rainbowpan.generate import gen_random_collection

    coll = gen_random_collection(7, 6, 4, seed=0)
    budget = search.SearchBudget()

    def run():
        return (
            analysis.is_rainbow_panconnected(coll, budget=budget).to_json_dict(),
            constructions.constructive_panconnect(coll, 0, 3, budget=budget).to_json_dict(),
            search.find_rainbow_ham_path(coll, 0, 3, budget=budget),
            search.find_rainbow_cycle(coll, 6, budget=budget),
        )

    plain = run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.count["queries"] > 0 and tracer.count["kernel_calls"] > 0
    assert run() == plain


def test_build_requires_only_setuptools():
    """The compiled kernel builds from the committed `_kernel.c`, so an
    isolated build needs nothing beyond setuptools."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    requires = pyproject["build-system"]["requires"]
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requires]
    assert names == ["setuptools"]


def test_setup_extension_sources_exist():
    """Every source file `setup.py` hands an `Extension` is in the tree."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    sources = [
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Extension"
        for elt in node.args[1].elts
    ]
    assert sources == ["src/rainbowpan/_kernel.c"]
    assert all((ROOT / src).is_file() for src in sources)
