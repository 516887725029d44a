import importlib
import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# acceptance tests are named test_criterion_<number>_<slug>; emit one
# verdict line per criterion on the terminal, outside capture
_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    found = _CRITERION.search(report.nodeid)
    if not found:
        return
    num, slug = found.group(1), found.group(2).replace("_", " ")
    outcome = "FAIL" if report.failed else ("SKIP" if report.skipped else "PASS")
    print(f"\ncriterion {num} ({slug}): {outcome}")


@pytest.fixture(scope="session")
def kernel(tmp_path_factory):
    """The compiled kernel. When the extension is not installed, the
    committed `_kernel.c` is compiled into a temporary directory by the
    benchmark's `perfbench/kernel_build.py`, with the C compiler and flags
    this interpreter was built with; its tests skip only when no such
    compiler exists."""
    try:
        return importlib.import_module("rainbowpan._kernel")
    except ImportError:
        pass
    spec = importlib.util.spec_from_file_location(
        "_perfbench_kernel_build", ROOT / "perfbench" / "kernel_build.py"
    )
    kernel_build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_build)
    cc = kernel_build._cc()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"rainbowpan._kernel is not installed and no C compiler ({cc[0]}) is on PATH")
    target = kernel_build.build(ROOT, tmp_path_factory.mktemp("kernel"))
    spec = importlib.util.spec_from_file_location("rainbowpan._kernel", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
