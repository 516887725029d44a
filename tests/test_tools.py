"""The benchmark comparison script's command line."""
import argparse
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("text, seeds", [
    ("0-9", list(range(10))),
    ("0,1,2,3", [0, 1, 2, 3]),
    ("4", [4]),
    ("0,2,5-7", [0, 2, 5, 6, 7]),
    ("3-3", [3]),
    ("7,0-2,1", [7, 0, 1, 2]),
    ("0,1,", [0, 1]),
])
def test_seeds_accept_lists_and_ranges(bench_compare, text, seeds):
    assert bench_compare.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["", ",", "a", "1-", "-1", "5-2", "1-2-3", "0..9"])
def test_seeds_reject_malformed_text(bench_compare, text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_compare.parse_seeds(text)


def test_seeds_option_parses_ranges(bench_compare):
    base = ["--label", "x", "--before", "HEAD", "--workloads", "replay"]
    assert bench_compare.parser().parse_args(base).seeds == [0, 1, 2, 3]
    assert bench_compare.parser().parse_args(base + ["--seeds", "0-2,5"]).seeds == [0, 1, 2, 5]
    with pytest.raises(SystemExit):
        bench_compare.parser().parse_args(base + ["--seeds", "5-2"])
