"""Search kernel selection.

Prefers the compiled extension; falls back to the pure-Python twin when the
extension is absent or RAINBOWPAN_PURE_PYTHON is set to a non-empty value.
Both expose find_path(n, adj, x, y, k, node_limit),
find_paths(n, adj, x, y, k_lo, k_hi, node_limit) and
find_cycle(n, adj, length, node_limit) with identical semantics and
witnesses, and both read one input format: a view's rows as one bytes object
of m*n native-endian 64-bit words (`core._Snapshot.kernel_adj`), from which
each kernel reads the color count m and the vertices with an edge.
"""
from __future__ import annotations

import os

from . import _kernel_py

FOUND = _kernel_py.FOUND
NONE = _kernel_py.NONE
BUDGET = _kernel_py.BUDGET

if os.environ.get("RAINBOWPAN_PURE_PYTHON"):
    _impl = _kernel_py
else:
    try:
        from . import _kernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernel_py

IMPLEMENTATION = "python" if _impl is _kernel_py else "compiled"

find_path = _impl.find_path
find_paths = _impl.find_paths
find_cycle = _impl.find_cycle
