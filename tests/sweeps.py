"""The k-sweep of one pair asked one length at a time: the reference that
`search.k_paths`, which walks the pair's search tree once, must equal."""
from rainbowpan.core import distances
from rainbowpan.search import BudgetExceeded, find_rainbow_path, k_cap


def reference_k_paths(view, x, y, *, budget=None):
    """`k_paths`'s yields, from one `find_rainbow_path` query per k from the
    union-graph distance + 1 up to `k_cap`, each asked when the sweep
    reaches it."""
    lower = distances(view.union_rows, x)[y]
    if lower is None:
        return
    found = False
    for k in range(lower + 1, k_cap(view) + 1):
        path = find_rainbow_path(view, x, y, k, budget=budget)
        found = found or path is not None
        if found:
            yield k, path


def sweep_outcome(sweep, view, x, y, budget=None) -> list:
    """Everything `sweep` yields for the pair, then the message of the
    BudgetExceeded that ended it, if one did."""
    out = []
    try:
        out.extend(sweep(view, x, y, budget=budget))
    except BudgetExceeded as exc:
        out.append(str(exc))
    return out
