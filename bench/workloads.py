"""The workloads' operations and the checks on their answers.

Each workload is a list of operations.  An operation is timed alone; its
answer is checked after the pass, outside the timed region.  A failed check
or an unexpected exception is counted once and never retried.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import queries

WORKLOADS = ("product-search", "registry-suite", "query-stream")

# The (k, l, order cap) m-chain searches.  Order 9 is left out: the cold
# search-m-2-2 check alone takes about 41 s there.
PRODUCT_SEARCHES = ((2, 2, 8), (2, 3, 7), (3, 2, 7))

# Left out of registry-suite for the same reason; product-search runs the
# same search at order 8.
EXCLUDED_CHECKS = ("search-m-2-2",)

EXPECTED_REGISTRY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_registry.json")


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the answer is right, else what is wrong


def prepare(workload: str, seed: int) -> list[Op]:
    """The operations of one pass.  Only query-stream depends on the seed."""
    if workload == "product-search":
        return _product_search()
    if workload == "registry-suite":
        return _registry_suite()
    if workload == "query-stream":
        return [_cli_op(q) for q in queries.generate(seed)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


# Members of Ik(m), the permutations with no decreasing subsequence longer than m,
# at orders 1..8 (OEIS A005802, A047889, A047890, A052399).
CHAIN_COUNTS = {
    3: (1, 2, 6, 23, 103, 513, 2761, 15767),
    4: (1, 2, 6, 24, 119, 694, 4582, 33324),
    5: (1, 2, 6, 24, 120, 719, 5003, 39429),
    6: (1, 2, 6, 24, 120, 720, 5039, 40270),
}


def _product_search() -> list[Op]:
    from permclass import harness

    return [
        Op(f"search_m({k},{l},{n})", lambda k=k, l=l, n=n: harness.search_m(k, l, n),
           lambda report, k=k, l=l, n=n: _check_search(report, k, l, n))
        for k, l, n in PRODUCT_SEARCHES
    ]


def _check_search(report, k: int, l: int, n: int) -> Optional[str]:
    """Every m-chain class up to kl is inside the product up to these orders.
    The product is also inside Ik(kl), so the product slices the search built
    must have exactly as many members as Ik(kl), and each Ik(m) slice its
    known count."""
    from permclass.algebra import class_slice
    from permclass.exprs import Comp, IncK

    expected = {
        "k": k,
        "l": l,
        "per_m": {
            str(m): {
                "lhs": f"Ik({m})",
                "rhs": f"comp(Ik({k}),Ik({l}))",
                "results": {str(order): {"status": "holds"} for order in range(1, n + 1)},
            }
            for m in range(k + l - 1, k * l + 1)
        },
    }
    wrong = _diff(report.to_json(), expected)
    if wrong:
        return wrong
    product = Comp((IncK(k), IncK(l)))
    for order in range(1, n + 1):
        sizes = {f"Ik({m})": len(class_slice(IncK(m), order)) for m in range(k + l - 1, k * l + 1)}
        sizes[f"comp(Ik({k}),Ik({l}))"] = len(class_slice(product, order))
        want = {f"Ik({m})": CHAIN_COUNTS[m][order - 1] for m in range(k + l - 1, k * l + 1)}
        want[f"comp(Ik({k}),Ik({l}))"] = CHAIN_COUNTS[k * l][order - 1]
        if sizes != want:
            return f"slice sizes at order {order}: {sizes}, expected {want}"
    return None


def expected_records(registry) -> dict[str, dict]:
    """The committed record of each check registry-suite runs, in registry order.

    The checks must be exactly the registry minus the excluded checks, so a
    check that is added or renamed stops the workload instead of changing it.
    """
    with open(EXPECTED_REGISTRY) as fh:
        expected = json.load(fh)
    missing = [name for name in EXCLUDED_CHECKS if name not in registry]
    names = [name for name in registry if name not in EXCLUDED_CHECKS]
    if missing or names != list(expected):
        raise RuntimeError(
            "registry-suite no longer matches harness.REGISTRY: "
            f"excluded but absent {missing}, registry {names}, expected records {list(expected)}"
        )
    return expected


def _registry_suite() -> list[Op]:
    from permclass import harness

    return [
        Op(name, lambda name=name: harness.run_suite([name]),
           lambda results, want=want: _diff([r.to_json() for r in results], [want]))
        for name, want in expected_records(harness.REGISTRY).items()
    ]


def _cli_op(query: queries.Query) -> Op:
    from permclass import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.cli_dispatch(["--format", "json", *query.argv])
        return code, out.getvalue()

    return Op(f"{query.kind} {query.argv[2]}", run, lambda answer: queries.check(query, *answer))


def _diff(got, want) -> Optional[str]:
    if got == want:
        return None
    return f"got {json.dumps(got, sort_keys=True)[:200]}, expected {json.dumps(want, sort_keys=True)[:200]}"
