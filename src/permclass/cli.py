"""Command-line surface: membership, enumeration, counting, decomposition,
inclusion checks and the verification suite.

Every subcommand is a thin adapter over the library and runs single-threaded;
output is text by default or stable JSON with --format json (byte-identical for
equal inputs).  Exit codes: 0 success/holds, 1 a check failed (witness printed),
2 usage or parse error, 3 a resource cap was hit.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Optional

from . import factor, harness
from .algebra import MAX_ORDER, ResourceLimitError, basis_up_to, class_slice, count, member
from .exprs import ClassSyntaxError, parse_class, render
from .perms import Permutation, compose_all, from_text, to_text

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


def _order(text: str) -> int:
    """argparse type of the order, length and count options: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_perm(text: str) -> Permutation:
    try:
        return from_text(text)
    except ValueError as exc:
        raise _UsageError(f"bad permutation {_excerpt(text, 0)}: {exc}") from None


# Longest argument text a parse error echoes whole; longer text is shown as a
# window of this many characters around the error position.
_ECHO_LIMIT = 80


def _excerpt(text: str, pos: int, show: Callable[[str], str] = repr) -> str:
    if len(text) <= _ECHO_LIMIT:
        return show(text)
    start = min(max(0, pos - _ECHO_LIMIT // 2), len(text) - _ECHO_LIMIT)
    end = start + _ECHO_LIMIT
    return ("..." if start else "") + show(text[start:end]) + ("..." if end < len(text) else "")


def _parse_expr(text: str):
    try:
        return parse_class(text)
    except ClassSyntaxError as exc:
        raise _UsageError(f"bad class expression {_excerpt(text, exc.pos)}: {exc}") from None


def _perm_json(p: Permutation) -> list[int]:
    return list(p.values)


def _env_cap() -> Optional[int]:
    """PERMCLASS_MAX_N, an order cap over every subcommand, or None when unset."""
    env = os.environ.get("PERMCLASS_MAX_N")
    if env is None:
        return None
    try:
        return _order(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise _UsageError(f"PERMCLASS_MAX_N must be an integer >= 0, got {_excerpt(env, 0)}") from None


def _tighter(cap: Optional[int], env_cap: Optional[int]) -> Optional[int]:
    """The smaller of two caps, either of which may be absent (None)."""
    return cap if env_cap is None else env_cap if cap is None else min(cap, env_cap)


def _verdict_code(failed: bool, skipped: bool) -> int:
    """Exit code of a check run: a failure outranks a skip."""
    return EXIT_FAILED if failed else EXIT_RESOURCE if skipped else EXIT_OK


# Each _cmd_* returns (exit code, JSON payload, text lines); cli_dispatch writes
# one or the other, so the lines may be lazy.
_Result = tuple[int, Optional[dict], Iterable[str]]


def _cmd_member(args, env_cap: Optional[int]) -> _Result:
    expr = _parse_expr(args.cls)
    p = _parse_perm(args.perm)
    verdict = member(expr, p, _tighter(MAX_ORDER, env_cap))
    payload = {"class": render(expr), "perm": _perm_json(p), "member": verdict}
    return EXIT_OK, payload, ["true" if verdict else "false"]


def _cmd_enumerate(args, env_cap: Optional[int]) -> _Result:
    expr = _parse_expr(args.cls)
    rows = class_slice(expr, args.n, _tighter(MAX_ORDER, env_cap)).rows()
    return EXIT_OK, {"class": render(expr), "n": args.n, "members": rows}, map(to_text, rows)


def _cmd_count(args, env_cap: Optional[int]) -> _Result:
    expr = _parse_expr(args.cls)
    counts = count(expr, args.max_n, _tighter(MAX_ORDER, env_cap))
    lines = (f"{n}\t{c}" for n, c in enumerate(counts, start=1))
    return EXIT_OK, {"class": render(expr), "max_n": args.max_n, "counts": counts}, lines


def _cmd_basis(args, env_cap: Optional[int]) -> _Result:
    expr = _parse_expr(args.cls)
    basis = basis_up_to(expr, args.max_len, _tighter(MAX_ORDER, env_cap))
    basis = sorted(basis, key=lambda p: (len(p), p))
    payload = {"class": render(expr), "max_len": args.max_len, "basis": [*map(_perm_json, basis)]}
    return EXIT_OK, payload, map(to_text, basis)


def _cmd_compose_perms(args, env_cap: Optional[int]) -> _Result:
    perms = [_parse_perm(t) for t in args.perms]
    lengths = {len(p) for p in perms}
    if len(lengths) > 1:
        raise _UsageError("all permutations must have the same length")
    out = compose_all(perms)
    payload = {"perms": [_perm_json(p) for p in perms], "result": _perm_json(out)}
    return EXIT_OK, payload, [to_text(out)]


def _cmd_decompose(args, env_cap: Optional[int]) -> _Result:
    p = _parse_perm(args.perm)
    try:
        if args.method == "vkhk":
            result = factor.decompose_vk_hk(p, args.k)
        elif args.method == "ikil":
            result = factor.decompose_ik_il(p, args.k, args.l)
        elif args.method == "l4":
            result = factor.decompose_l4(p, args.k)
        else:
            alpha = _parse_perm(args.alpha)
            gamma = _parse_perm(args.gamma)
            result = factor.decompose_thm52(p, alpha, args.beta_len, gamma)
    except ValueError as exc:
        # The error line is all this failure prints: no payload, no lines.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED, None, ()
    lines = (f"{to_text(f.perm)}\t{render(f.cls)}" for f in result.factors)
    return EXIT_OK, result.to_json(), lines


def _verdict_line(n: int, v: harness.Verdict) -> str:
    line = f"n={n}: {v.status}"
    if v.witness is not None:
        line += f" witness={to_text(v.witness)}"
    if v.reason is not None:
        line += f" ({v.reason})"
    return line


def _cmd_include(args, env_cap: Optional[int]) -> _Result:
    lhs = _parse_expr(args.lhs)
    rhs = _parse_expr(args.rhs)
    orders = range(1, args.max_n + 1)
    report = harness.check_inclusion(lhs, rhs, orders, _tighter(MAX_ORDER, env_cap))
    code = _verdict_code(bool(report.failed_orders), bool(report.skipped_orders))
    return code, report.to_json(), itertools.starmap(_verdict_line, sorted(report.results.items()))


def _suite_lines(results: list[harness.SuiteResult]) -> Iterator[str]:
    for r in results:
        yield f"{r.name}: {r.status} ({r.elapsed:.2f}s)"
        if r.status == "skip":
            yield f"  skipped: {r.reason}"
        for line in r.counterexamples:
            yield f"  {line}"


def _cmd_suite(args, env_cap: Optional[int]) -> _Result:
    names = list(harness.REGISTRY) if args.names == "all" else args.names.split(",")
    names = [n.strip() for n in names if n.strip()]
    if not names:
        raise _UsageError("no check names given")
    try:
        results = harness.run_suite(names, n_cap=_tighter(args.max_n, env_cap))
    except harness.UnknownCheckError as exc:
        # A KeyError's str() quotes its message; show it plain, but bounded.
        raise _UsageError(_excerpt(exc.args[0], 0, str)) from None
    statuses = {r.status for r in results}
    code = _verdict_code("fail" in statuses, "skip" in statuses)
    return code, {"results": [r.to_json() for r in results]}, _suite_lines(results)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    parse_args keeps no state between calls: each returns a fresh Namespace,
    and help and errors read sys.stderr and COLUMNS when they print.
    """
    parser = argparse.ArgumentParser(
        prog="permclass",
        description="Exact computations in the composition algebra of permutation classes.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_member = sub.add_parser("member", help="decide class membership of a permutation")
    p_member.add_argument("--class", dest="cls", required=True)
    p_member.add_argument("--perm", required=True)
    p_member.set_defaults(run=_cmd_member)

    p_enum = sub.add_parser("enumerate", help="list all members at one order")
    p_enum.add_argument("--class", dest="cls", required=True)
    p_enum.add_argument("-n", type=_order, required=True)
    p_enum.set_defaults(run=_cmd_enumerate)

    p_count = sub.add_parser("count", help="member counts for orders 1..N")
    p_count.add_argument("--class", dest="cls", required=True)
    p_count.add_argument("--max-n", type=_order, required=True)
    p_count.set_defaults(run=_cmd_count)

    p_basis = sub.add_parser("basis", help="minimal avoided permutations up to a length")
    p_basis.add_argument("--class", dest="cls", required=True)
    p_basis.add_argument("--max-len", type=_order, required=True)
    p_basis.set_defaults(run=_cmd_basis)

    p_comp = sub.add_parser("compose-perms", help="compose permutations left to right")
    p_comp.add_argument("perms", nargs="+")
    p_comp.set_defaults(run=_cmd_compose_perms)

    p_dec = sub.add_parser("decompose", help="constructive factorization of a permutation")
    p_dec.add_argument("--method", choices=("vkhk", "ikil", "l4", "thm52"), required=True)
    p_dec.add_argument("--perm", required=True)
    p_dec.add_argument("-k", type=_order, default=2)
    p_dec.add_argument("-l", type=_order, default=2)
    p_dec.add_argument("--alpha", default="1")
    p_dec.add_argument("--beta-len", type=_order, default=1)
    p_dec.add_argument("--gamma", default="1")
    p_dec.set_defaults(run=_cmd_decompose)

    p_inc = sub.add_parser("include", help="slice-level inclusion check per order")
    p_inc.add_argument("--lhs", required=True)
    p_inc.add_argument("--rhs", required=True)
    p_inc.add_argument("--max-n", type=_order, required=True)
    p_inc.set_defaults(run=_cmd_include)

    p_suite = sub.add_parser("suite", help="run named verification checks")
    p_suite.add_argument("--names", default="all")
    p_suite.add_argument("--max-n", type=_order, default=None)
    p_suite.set_defaults(run=_cmd_suite)

    return parser


def cli_dispatch(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code, payload, lines = args.run(args, _env_cap())
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    if args.format == "json" and payload is not None:
        lines = [json.dumps(payload, sort_keys=True, separators=(",", ":"))]
    for line in lines:
        print(line)
    return code


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
