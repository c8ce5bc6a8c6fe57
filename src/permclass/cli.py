"""Command-line surface: membership, enumeration, counting, decomposition,
inclusion checks and the verification suite.

Every subcommand is a thin adapter over the library and runs single-threaded;
output is text by default or stable JSON with --format json (byte-identical for
equal inputs).  Exit codes: 0 success/holds, 1 a check failed (witness printed),
2 usage or parse error, 3 a resource cap was hit.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import factor, harness
from .algebra import (
    Config,
    DEFAULT_CONFIG,
    ResourceLimitError,
    basis_up_to,
    class_slice,
    count,
    member,
)
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


def _excerpt(text: str, pos: int) -> str:
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    start = min(max(0, pos - _ECHO_LIMIT // 2), len(text) - _ECHO_LIMIT)
    end = start + _ECHO_LIMIT
    return ("..." if start else "") + repr(text[start:end]) + ("..." if end < len(text) else "")


def _parse_expr(text: str):
    try:
        return parse_class(text)
    except ClassSyntaxError as exc:
        raise _UsageError(f"bad class expression {_excerpt(text, exc.pos)}: {exc}") from None


def _perm_json(p: Permutation) -> list[int]:
    return list(p.values)


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _env_cap() -> Optional[int]:
    env = os.environ.get("PERMCLASS_MAX_N")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"PERMCLASS_MAX_N must be an integer, got {env!r}") from None


def _global_cap(args) -> Optional[int]:
    caps = [c for c in (_env_cap(), getattr(args, "max_n", None)) if c is not None]
    return min(caps) if caps else None


def _config(args) -> Config:
    cap = _env_cap()
    if cap is None:
        return DEFAULT_CONFIG
    return Config(max_order=min(DEFAULT_CONFIG.max_order, cap))


def _cmd_member(args) -> int:
    expr = _parse_expr(args.cls)
    p = _parse_perm(args.perm)
    verdict = member(expr, p, _config(args))
    if args.format == "json":
        _emit({"class": render(expr), "perm": _perm_json(p), "member": verdict}, args)
    else:
        print("true" if verdict else "false")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    expr = _parse_expr(args.cls)
    members = list(class_slice(expr, args.n, _config(args)))
    if args.format == "json":
        _emit(
            {"class": render(expr), "n": args.n, "members": [_perm_json(p) for p in members]},
            args,
        )
    else:
        for p in members:
            print(to_text(p))
    return EXIT_OK


def _cmd_count(args) -> int:
    expr = _parse_expr(args.cls)
    counts = count(expr, args.max_n, _config(args))
    if args.format == "json":
        _emit({"class": render(expr), "max_n": args.max_n, "counts": counts}, args)
    else:
        for n, c in enumerate(counts, start=1):
            print(f"{n}\t{c}")
    return EXIT_OK


def _cmd_basis(args) -> int:
    expr = _parse_expr(args.cls)
    basis = sorted(basis_up_to(expr, args.max_len, _config(args)), key=lambda p: (len(p), p))
    if args.format == "json":
        _emit(
            {"class": render(expr), "max_len": args.max_len, "basis": [_perm_json(p) for p in basis]},
            args,
        )
    else:
        for p in basis:
            print(to_text(p))
    return EXIT_OK


def _cmd_compose_perms(args) -> int:
    perms = [_parse_perm(t) for t in args.perms]
    lengths = {len(p) for p in perms}
    if len(lengths) > 1:
        raise _UsageError("all permutations must have the same length")
    out = compose_all(perms)
    if args.format == "json":
        _emit({"perms": [_perm_json(p) for p in perms], "result": _perm_json(out)}, args)
    else:
        print(to_text(out))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    p = _parse_perm(args.perm)
    config = _config(args)
    try:
        if args.method == "vkhk":
            result = factor.decompose_vk_hk(p, args.k, config)
        elif args.method == "ikil":
            result = factor.decompose_ik_il(p, args.k, args.l, config)
        elif args.method == "l4":
            result = factor.decompose_l4(p, args.k, config)
        else:
            alpha = _parse_perm(args.alpha)
            gamma = _parse_perm(args.gamma)
            result = factor.decompose_thm52(p, alpha, args.beta_len, gamma, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    if args.format == "json":
        _emit(result.to_json(), args)
    else:
        for f in result.factors:
            print(f"{to_text(f.perm)}\t{render(f.cls)}")
    return EXIT_OK


def _cmd_include(args) -> int:
    lhs = _parse_expr(args.lhs)
    rhs = _parse_expr(args.rhs)
    report = harness.check_inclusion(lhs, rhs, range(1, args.max_n + 1), _config(args))
    if args.format == "json":
        _emit(report.to_json(), args)
    else:
        for n in sorted(report.results):
            v = report.results[n]
            line = f"n={n}: {v.status}"
            if v.witness is not None:
                line += f" witness={to_text(v.witness)}"
            if v.reason is not None:
                line += f" ({v.reason})"
            print(line)
    if report.failed_orders:
        return EXIT_FAILED
    if report.skipped_orders:
        return EXIT_RESOURCE
    return EXIT_OK


def _cmd_suite(args) -> int:
    names = list(harness.REGISTRY) if args.names == "all" else args.names.split(",")
    names = [n.strip() for n in names if n.strip()]
    try:
        results = harness.run_suite(names, n_cap=_global_cap(args), config=_config(args))
    except harness.UnknownCheckError as exc:
        raise _UsageError(str(exc)) from None
    if args.format == "json":
        _emit({"results": [r.to_json() for r in results]}, args)
    else:
        for r in results:
            print(f"{r.name}: {r.status} ({r.elapsed:.2f}s)")
            for line in r.counterexamples:
                print(f"  {line}")
    if any(r.status == "fail" for r in results):
        return EXIT_FAILED
    if any(r.status == "skip" for r in results):
        return EXIT_RESOURCE
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
