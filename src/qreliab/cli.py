"""Command-line front end.

Every pipeline is exposed as a subcommand with deterministic, line-oriented
output: bare values for single results, ``key=value`` lines otherwise.
Rationals print as ``num/den`` in lowest terms.  Usage errors exit with 2,
computation errors (caps, format mismatches) with 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from fractions import Fraction

from .bipartite import independent_pairs, parse_graph
from .cq import classify_hierarchical, noncomparable_pair_and_rst, parse_query
from .errors import QReliabError, UsageError
from .evaluate import brute_cap_override, pqe_brute, pqe_safe, ur_brute, ur_safe
from .gadgets import brute_counts, closed_counts, verify_lemmas
from .instances import parse_instance, parse_prob_map, ProbAssignment
from .reduction_pqe import run_reduction_pqe
from .reduction_ur import run_reduction


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _fmt(value) -> str:
    """An exact answer in full, however many digits it has: the interpreter's
    limit on converting long integers to text (Python 3.11+) is lifted for
    this conversion only, so parsing input stays guarded."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if isinstance(value, Fraction) and value.denominator != 1:
            return f"{value.numerator}/{value.denominator}"
        return str(value)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# Argument types: a malformed value is a usage error (exit 2); a well-formed
# value out of range is left to the library's check (exit 1).
def _rst(text: str) -> tuple[int, int, int]:
    try:
        r, s, t = (int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects integers r,s,t; got {text!r}") from None
    return r, s, t


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expects a rational p/q; got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer; got {text!r}")
    return int(text)


def _cmd_classify(args) -> None:
    q = parse_query(args.query)
    report = classify_hierarchical(q)
    if report.hierarchical:
        print("hierarchical")
    else:
        x, y, r, s, t = noncomparable_pair_and_rst(q)
        print(f"non-hierarchical witness=({x},{y}) rst=({r},{s},{t})")


def _cmd_ur(args) -> None:
    q = parse_query(args.query)
    instance = parse_instance(_read(args.facts))
    if classify_hierarchical(q).hierarchical:
        print(_fmt(ur_safe(q, instance)))
    else:
        print(_fmt(ur_brute(q, instance)))


def _cmd_pqe(args) -> None:
    q = parse_query(args.query)
    instance = parse_instance(_read(args.facts))
    if args.uniform is not None:
        prob = ProbAssignment.uniform(args.uniform)
    else:
        prob = parse_prob_map(_read(args.probs))
    if classify_hierarchical(q).hierarchical:
        result = pqe_safe(q, instance, prob)
    else:
        result = pqe_brute(q, instance, prob)
    print(_fmt(result))


def _cmd_gadgets(args) -> None:
    r, s, t = args.rst
    cc = closed_counts(r, s, t)
    for field in dataclasses.fields(cc):
        if field.name not in ("r", "s", "t"):
            print(f"{field.name}={getattr(cc, field.name)}")
    if args.check_brute:
        bc = brute_counts(r, s, t)
        print(f"brute_match={str(bc == cc).lower()}")


def _cmd_lemmas(args) -> None:
    checks = verify_lemmas(args.max_rst, args.max_rst, args.max_rst)
    failed = 0
    for check in checks:
        status = "pass" if check.passed else "fail"
        failed += not check.passed
        print(f"rst={check.rst[0]},{check.rst[1]},{check.rst[2]} {status}")
    print(f"failures={failed}")
    if failed:
        raise QReliabError(f"{failed} lemma checks failed")


def _cmd_isets(args) -> None:
    g = parse_graph(_read(args.graph))
    print(sum(independent_pairs(g).values()))


def _cmd_reduce_ur(args) -> None:
    g = parse_graph(_read(args.graph))
    r, s, t = args.rst
    run = run_reduction(g, r, s, t, oracle=args.oracle, emit_dir=args.emit_instances)
    print(f"P={run.p_result}")


def _cmd_reduce_pqe(args) -> None:
    g = parse_graph(_read(args.graph))
    run = run_reduction_pqe(g, args.r, args.t, oracle=args.oracle)
    print(f"P={run.p_result}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it depends on no
    argument, and each ``parse_args`` call returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="qreliab",
        description="Exact uniform reliability, probabilistic query "
        "evaluation, and counting-reduction pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="hierarchy classification of a query")
    p.add_argument("query")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("ur", help="uniform reliability |Mod(Q, I)|")
    p.add_argument("query")
    p.add_argument("facts")
    p.set_defaults(func=_cmd_ur)

    p = sub.add_parser("pqe", help="exact query probability")
    p.add_argument("query")
    p.add_argument("facts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--probs", help="probability file")
    group.add_argument("--uniform", type=_rational, help="uniform probability p/q")
    p.set_defaults(func=_cmd_pqe)

    p = sub.add_parser("gadgets", help="gadget world counts for (r,s,t)")
    p.add_argument("--rst", type=_rst, required=True)
    p.add_argument("--check-brute", action="store_true")
    p.set_defaults(func=_cmd_gadgets)

    p = sub.add_parser("lemmas", help="count-identity checks over a parameter cube")
    p.add_argument("--max-rst", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("isets", help="independent-set-pair count of a bipartite graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_isets)

    p = sub.add_parser("reduce-ur", help="counting reduction via uniform reliability")
    p.add_argument("graph")
    p.add_argument("--rst", type=_rst, required=True)
    p.add_argument("--oracle", choices=("analytic", "brute"), default="analytic")
    p.add_argument("--emit-instances", metavar="DIR")
    p.set_defaults(func=_cmd_reduce_ur)

    p = sub.add_parser("reduce-pqe", help="counting reduction via query probability")
    p.add_argument("graph")
    p.add_argument("--r", type=_rational, required=True, help="R-fact probability p/q")
    p.add_argument("--t", type=_rational, required=True, help="T-fact probability p/q")
    p.add_argument("--oracle", choices=("brute", "formula"), default="brute")
    p.set_defaults(func=_cmd_reduce_pqe)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # checked up front: a bad value fails every command, not only the brute ones
        brute_cap_override()
    except UsageError as exc:
        parser.error(str(exc))
    try:
        args.func(args)
    except (QReliabError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
