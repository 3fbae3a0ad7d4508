"""Command-line front end.

Subcommands:

    analyze EXPR   full identifiability report (add --verify for the
                   numeric cross-check, --json for machine output)
    derive EXPR    constitutive equation and its normalized coefficients
                   (--json adds the per-order coefficient texts they read)
    tables         the two composition tables
    fiber EXPR     enumerate parameter sets with the same equation
    gen            random networks with verdicts
    verify EXPR    symbolic verdict against the rank oracle

A command imports the rank oracle (``verify``, ``analyze --verify``) or
the fiber search (``fiber``) only when it runs it.

Exit codes: 0 success, 1 usage/domain error, 2 parse error, 3 internal
inconsistency (symbolic verdict and numeric oracle disagree), 141 the
reader closed standard output early (128 + SIGPIPE, as a shell reports
a writer the signal ended).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, Sequence

from .ident import analyze
from .nettypes import format_tables
from .network import NetworkExpr, ParseError, parse, params, random_network, render
from .opalg import (
    ConstitutiveEq,
    InvariantViolation,
    NameTables,
    coefficient_map,
    constitutive,
    equation_to_json,
)

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

_DERIV_MARKS = {0: "", 1: "̇", 2: "̈"}
_EPS = "ε"
_SIGMA = "σ"


def _symbol(base: str, order: int) -> str:
    if order in _DERIV_MARKS:
        return base + _DERIV_MARKS[order]
    return f"{base}^({order})"


def equation_text(equation: dict) -> Iterator[str]:
    """One-line rendering of ``equation_to_json``'s texts, highest orders
    first, denominators cleared, in parts: each coefficient text is
    yielded as it is, never copied into a longer string."""

    def side(terms: list[dict], base: str) -> Iterator[str]:
        # no text is "0": leaves, gapless 0/1 products and sums from order 0/1 are gapless
        for i, term in enumerate(reversed(terms)):
            if i:
                yield " + "
            text, sym = term["poly"], _symbol(base, term["order"])
            if text == "1":
                yield sym
            elif "+" in text:
                yield from ("(", text, ")·" + sym)
            else:
                yield from (text, "·" + sym)

    yield from side(equation["eps"], _EPS)
    yield " = "
    yield from side(equation["sigma"], _SIGMA)


def normalized_coefficients(eq: ConstitutiveEq, equation: dict, names: NameTables) -> list[dict]:
    """``coefficient_map(eq)`` as strings: the exact quotient when the
    division is polynomial, else ``(num) / (pivot)`` over the texts of
    ``equation``, which is ``equation_to_json(eq, names)``; the quotients
    print from the same ``names`` tables."""
    pivot = equation["sigma"][-1]["poly"]
    printed = [("eps", t) for t in reversed(equation["eps"])]
    printed += [("sigma", t) for t in reversed(equation["sigma"][:-1])]
    out = []
    for (side, term), (num, den) in zip(printed, coefficient_map(eq), strict=True):
        quotient = num.try_divide(den)
        text = f"({term['poly']}) / ({pivot})" if quotient is None else quotient.to_string(names)
        out.append({"side": side, "order": term["order"], "value": text})
    return out


def build_report(expr: NetworkExpr, text: str) -> dict:
    verdict = analyze(expr)
    eq = constitutive(expr, verdict.ones)
    names = params(expr)
    return {
        "expression": text,
        "canonical": render(expr),
        "parameters": names,
        "net_type": verdict.net_type.value,
        "shape_type": verdict.shape_type.value,
        "index": verdict.index,
        "shapes": {
            "eps": list(verdict.ones.eps.shape),
            "sigma": list(verdict.ones.sig.shape),
        },
        "param_count": verdict.param_count,
        "nonmonic_count": verdict.nonmonic_count,
        "local": "identifiable" if verdict.locally_identifiable else "unidentifiable",
        "constructible": verdict.constructible,
        "global": verdict.global_status.value,
        "trace": [
            {
                "connection": step.connection,
                "left": step.left.value,
                "right": step.right.value,
                "result": step.result.value,
                "node": step.node,
                "depth": step.depth,
            }
            for step in verdict.trace
        ],
        "constitutive": equation_to_json(eq, names),
        "oracle": None,
    }


def _print_human_report(report: dict) -> None:
    print(f"network:    {report['canonical']}")
    print(f"parameters: {', '.join(report['parameters'])} ({report['param_count']})")
    print(f"type:       {report['net_type']}  (shape class {report['shape_type']}, n={report['index']})")
    print(
        "shapes:     eps [{}, {}], sigma [{}, {}]".format(
            *report["shapes"]["eps"], *report["shapes"]["sigma"]
        )
    )
    print(f"non-monic coefficients: {report['nonmonic_count']}")
    if report["trace"]:
        print("type derivation:")
        for step in report["trace"]:
            indent = "  " * (step["depth"] + 1)
            print(
                f"{indent}{step['connection']}({step['left']}, {step['right']})"
                f" = {step['result']}   in {step['node']}"
            )
    print(f"local:      {report['local']}")
    print(f"one-element-at-a-time constructible: {'yes' if report['constructible'] else 'no'}")
    print(f"global:     {report['global']}")
    if report["oracle"] is not None:
        print(f"oracle:     {_oracle_text(report['oracle'])}")


def _run_oracle(expr: NetworkExpr, args, nonmonic_count: int) -> dict:
    """The rank oracle's trials, up to the first certified one; the
    largest rank must equal the non-monic count ``analyze`` found."""
    from .oracle import local_ranks

    ranks, certified = local_ranks(expr, trials=args.trials, seed=args.seed)
    return {
        "trials": args.trials,
        "seed": args.seed,
        "jacobian_rank": max(ranks),
        "ranks": ranks,
        "certified": certified,
        "agrees": max(ranks) == nonmonic_count,
    }


def _oracle_text(oracle: dict) -> str:
    if oracle["agrees"]:
        mark = " (certified)" if oracle["certified"] else ""
        return f"agrees at trial {len(oracle['ranks'])} of {oracle['trials']}{mark}"
    return f"DISAGREES: largest rank {oracle['jacobian_rank']} over {oracle['trials']} trials"


def cmd_analyze(args) -> int:
    expr = parse(args.expression)
    report = build_report(expr, args.expression)
    if args.verify:
        report["oracle"] = _run_oracle(expr, args, report["nonmonic_count"])
    if args.json:
        # streamed: a large equation's text is never held whole
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        _print_human_report(report)
    if report["oracle"] is not None and not report["oracle"]["agrees"]:
        print("error: numeric oracle disagrees with the symbolic verdict", file=sys.stderr)
        return 3
    return 0


def _derive(expr: NetworkExpr) -> tuple[dict, list[dict]]:
    """The equation's texts and its normalized coefficients; the
    polynomials are freed on return, before anything prints."""
    eq = constitutive(expr)
    names = NameTables(params(expr))
    equation = equation_to_json(eq, names)
    return equation, normalized_coefficients(eq, equation, names)


def cmd_derive(args) -> int:
    expr = parse(args.expression)
    equation, normalized = _derive(expr)
    if args.json:
        payload = {
            "expression": args.expression,
            "canonical": render(expr),
            "equation": "".join(equation_text(equation)),
            "constitutive": equation,
            "normalized": normalized,
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        # streamed: the equation line is never held whole
        sys.stdout.writelines(equation_text(equation))
        print()
        print("normalized coefficients (pivot: leading sigma coefficient):")
        for item in normalized:
            print(f"  {item['side']}[{item['order']}] = {item['value']}")
    return 0


def cmd_tables(args) -> int:
    print(format_tables())
    return 0


def cmd_fiber(args) -> int:
    from .fiber import fiber_solutions

    expr = parse(args.expression)
    report = fiber_solutions(expr, seed=args.seed)
    payload = {
        "expression": args.expression,
        "base": [str(v) for v in report.base.values],
        "solutions": [
            {"values": list(sol.values), "method": sol.method}
            for sol in report.solutions
        ],
        "count": len(report.solutions),
        "degree": report.degree,
        "truncated": report.truncated,
        "dropped": dict(report.dropped),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"base point: {', '.join(payload['base'])}")
        print(f"fiber degree: {report.degree}")
        print(f"solutions found: {payload['count']}" + (" (truncated)" if report.truncated else ""))
        print("dropped: " + ", ".join(f"{reason} {count}" for reason, count in report.dropped))
        for sol in report.solutions:
            values = ", ".join(f"{v:.9g}" for v in sol.values)
            print(f"  [{sol.method}] {values}")
    return 0


def cmd_gen(args) -> int:
    if args.count < 0:
        raise ValueError(f"count must be non-negative, got {args.count}")
    out = []
    for i in range(args.count):
        expr = random_network(args.seed + i, args.elements)
        verdict = analyze(expr)
        out.append(
            {
                "expression": render(expr),
                "net_type": verdict.net_type.value,
                "local": "identifiable" if verdict.locally_identifiable else "unidentifiable",
                "global": verdict.global_status.value,
            }
        )
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for item in out:
            print(f"{item['expression']}  ->  {item['net_type']}, {item['global']}")
    return 0


def cmd_verify(args) -> int:
    expr = parse(args.expression)
    verdict = analyze(expr)
    oracle = _run_oracle(expr, args, verdict.nonmonic_count)
    status = "identifiable" if verdict.locally_identifiable else "unidentifiable"
    print(f"symbolic: {status} (type {verdict.net_type})")
    print(f"oracle:   {_oracle_text(oracle)}")
    return 0 if oracle["agrees"] else 3


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdident",
        description="structural identifiability of spring-dashpot networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = sub.add_parser("analyze", help="full identifiability report")
    p.add_argument("expression")
    add_common(p)
    p.add_argument("--verify", action="store_true", help="run the numeric oracle")
    p.add_argument("--trials", type=int, default=3, help="most sample points tried")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("derive", help="derive the constitutive equation")
    p.add_argument("expression")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("tables", help="print the composition tables")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("fiber", help="enumerate equivalent parameter sets")
    p.add_argument("expression")
    add_common(p)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("gen", help="generate random networks with verdicts")
    p.add_argument("--elements", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check the verdict against the rank oracle")
    p.add_argument("expression")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=3, help="most sample points tried")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: let it hit devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except InvariantViolation as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
