"""Command-line front end.

Subcommands: enumerate (label listings), eval (invariant values on state
files, both engines), graph (DOT/JSON/formula views, class decompositions,
expressibility), verify (property-check suites).

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import __version__
from .errors import ResourceLimitError
from .graphs import dot_export, expressible_ordering, graph_to_json
from .perms import (
    MAX_GRADE,
    _arity,
    _check_arity,
    canonical_form,
    enumerate_orbits,
    format_label,
    generator_count,
    is_transitive,
    orbit_count,
    parse_label,
    sim_decompose,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

#: Engine disagreement beyond this (relative) makes `eval` exit nonzero.
EVAL_MISMATCH_TOL = 1e-8

#: Significant digits, of the value's modulus, that `eval` prints.
EVAL_DIGITS = 12

#: Most digits `enumerate --count` prints, below Python's default limit of
#: 4300 digits on converting an int to str.
COUNT_DIGIT_LIMIT = 4000


def grade(text: str) -> int:
    """argparse type of --m: a grade in 1..MAX_GRADE.  Below the range is a
    usage error; above it, the resource guard."""
    m = int(text)
    if m < 1:
        raise argparse.ArgumentTypeError(f"grade {m} is outside 1..{MAX_GRADE}")
    if m > MAX_GRADE:
        raise ResourceLimitError(f"grade {m} exceeds MAX_GRADE; grades run 1..{MAX_GRADE}")
    return m


def _dims(text: str) -> tuple[int, ...]:
    """argparse type of verify --dims: comma-separated integers.  An empty
    value is a usage error, not the default."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims {text!r} are not comma-separated integers") from None


def _label_grade(label: str) -> int:
    """The grade an image-list label spells out: the length of its first
    image list, checked as --m is.  Named labels such as "s,t" give 3."""
    lists = re.findall(r"\[([^\]]*)\]", label)
    return grade(str(len(lists[0].split(",")))) if lists else 3


def cmd_enumerate(args) -> int:
    if args.r is None and args.k is None:
        raise ValueError("specify --r, or --k together with --kind")
    r = args.r if args.r is not None else _arity(args.kind, args.k)
    if args.count:
        # the count is at most m!^r, the number of r-tuples
        if r * math.log10(math.factorial(args.m)) > COUNT_DIGIT_LIMIT:
            raise ResourceLimitError(
                f"the count for m={args.m}, r={r} may exceed {COUNT_DIGIT_LIMIT} digits"
            )
        count = generator_count if args.generators_only else orbit_count
        print(count(args.m, r))
        return EXIT_OK
    flagged = [(lab, is_transitive(lab.rep)) for lab in enumerate_orbits(args.m, r)]
    if args.generators_only:
        flagged = [(lab, transitive) for lab, transitive in flagged if transitive]
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "m": args.m,
            "r": r,
            "labels": [
                {"label": format_label(lab.rep), "transitive": transitive}
                for lab, transitive in flagged
            ],
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    for lab, transitive in flagged:
        print(f"{format_label(lab.rep):<24} {'transitive' if transitive else '-'}")
    return EXIT_OK


def _rounded(z: complex) -> str:
    """z with both parts rounded to EVAL_DIGITS significant digits of |z|,
    so that rounding noise far below the value does not print."""
    scale = abs(z)
    places = EVAL_DIGITS - 1 - math.floor(math.log10(scale)) if 0 < scale < math.inf else 0
    # adding 0.0 turns a rounded -0.0 into 0.0
    return f"{complex(round(z.real, places) + 0.0, round(z.imag, places) + 0.0):.{EVAL_DIGITS}g}"


def cmd_eval(args) -> int:
    # the numerical modules load numpy: imported where a command needs them
    from .closedform import _closed
    from .contract import _checked, _contract, _plan
    from .states import PureState, load_state

    state = load_state(args.state)
    held = "pure" if isinstance(state, PureState) else "mixed"
    if held != args.kind:
        raise ValueError(f"state file holds a {held} state but --kind {args.kind} was given")
    m = args.m if args.m is not None else _label_grade(args.label)
    sigma, kind, dims, stack = _checked(parse_label(args.label, m), args.kind, state)
    # refuse before contracting: a plan over the cost guard, then a grade
    # without a closed form to compare with
    _plan(sigma, kind, dims)
    via_closed = _closed(sigma, kind, dims, stack).item()
    via_contract = _contract(sigma, kind, dims, stack).item()
    diff = abs(via_contract - via_closed) / max(abs(via_contract), abs(via_closed), 1e-300)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "label": format_label(sigma),
        "kind": args.kind,
        "m": sigma.m,
        "value": [via_contract.real, via_contract.imag],
        "contract": [via_contract.real, via_contract.imag],
        "closed_form": [via_closed.real, via_closed.imag],
        "relative_difference": diff,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"label        : {doc['label']} ({args.kind}, grade {sigma.m})")
        print(f"contract     : {_rounded(via_contract)}")
        print(f"closed form  : {_rounded(via_closed)}")
        print(f"difference   : {diff:.3e} (relative)")
    return EXIT_OK if diff <= EVAL_MISMATCH_TOL else EXIT_VERIFY


def cmd_graph(args) -> int:
    sigma = parse_label(args.label, args.m)
    kind = args.kind
    _check_arity(sigma, kind, args.k)
    drawn = sigma.embed() if kind == "pure" else sigma

    # without a closed form (m > 3), "none" stands for the formula
    if args.decompose:
        if kind != "pure":
            raise ValueError("--decompose applies to pure labels")
        from .closedform import alternate_writings, has_closed_form

        if has_closed_form(sigma.m):
            rows = [(w.label, w.text) for w in alternate_writings(sigma, "pure")]
        else:
            rows = [(member, "none") for member in sim_decompose(sigma).members]
        for member, text in rows:
            print(f"{format_label(member.rep):<24} {text}")
        return EXIT_OK

    emitted = False
    if args.formula:
        from .closedform import formula_text, has_closed_form

        lab = canonical_form(drawn)
        if has_closed_form(sigma.m):
            print(formula_text(lab.rep, kind))
        else:
            print(f"{format_label(lab.rep):<24} none")
        emitted = True
    if args.expressible:
        order = expressible_ordering(drawn)
        print("none" if order is None else ",".join(str(v) for v in order))
        emitted = True
    if args.json:
        print(graph_to_json(drawn))
        emitted = True
    if not emitted:
        sys.stdout.write(dot_export(drawn))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import render_table, reports_to_json, run_suite

    reports = run_suite(args.suite, seed=args.seed, dims=args.dims)
    print(render_table(reports))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fp:
            fp.write(reports_to_json(reports))
            fp.write("\n")
        print(f"report written to {args.report}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="luinv",
        description="Enumerate, evaluate, draw and verify local-unitary "
        "invariant polynomials of grades 1-3.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--dim-limit", type=int, default=None,
        help="raise the total-dimension resource guard (default 4096)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list invariant labels")
    p.add_argument("--m", type=grade, required=True, help=f"grade (1..{MAX_GRADE})")
    p.add_argument("--r", type=int, default=None, help="tuple arity")
    p.add_argument("--k", type=int, default=None, help="subsystem count (with --kind)")
    p.add_argument("--kind", choices=("pure", "mixed"), default="mixed",
                   help="with --k: pure labels have r=k-1, mixed r=k")
    p.add_argument("--generators-only", action="store_true",
                   help="only transitive labels (the algebraically independent "
                        "generators when every local dimension is at least m)")
    p.add_argument("--count", action="store_true",
                   help="print the cardinality only, counted without enumerating")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("eval", help="evaluate an invariant on a state file")
    p.add_argument("--label", required=True, help='e.g. "s,t" or "[2,1,3],[1,2,3]"')
    p.add_argument("--kind", choices=("pure", "mixed"), required=True)
    p.add_argument("--m", type=grade, default=None,
                   help=f"grade (1..{MAX_GRADE}); default: the length of the label's "
                   "image lists, or 3 for a named label")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graph", help="graph/formula views of one invariant")
    p.add_argument("--m", type=grade, required=True, help=f"grade (1..{MAX_GRADE})")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--kind", choices=("pure", "mixed"), default="pure")
    p.add_argument("--decompose", action="store_true",
                   help="list all conjugation classes of the two-sided class "
                   "with their formulas, 'none' from grade 4 (pure labels)")
    p.add_argument("--formula", action="store_true",
                   help="print the closed-form text (grade 4 and up: the label and 'none')")
    p.add_argument("--expressible", action="store_true",
                   help="print an adjacent-loop cyclic ordering or 'none'")
    p.add_argument("--json", action="store_true", help="JSON graph dump instead of DOT")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="run property-check suites")
    p.add_argument("--suite", default="all",
                   help="counts, lu, closed, independence, classes, purification, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=_dims, default=(2, 2),
                   help='subsystem dims, e.g. "2,2" (default)')
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse uses exit code 2 for usage errors already
            return int(exc.code or 0)
        if args.dim_limit is None:
            return args.func(args)
        # the guard lives in states, which loads numpy: imported only when set
        from .states import dim_limit
        with dim_limit(args.dim_limit):
            return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
