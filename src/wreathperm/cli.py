"""Command-line surface: tables, statistic counts, bijections, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 enumeration
budget, table size or verify row limit exceeded, 4 domain error (input outside
a bijection's domain), 141 stdout closed by its reader (128 + SIGPIPE, as a
shell reports it).  ``--budget`` (on ``count`` and ``verify``) is the one
override of the element budget, ``DEFAULT_BUDGET`` (10^8) by default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    ColoredPermutation,
    DomainError,
    format_cycles,
    format_one_line,
    parse_cycles,
    parse_one_line,
    rotate_left,
    rotate_right,
)
from . import bijections as bij
from .enumeration import (
    DEFAULT_BUDGET,
    SUITES,
    BudgetError,
    _usable_cpus,
    check_table_size,
    distribution,
    verify_suite,
)
from .reporting import report_json
from .statistics import CIRCULAR, LINEAR, SKEW_LINEAR
from .tables import FLAVORS, table_rows

_STATS = {"circ": CIRCULAR, "lin": LINEAR, "skew": SKEW_LINEAR}


def _at_least(low: int):
    """An argparse type for integers ``>= low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


_jobs, _budget = _at_least(1), _at_least(0)


def _cmd_table(args) -> int:
    check_table_size(args.colors, args.max_n)
    # table_rows checks its arguments before a byte is written; then each row
    # is written as it is built, and no more than two rows are held
    rows = enumerate(table_rows(args.colors, args.max_n, args.flavor))
    write = sys.stdout.write
    if args.format == "csv":
        write("n,m,value\n")
        for n, row in rows:
            write("".join(f"{n},{m},{value}\n" for m, value in enumerate(row)))
    elif args.format == "json":  # the bytes of json.dumps(build_table(...)._asdict())
        write(f'{{"ell": {args.colors}, "flavor": {json.dumps(args.flavor)}, "rows": [')
        for n, row in rows:
            write((", " if n else "") + json.dumps(row))
        write("]}\n")
    else:
        for n, row in rows:
            write(f"n={n}: {' '.join(map(str, row))}\n")
    return 0


def _cmd_count(args) -> int:
    counts = distribution(
        args.colors,
        args.n,
        args.k,
        _STATS[args.stat],
        jobs=args.jobs,
        budget=args.budget,
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "ell": args.colors,
                    "n": args.n,
                    "k": args.k,
                    "stat": args.stat,
                    "counts": counts,
                }
            )
        )
    else:
        print(" ".join(str(c) for c in counts))
    return 0


def _uncolored(word_map):
    """Lift a map on plain words to uncolored elements."""

    def lifted(p: ColoredPermutation) -> ColoredPermutation:
        if any(p.colors):
            raise DomainError("the plain cycles-to-word map needs an uncolored input")
        return ColoredPermutation(p.ell, word_map(p.sigma), p.colors)

    return lifted


# name -> (forward, inverse).  A direction is (function, argument names, names
# of the extras it returns before the element); ``p`` is the input element and
# every other argument is the flag of that name.
_P = ("p",)
_BIJECTIONS = {
    "delta": ((rotate_right, _P, ()), (rotate_left, _P, ())),
    "foata": ((_uncolored(bij.foata), _P, ()), (_uncolored(bij.foata_inverse), _P, ())),
    "phi": ((bij.colored_foata, _P, ()), (bij.colored_foata_inverse, _P, ())),
    "rho": (
        (bij.remove_max_succession, ("p", "m", "k"), ()),
        (bij.insert_max_succession, ("p", "m", "k"), ()),
    ),
    "isolated-to-increasing": (
        (bij.isolated_to_increasing, ("p", "m"), ()),
        (bij.increasing_to_isolated, ("p", "m"), ()),
    ),
    "representative": ((bij.class_representative, ("p", "m"), ()), None),
    "vartheta": (
        (bij.isolate_forward, ("p", "m", "n"), ("eps", "alpha")),
        (bij.isolate_inverse, ("eps", "alpha", "p", "m"), ()),
    ),
    "tau": (
        (bij.derangement_insert, ("eps", "k", "p"), ()),
        (bij.derangement_remove, _P, ("eps", "k")),
    ),
    "drec3": (
        (bij.isolated_insert, ("eps", "alpha", "p", "m"), ()),
        (bij.isolated_remove, ("p", "m", "n"), ("eps", "alpha")),
    ),
}


def _cmd_bijection(args) -> int:
    forward, inverse = _BIJECTIONS[args.name]
    # A map that takes --n reads the input at its own size.
    takes_n = any("n" in way[1] for way in (forward, inverse) if way)
    text = args.input.strip()
    as_cycles = text.startswith("(")
    parse = parse_cycles if as_cycles else parse_one_line
    p = parse(text, args.colors, None if takes_n else args.n)
    if args.inverse and inverse is None:
        what = forward[0].__name__.replace("_", " ")
        raise DomainError(f"the {what} map has no inverse")
    func, names, extras = inverse if args.inverse else forward
    values = {**vars(args), "p": p}
    missing = [f"--{name}" for name in names if values[name] is None]
    if missing:
        way = " --inverse" if args.inverse else ""
        raise ValueError(f"--name {args.name}{way} requires {', '.join(missing)}")
    result = func(*(values[name] for name in names))
    *found, out = result if extras else (result,)
    rendered = format_cycles(out) if as_cycles else format_one_line(out)
    if extras:
        rendered = json.dumps({**dict(zip(extras, found)), "perm": rendered})
    print(rendered)
    return 0


def _cmd_verify(args) -> int:
    results = verify_suite(
        args.suite,
        args.colors_max,
        args.n_max,
        jobs=args.jobs,
        budget=args.budget,
    )
    if not results:
        raise ValueError(
            f"suite {args.suite} checks nothing for --colors-max {args.colors_max}"
            f" --n-max {args.n_max}"
        )
    print(report_json(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathperm",
        description="Colored permutation groups: difference tables, succession "
        "statistics, bijections, and brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="print a difference table")
    t.add_argument("--flavor", choices=FLAVORS, required=True)
    t.add_argument("--colors", type=_at_least(1), required=True)
    t.add_argument("--max-n", type=int, required=True)
    t.add_argument("--format", choices=("csv", "json", "text"), default="text")
    t.set_defaults(func=_cmd_table)

    c = sub.add_parser("count", help="distribution of a succession statistic")
    c.add_argument("--colors", type=_at_least(1), required=True)
    c.add_argument("--n", type=_at_least(0), required=True)
    c.add_argument("--stat", choices=sorted(_STATS), required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.set_defaults(func=_cmd_count)

    b = sub.add_parser("bijection", help="apply a named bijection to one element")
    b.add_argument("--name", required=True, choices=tuple(_BIJECTIONS))
    b.add_argument("--colors", type=_at_least(1), default=1)
    b.add_argument("--n", type=_at_least(0), default=None)
    b.add_argument("--m", type=int, default=None)
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--eps", type=int, default=None, help="color exponent argument")
    b.add_argument("--alpha", type=int, default=None, help="anchor value argument")
    b.add_argument("--input", required=True, help="one-line word or (cycles)")
    b.add_argument("--inverse", action="store_true")
    b.set_defaults(func=_cmd_bijection)

    v = sub.add_parser("verify", help="run brute-force verification suites")
    v.add_argument("--suite", choices=("all",) + SUITES, default="all")
    v.add_argument("--colors-max", type=int, required=True)
    v.add_argument("--n-max", type=int, required=True)
    v.set_defaults(func=_cmd_verify)
    for counting in (c, v):
        counting.add_argument("--jobs", type=_jobs, default=_usable_cpus())
        counting.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetError, ValueError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetError) else 4 if isinstance(exc, DomainError) else 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (say ``| head``).  Point stdout at devnull
        # so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    run()
