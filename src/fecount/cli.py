"""Command-line front end: exact counts with machine-readable output.

Subcommands: dynkin, affine, forest, oracle, verify, table.  The query
commands build a table of method name -> count function and hand it to one
runner, :func:`_query`, which runs the selected methods, sets ``agree`` and
prints one JSON record; ``oracle X`` is ``dynkin X --method oracle`` under
its own query label.  The sweeps (verify, table) print through one row
printer, :func:`_print_rows`.  Every count in machine output is a decimal
string from :func:`fecount.arith.render_decimal`, of any length and never a
bare JSON number, so consumers with 64-bit integers cannot truncate
anything.  Apart from the elapsed_ms field, identical invocations print
identical bytes.

The oracle's time budget comes from --budget-ms or the FEC_ORACLE_BUDGET_MS
environment variable (default 60000).  Numbers on the command line are read
in ASCII only, as each option is parsed: a sweep bound is an optional ``-``
and the digits 0-9, and a budget is a non-negative ``float`` read from ASCII
text without ``_``.  A bad --budget-ms is refused whatever --method is;
FEC_ORACLE_BUDGET_MS is read only when the oracle runs.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import os
import sys
import time
from typing import Callable, NoReturn

from . import counting, verify, weyl
from .arith import parse_decimal, render_decimal
from .counting import CountCache, admissible_triples, load_cache, save_cache
from .diagrams import DynkinForest, DynkinType, OrbifoldTriple

log = logging.getLogger(__name__)

DEFAULT_ORACLE_BUDGET_MS = 60_000.0


class CliError(Exception):
    """User-facing failure; printed to stderr, exit status 2."""


class _Parser(argparse.ArgumentParser):
    """Usage errors become a one-line :class:`CliError`; subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        raise CliError(message)


def _budget_value(source: str, raw: str) -> float:
    """A budget in ms as ``float`` reads ASCII text with no ``_``; inf means no deadline."""
    if raw.isascii() and "_" not in raw:
        try:
            budget = float(raw)
        except ValueError:
            pass
        else:
            if not budget >= 0:  # also rejects NaN, which would disable the deadline
                raise CliError(f"{source} must be a non-negative number of ms, got {budget}")
            return budget
    raise CliError(f"{source} must be a number, got {raw!r}")


def _oracle_budget_ms(override: float | None) -> float:
    """The oracle budget: --budget-ms, else FEC_ORACLE_BUDGET_MS, else the default."""
    if override is not None:
        return override
    raw = os.environ.get("FEC_ORACLE_BUDGET_MS")
    if raw is None:
        return DEFAULT_ORACLE_BUDGET_MS
    return _budget_value("FEC_ORACLE_BUDGET_MS", raw)


def _bound(option: str, raw: str) -> int:
    """A sweep bound: an optional ``-`` and the ASCII digits 0-9 only."""
    digits = raw[1:] if raw.startswith("-") else raw
    if digits.isascii() and digits.isdigit():
        try:
            return int(raw)
        except ValueError:  # past the int-from-str digit limit
            pass
    raise CliError(f"{option} must be an integer in ASCII digits, got {raw!r}")


def _parse_dynkin_args(tokens: list[str]) -> DynkinType:
    """Accept either one token "A5" or two tokens "A 5", a family letter then a rank."""
    try:
        if len(tokens) == 1:
            return DynkinType.parse(tokens[0])
        if len(tokens) == 2:
            family, rank = tokens
            if family.upper() in ("A", "D", "E") and rank.isascii() and rank.isdigit():
                return DynkinType.parse(family + rank)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    raise CliError(f"expected a type like 'A5' or 'A 5', got {tokens!r}")


def _query(query: str, method: str, methods: dict[str, Callable[[], int]]) -> int:
    """Run the methods ``method`` selects, print one JSON record, return the exit status.

    "both" selects closed and recursive, "all" every entry of ``methods``.
    An infeasible oracle becomes a note, or an error when it is the only
    method.  The status is 1 when two values disagree, 0 otherwise.
    """
    names = {"both": ("closed", "recursive"), "all": tuple(methods)}.get(method, (method,))
    started = time.perf_counter()
    values: dict[str, str] = {}
    notes: list[str] = []
    for name in names:
        try:
            values[name] = render_decimal(methods[name]())
        except (weyl.UnsupportedRankError, weyl.OracleBudgetExceeded) as exc:
            if len(names) == 1:
                raise CliError(str(exc)) from exc
            notes.append(f"{name} skipped: {exc}")
    record: dict = {"query": query, "method": method, "values": values}
    agree = None
    if len(values) > 1:
        agree = record["agree"] = len(set(values.values())) == 1
    if notes:
        record["notes"] = notes
    record["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    print(json.dumps(record))
    return 1 if agree is False else 0


def _oracle(dtype: DynkinType, budget_ms: float | None) -> int:
    """The brute-force count; the rank is checked before the budget is read."""
    rs = weyl.build_root_system(dtype)
    return weyl.count_reflection_factorizations(rs, _oracle_budget_ms(budget_ms))


def cmd_dynkin(args: argparse.Namespace) -> int:
    """``dynkin``, and ``oracle`` as ``dynkin --method oracle``."""
    dtype = _parse_dynkin_args(args.type)
    methods = {
        "closed": lambda: counting.e_dynkin_closed(dtype),
        "recursive": lambda: counting.e_dynkin_recursive(dtype),
        "oracle": lambda: _oracle(dtype, args.budget_ms),
    }
    return _query(f"{args.command} {dtype}", args.method, methods)


def _triple_methods(triple: OrbifoldTriple, cache: CountCache) -> dict[str, Callable[[], int]]:
    """The three independent counts of an orbifold triple, in output order."""
    return {
        "closed": lambda: counting.e_affine_closed(triple),
        "recursive": lambda: counting.e_affine(triple, cache),
        "degll": lambda: counting.deg_ll_affine(triple),
    }


def cmd_affine(args: argparse.Namespace) -> int:
    if args.method == "oracle":
        raise CliError("no finite oracle exists for orbifold counts; "
                       "use --method closed/recursive/degll/both/all")
    try:
        triple = OrbifoldTriple.of(*map(parse_decimal, args.orders))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    cache = CountCache()
    loaded = None  # counts read from the cache file, if it exists
    if args.cache and os.path.exists(args.cache):
        try:
            cache = load_cache(args.cache)
        except (ValueError, OSError) as exc:
            raise CliError(f"cannot read cache file: {exc}") from exc
        loaded = len(cache)
        log.info("loaded %d cached counts from %s", loaded, args.cache)
    status = _query(f"affine {triple}", args.method, _triple_methods(triple, cache))
    if cache.hits or cache.misses:
        log.info("cache: %d hits, %d misses", cache.hits, cache.misses)
    # A run that added no count leaves an existing file untouched.
    if args.cache and status == 0 and len(cache) != loaded:
        try:
            save_cache(cache, args.cache)
        except OSError as exc:
            reason = exc.strerror or exc
            raise CliError(f"cannot write cache file: {args.cache}: {reason}") from exc
        log.info("saved %d counts to %s", len(cache), args.cache)
    return status


def cmd_forest(args: argparse.Namespace) -> int:
    try:
        forest = DynkinForest.of(DynkinType.parse(tok) for tok in args.component)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return _query(f"forest {forest}", "closed", {"closed": lambda: counting.e_forest(forest)})


def _cell(value: str | bool | dict) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, dict):
        return ",".join(f"{k}={v}" for k, v in value.items())
    return value


def _print_rows(sweep: str, fmt: str, columns: list[str], records: list[dict]) -> None:
    """Print a sweep's records as JSON lines, or their ``columns`` as CSV or markdown.

    A record's note follows its last markdown cell.  A sweep that selects
    no records checked nothing, so it is an error rather than a pass.
    """
    if not records:
        raise CliError(f"{sweep} selects no checks")
    if fmt == "json":
        print("\n".join(json.dumps(r) for r in records))
        return
    rows = [[_cell(r[c]) for c in columns] for r in records]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
        print(buf.getvalue(), end="")
        return
    lines = [columns, ["---"] * len(columns)]
    for record, row in zip(records, rows):
        if "note" in record:
            row[-1] += f" ({record['note']})"
        lines.append(row)
    print("\n".join("| " + " | ".join(line) + " |" for line in lines))


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "hurwitz":
        sweep = f"verify hurwitz --max {args.max}"
        columns, verdict = ["check", "params", "lhs", "rhs", "holds"], "holds"
        records = verify.hurwitz_sweep(args.max)
    elif args.suite == "tables":
        sweep = f"verify tables --max-r {args.max_r}"
        columns, verdict = ["table", "case", "expected", "computed", "matches"], "matches"
        records = verify.table_sweep(max_r=args.max_r)
    else:
        sweep = f"verify cross --max-mu {args.max_mu}"
        columns, verdict = ["triple", "closed", "recursive", "degll", "agree"], "agree"
        cache = CountCache()
        records = []
        for triple in admissible_triples(args.max_mu):
            closed, recursive, degll = (
                render_decimal(count()) for count in _triple_methods(triple, cache).values()
            )
            records.append({"agree": closed == recursive == degll, "check": "cross",
                            "closed": closed, "degll": degll, "recursive": recursive,
                            "triple": str(triple)})
    _print_rows(sweep, args.format, columns, records)
    return 0 if all(r[verdict] for r in records) else 1


def cmd_table(args: argparse.Namespace) -> int:
    if args.dynkin:
        sweep, columns = f"table --dynkin --max-rank {args.max_rank}", ["type", "e", "deg_ll"]
        types = [DynkinType("A", n) for n in range(1, args.max_rank + 1)]
        types += [DynkinType("D", n) for n in range(4, args.max_rank + 1)]
        types += [DynkinType("E", n) for n in (6, 7, 8) if n <= args.max_rank]
        rows = [(t, counting.e_dynkin_closed(t), counting.deg_ll_dynkin(t)) for t in types]
    else:
        sweep, columns = f"table --affine --max-mu {args.max_mu}", ["triple", "e", "deg_ll"]
        cache = CountCache()
        rows = []
        for triple in admissible_triples(args.max_mu):
            methods = _triple_methods(triple, cache)
            rows.append((triple, methods["recursive"](), methods["degll"]()))
    records = [
        dict(zip(columns, (str(key), render_decimal(e), render_decimal(deg_ll))))
        for key, e, deg_ll in rows
    ]
    _print_rows(sweep, args.format, columns, records)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fec`` parser, built once per process and shared by every call."""
    parser = _Parser(
        prog="fec",
        description="Exact counts of complete exceptional sequences for "
                    "Dynkin and extended Dynkin data.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log cache and oracle details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dynkin", help="count for a Dynkin type")
    p.add_argument("type", nargs="+", help="type token, e.g. A5 or 'A 5'")
    p.add_argument("--method", default="both",
                   choices=["closed", "recursive", "oracle", "both", "all"])
    p.add_argument("--budget-ms", type=functools.partial(_budget_value, "--budget-ms"))
    p.set_defaults(func=cmd_dynkin)

    p = sub.add_parser("affine", help="count for orbifold point orders")
    p.add_argument("orders", nargs=3, metavar="A")
    p.add_argument("--method", default="both",
                   choices=["closed", "recursive", "degll", "oracle", "both", "all"])
    p.add_argument("--cache", default=None, help="persistent count cache file")
    p.set_defaults(func=cmd_affine)

    p = sub.add_parser("forest", help="count for a disjoint union of types")
    p.add_argument("component", nargs="+", help="type tokens, e.g. A2 A2 A2")
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser("oracle", help="reflection-factorization brute force")
    p.add_argument("type", nargs="+", help="type token, e.g. D4")
    p.add_argument("--budget-ms", type=functools.partial(_budget_value, "--budget-ms"))
    p.set_defaults(func=cmd_dynkin, method="oracle")

    p = sub.add_parser("verify", help="run a verification suite (exit 0 iff clean)")
    p.add_argument("suite", choices=["hurwitz", "tables", "cross"])
    p.add_argument("--max", default=15, type=functools.partial(_bound, "--max"),
                   help="hurwitz parameter bound")
    p.add_argument("--max-r", default=10, type=functools.partial(_bound, "--max-r"),
                   help="(2,2,r) table bound")
    p.add_argument("--max-mu", default=14, type=functools.partial(_bound, "--max-mu"),
                   help="cross-check mu bound")
    p.add_argument("--format", default="json", choices=["json", "md"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="sweep counts into a table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dynkin", action="store_true")
    group.add_argument("--affine", action="store_true")
    p.add_argument("--max-rank", default=8, type=functools.partial(_bound, "--max-rank"))
    p.add_argument("--max-mu", default=9, type=functools.partial(_bound, "--max-mu"))
    p.add_argument("--format", default="json", choices=["json", "csv", "md"])
    p.set_defaults(func=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # Usage errors, and a CliError from an option's type=, arrive here.
        args = build_parser().parse_args(argv)
        # force= rebinds the handler to the current sys.stderr on every call, so
        # embedding main() in another process (or a test) behaves like a fresh run.
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            force=True,
        )
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
