"""Command-line front end: exact counts with machine-readable output.

Subcommands: dynkin, affine, forest, oracle, verify, table.  Every count in
machine output is a decimal string (never a bare JSON number) so consumers
with 64-bit integers cannot truncate anything.  Apart from the elapsed_ms
field, identical invocations print identical bytes.

The oracle's time budget comes from --budget-ms or the FEC_ORACLE_BUDGET_MS
environment variable (default 60000).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time

from . import counting, verify, weyl
from .counting import CountCache, admissible_triples, load_cache, save_cache
from .diagrams import DynkinForest, DynkinType, OrbifoldTriple

log = logging.getLogger(__name__)

DEFAULT_ORACLE_BUDGET_MS = 60_000.0


class CliError(Exception):
    """User-facing failure; printed to stderr, exit status 2."""


def _oracle_budget_ms(override: float | None) -> float:
    """The oracle budget; inf means no deadline and 0 expires at once."""
    source, raw = "--budget-ms", override
    if override is None:
        source, raw = "FEC_ORACLE_BUDGET_MS", os.environ.get("FEC_ORACLE_BUDGET_MS")
        if raw is None:
            return DEFAULT_ORACLE_BUDGET_MS
    try:
        budget = float(raw)
    except ValueError as exc:
        raise CliError(f"{source} must be a number, got {raw!r}") from exc
    if not budget >= 0:  # also rejects NaN, which would disable the deadline
        raise CliError(f"{source} must be a non-negative number of ms, got {budget}")
    return budget


def _parse_dynkin_args(tokens: list[str]) -> DynkinType:
    """Accept either one token "A5" or two tokens "A 5"."""
    try:
        if len(tokens) == 1:
            return DynkinType.parse(tokens[0])
        if len(tokens) == 2 and tokens[1].isdigit():
            return DynkinType.parse(tokens[0] + tokens[1])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    raise CliError(f"expected a type like 'A5' or 'A 5', got {tokens!r}")


def _emit(record: dict, elapsed_ms: float) -> None:
    record["elapsed_ms"] = round(elapsed_ms, 3)
    print(json.dumps(record))


def _agreement(values: dict[str, str]) -> bool | None:
    if len(values) < 2:
        return None
    return len(set(values.values())) == 1


def cmd_dynkin(args: argparse.Namespace) -> int:
    dtype = _parse_dynkin_args(args.type)
    started = time.perf_counter()
    values: dict[str, str] = {}
    notes: list[str] = []
    if args.method in ("closed", "both", "all"):
        values["closed"] = str(counting.e_dynkin_closed(dtype))
    if args.method in ("recursive", "both", "all"):
        values["recursive"] = str(counting.e_dynkin_recursive(dtype))
    if args.method in ("oracle", "all"):
        try:
            rs = weyl.build_root_system(dtype)
            budget = _oracle_budget_ms(args.budget_ms)
            values["oracle"] = str(weyl.count_reflection_factorizations(rs, budget))
        except (weyl.UnsupportedRankError, weyl.OracleBudgetExceeded) as exc:
            if args.method == "oracle":
                raise CliError(str(exc)) from exc
            notes.append(f"oracle skipped: {exc}")
    record: dict = {"query": f"dynkin {dtype}", "method": args.method, "values": values}
    agree = _agreement(values)
    if agree is not None:
        record["agree"] = agree
    if notes:
        record["notes"] = notes
    _emit(record, (time.perf_counter() - started) * 1000)
    return 0 if agree in (None, True) else 1


def _parse_triple(tokens: list[int]) -> OrbifoldTriple:
    try:
        return OrbifoldTriple.of(*tokens)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_affine(args: argparse.Namespace) -> int:
    if args.method == "oracle":
        raise CliError("no finite oracle exists for orbifold counts; "
                       "use --method closed/recursive/degll/both/all")
    triple = _parse_triple(args.orders)
    cache = CountCache()
    loaded = None  # counts read from the cache file, if it exists
    if args.cache and os.path.exists(args.cache):
        try:
            cache = load_cache(args.cache)
        except (ValueError, OSError) as exc:
            raise CliError(f"cannot read cache file: {exc}") from exc
        loaded = len(cache)
        log.info("loaded %d cached counts from %s", loaded, args.cache)
    started = time.perf_counter()
    values: dict[str, str] = {}
    if args.method in ("closed", "both", "all"):
        values["closed"] = str(counting.e_affine_closed(triple))
    if args.method in ("recursive", "both", "all"):
        values["recursive"] = str(counting.e_affine(triple, cache))
        log.info("cache: %d hits, %d misses", cache.hits, cache.misses)
    if args.method in ("degll", "all"):
        values["degll"] = str(counting.deg_ll_affine(triple))
    record: dict = {"query": f"affine {triple}", "method": args.method, "values": values}
    agree = _agreement(values)
    if agree is not None:
        record["agree"] = agree
    _emit(record, (time.perf_counter() - started) * 1000)
    # A run that added no count leaves an existing file untouched.
    if args.cache and agree is not False and len(cache) != loaded:
        try:
            save_cache(cache, args.cache)
        except OSError as exc:
            reason = exc.strerror or exc
            raise CliError(f"cannot write cache file: {args.cache}: {reason}") from exc
        log.info("saved %d counts to %s", len(cache), args.cache)
    return 0 if agree in (None, True) else 1


def cmd_forest(args: argparse.Namespace) -> int:
    try:
        forest = DynkinForest.of(DynkinType.parse(tok) for tok in args.component)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    started = time.perf_counter()
    value = counting.e_forest(forest)
    record = {
        "query": f"forest {forest}",
        "method": "closed",
        "values": {"closed": str(value)},
    }
    _emit(record, (time.perf_counter() - started) * 1000)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    dtype = _parse_dynkin_args(args.type)
    started = time.perf_counter()
    try:
        rs = weyl.build_root_system(dtype)
        budget = _oracle_budget_ms(args.budget_ms)
        value = weyl.count_reflection_factorizations(rs, budget)
    except (weyl.UnsupportedRankError, weyl.OracleBudgetExceeded) as exc:
        raise CliError(str(exc)) from exc
    record = {
        "query": f"oracle {dtype}",
        "method": "oracle",
        "values": {"oracle": str(value)},
    }
    _emit(record, (time.perf_counter() - started) * 1000)
    return 0


def _cross_check_records(max_mu: int) -> list[dict]:
    records = []
    cache = CountCache()
    for triple in admissible_triples(max_mu):
        closed = counting.e_affine_closed(triple)
        recursive = counting.e_affine(triple, cache)
        degll = counting.deg_ll_affine(triple)
        records.append({
            "check": "cross",
            "triple": str(triple),
            "closed": str(closed),
            "recursive": str(recursive),
            "degll": str(degll),
            "agree": closed == recursive == degll,
        })
    return records


def _require_checks(records: list, suite: str, bound: str) -> None:
    """An empty sweep checked nothing, so it must not pass."""
    if not records:
        raise CliError(f"verify {suite} {bound} selects no checks")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "hurwitz":
        reports = verify.hurwitz_sweep(max_pq=args.max, max_r=args.max)
        _require_checks(reports, "hurwitz", f"--max {args.max}")
        ok = all(r.holds for r in reports)
        if args.format == "md":
            print(verify.identities_to_markdown(reports))
        else:
            print(verify.records_to_json_lines(
                [verify.identity_to_record(r) for r in reports]))
    elif args.suite == "tables":
        rows = verify.table_sweep(max_r=args.max_r)
        ok = all(r.matches for r in rows)
        if args.format == "md":
            print(verify.rows_to_markdown(rows))
        else:
            print(verify.records_to_json_lines(
                [verify.row_to_record(r) for r in rows]))
    else:
        records = _cross_check_records(args.max_mu)
        _require_checks(records, "cross", f"--max-mu {args.max_mu}")
        ok = all(r["agree"] for r in records)
        if args.format == "md":
            lines = ["| triple | closed | recursive | degll | agree |",
                     "| --- | --- | --- | --- | --- |"]
            lines += [
                f"| {r['triple']} | {r['closed']} | {r['recursive']} | "
                f"{r['degll']} | {'yes' if r['agree'] else 'NO'} |"
                for r in records
            ]
            print("\n".join(lines))
        else:
            print(verify.records_to_json_lines(records))
    return 0 if ok else 1


def _table_rows(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    if args.dynkin:
        header = ["type", "e", "deg_ll"]
        types = [DynkinType("A", n) for n in range(1, args.max_rank + 1)]
        types += [DynkinType("D", n) for n in range(4, args.max_rank + 1)]
        types += [DynkinType("E", n) for n in (6, 7, 8) if n <= args.max_rank]
        rows = [
            [str(t), str(counting.e_dynkin_closed(t)), str(counting.deg_ll_dynkin(t))]
            for t in types
        ]
        return header, rows
    header = ["triple", "e", "deg_ll"]
    cache = CountCache()
    rows = []
    for triple in admissible_triples(args.max_mu):
        rows.append([
            str(triple),
            str(counting.e_affine(triple, cache)),
            str(counting.deg_ll_affine(triple)),
        ])
    return header, rows


def cmd_table(args: argparse.Namespace) -> int:
    header, rows = _table_rows(args)
    if args.format == "json":
        for row in rows:
            print(json.dumps(dict(zip(header, row))))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        print("| " + " | ".join(header) + " |")
        print("| " + " | ".join("---" for _ in header) + " |")
        for row in rows:
            print("| " + " | ".join(row) + " |")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--budget-ms", type=float, default=None)
    p.set_defaults(func=cmd_dynkin)

    p = sub.add_parser("affine", help="count for orbifold point orders")
    p.add_argument("orders", nargs=3, type=int, metavar="A")
    p.add_argument("--method", default="both",
                   choices=["closed", "recursive", "degll", "oracle", "both", "all"])
    p.add_argument("--cache", default=None, help="persistent count cache file")
    p.set_defaults(func=cmd_affine)

    p = sub.add_parser("forest", help="count for a disjoint union of types")
    p.add_argument("component", nargs="+", help="type tokens, e.g. A2 A2 A2")
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser("oracle", help="reflection-factorization brute force")
    p.add_argument("type", nargs="+", help="type token, e.g. D4")
    p.add_argument("--budget-ms", type=float, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a verification suite (exit 0 iff clean)")
    p.add_argument("suite", choices=["hurwitz", "tables", "cross"])
    p.add_argument("--max", type=int, default=15, help="hurwitz parameter bound")
    p.add_argument("--max-r", type=int, default=10, help="(2,2,r) table bound")
    p.add_argument("--max-mu", type=int, default=14, help="cross-check mu bound")
    p.add_argument("--format", default="json", choices=["json", "md"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="sweep counts into a table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dynkin", action="store_true")
    group.add_argument("--affine", action="store_true")
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--max-mu", type=int, default=9)
    p.add_argument("--format", default="json", choices=["json", "csv", "md"])
    p.set_defaults(func=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # force= rebinds the handler to the current sys.stderr on every call, so
    # embedding main() in another process (or a test) behaves like a fresh run.
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
