"""Reference answers and the answer checker, independent of fecount.

Nothing here imports fecount: every expected value comes from the closed
forms written out below, so a wrong count from any of fecount's methods is
caught no matter which method produced it.

* Dynkin types: (n+1)^(n-1) for A_n, 2(n-1)^n for D_n, and the three E
  constants.
* Orbifold triples: mu!/(a1! a2! a3! chi) * a1^a1 a2^a2 a3^a3 in Fraction.
* Forests: the multinomial shuffle of the blocks times the block counts.
* The size of the noncrossing partition lattice NC(W), prod (h + d_i)/d_i,
  which is the number of elements the oracle walk visits.

:func:`check` compares one query's outcome with these values, and also
checks the CLI's exit status and its ``agree``/``holds``/``matches`` fields.
It returns ``None`` for a correct outcome and a one-line reason otherwise.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

E_COUNTS = {6: 41472, 7: 1062882, 8: 37968750}
E_DEGREES = {
    6: (2, 5, 6, 8, 9, 12),
    7: (2, 6, 8, 10, 12, 14, 18),
    8: (2, 8, 12, 14, 18, 20, 24, 30),
}


def parse_type(token: str) -> tuple[str, int]:
    """'D7' -> ('D', 7); raises ValueError on anything that is not A/D/E."""
    family, rank = token[0].upper(), int(token[1:])
    ok = {"A": rank >= 1, "D": rank >= 4, "E": rank in E_COUNTS}.get(family, False)
    if not ok:
        raise ValueError(f"no simply-laced type {token!r}")
    return family, rank


def dynkin_count(token: str) -> int:
    family, n = parse_type(token)
    if family == "A":
        return (n + 1) ** (n - 1)
    if family == "D":
        return 2 * (n - 1) ** n
    return E_COUNTS[n]


def nc_size(token: str) -> int:
    """|NC(W)|, the W-Catalan number prod (h + d_i) / d_i."""
    family, n = parse_type(token)
    if family == "A":
        h, degrees = n + 1, range(2, n + 2)
    elif family == "D":
        h, degrees = 2 * (n - 1), [*range(2, 2 * n - 1, 2), n]
    else:
        h, degrees = {6: 12, 7: 18, 8: 30}[n], E_DEGREES[n]
    value = math.prod(Fraction(h + d, d) for d in degrees)
    assert value.denominator == 1
    return int(value)


def affine_count(triple: tuple[int, int, int]) -> int:
    a1, a2, a3 = triple
    chi = Fraction(1, a1) + Fraction(1, a2) + Fraction(1, a3) - 1
    mu = a1 + a2 + a3 - 1
    value = Fraction(math.factorial(mu), math.factorial(a1) * math.factorial(a2)
                     * math.factorial(a3)) / chi * a1**a1 * a2**a2 * a3**a3
    if value.denominator != 1:
        raise ArithmeticError(f"closed form for {triple} is not an integer")
    return int(value)


def forest_count(tokens: list[str]) -> int:
    ranks = [parse_type(t)[1] for t in tokens]
    shuffle = math.factorial(sum(ranks))
    for r in ranks:
        shuffle //= math.factorial(r)
    return shuffle * math.prod(dynkin_count(t) for t in tokens)


def admissible(max_mu: int) -> list[tuple[int, int, int]]:
    """Sorted triples a1 <= a2 <= a3 with 1/a1 + 1/a2 + 1/a3 > 1, mu <= max_mu."""
    return sorted(
        ((a1, a2, a3)
         for a1 in range(1, max_mu + 1)
         for a2 in range(a1, max_mu + 1)
         for a3 in range(a2, max_mu + 2 - a1 - a2)
         if a2 * a3 + a1 * a3 + a1 * a2 > a1 * a2 * a3),
        key=lambda t: (sum(t), t),
    )


def _triple(text: str) -> tuple[int, int, int]:
    a1, a2, a3 = (int(x) for x in text.strip("()").split(","))
    return a1, a2, a3


def _option(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def _values_match(values: dict, keys: set[str], expected: int) -> str | None:
    if set(values) != keys:
        return f"methods {sorted(values)} != {sorted(keys)}"
    wrong = {k: v for k, v in values.items() if v != str(expected)}
    return f"values {wrong} != {expected}" if wrong else None


_DYNKIN_KEYS = {"both": {"closed", "recursive"}, "all": {"closed", "recursive", "oracle"}}
_AFFINE_KEYS = {"both": {"closed", "recursive"}, "all": {"closed", "recursive", "degll"}}


def check_cli(argv: list[str], code: int, out: str) -> str | None:
    """Check one `fec` command's exit status and JSON output."""
    if code != 0:
        return f"exit status {code}"
    try:
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return f"output is not JSON lines: {exc}"
    command = argv[0]
    if command in ("dynkin", "affine", "forest"):
        if len(records) != 1:
            return f"{len(records)} records, expected 1"
        rec = records[0]
        if rec.get("agree") is False:
            return "agree: false"
        method = argv[argv.index("--method") + 1] if "--method" in argv else "both"
        if command == "dynkin":
            return _values_match(rec["values"], _DYNKIN_KEYS[method], dynkin_count(argv[1]))
        if command == "affine":
            triple = tuple(sorted(int(a) for a in argv[1:4]))
            return _values_match(rec["values"], _AFFINE_KEYS[method], affine_count(triple))
        return _values_match(rec["values"], {"closed"}, forest_count(argv[1:]))
    if command == "verify":
        return _check_verify(argv, records)
    if command == "table":
        return _check_table(argv, records)
    return f"no reference for command {command!r}"


def _check_verify(argv: list[str], records: list[dict]) -> str | None:
    suite = argv[1]
    if suite == "hurwitz":
        m = _option(argv, "--max")
        if len(records) != m * m + m:
            return f"{len(records)} hurwitz records, expected {m * m + m}"
        bad = [r for r in records if r["holds"] is not True or r["lhs"] != r["rhs"]]
        return f"hurwitz check fails: {bad[0]}" if bad else None
    if suite == "tables":
        r_max = _option(argv, "--max-r")
        expected_rows = sum(2 * r + 5 for r in range(2, r_max + 1)) + 13 + 15 + 17
        if len(records) != expected_rows:
            return f"{len(records)} table rows, expected {expected_rows}"
        for rec in records:
            if rec["matches"] is not True:
                return f"table row does not match: {rec}"
            if rec["case"] == "total" and rec["computed"] != str(affine_count(_triple(rec["table"]))):
                return f"table total {rec['table']} = {rec['computed']} is wrong"
        return None
    if suite == "cross":
        triples = admissible(_option(argv, "--max-mu"))
        if [_triple(r["triple"]) for r in records] != triples:
            return "cross-check covers the wrong triples"
        for rec in records:
            expected = str(affine_count(_triple(rec["triple"])))
            if rec["agree"] is not True or {rec["closed"], rec["recursive"], rec["degll"]} != {expected}:
                return f"cross-check record is wrong: {rec}"
        return None
    return f"no reference for verify suite {suite!r}"


def _check_table(argv: list[str], records: list[dict]) -> str | None:
    if "--dynkin" in argv:
        m = _option(argv, "--max-rank")
        keys = [f"A{n}" for n in range(1, m + 1)] + [f"D{n}" for n in range(4, m + 1)]
        keys += [f"E{n}" for n in (6, 7, 8) if n <= m]
        expected = {k: dynkin_count(k) for k in keys}
        key_field = "type"
    else:
        expected = {"({},{},{})".format(*t): affine_count(t)
                    for t in admissible(_option(argv, "--max-mu"))}
        key_field = "triple"
    if [r[key_field] for r in records] != list(expected):
        return "table covers the wrong rows"
    for rec in records:
        want = str(expected[rec[key_field]])
        if rec["e"] != want or rec["deg_ll"] != want:
            return f"table row is wrong: {rec}"
    return None


def check(kind: str, arg, outcome) -> str | None:
    """Check one query's outcome; ``None`` means correct.

    ``kind``/``arg`` are as made by :mod:`workloads`.  The outcome is the
    returned count for library queries and ``(exit status, stdout)`` for
    CLI commands.
    """
    if kind == "cli":
        code, out = outcome
        return check_cli(list(arg), code, out)
    if kind in ("oracle", "dynkin"):
        expected = dynkin_count(arg)
    elif kind == "affine":
        expected = affine_count(arg)
    else:
        return f"no reference for query kind {kind!r}"
    return None if outcome == expected else f"got {outcome}, expected {expected}"
