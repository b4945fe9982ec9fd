"""Acceptance suite: the package's exit criteria, one test per criterion.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``;
always captured in the report).  Every comparison is exact; the only
tolerances anywhere are the stated wall-clock budgets.

Run just this module with::

    pytest tests/test_acceptance.py -v -s
"""
import time

import pytest

from fecount.counting import (
    CountCache,
    admissible_triples,
    coxeter_number,
    deg_ll_affine,
    e_affine,
    e_affine_closed,
    e_dynkin_closed,
    e_dynkin_recursive,
)
from fecount.diagrams import DynkinForest, DynkinType, OrbifoldTriple
from fecount.verify import check_hurwitz1, check_hurwitz2, table_sweep
from fecount.weyl import (
    build_root_system,
    count_reflection_factorizations,
    coxeter_element,
    element_order,
)

DYNKIN_SWEEP = (
    [DynkinType("A", n) for n in range(1, 10)]
    + [DynkinType("D", n) for n in range(4, 10)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
)

E_COUNTS = {6: 41472, 7: 1062882, 8: 37968750}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({name}) failed"


def expected_dynkin(t: DynkinType) -> int:
    if t.family == "A":
        return (t.rank + 1) ** (t.rank - 1)
    if t.family == "D":
        return 2 * (t.rank - 1) ** t.rank
    return E_COUNTS[t.rank]


def test_criterion_1_dynkin_table_both_methods():
    started = time.perf_counter()
    ok = all(
        e_dynkin_closed(t) == expected_dynkin(t)
        and e_dynkin_recursive(t) == expected_dynkin(t)
        for t in DYNKIN_SWEEP
    )
    elapsed = time.perf_counter() - started
    report(1, "dynkin closed+recursive table", ok and elapsed < 1.0,
           f"{elapsed:.3f}s over {len(DYNKIN_SWEEP)} types")


def test_criterion_3_coxeter_orders():
    mismatches = []
    for t in DYNKIN_SWEEP:
        rs = build_root_system(t)
        if element_order(coxeter_element(rs)) != coxeter_number(t):
            mismatches.append(str(t))
    report(3, "coxeter element orders", not mismatches,
           f"{len(DYNKIN_SWEEP)} types")


def test_criterion_4_affine_headline_values():
    headline = {
        (1, 1, 1): 1,
        (2, 3, 3): 1224720,
        (2, 3, 4): 46448640,
        (2, 3, 5): 2551500000,
    }
    started = time.perf_counter()
    cache = CountCache()
    ok = True
    for orders, expected in headline.items():
        t = OrbifoldTriple.of(*orders)
        ok = ok and e_affine(t, cache) == expected == e_affine_closed(t)
    for r in range(1, 13):
        t = OrbifoldTriple.of(2, 2, r)
        expected = 4 * (r + 1) * (r + 2) * (r + 3) * r ** (r + 1)
        ok = ok and e_affine(t, cache) == expected == e_affine_closed(t)
    elapsed = time.perf_counter() - started
    report(4, "affine headline values both methods", ok and elapsed < 5.0,
           f"{elapsed:.3f}s")


def test_criterion_5_cross_formula_to_mu_14():
    cache = CountCache()
    bad = [
        str(t)
        for t in admissible_triples(14)
        if not e_affine(t, cache) == e_affine_closed(t) == deg_ll_affine(t)
    ]
    report(5, "recursion = closed form = LL degree (mu <= 14)", not bad,
           f"{len(list(admissible_triples(14)))} triples")


def test_criterion_6_hurwitz_identities():
    started = time.perf_counter()
    ok = all(
        check_hurwitz1(p, q)["holds"] for p in range(1, 16) for q in range(1, 16)
    ) and all(check_hurwitz2(r)["holds"] for r in range(1, 16))
    elapsed = time.perf_counter() - started
    report(6, "hurwitz identities (bounds 15)", ok and elapsed < 2.0,
           f"{elapsed:.3f}s")


def test_criterion_7_table_reproduction():
    rows = table_sweep(max_r=10)
    bad = [f"{r['table']}:{r['case']}" for r in rows if not r["matches"]]
    flagged = [r for r in rows if "38840" in r.get("note", "")]
    ok = not bad and len(flagged) == 1 and flagged[0]["table"] == "(2,3,4)" \
        and flagged[0]["computed"] == "272160"
    report(7, "golden tables incl. misprint flag", ok, f"{len(rows)} rows")


def test_criterion_8_property_suite():
    import itertools

    from fecount.arith import binomial
    from fecount.counting import e_forest

    checks = []
    # canonicalization symmetry
    for perm in itertools.permutations((2, 3, 4)):
        checks.append(e_affine_closed(OrbifoldTriple.of(*perm)) == 46448640)
    # empty forest counts one
    checks.append(e_forest(DynkinForest.of([])) == 1)
    # binomial boundary conventions
    checks.append(binomial(6, 0) == 1 and binomial(4, 7) == 0 and binomial(4, -1) == 0)
    # cache transparency
    shared = CountCache()
    for t in admissible_triples(10):
        checks.append(e_affine(t, shared) == e_affine(t))
    report(8, "property suite", all(checks), f"{len(checks)} checks")


@pytest.mark.parametrize(
    "tok,budget_s",
    [("A1", 60), ("A2", 60), ("A3", 60), ("A4", 60), ("A5", 60), ("A6", 60),
     ("D4", 60), ("D5", 60), ("D6", 60), ("E6", 60), ("E7", 60)],
)
def test_criterion_2_oracle_small_types(tok, budget_s):
    t = DynkinType.parse(tok)
    started = time.perf_counter()
    value = count_reflection_factorizations(
        build_root_system(t), budget_ms=budget_s * 1000
    )
    elapsed = time.perf_counter() - started
    ok = value == expected_dynkin(t) and elapsed < budget_s
    report(2, f"oracle {tok}", ok, f"{value} in {elapsed:.2f}s")


def test_criterion_2_oracle_e8():
    t = DynkinType.parse("E8")
    started = time.perf_counter()
    value = count_reflection_factorizations(
        build_root_system(t), budget_ms=600_000
    )
    elapsed = time.perf_counter() - started
    ok = value == 37968750 and elapsed < 600
    report(2, "oracle E8", ok, f"{value} in {elapsed:.2f}s")
