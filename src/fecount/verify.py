"""Golden-value verification: Hurwitz identities and per-vertex tables.

Two kinds of checks live here.

* The two classical Hurwitz summation identities that make the (1,p,q) and
  (2,2,r) inductions close.  Both sides are evaluated exactly and compared.
* Row-by-row reproduction of the deletion/branch tables behind the counts
  for (2,2,r) and the three exceptional triples.  Expected values are
  frozen here — symbolically for the (2,2,r) family, as literal integers
  for (2,3,3), (2,3,4), (2,3,5) — and computed values are the parts of
  the triple recursion itself, from :func:`fecount.counting.affine_parts`.
  A final synthetic "total" row per table reassembles those parts with
  :func:`fecount.counting.affine_total`, the recursion's own assembler, and
  compares the result against the frozen total.

One golden row carries a caveat: for (2,3,4), the branch row (3,2) is
sometimes rendered with the misprint 38840 in place of 38880; 38880 is the
count for orders (2,2,3) by direct computation, so the row expects
7 * 38880 = 272160 and the note records the rejected variant.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import as_natural, binomial, factorial, ratio_pow, render_decimal
from .counting import CountCache, affine_parts, affine_total
from .diagrams import OrbifoldTriple


@dataclass(frozen=True)
class IdentityReport:
    """One exact identity check: name, parameters, both sides, verdict."""

    name: str
    params: dict[str, int] = field(compare=False)
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class TableRow:
    """One golden-table row.  ``note`` records flagged irregularities."""

    table: str
    case: str
    expected: int
    computed: int
    note: str = ""

    @property
    def matches(self) -> bool:
        return self.expected == self.computed


def check_hurwitz1(p: int, q: int) -> IdentityReport:
    """Exact check of the two-parameter Hurwitz identity.

    (p+q-1)!/((p-1)!(q-1)!) p^p q^q
      = p q (p+q)^{p+q-2}
      + p * sum_{j=1}^{p-1} (p+q-1)!/((q+j)!(p-j-1)!) *
            (q+j-1)!/((j-1)!(q-1)!) * j^j q^q (p-j)^{p-j-2}
      + (the same sum with p and q exchanged).

    Sums are empty at p = 1 or q = 1; boundary factors like 1^{-1} are
    evaluated as exact rationals.
    """
    if p < 1 or q < 1:
        raise ValueError(f"p, q must be positive, got ({p}, {q})")
    lhs = Fraction(factorial(p + q - 1), factorial(p - 1) * factorial(q - 1))
    lhs *= p**p * q**q

    def one_sided(p: int, q: int) -> Fraction:
        total = Fraction(0)
        for j in range(1, p):
            term = Fraction(factorial(p + q - 1), factorial(q + j) * factorial(p - j - 1))
            term *= Fraction(factorial(q + j - 1), factorial(j - 1) * factorial(q - 1))
            term *= j**j * q**q * ratio_pow(p - j, p - j - 2)
            total += term
        return p * total

    rhs = p * q * ratio_pow(p + q, p + q - 2) + one_sided(p, q) + one_sided(q, p)
    return IdentityReport(
        name="hurwitz1",
        params={"p": p, "q": q},
        lhs=as_natural(lhs, "hurwitz1 lhs"),
        rhs=as_natural(rhs, "hurwitz1 rhs"),
    )


def check_hurwitz2(r: int) -> IdentityReport:
    """Exact check of the one-parameter Hurwitz identity.

    (r+1)(r+2)(r+3) r^{r+1}
      = 4(r+1) r^{r+1} + 2r (r+1)^{r+2}
      + r * sum_{j=1}^{r-1} (r+2)!/((j+3)!(r-j-1)!) *
            (j+1)(j+2)(j+3) j^{j+1} (r-j)^{r-j-2}
      + r * sum_{k=1}^{r-1} (r+2)!/((k+1)!(r-k+1)!) * k^{k+1} (r-k)^{r-k+1}.

    Both sums are empty at r = 1, where the identity reads 24 = 8 + 16.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    lhs = Fraction((r + 1) * (r + 2) * (r + 3)) * r ** (r + 1)
    rhs = Fraction(4 * (r + 1)) * r ** (r + 1) + 2 * r * Fraction(r + 1) ** (r + 2)
    for j in range(1, r):
        term = Fraction(factorial(r + 2), factorial(j + 3) * factorial(r - j - 1))
        term *= (j + 1) * (j + 2) * (j + 3) * j ** (j + 1)
        term *= ratio_pow(r - j, r - j - 2)
        rhs += r * term
    for k in range(1, r):
        term = Fraction(factorial(r + 2), factorial(k + 1) * factorial(r - k + 1))
        term *= k ** (k + 1) * (r - k) ** (r - k + 1)
        rhs += r * term
    return IdentityReport(
        name="hurwitz2",
        params={"r": r},
        lhs=as_natural(lhs, "hurwitz2 lhs"),
        rhs=as_natural(rhs, "hurwitz2 rhs"),
    )


def hurwitz_sweep(max_pq: int = 15, max_r: int = 15) -> list[IdentityReport]:
    """Every hurwitz1 check on [1, max_pq]^2 followed by hurwitz2 on [1, max_r]."""
    reports = [
        check_hurwitz1(p, q)
        for p in range(1, max_pq + 1)
        for q in range(1, max_pq + 1)
    ]
    reports += [check_hurwitz2(r) for r in range(1, max_r + 1)]
    return reports


# Frozen expected values for the three exceptional tables: deletion rows by
# vertex (in diagram order) and branch rows by (orbifold point, depth).
_DELETION_GOLD = {
    (2, 3, 3): [41472, 7776, 41472, 7776, 2430, 7776, 41472],
    (2, 3, 4): [262144, 1062882, 218750, 81648, 35840, 81648, 218750, 1062882],
    (2, 3, 5): [
        4782969, 11529602, 2097152, 653184, 1093750, 1835008, 3483648,
        8503056, 37968750,
    ],
}
_BRANCH_GOLD = {
    (2, 3, 3): {(1, 1): 21870, (2, 1): 7776, (2, 2): 38880,
                (3, 1): 7776, (3, 2): 38880},
    (2, 3, 4): {(1, 1): 414720, (2, 1): 143360, (2, 2): 860160,
                (3, 1): 81648, (3, 2): 272160, (3, 3): 1224720},
    (2, 3, 5): {(1, 1): 8859375, (2, 1): 3000000, (2, 2): 21000000,
                (3, 1): 1161216, (3, 2): 3265920, (3, 3): 9797760,
                (3, 4): 46448640},
}
_TOTAL_GOLD = {(2, 3, 3): 1224720, (2, 3, 4): 46448640, (2, 3, 5): 2551500000}

_VARIANT_NOTE = (
    "flagged: a misprinted rendition of this row reads 7*38840 = 271880; "
    "38880 is the count for orders (2,2,3), so 7*38880 = 272160 is expected"
)


def _expected_deletion_22r(r: int, v: int) -> int:
    """Expected forest count after deleting vertex v of the (2,2,r) diagram."""
    if v in (1, 2, r + 2, r + 3):
        return 2 * (r + 1) ** (r + 2)
    k = v  # fork splits: blocks of sizes k-1 and r+3-k
    val = binomial(r + 2, k - 1) * 4
    val *= (k - 2) ** (k - 1) * (r + 2 - k) ** (r + 3 - k)
    return val


def _expected_branch_22r(r: int, i: int, j: int) -> int:
    """Expected branch row (i, j) for the (2,2,r) family."""
    if i in (1, 2):
        return 4 * (r + 1) * r ** (r + 1)
    term = Fraction(factorial(r + 2), factorial(j + 3) * factorial(r - j - 1))
    term *= 4 * (j + 1) * (j + 2) * (j + 3) * j ** (j + 1)
    term *= ratio_pow(r - j, r - j - 2)
    return as_natural(term, f"(2,2,{r}) branch row ({i},{j})")


def reproduce_table(triple: OrbifoldTriple, cache: CountCache | None = None) -> list[TableRow]:
    """Recompute every row of the golden table for one triple.

    Supports the (2,2,r) family with r >= 2 and the triples (2,3,3),
    (2,3,4), (2,3,5).  Rows come in three groups: one per vertex of the
    extended diagram (forest count after deletion), one per orbifold point
    and depth (binomial times sub-triple count times path count), and one
    reassembled grand total.
    """
    a = triple.orders
    family_22r = a[:2] == (2, 2) and a[2] >= 2
    if not family_22r and a not in _DELETION_GOLD:
        raise ValueError(f"no golden table for {triple}; supported: (2,2,r>=2), "
                         "(2,3,3), (2,3,4), (2,3,5)")
    if cache is None:
        cache = CountCache()
    label = str(triple)
    deletions, branches = affine_parts(triple, cache)
    rows: list[TableRow] = []

    # Extended diagrams number their vertices 1..mu.
    for v, computed in enumerate(deletions, start=1):
        if family_22r:
            expected = _expected_deletion_22r(a[2], v)
        else:
            expected = _DELETION_GOLD[a][v - 1]
        rows.append(TableRow(table=label, case=f"v={v}", expected=expected,
                             computed=computed))

    for i, j, computed in branches:
        if family_22r:
            expected = _expected_branch_22r(a[2], i, j)
        else:
            expected = _BRANCH_GOLD[a][(i, j)]
        note = _VARIANT_NOTE if (a == (2, 3, 4) and (i, j) == (3, 2)) else ""
        rows.append(TableRow(table=label, case=f"v=({i},{j})",
                             expected=expected, computed=computed, note=note))

    if family_22r:
        r = a[2]
        total_expected = 4 * (r + 1) * (r + 2) * (r + 3) * r ** (r + 1)
    else:
        total_expected = _TOTAL_GOLD[a]
    rows.append(TableRow(table=label, case="total", expected=total_expected,
                         computed=affine_total(triple, deletions, branches)))
    return rows


def table_sweep(max_r: int = 10) -> list[TableRow]:
    """All golden tables: (2,2,r) for 2 <= r <= max_r, then the three
    exceptional triples."""
    cache = CountCache()
    rows: list[TableRow] = []
    for r in range(2, max_r + 1):
        rows += reproduce_table(OrbifoldTriple.of(2, 2, r), cache)
    for a in ((2, 3, 3), (2, 3, 4), (2, 3, 5)):
        rows += reproduce_table(OrbifoldTriple.of(*a), cache)
    return rows


def identity_to_record(report: IdentityReport) -> dict:
    """JSON-ready dict, keys sorted; count fields are decimal strings."""
    return {
        "check": report.name,
        "holds": report.holds,
        "lhs": render_decimal(report.lhs),
        "params": dict(sorted(report.params.items())),
        "rhs": render_decimal(report.rhs),
    }


def row_to_record(row: TableRow) -> dict:
    """JSON-ready dict, keys sorted; ``note`` only when the row has one."""
    record = {
        "case": row.case,
        "check": "table",
        "computed": render_decimal(row.computed),
        "expected": render_decimal(row.expected),
        "matches": row.matches,
    }
    if row.note:
        record["note"] = row.note
    record["table"] = row.table
    return record
