"""Golden-value verification: Hurwitz identities and per-vertex tables.

Every check returns the JSON-ready records that ``fec verify`` prints: keys
sorted, counts as decimal strings, and ``holds``/``matches`` decided on the
exact ints.  Two kinds of checks live here.

* The two classical Hurwitz summation identities that make the (1,p,q) and
  (2,2,r) inductions close.  Both sides are evaluated exactly and compared.
  Their factorial ratios are binomial coefficients, so hurwitz1 is summed
  in plain ints with no rational intermediate.
* Row-by-row reproduction of the deletion/branch tables behind the counts
  for (2,2,r) and the three exceptional triples.  Computed values are the
  parts of the triple recursion, from :func:`fecount.counting.affine_parts`,
  and a final "total" row reassembles them with
  :func:`fecount.counting.affine_total`.  Expected values are frozen
  integers for (2,3,3), (2,3,4), (2,3,5).  For (2,2,r), each row weighted
  as the recursion weights it (r on deletion and (3,j) rows, 2 on (1,1) and
  (2,1)) is four times a term of the one-parameter Hurwitz identity, so the
  rows use the same summands as :func:`check_hurwitz2`.

One golden row carries a caveat: for (2,3,4), the branch row (3,2) is
sometimes rendered with the misprint 38840 in place of 38880; 38880 is the
count for orders (2,2,3) by direct computation, so the row expects
7 * 38880 = 272160 and the note records the rejected variant.
"""
from __future__ import annotations

from .arith import as_natural, binomial, ratio_pow, render_decimal
from .counting import CountCache, affine_parts, affine_total
from .diagrams import OrbifoldTriple


def _identity(name: str, params: dict[str, int], lhs: int, rhs: int) -> dict:
    """The record of one exact identity check; ``params`` in key order."""
    return {"check": name, "holds": lhs == rhs, "lhs": render_decimal(lhs),
            "params": params, "rhs": render_decimal(rhs)}


def _row(table: str, case: str, expected: int, computed: int, note: str = "") -> dict:
    """The record of one golden-table row; ``note`` only when the row has one."""
    record = {"case": case, "check": "table", "computed": render_decimal(computed),
              "expected": render_decimal(expected), "matches": expected == computed}
    if note:
        record["note"] = note
    record["table"] = table
    return record


def check_hurwitz1(p: int, q: int) -> dict:
    """Exact check of the two-parameter Hurwitz identity.

    (p+q-1)!/((p-1)!(q-1)!) p^p q^q
      = p q (p+q)^{p+q-2}
      + p * sum_{j=1}^{p-1} (p+q-1)!/((q+j)!(p-j-1)!) *
            (q+j-1)!/((j-1)!(q-1)!) * j^j q^q (p-j)^{p-j-2}
      + (the same sum with p and q exchanged).

    Sums are empty at p = 1 or q = 1.  Every factor is an integer: the
    factorial ratios are (p+q-1) C(p+q-2, p-1), C(p+q-1, q+j) and
    q C(q+j-1, q), and the boundary factor (p-j)^{p-j-2} at j = p-1 is the
    integer 1, the only place where its exponent is negative.

    >>> check_hurwitz1(2, 3)
    {'check': 'hurwitz1', 'holds': True, 'lhs': '1296', 'params': {'p': 2, 'q': 3}, 'rhs': '1296'}
    """
    if p < 1 or q < 1:
        raise ValueError(f"p, q must be positive, got ({p}, {q})")
    lhs = (p + q - 1) * binomial(p + q - 2, p - 1) * p**p * q**q

    def one_sided(p: int, q: int) -> int:
        qq = q**q
        return p * sum(
            binomial(p + q - 1, q + j) * q * binomial(q + j - 1, q) * j**j * qq
            * (p - j) ** max(p - j - 2, 0)  # 1^{-1} = 1^0 at j = p-1
            for j in range(1, p)
        )

    rhs = p * q * (p + q) ** (p + q - 2) + one_sided(p, q) + one_sided(q, p)
    return _identity("hurwitz1", {"p": p, "q": q}, lhs, rhs)


def _branch(r: int, j: int) -> int:
    """Branch summand (r+2)!/((j+3)!(r-j-1)!) (j+1)(j+2)(j+3) j^{j+1} (r-j)^{r-j-2}.

    An integer for 1 <= j <= r-1; at j = r-1 the last factor is 1^{-1}.
    """
    term = binomial(r + 2, j + 3) * (j + 1) * (j + 2) * (j + 3) * j ** (j + 1)
    return as_natural(term * ratio_pow(r - j, r - j - 2), f"hurwitz2 branch term ({r},{j})")


def _split(r: int, k: int) -> int:
    """Split summand C(r+2, k+1) k^{k+1} (r-k)^{r-k+1}, for 1 <= k <= r-1."""
    return binomial(r + 2, k + 1) * k ** (k + 1) * (r - k) ** (r - k + 1)


def check_hurwitz2(r: int) -> dict:
    """Exact check of the one-parameter Hurwitz identity.

    (r+1)(r+2)(r+3) r^{r+1}
      = 4(r+1) r^{r+1} + 2r (r+1)^{r+2}
      + r * sum_{j=1}^{r-1} branch(r, j) + r * sum_{k=1}^{r-1} split(r, k),

    with the summands of :func:`_branch` and :func:`_split`.  Both sums are
    empty at r = 1, where the identity reads 24 = 8 + 16.

    >>> check_hurwitz2(1)
    {'check': 'hurwitz2', 'holds': True, 'lhs': '24', 'params': {'r': 1}, 'rhs': '24'}
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    lhs = (r + 1) * (r + 2) * (r + 3) * r ** (r + 1)
    rhs = 4 * (r + 1) * r ** (r + 1) + 2 * r * (r + 1) ** (r + 2)
    rhs += r * sum(_branch(r, j) + _split(r, j) for j in range(1, r))
    return _identity("hurwitz2", {"r": r}, lhs, rhs)


def hurwitz_sweep(bound: int = 15) -> list[dict]:
    """Every hurwitz1 check on [1, bound]^2 followed by hurwitz2 on [1, bound]."""
    records = [
        check_hurwitz1(p, q)
        for p in range(1, bound + 1)
        for q in range(1, bound + 1)
    ]
    records += [check_hurwitz2(r) for r in range(1, bound + 1)]
    return records


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


def _golden(triple: OrbifoldTriple) -> tuple[list[int], dict[tuple[int, int], int], int]:
    """Expected (deletion rows, branch rows, total) for one triple.

    For (2,2,r) each of the four leaves 1, 2, r+2, r+3 deletes to
    2(r+1)^{r+2}, and interior vertex v splits the diagram into blocks of
    sizes v-1 and r+3-v, giving 4 split(r, v-2).
    """
    a = triple.orders
    if a[:2] == (2, 2) and a[2] >= 2:
        r = a[2]
        outer = 2 * (r + 1) ** (r + 2)
        side = 4 * (r + 1) * r ** (r + 1)
        deletions = [outer, outer, *(4 * _split(r, k) for k in range(1, r)), outer, outer]
        branches = {(1, 1): side, (2, 1): side}
        branches.update({(3, j): 4 * _branch(r, j) for j in range(1, r)})
        return deletions, branches, 4 * (r + 1) * (r + 2) * (r + 3) * r ** (r + 1)
    if a in _TOTAL_GOLD:
        return _DELETION_GOLD[a], _BRANCH_GOLD[a], _TOTAL_GOLD[a]
    raise ValueError(f"no golden table for {triple}; supported: (2,2,r>=2), "
                     "(2,3,3), (2,3,4), (2,3,5)")


def reproduce_table(triple: OrbifoldTriple, cache: CountCache | None = None) -> list[dict]:
    """Recompute every row of the golden table for one triple.

    Supports the (2,2,r) family with r >= 2 and the triples (2,3,3),
    (2,3,4), (2,3,5).  Rows come in three groups: one per vertex of the
    extended diagram (forest count after deletion), one per orbifold point
    and depth (binomial times sub-triple count times path count), and one
    reassembled grand total.
    """
    expected_deletions, expected_branches, expected_total = _golden(triple)
    if cache is None:
        cache = CountCache()
    label = str(triple)
    deletions, branches = affine_parts(triple, cache)
    # Extended diagrams number their vertices 1..mu.
    rows = [
        _row(label, f"v={v}", expected, computed)
        for v, (expected, computed) in enumerate(
            zip(expected_deletions, deletions, strict=True), start=1)
    ]
    for i, j, computed in branches:
        note = _VARIANT_NOTE if (triple.orders == (2, 3, 4) and (i, j) == (3, 2)) else ""
        rows.append(_row(label, f"v=({i},{j})", expected_branches[(i, j)], computed, note))
    rows.append(_row(label, "total", expected_total,
                     affine_total(triple, deletions, branches)))
    return rows


def table_sweep(max_r: int = 10) -> list[dict]:
    """All golden tables: (2,2,r) for 2 <= r <= max_r, then the three
    exceptional triples."""
    cache = CountCache()
    rows: list[dict] = []
    for r in range(2, max_r + 1):
        rows += reproduce_table(OrbifoldTriple.of(2, 2, r), cache)
    for a in ((2, 3, 3), (2, 3, 4), (2, 3, 5)):
        rows += reproduce_table(OrbifoldTriple.of(*a), cache)
    return rows
