"""Exact counts of complete exceptional sequences, three independent ways.

For a Dynkin type the count has a closed form (mu!/(d1...d_mu) * h^mu, with
per-family evaluations) and a vertex-deletion recursion scaled by h/2.  For
an orbifold triple with positive Euler number the count has a closed form,
a deletion recursion whose first term is scaled by 1/chi, and a product
formula for the degree of the Lyashko-Looijenga map.  All three agree; the
test suite insists on it.

Both recursions share one kernel: :func:`deletion_counts` gives the forest
count left by deleting each vertex, :func:`affine_parts` adds the branch
term of each orbifold point and depth, and :func:`affine_total` assembles
the triple's count from those parts.  The diagram's adjacency is built
once, each deletion is classified in place with one walk of what it leaves
(a cycle's deletions reuse one cached cut, without a walk), and each
distinct forest is counted once per diagram.  The golden tables in
:mod:`fecount.verify` read the same parts, so they check the live
recursion.

Every routine works in plain integers, and :func:`fecount.arith.as_natural`
divides each rational formula's numerator by its denominator (raising
:class:`fecount.arith.NonIntegralError` rather than rounding).  The triple
recursion's memo, :class:`CountCache`, is keyed by the canonical orders
tuple, so a sub-triple served from it is never built as an
:class:`OrbifoldTriple`.  It may be shared between threads and saved to a
text file, whose every count must equal the closed form's.
"""
from __future__ import annotations

import logging
import math
import os
import threading
from pathlib import Path
from typing import Iterator

from .arith import as_natural, binomial, factorial, multinomial
from .arith import parse_decimal, render_decimal
from .diagrams import (
    DynkinForest,
    DynkinType,
    MarkedGraph,
    OrbifoldTriple,
    classify_forest,
    dynkin_diagram,
    euler_numerator,
    extended_diagram,
    is_admissible,
)

log = logging.getLogger(__name__)

# Degrees of the basic polynomial invariants of each Weyl group.  A_n and D_n
# follow the classical patterns; the E values are fixed data.  Their product
# ties the closed form to the LL degree and is cross-checked in tests.
_E_DEGREES = {
    6: (2, 5, 6, 8, 9, 12),
    7: (2, 6, 8, 10, 12, 14, 18),
    8: (2, 8, 12, 14, 18, 20, 24, 30),
}

_E_COUNTS = {6: 2**9 * 3**4, 7: 2 * 3**12, 8: 2 * 3**5 * 5**7}


def coxeter_number(dtype: DynkinType) -> int:
    """Coxeter number h: A_n -> n+1, D_n -> 2(n-1), E6/E7/E8 -> 12/18/30."""
    if dtype.family == "A":
        return dtype.rank + 1
    if dtype.family == "D":
        return 2 * (dtype.rank - 1)
    return {6: 12, 7: 18, 8: 30}[dtype.rank]


def invariant_degrees(dtype: DynkinType) -> tuple[int, ...]:
    """Sorted degrees d1 <= ... <= d_n of the invariant ring, with d_n = h."""
    n = dtype.rank
    if dtype.family == "A":
        return tuple(range(2, n + 2))
    if dtype.family == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return _E_DEGREES[n]


def e_dynkin_closed(dtype: DynkinType) -> int:
    """Closed-form count for one Dynkin type.

    >>> e_dynkin_closed(DynkinType("A", 3))
    16
    >>> e_dynkin_closed(DynkinType("E", 6))
    41472
    """
    n = dtype.rank
    if dtype.family == "A":
        return (n + 1) ** (n - 1)
    if dtype.family == "D":
        return 2 * (n - 1) ** n
    return _E_COUNTS[n]


def deg_ll_dynkin(dtype: DynkinType) -> int:
    """Lyashko-Looijenga degree n!/(d1...d_n) * h^n, from the degree data.

    Computed independently of :func:`e_dynkin_closed` so the two act as
    cross-checks on each other.
    """
    n = dtype.rank
    num = factorial(n) * coxeter_number(dtype) ** n
    return as_natural(num, "LL degree of %s", math.prod(invariant_degrees(dtype)), dtype)


def e_forest(forest: DynkinForest) -> int:
    """Count for a disjoint union: shuffle the blocks, multiply the counts.

    The multinomial in the block ranks counts the interleavings of the
    blocks' sequences; the empty forest counts 1.

    >>> e_forest(DynkinForest.of([DynkinType("A", 1), DynkinType("A", 1)]))
    2
    """
    shuffle = multinomial(c.rank for c in forest.components)
    return shuffle * math.prod(e_dynkin_closed(c) for c in forest.components)


def deletion_counts(graph: MarkedGraph) -> list[int]:
    """Forest count left by deleting each vertex, in label order.

    Every deletion is classified in place, with one walk of what it leaves
    (``classify_forest(graph, without=v)``); no smaller graph is built.  The
    m deletions of an m-cycle all return the graph's cached cut A_{m-1}
    with no walk.  Each distinct forest is counted once, so those m
    deletions cost one :func:`e_forest`.
    """
    counts: dict[DynkinForest, int] = {}
    found = []
    for v in sorted(graph.vertices):
        forest = classify_forest(graph, without=v)
        count = counts.get(forest)
        if count is None:
            count = counts[forest] = e_forest(forest)
        found.append(count)
    return found


def e_dynkin_recursive(dtype: DynkinType) -> int:
    """Vertex-deletion recursion: (h/2) * sum over deleted vertices.

    Each deletion leaves a forest of strictly smaller Dynkin trees whose
    count comes from :func:`e_forest`.  The h/2 scaling is exact: h times
    the sum must be even.

    >>> e_dynkin_recursive(DynkinType("A", 2))
    3
    """
    total = coxeter_number(dtype) * sum(deletion_counts(dynkin_diagram(dtype)))
    return as_natural(total, "recursion total for %s", 2, dtype)


class CountCache:
    """Memo for the triple recursion: one count per orbifold triple.

    Counts are keyed by the canonical (ascending) orders tuple of a triple,
    ``OrbifoldTriple.orders``, so a lookup needs no :class:`OrbifoldTriple`.
    Reads are lock-free (a plain dict lookup); writes and the ``hits``/
    ``misses`` lookup counters are serialized, so concurrent use is safe,
    always yields the same values as a fresh cache, and counts every lookup.
    """

    def __init__(self) -> None:
        self._affine: dict[tuple[int, int, int], int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_affine(self, orders: tuple[int, int, int]) -> int | None:
        value = self._affine.get(orders)
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def put_affine(self, orders: tuple[int, int, int], value: int) -> None:
        with self._lock:
            self._affine[orders] = value

    def items(self) -> list[tuple[tuple[int, int, int], int]]:
        """The cached counts as (orders, count) pairs, sorted by orders."""
        return sorted(self._affine.items())

    def __len__(self) -> int:
        return len(self._affine)


def save_cache(cache: CountCache, path: str | Path) -> None:
    """Write triple counts as lines "a1,a2,a3 -> count".

    The lines go to a temporary file in the target's directory, which then
    replaces the target in one step, so a failed or concurrent write never
    leaves a partial file behind.
    """
    text = "".join(
        "{},{},{} -> {}\n".format(*orders, render_decimal(v))
        for orders, v in cache.items()
    )
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_cache(path: str | Path) -> CountCache:
    """Read a cache file written by :func:`save_cache`.

    Blank lines and lines starting with '#' are ignored.  A key must be a
    canonical (ascending) admissible triple, and its count must equal
    :func:`e_affine_closed`; anything else raises ValueError.  A true count
    is at least mu!/2, so one of fewer than mu - 1 bits is refused at once.
    """
    cache = CountCache()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, _, value = line.partition("->")
            triple = OrbifoldTriple(tuple(map(parse_decimal, key.split(","))))
            count = parse_decimal(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad cache line {raw!r}") from exc
        if count.bit_length() < triple.mu - 1 or count != e_affine_closed(triple):
            raise ValueError(f"{path}:{lineno}: wrong count for {triple}")
        cache._affine[triple.orders] = count  # not yet shared, so no lock
    return cache


def e_affine(triple: OrbifoldTriple, cache: CountCache | None = None) -> int:
    """Deletion recursion for an orbifold triple with positive Euler number.

    First term: 1/chi times the sum, over vertices of the extended diagram,
    of the forest counts after deletion.  Second term: for each orbifold
    point of order a_i and each 1 <= j <= a_i - 1, the point contributes
    a_i * C(mu-1, a_i-j-1) times the count for the triple with a_i lowered
    to j times the count for a path on a_i-j-1 vertices (1 when empty).
    The recursion bottoms out at (1,1,1), where the value is 1.

    Only the grand total is required to be integral; the 1/chi term alone
    happens to be integral on every admissible triple we have checked, but
    that is observed (logged if ever violated), not assumed.

    >>> e_affine(OrbifoldTriple.of(2, 3, 3))
    1224720
    """
    if cache is None:
        cache = CountCache()
    memo = cache.get_affine(triple.orders)
    if memo is not None:
        return memo
    return _e_affine_miss(triple, cache)


def _e_affine_miss(triple: OrbifoldTriple, cache: CountCache) -> int:
    """Compute a triple's count that ``cache`` does not hold, and store it."""
    value = affine_total(triple, *affine_parts(triple, cache))
    cache.put_affine(triple.orders, value)
    return value


def affine_parts(
    triple: OrbifoldTriple, cache: CountCache
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The terms of the triple recursion, before scaling and weighting.

    Returns the deletion counts of the extended diagram (see
    :func:`deletion_counts`) and one branch term ``(i, j, term)`` per
    orbifold point i (1-based) and depth 1 <= j <= a_i - 1, where term is
    C(mu-1, a_i-j-1) times the count for the triple with a_i lowered to j
    times the count for a path on a_i-j-1 vertices (1 when empty).
    Sub-triple counts go through ``cache``, looked up by their sorted
    orders; an :class:`OrbifoldTriple` is built only for a sub-triple the
    cache does not hold.
    """
    deletions = deletion_counts(extended_diagram(triple))
    orders = triple.orders
    mu = triple.mu
    # weight[r] = C(mu-1, r) times the count for a path on r vertices.
    weight = [1] + [
        binomial(mu - 1, r) * e_dynkin_closed(DynkinType("A", r)) for r in range(1, orders[2] - 1)
    ]
    branches = []
    for i, a_i in enumerate(orders, start=1):
        others = orders[: i - 1] + orders[i:]
        for j in range(1, a_i):
            sub_orders = tuple(sorted((j, *others)))
            sub = cache.get_affine(sub_orders)
            if sub is None:
                sub = _e_affine_miss(OrbifoldTriple(sub_orders), cache)
            branches.append((i, j, weight[a_i - j - 1] * sub))
    return deletions, branches


def affine_total(
    triple: OrbifoldTriple, deletions: list[int], branches: list[tuple[int, int, int]]
) -> int:
    """sum(deletions)/chi + sum of a_i * term, where 1/chi = a1 a2 a3 / s."""
    s = euler_numerator(*triple.orders)
    first = sum(deletions) * math.prod(triple.orders)
    if first % s:
        log.info("deletion term for %s is non-integral on its own: %d/%d", triple, first, s)
    second = sum(triple.orders[i - 1] * term for i, _, term in branches)
    return as_natural(first + s * second, "recursion total for %s", s, triple)


def e_affine_closed(triple: OrbifoldTriple) -> int:
    """Closed form mu!/(a1! a2! a3! chi) * a1^a1 a2^a2 a3^a3.

    In plain ints, with m = mu + 1 and chi = s/(a1 a2 a3), that is
    C(m, a1) C(a2+a3, a2) a1^(a1+1) a2^(a2+1) a3^(a3+1) / (m s).

    >>> e_affine_closed(OrbifoldTriple.of(2, 3, 4))
    46448640
    """
    a1, a2, a3 = triple.orders
    m = a1 + a2 + a3
    num = math.comb(m, a1) * math.comb(a2 + a3, a2) * a1**(a1 + 1) * a2**(a2 + 1) * a3**(a3 + 1)
    den = m * euler_numerator(a1, a2, a3)
    return as_natural(num, "closed form for (%d,%d,%d)", den, a1, a2, a3)


def deg_ll_affine(triple: OrbifoldTriple) -> int:
    """Lyashko-Looijenga degree mu! / (chi * prod_{i,j} (a_i - j)/a_i).

    Same value as :func:`e_affine_closed`, but evaluated through the product
    over i and 1 <= j <= a_i - 1 so it serves as a redundant check.

    >>> deg_ll_affine(OrbifoldTriple.of(1, 1, 1))
    1
    """
    num, den = factorial(triple.mu) * math.prod(triple.orders), euler_numerator(*triple.orders)
    for a_i in triple.orders:
        for j in range(1, a_i):
            num *= a_i
            den *= a_i - j
    return as_natural(num, "LL degree of %s", den, triple)


def admissible_triples(max_mu: int) -> Iterator[OrbifoldTriple]:
    """All canonical triples with positive Euler number and mu <= max_mu.

    >>> [str(t) for t in admissible_triples(3)]
    ['(1,1,1)', '(1,1,2)']
    """
    found = []
    for a1 in range(1, max_mu + 1):
        for a2 in range(a1, max_mu + 1):
            for a3 in range(a2, max_mu + 2 - a1 - a2):
                if is_admissible(a1, a2, a3):
                    found.append(OrbifoldTriple((a1, a2, a3)))
    return iter(sorted(found, key=lambda t: (t.mu, t.orders)))
