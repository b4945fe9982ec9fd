"""Brute-force cross-check in the Weyl group of a Dynkin type.

The number being verified — complete exceptional sequences up to shifts —
equals the number of maximal chains in the noncrossing partition lattice of
the Weyl group, i.e. the number of ways to write a Coxeter element as an
ordered product of rank-many reflections.  This module counts those
factorizations directly, with no input from the closed formulas.

Representations:

* A root is kept by its integer coordinates over the simple roots, used for
  all linear algebra and always exact.  The roots are closed up from the
  simple ones by the simple reflections, and the closure records each
  simple reflection s_i as the permutation it induces on the root list.
* Ambient rational coordinates in the classical models (A_n inside Q^{n+1}
  as e_i - e_{i+1} differences, D_n as +-e_i +- e_j, the E series inside
  the even-coordinate Q^8 model with half-integer entries) serve as the
  model check: the Gram matrix of the n ambient simple roots must equal the
  Cartan matrix.
* A group element is a plain tuple: the permutation it induces on the root
  index set, the same form as ``rs.reflections[k]`` and
  ``rs.simple_reflections[i]``.  Every reflection comes from the simple
  ones by conjugation, s_{s_i(b)} = s_i s_b s_i, walking up the positive
  roots by height, so it is exact integer permutation composition;
  s_{-b} = s_b.  The walk keys an element more compactly, by the root
  indices of its n simple-root images: the simple roots are a basis, so the
  images determine the element, and they are the columns of its integer
  matrix M in the simple-root basis.
* Absolute (reflection) length is rank(M - I), the codimension of the fixed
  space ker(M - I), which :func:`_fixed_space` reads from the n images.  The
  kernel comes from fraction-free integer elimination that divides each row
  by the gcd of its entries, so it is exact with no floating point and no
  Fraction.

The factorization count is a descent through the absolute order from a top
c with Fix(c) = 0, tallied level by level; the level dictionaries are the
memo of the usual recursive formulation.  A reflection lies below w exactly
when its root is orthogonal to Fix(w).  For c = u v with l(u) + l(v) = n,
Fix(v) = (c - 1)^-1 Mov(u) (Brady and Watt 2002, "A partial order on the
orthogonal group"), and Mov(u) is spanned by the roots of any reduced
u = t_1...t_k (Carter's lemma: Carter 1972, "Conjugacy classes in the Weyl
group").  So Fix(v) is spanned by f_t1, ..., f_tk, where f_t spans Fix(t c):
one fixed vector per reflection, found once per walk, decides every descent.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Sequence

from .counting import coxeter_number
from .diagrams import DynkinType, dynkin_diagram

log = logging.getLogger(__name__)

MAX_ORACLE_RANK = 9

# Simple roots of the even-coordinate model, in this package's vertex order:
# the long chain first, the short branch vertex last.
_E_CHAIN = [
    (Fraction(1, 2),) + (Fraction(-1, 2),) * 6 + (Fraction(1, 2),),
    (-1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0),
    (0, 0, 0, 0, 0, -1, 1, 0),
]
_E_BRANCH = (1, 1, 0, 0, 0, 0, 0, 0)


class UnsupportedRankError(ValueError):
    """The requested rank is beyond what the brute force is built for."""


class OracleBudgetExceeded(RuntimeError):
    """The factorization count ran past its time budget."""


@dataclass(frozen=True)
class RootSystem:
    """All roots of a Dynkin type plus the data the counting walk needs."""

    dtype: DynkinType
    rank: int
    simple_roots: tuple[int, ...]                 # indices into coords
    positive_roots: tuple[int, ...]               # indices into coords
    coords: tuple[tuple[int, ...], ...]           # simple-root-basis coordinates, sorted
    cartan: tuple[tuple[int, ...], ...]
    simple_reflections: tuple[tuple[int, ...], ...]  # s_i as a permutation of coords

    def __len__(self) -> int:
        return len(self.coords)

    @cached_property
    def reflections(self) -> tuple[tuple[int, ...], ...]:
        """s_b as a permutation of coords, for every root index b.

        Built up the positive roots by height: a non-simple positive root g
        has a simple reflection s_i taking it to a lower positive root b, and
        then s_g = s_i s_b s_i.  ``coords`` is sorted and closed under
        negation, so -coords[k] is coords[-1 - k], and s_{-b} = s_b.
        """
        coords = self.coords
        height = [sum(vec) for vec in coords]
        table: list = [None] * len(coords)
        for k, s in zip(self.simple_roots, self.simple_reflections):
            table[k] = s
        for g in sorted(self.positive_roots, key=height.__getitem__):
            if table[g] is None:
                s = next(s for s in self.simple_reflections if height[s[g]] < height[g])
                s_b = table[s[g]]
                table[g] = tuple(s[s_b[k]] for k in s)
        for g in self.positive_roots:
            table[-1 - g] = table[g]
        return tuple(table)


def _ambient_simple_roots(dtype: DynkinType) -> list[tuple[int | Fraction, ...]]:
    """The simple roots in the classical model.  Entries are ints, apart from
    the half-integers of the E series' first simple root."""
    n = dtype.rank
    if dtype.family == "A":
        return [
            tuple(1 if k == i else (-1 if k == i + 1 else 0) for k in range(n + 1))
            for i in range(n)
        ]
    if dtype.family == "D":
        simples = [
            tuple(1 if k == i else (-1 if k == i + 1 else 0) for k in range(n))
            for i in range(n - 1)
        ]
        simples.append(tuple(1 if k in (n - 2, n - 1) else 0 for k in range(n)))
        return simples
    return _E_CHAIN[: n - 1] + [_E_BRANCH]


def _cartan_matrix(dtype: DynkinType) -> tuple[tuple[int, ...], ...]:
    graph = dynkin_diagram(dtype)
    n = dtype.rank
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for u, v in graph.edges:
        cartan[u - 1][v - 1] = cartan[v - 1][u - 1] = -1
    return tuple(tuple(row) for row in cartan)


_EXPECTED_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
}


def build_root_system(dtype: DynkinType) -> RootSystem:
    """Generate all roots from the simple ones by reflection closure, and
    record each simple reflection as a permutation of the sorted root list.

    >>> len(build_root_system(DynkinType("A", 2)))
    6
    """
    n = dtype.rank
    if n > MAX_ORACLE_RANK:
        raise UnsupportedRankError(
            f"brute force supports rank <= {MAX_ORACLE_RANK}, got {dtype}"
        )
    cartan = _cartan_matrix(dtype)
    nonzero = [[(j, c) for j, c in enumerate(row) if c] for row in cartan]

    # Each root of the closure maps to its n images s_1(b), ..., s_n(b).
    simple_coords = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    closure: dict[tuple[int, ...], list] = dict.fromkeys(simple_coords)
    frontier = list(simple_coords)
    while frontier:
        fresh = []
        for beta in frontier:
            images = []
            for i, row in enumerate(nonzero):
                pairing = sum(c * beta[j] for j, c in row)
                image = beta[:i] + (beta[i] - pairing,) + beta[i + 1:] if pairing else beta
                images.append(image)
                if image not in closure:
                    closure[image] = None
                    fresh.append(image)
            closure[beta] = images
        frontier = fresh
    coords = tuple(sorted(closure))
    assert len(coords) == _EXPECTED_ROOT_COUNT[dtype.family](n)

    ambient_simple = _ambient_simple_roots(dtype)
    # The ambient model must present the same diagram as the Cartan matrix.
    for i in range(n):
        for j in range(n):
            gram = sum(map(mul, ambient_simple[i], ambient_simple[j]))
            assert gram == cartan[i][j]

    index = {vec: i for i, vec in enumerate(coords)}
    images = [[index[image] for image in closure[vec]] for vec in coords]
    return RootSystem(
        dtype=dtype,
        rank=n,
        simple_roots=tuple(index[s] for s in simple_coords),
        positive_roots=tuple(i for i, vec in enumerate(coords) if all(c >= 0 for c in vec)),
        coords=coords,
        cartan=cartan,
        simple_reflections=tuple(zip(*images)),
    )


def compose(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """The element acting as h first, then g."""
    return tuple(g[i] for i in h)


def coxeter_element(rs: RootSystem, index_order: Sequence[int] | None = None) -> tuple[int, ...]:
    """Product of the simple reflections, by default in index order.

    Any ordering gives a conjugate element, so the factorization count does
    not depend on the choice; callers may pass another order to spot-check
    exactly that.  The multiplicative order of the result is checked against
    the Coxeter number before returning.
    """
    order = list(index_order) if index_order is not None else list(range(rs.rank))
    if sorted(order) != list(range(rs.rank)):
        raise ValueError(f"index_order must permute 0..{rs.rank - 1}, got {order}")
    element = tuple(range(len(rs)))
    for i in order:
        element = compose(element, rs.simple_reflections[i])
    assert element_order(element) == coxeter_number(rs.dtype)
    return element


def element_order(g: tuple[int, ...]) -> int:
    """Multiplicative order of the element (the Coxeter number, for a
    Coxeter element)."""
    identity = tuple(range(len(g)))
    power, order = g, 1
    while power != identity:
        power = compose(g, power)
        order += 1
    return order


def _kernel_basis(matrix: list[list[int]]) -> list[tuple[int, ...]]:
    """Integer basis of the rational kernel of a square integer matrix.

    Fraction-free Gauss-Jordan elimination: a row is cleared against the
    pivot row by integer cross-multiplication and then divided by the gcd
    of its entries, so the entries stay small and exact.  Each free column
    gives one primitive integer kernel vector.

    >>> _kernel_basis([[1, 2], [2, 4]])
    [(-2, 1)]
    """
    n = len(matrix)
    rows = [row[:] for row in matrix]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        pivot_row = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n):
            f = rows[i][c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        scale = math.lcm(*(rows[r][pc] for r, pc in enumerate(pivots) if rows[r][fc]))
        vec = [0] * n
        vec[fc] = scale
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc] * scale // rows[r][pc]
        g = math.gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return basis


def _fixed_space(coords: Sequence[tuple[int, ...]], key: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Integer basis of ker(M - I) for the element whose simple-root images
    are the roots ``key`` (indices into ``coords``): those images are the
    columns of M."""
    m_minus_i = [[coords[k][i] for k in key] for i in range(len(key))]
    for i, row in enumerate(m_minus_i):
        row[i] -= 1
    return _kernel_basis(m_minus_i)


def absolute_length(rs: RootSystem, g: tuple[int, ...]) -> int:
    """Reflection length: rank of (M - I) over Q, i.e. codimension of the
    fixed space.  Exact integer elimination, no floating point.

    >>> rs = build_root_system(DynkinType("A", 3))
    >>> absolute_length(rs, coxeter_element(rs))
    3
    """
    return rs.rank - len(_fixed_space(rs.coords, tuple(g[s] for s in rs.simple_roots)))


def _descent_masks(rs: RootSystem, top_key: tuple[int, ...]) -> list[int]:
    """One mask per positive root t, in ``rs.positive_roots`` order: bit b is
    set when the root of reflection b, paired through the invariant form, is
    orthogonal to f_t, the one vector fixed by t·top.  The top is keyed by
    its simple-root images and must have Fix(top) = 0."""
    coords = rs.coords
    assert not _fixed_space(coords, top_key)  # top has full absolute length
    paired = [tuple(sum(map(mul, row, coords[i])) for row in rs.cartan) for i in rs.positive_roots]
    masks = []
    for i in rs.positive_roots:
        fixed = _fixed_space(coords, tuple(rs.reflections[i][k] for k in top_key))
        assert len(fixed) == 1
        masks.append(sum(1 << b for b, p in enumerate(paired) if not sum(map(mul, p, fixed[0]))))
    return masks


def count_reflection_factorizations(
    rs: RootSystem,
    budget_ms: float | None = None,
    coxeter: tuple[int, ...] | None = None,
) -> int:
    """Number of ways to write a Coxeter element as a product of rank-many
    reflections — the maximal-chain count of the noncrossing partition
    lattice, found by exhaustive descent.

    Starting from the Coxeter element, repeatedly multiply by every
    reflection that shortens the element, accumulating multiplicities per
    element in a level dictionary; after rank steps all mass sits on the
    identity and its multiplicity is the answer.  By Carter's lemma and
    Brady-Watt (module docstring), the reflections below t_k...t_1 c are the
    AND of :func:`_descent_masks` over t_1, ..., t_k.  No step checks a
    length: a reflection flips the parity of the absolute length and moves
    it by exactly 1, so a path from a full-length top that reaches the
    identity in rank steps shortened at every step, and the final assert
    checks that every path does.  ``budget_ms`` aborts the walk with
    :class:`OracleBudgetExceeded`, whose message gives the absolute length
    reached and the elements seen so far.

    >>> rs = build_root_system(DynkinType("A", 2))
    >>> count_reflection_factorizations(rs)
    3
    """
    n = rs.rank
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    top = coxeter if coxeter is not None else coxeter_element(rs)
    simple = rs.simple_roots
    top_key = tuple(top[s] for s in simple)
    perms = [rs.reflections[i] for i in rs.positive_roots]
    masks = _descent_masks(rs, top_key)

    # An element is keyed by the root indices of its simple-root images and
    # carries [ways, mask]: the mask has a bit for each reflection below it.
    level: dict[tuple[int, ...], list] = {top_key: [1, (1 << len(perms)) - 1]}
    elements_seen = 1
    for length in range(n, 0, -1):
        descended: dict[tuple[int, ...], list] = {}
        for key, (ways, below) in level.items():
            if deadline is not None and time.monotonic() > deadline:
                raise OracleBudgetExceeded(
                    f"factorization count for {rs.dtype} exceeded {budget_ms} ms "
                    f"at absolute length {length} with "
                    f"{elements_seen + len(descended)} elements seen"
                )
            assert below  # only the identity has no reflection below it
            rest = below
            while rest:
                b = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                child = tuple(map(perms[b].__getitem__, key))
                entry = descended.get(child)
                if entry is None:
                    descended[child] = [ways, below & masks[b]]
                else:
                    entry[0] += ways
        level = descended
        elements_seen += len(level)

    log.info(
        "%s: %d elements visited below the Coxeter element", rs.dtype, elements_seen
    )
    assert set(level) == {simple}
    ways, below = level[simple]
    assert not below
    return ways
