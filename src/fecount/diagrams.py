"""Dynkin and extended Dynkin diagrams as plain undirected graphs.

Orientation is dropped throughout: every count in this package depends only
on the underlying graph, so a diagram is a set of integer vertex labels plus
a set of undirected edges.  Vertex numbering of the extended diagrams is
fixed once and for all (see :func:`extended_diagram`) so that golden tables
can be checked row by row.

Each graph builds its adjacency (:attr:`MarkedGraph.neighbors`) once, and
:func:`classify_forest` classifies the graph, or the graph with one vertex
deleted, with one walk of it: a deletion is classified in place, without
building the smaller graph.  Deleting any vertex of a graph that is a single
m-cycle leaves A_{m-1}; that forest (:attr:`MarkedGraph.cycle_cut`) is built
once per graph, so a cycle's deletions need no walk at all.

Ranks and orbifold orders are plain ints: a bool or a float is refused with
a :class:`ValueError`, so it can never reach a count or its printout.

Component classification normalizes the two degenerate D shapes: a
two-vertex "fork" is the forest A1 | A1 and a three-vertex one is A3, so
:class:`DynkinType` only ever carries D with rank >= 4.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

ADMISSIBLE_FAMILIES = "(1,p,q), (2,2,r), (2,3,3), (2,3,4), (2,3,5)"

_E_RANKS = (6, 7, 8)


class ClassificationError(ValueError):
    """A graph component is not a simply-laced Dynkin tree."""


@dataclass(frozen=True, order=True)
class DynkinType:
    """A simply-laced type: family 'A' (rank >= 1), 'D' (>= 4) or 'E' (6..8)."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if type(self.rank) is not int:
            raise ValueError(f"rank must be an int, got {self.rank!r}")
        if self.family == "A":
            ok = self.rank >= 1
        elif self.family == "D":
            ok = self.rank >= 4
        elif self.family == "E":
            ok = self.rank in _E_RANKS
        else:
            ok = False
        if not ok:
            raise ValueError(f"no simply-laced type {self.family}{self.rank}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, token: str) -> "DynkinType":
        """Parse a token like "A5", "D7" or "E8"; the rank is ASCII digits only.

        >>> DynkinType.parse("d7")
        DynkinType(family='D', rank=7)
        """
        t = token.strip().upper()
        if len(t) < 2 or t[0] not in "ADE" or not (t[1:].isascii() and t[1:].isdigit()):
            raise ValueError(f"cannot parse Dynkin token {token!r}")
        return cls(t[0], int(t[1:]))


@dataclass(frozen=True)
class DynkinForest:
    """A multiset of Dynkin types, stored as a sorted tuple; may be empty."""

    components: tuple[DynkinType, ...]

    @classmethod
    def of(cls, components) -> "DynkinForest":
        return cls(tuple(sorted(components)))

    def __str__(self) -> str:
        return " | ".join(str(c) for c in self.components) or "(empty)"


def euler_numerator(a1: int, a2: int, a3: int) -> int:
    """The Euler number 1/a1 + 1/a2 + 1/a3 - 1 times a1 a2 a3."""
    return a2 * a3 + a1 * a3 + a1 * a2 - a1 * a2 * a3


def is_admissible(a1: int, a2: int, a3: int) -> bool:
    """Whether the Euler number 1/a1 + 1/a2 + 1/a3 - 1 is positive, tested in integers."""
    return euler_numerator(a1, a2, a3) > 0


@dataclass(frozen=True)
class OrbifoldTriple:
    """Orbifold point orders (a1 <= a2 <= a3) with positive Euler number.

    Construction sorts, so permuted inputs are one value; everything computed
    from a triple is symmetric in the orders anyway.
    """

    orders: tuple[int, int, int]

    def __post_init__(self) -> None:
        a = self.orders
        if len(a) != 3 or any(type(x) is not int or x < 1 for x in a):
            raise ValueError(f"orders must be three positive integers, got {a}")
        if tuple(sorted(a)) != a:
            raise ValueError(f"orders must be sorted ascending, got {a}; use OrbifoldTriple.of")
        if not is_admissible(*a):
            raise ValueError(
                f"orders {a} have non-positive Euler number {self.chi}; "
                f"admissible families are {ADMISSIBLE_FAMILIES}"
            )

    @classmethod
    def of(cls, a1: int, a2: int, a3: int) -> "OrbifoldTriple":
        return cls(tuple(sorted((a1, a2, a3))))  # type: ignore[arg-type]

    @property
    def chi(self) -> Fraction:
        """Orbifold Euler number 1/a1 + 1/a2 + 1/a3 - 1."""
        a1, a2, a3 = self.orders
        return Fraction(euler_numerator(a1, a2, a3), a1 * a2 * a3)

    @property
    def mu(self) -> int:
        """Length of a complete collection: a1 + a2 + a3 - 1."""
        return sum(self.orders) - 1

    def __str__(self) -> str:
        return "({},{},{})".format(*self.orders)


@dataclass(frozen=True)
class MarkedGraph:
    """A finite simple graph: integer vertex labels, undirected edges."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge {(u, v)} not stored low-high")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge {(u, v)} leaves the vertex set")

    @classmethod
    def of(cls, vertices, edges) -> "MarkedGraph":
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(frozenset(vertices), norm)

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's neighbours, built on first use and kept for the graph.

        Not a field, so it plays no part in ``==``, ``hash`` or ``repr``.
        Callers must not mutate the dict; :func:`classify_forest` copies it.

        >>> MarkedGraph.of([1, 2, 3], [(1, 2)]).neighbors[3]
        ()
        """
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(ns) for v, ns in adj.items()}

    @cached_property
    def cycle_cut(self) -> DynkinForest | None:
        """A_{m-1} when the whole graph is a single m-cycle, else None.

        Deleting any vertex of an m-cycle (connected, every degree 2, so
        m >= 3) leaves the path A_{m-1}.  Built on first use and kept for the
        graph, so every deletion from a cycle returns this one object.  Not
        a field, like :attr:`neighbors`.

        >>> str(extended_diagram(OrbifoldTriple.of(1, 2, 3)).cycle_cut)
        'A4'
        """
        adj = self.neighbors
        if adj and all(len(ns) == 2 for ns in adj.values()):
            vertices, _, _ = next(_walk(adj))
            if len(vertices) == len(adj):
                return DynkinForest((DynkinType("A", len(adj) - 1),))
        return None


def extended_diagram(triple: OrbifoldTriple) -> MarkedGraph:
    """The extended (affine) diagram attached to an orbifold triple.

    Numbering conventions, with mu = a1+a2+a3-1 vertices in every case:

    * (1,p,q): the cycle visiting 1, 2, ..., p, p+q, p+q-1, ..., p+1.  For
      p = q = 1 the honest diagram is a double edge on two vertices; the
      returned simple graph keeps the single underlying edge, which is all
      vertex deletion ever looks at.
    * (2,2,r), r >= 2: vertices 1,2 hang off 3, a path runs 3..r+1, and
      vertices r+2, r+3 hang off r+1 (a star for r = 2).
    * (2,3,3)/(2,3,4)/(2,3,5): the three exceptional affine trees, numbered
      along the long path with the short branch attached (vertices 7, 8 and
      9 ends respectively).
    """
    a1, a2, a3 = triple.orders
    if a1 == 1:
        p, q = a2, a3
        n = p + q
        cycle = list(range(1, p + 1)) + [n] + list(range(n - 1, p, -1))
        return MarkedGraph.of(range(1, n + 1), zip(cycle, cycle[1:] + cycle[:1]))
    if (a1, a2) == (2, 2):
        r = a3
        edges = [(1, 3), (2, 3), (r + 1, r + 2), (r + 1, r + 3)]
        edges += [(i, i + 1) for i in range(3, r + 1)]
        return MarkedGraph.of(range(1, r + 4), edges)
    exceptional = {
        (2, 3, 3): [(1, 2), (2, 5), (3, 4), (4, 5), (5, 6), (6, 7)],
        (2, 3, 4): [(1, 5), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)],
        (2, 3, 5): [(1, 4), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)],
    }
    edges = exceptional[(a1, a2, a3)]
    return MarkedGraph.of(range(1, triple.mu + 1), edges)


def dynkin_diagram(dtype: DynkinType) -> MarkedGraph:
    """The (finite) tree of a Dynkin type, vertices 1..rank.

    A is the path 1..n; D and E are the path 1..n-1 with vertex n attached
    at position n-2 (D) or 3 (E).
    """
    n = dtype.rank
    if dtype.family == "A":
        return MarkedGraph.of(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    fork_at = n - 2 if dtype.family == "D" else 3
    edges = [(i, i + 1) for i in range(1, n - 1)] + [(fork_at, n)]
    return MarkedGraph.of(range(1, n + 1), edges)


def delete_vertex(graph: MarkedGraph, v: int) -> MarkedGraph:
    """Induced subgraph on everything except v.

    >>> g = dynkin_diagram(DynkinType("A", 3))
    >>> sorted(delete_vertex(g, 2).vertices)
    [1, 3]
    """
    if v not in graph.vertices:
        raise ValueError(f"vertex {v} is not in the graph")
    return MarkedGraph(
        graph.vertices - {v},
        frozenset(e for e in graph.edges if v not in e),
    )


def classify_forest(graph: MarkedGraph, without: int | None = None) -> DynkinForest:
    """Classify every component of ``graph``, or of ``graph`` minus ``without``.

    The empty graph is the empty forest.  Deleting ``without`` from a graph
    that is a single cycle returns :attr:`MarkedGraph.cycle_cut`, with no
    walk.  Any other deletion pops ``without`` from a copy of
    :attr:`MarkedGraph.neighbors`, dropping it from its neighbours' tuples
    (O(deg)), and walks what is left once; no smaller graph is built.  A
    ``without`` not in the graph raises the :class:`ValueError` that
    :func:`delete_vertex` raises.

    One walk per component gathers its size, its degree sum and its
    vertices of degree >= 3, and the type follows from those.  Paths are
    A_n.  A unique degree-3 vertex with sorted branch sizes (1,1,m) gives
    D_{m+3}, and (1,2,2)/(1,2,3)/(1,2,4) give E6/E7/E8.  Everything else (a
    cycle, degree >= 4, two forks, longer branch profiles) raises
    :class:`ClassificationError` at the first such component walked, in
    :attr:`MarkedGraph.neighbors` order.  Such shapes cannot arise from
    deleting a vertex of an extended diagram, so the error only guards
    misuse.

    >>> g = extended_diagram(OrbifoldTriple.of(2, 3, 3))
    >>> str(classify_forest(g, without=5))
    'A2 | A2 | A2'
    >>> classify_forest(g, without=5) == classify_forest(delete_vertex(g, 5))
    True
    >>> str(classify_forest(extended_diagram(OrbifoldTriple.of(1, 3, 4)), without=2))
    'A6'
    """
    adj = graph.neighbors
    if without is not None:
        if without not in adj:
            raise ValueError(f"vertex {without} is not in the graph")
        if graph.cycle_cut is not None:
            return graph.cycle_cut
        adj = dict(adj)
        for u in adj.pop(without):
            adj[u] = tuple(x for x in adj[u] if x != without)
    return DynkinForest.of(_tree_type(len(vs), ds, forks, adj) for vs, ds, forks in _walk(adj))


def _walk(adj: dict[int, tuple[int, ...]]) -> Iterator[tuple[list[int], int, list[int]]]:
    """Walk each component of adj, in the order of adj.

    Yields the component's vertices, its degree sum and its vertices of
    degree >= 3.
    """
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        degree_sum = 0
        forks = []
        for x in component:
            ns = adj[x]
            degree = len(ns)
            degree_sum += degree
            if degree >= 3:
                forks.append(x)
            for y in ns:
                if y not in seen:
                    seen.add(y)
                    component.append(y)
        yield component, degree_sum, forks


def _tree_type(
    n: int, degree_sum: int, forks: list[int], adj: dict[int, tuple[int, ...]]
) -> DynkinType:
    """The Dynkin type of one connected component of a graph with adjacency adj.

    The component has n vertices, the given degree sum, and ``forks`` are
    its vertices of degree >= 3; only the arms of a fork are walked.
    """
    if degree_sum != 2 * (n - 1):
        raise ClassificationError("component is not a tree")
    if any(len(adj[v]) > 3 for v in forks):
        raise ClassificationError("vertex of degree >= 4")
    if not forks:
        return DynkinType("A", n)
    if len(forks) > 1:
        raise ClassificationError("two fork vertices")
    fork = forks[0]
    branches = []
    for nb in adj[fork]:
        size, prev, cur = 1, fork, nb
        while len(adj[cur]) == 2:
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
            size += 1
        branches.append(size)
    branches.sort()
    if branches[0] == 1 and branches[1] == 1:
        return DynkinType("D", branches[2] + 3)
    if branches[0] == 1 and branches[1] == 2 and branches[2] in (2, 3, 4):
        return DynkinType("E", branches[2] + 4)
    raise ClassificationError(f"branch profile {tuple(branches)} is not Dynkin")
