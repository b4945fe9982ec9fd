"""Diagram shapes, vertex deletion and forest classification."""
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fecount.counting import admissible_triples
from fecount.diagrams import (
    ClassificationError,
    DynkinForest,
    DynkinType,
    MarkedGraph,
    OrbifoldTriple,
    classify_forest,
    delete_vertex,
    dynkin_diagram,
    extended_diagram,
)


def T(tok):
    return DynkinType.parse(tok)


def forest(*tokens):
    return DynkinForest.of(T(t) for t in tokens)


def degrees(g):
    """Sorted vertex degrees, counted from the edge set."""
    ends = Counter(v for e in g.edges for v in e)
    return sorted(ends[v] for v in g.vertices)


class TestDynkinType:
    def test_valid_ranks(self):
        assert T("A1").rank == 1
        assert T("D4").family == "D"
        assert str(T("E8")) == "E8"

    @pytest.mark.parametrize("tok", ["A0", "D3", "D2", "E5", "E9", "B4", "X1", "A", "7"])
    def test_invalid(self, tok):
        with pytest.raises(ValueError):
            T(tok)

    @pytest.mark.parametrize("rank", [2.0, True, "2", None])
    def test_rejects_non_int_ranks(self, rank):
        with pytest.raises(ValueError, match=f"^rank must be an int, got {rank!r}$"):
            DynkinType("A", rank)

    def test_ordering_is_deterministic(self):
        types = [T("E6"), T("A5"), T("D4"), T("A1")]
        assert [str(t) for t in sorted(types)] == ["A1", "A5", "D4", "E6"]


class TestOrbifoldTriple:
    def test_canonicalizes_by_sorting(self):
        assert OrbifoldTriple.of(5, 2, 3).orders == (2, 3, 5)

    @given(st.permutations([2, 3, 5]))
    def test_any_permutation_same_value(self, perm):
        assert OrbifoldTriple.of(*perm) == OrbifoldTriple.of(2, 3, 5)

    @pytest.mark.parametrize("bad", [(2, 3, 7), (2, 3, 6), (3, 3, 3), (2, 4, 4)])
    def test_rejects_non_positive_euler_number(self, bad):
        with pytest.raises(ValueError, match="admissible"):
            OrbifoldTriple.of(*bad)

    def test_rejects_non_positive_orders(self):
        with pytest.raises(ValueError):
            OrbifoldTriple.of(0, 1, 1)

    def test_mu_and_chi(self):
        from fractions import Fraction

        t = OrbifoldTriple.of(2, 3, 5)
        assert t.mu == 9
        assert t.chi == Fraction(1, 30)

    @pytest.mark.parametrize("orders", [(True, 2, 3), (1, 1, True), (2.0, 3, 3), (2, 3, 5.0)])
    def test_rejects_non_int_orders(self, orders):
        with pytest.raises(ValueError, match=r"^orders must be three positive integers, got"):
            OrbifoldTriple.of(*orders)


class TestExtendedDiagram:
    def test_exceptional_shapes(self):
        g = extended_diagram(OrbifoldTriple.of(2, 3, 3))
        assert len(g) == 7 and len(g.edges) == 6
        assert degrees(g) == [1, 1, 1, 2, 2, 2, 3]

    def test_smallest_case_is_two_vertices(self):
        g = extended_diagram(OrbifoldTriple.of(1, 1, 1))
        assert len(g) == 2 and len(g.edges) == 1

    def test_star_for_222(self):
        g = extended_diagram(OrbifoldTriple.of(2, 2, 2))
        assert len(g) == 5
        assert degrees(g) == [1, 1, 1, 1, 4]

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (2, 5), (4, 4), (1, 7)])
    def test_1pq_is_a_cycle(self, p, q):
        g = extended_diagram(OrbifoldTriple.of(1, p, q))
        assert len(g) == p + q
        assert len(g.edges) == len(g)  # every vertex has degree 2
        assert degrees(g) == [2] * len(g)

    def test_vertex_count_is_mu(self):
        for t in admissible_triples(12):
            assert len(extended_diagram(t)) == t.mu


class TestMarkedGraph:
    def test_adjacency_is_not_part_of_the_value(self):
        edges = [(1, 2), (2, 3), (2, 4)]
        used, fresh = MarkedGraph.of(range(1, 5), edges), MarkedGraph.of(range(1, 5), edges)
        assert used.neighbors[2] and used.cycle_cut is None
        assert "neighbors" in vars(used) and "neighbors" not in vars(fresh)
        assert "cycle_cut" in vars(used) and "cycle_cut" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)

    def test_every_edge_in_both_neighbor_tuples(self):
        for t in admissible_triples(8):
            g = extended_diagram(t)
            assert set(g.neighbors) == g.vertices
            assert sum(map(len, g.neighbors.values())) == 2 * len(g.edges)
            for u, v in g.edges:
                assert v in g.neighbors[u] and u in g.neighbors[v], (t, u, v)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ({(2, 2)}, r"loop at vertex 2"),
            ({(3, 1)}, r"edge \(3, 1\) not stored low-high"),
            ({(1, 7)}, r"edge \(1, 7\) leaves the vertex set"),
        ],
    )
    def test_invalid_edges_are_refused(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MarkedGraph(frozenset({1, 2, 3}), frozenset(edges))


class TestDeleteAndClassify:
    def test_e6_affine_minus_center(self):
        g = extended_diagram(OrbifoldTriple.of(2, 3, 3))
        assert classify_forest(delete_vertex(g, 5)) == forest("A2", "A2", "A2")

    def test_cycle_minus_any_vertex_is_path(self):
        g = extended_diagram(OrbifoldTriple.of(1, 3, 4))
        for v in g.vertices:
            assert classify_forest(delete_vertex(g, v)) == forest("A6")

    def test_single_vertex_to_empty(self):
        g = MarkedGraph.of([1], [])
        assert classify_forest(delete_vertex(g, 1)) == DynkinForest.of([])

    def test_unknown_vertex(self):
        g = extended_diagram(OrbifoldTriple.of(2, 2, 2))
        with pytest.raises(ValueError, match="vertex 99 is not in the graph"):
            delete_vertex(g, 99)
        with pytest.raises(ValueError, match="vertex 99 is not in the graph"):
            classify_forest(g, without=99)

    def test_e7_affine_minus_v5(self):
        g = extended_diagram(OrbifoldTriple.of(2, 3, 4))
        assert classify_forest(delete_vertex(g, 5)) == forest("A1", "A3", "A3")

    def test_e8_affine_minus_v9(self):
        g = extended_diagram(OrbifoldTriple.of(2, 3, 5))
        assert classify_forest(delete_vertex(g, 9)) == forest("E8")

    def test_empty_graph_is_empty_forest(self):
        assert classify_forest(MarkedGraph.of([], [])).components == ()

    def test_degenerate_d_shapes_normalize(self):
        # two-vertex fork -> A1 | A1, three-vertex fork -> A3
        g = extended_diagram(OrbifoldTriple.of(2, 2, 2))
        assert classify_forest(delete_vertex(g, 3)) == forest("A1", "A1", "A1", "A1")
        g = extended_diagram(OrbifoldTriple.of(2, 2, 3))
        assert classify_forest(delete_vertex(g, 3)) == forest("A1", "A1", "A3")

    def test_rejects_non_dynkin_shapes(self):
        """Each shape raises its message alone, with an extra vertex deleted
        in place, and with that vertex deleted by delete_vertex."""
        shapes = [
            (range(6), [(0, k) for k in range(1, 6)], "vertex of degree >= 4"),
            (range(8), [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6), (6, 7)],
             "two fork vertices"),
            (range(3), [(0, 1), (1, 2), (0, 2)], "component is not a tree"),
            (range(9), [(i, i + 1) for i in range(7)] + [(3, 8)],
             "branch profile (1, 3, 4) is not Dynkin"),
        ]
        for vertices, edges, message in shapes:
            shape = MarkedGraph.of(vertices, edges)
            extra = MarkedGraph.of([*vertices, 99], [*edges, (0, 99)])
            for call in (
                lambda: classify_forest(shape),
                lambda: classify_forest(extra, without=99),
                lambda: classify_forest(delete_vertex(extra, 99)),
            ):
                with pytest.raises(ClassificationError) as err:
                    call()
                assert str(err.value) == message


DELETION_DYNKIN_DIAGRAMS = (
    [dynkin_diagram(DynkinType("A", n)) for n in range(1, 31)]
    + [dynkin_diagram(DynkinType("D", n)) for n in range(4, 31)]
    + [dynkin_diagram(DynkinType("E", n)) for n in (6, 7, 8)]
)


def test_deletion_in_place_matches_delete_vertex():
    """Classifying ``g - v`` in place gives the forest of the graph that
    delete_vertex builds, for every vertex of every graph checked."""
    graphs = [extended_diagram(t) for t in admissible_triples(14)] + DELETION_DYNKIN_DIAGRAMS
    for g in graphs:
        for v in g.vertices:
            assert classify_forest(g, without=v) == classify_forest(delete_vertex(g, v)), (g, v)


class TestCycleCut:
    def test_every_1pq_cycle_cuts_to_a_path(self):
        cycles = [t for t in admissible_triples(14) if t.orders[0] == 1 and t.mu > 2]
        assert len(cycles) == 48
        for t in cycles:
            g = extended_diagram(t)
            _, p, q = t.orders
            assert g.cycle_cut == forest(f"A{p + q - 1}"), t
            # one object, built once per graph, for every deletion
            assert all(classify_forest(g, without=v) is g.cycle_cut for v in g.vertices)

    @pytest.mark.parametrize(
        "graph",
        [
            extended_diagram(OrbifoldTriple.of(1, 1, 1)),
            MarkedGraph.of([], []),
            MarkedGraph.of(range(1, 7), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),
            MarkedGraph.of(range(1, 5), [(1, 2), (2, 3), (1, 3)]),
        ],
        ids=["(1,1,1)", "empty", "two triangles", "triangle and a point"],
    )
    def test_no_cut_unless_a_single_cycle(self, graph):
        assert graph.cycle_cut is None

    def test_no_cut_for_dynkin_diagrams(self):
        assert all(g.cycle_cut is None for g in DELETION_DYNKIN_DIAGRAMS)


class TestDeletionSweep:
    def test_every_deletion_classifies_with_rank_mu_minus_one(self):
        for t in admissible_triples(12):
            g = extended_diagram(t)
            for v in g.vertices:
                f = classify_forest(delete_vertex(g, v))
                assert sum(c.rank for c in f.components) == t.mu - 1, (t, v)

    @pytest.mark.parametrize("r", range(2, 13))
    def test_22r_deletion_forests(self, r):
        """Outer vertices leave the full D-type tree; forks split off two
        A1's; middle vertices split the tree in two (degenerate D's
        normalized to A-forests)."""
        t = OrbifoldTriple.of(2, 2, r)
        g = extended_diagram(t)

        def normalized_d(n):
            if n == 2:
                return forest("A1", "A1")
            if n == 3:
                return forest("A3")
            return forest(f"D{n}")

        def merge(*forests):
            return DynkinForest.of(c for f in forests for c in f.components)

        seen = {v: classify_forest(delete_vertex(g, v)) for v in g.vertices}
        for v in (1, 2, r + 2, r + 3):
            assert seen[v] == normalized_d(r + 2)
        for v in (3, r + 1):
            assert seen[v] == merge(forest("A1", "A1"), normalized_d(r))
        for k in range(4, r + 1):
            assert seen[k] == merge(normalized_d(k - 1), normalized_d(r + 3 - k))


class TestDynkinDiagram:
    @pytest.mark.parametrize(
        "tok,degree_profile",
        [
            ("A1", [0]),
            ("A4", [1, 1, 2, 2]),
            ("D4", [1, 1, 1, 3]),
            ("E6", [1, 1, 1, 2, 2, 3]),
            ("E8", [1, 1, 1, 2, 2, 2, 2, 3]),
        ],
    )
    def test_shapes(self, tok, degree_profile):
        g = dynkin_diagram(T(tok))
        assert degrees(g) == degree_profile

    @pytest.mark.parametrize("tok", ["A1", "A5", "D4", "D7", "E6", "E7", "E8"])
    def test_classification_is_inverse(self, tok):
        assert classify_forest(dynkin_diagram(T(tok))) == forest(tok)


DYNKIN_TYPES = (
    [DynkinType("A", n) for n in range(1, 31)]
    + [DynkinType("D", n) for n in range(4, 31)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
)


@given(st.lists(st.sampled_from(DYNKIN_TYPES), max_size=6), st.randoms())
def test_classify_forest_recovers_shuffled_disjoint_union(types, rnd):
    """A disjoint union of Dynkin diagrams, relabelled at random, classifies
    back to exactly its forest; deleting a random vertex in place agrees
    with delete_vertex."""
    labels = list(range(sum(t.rank for t in types)))
    rnd.shuffle(labels)
    vertices, edges, offset = [], [], 0
    for t in types:
        g = dynkin_diagram(t)
        relabel = {v: labels[offset + v - 1] for v in g.vertices}
        vertices += relabel.values()
        edges += [(relabel[u], relabel[v]) for u, v in g.edges]
        offset += t.rank
    union = MarkedGraph.of(vertices, edges)
    assert classify_forest(union) == DynkinForest.of(types)
    if vertices:
        v = rnd.choice(vertices)
        assert classify_forest(union, without=v) == classify_forest(delete_vertex(union, v))


def _shuffled_union(parts, rnd):
    """A disjoint union of graphs given as (vertex count, edges on 1..count),
    relabelled by a random permutation and listed in a random order.

    Returns the graph and each part's new vertex labels, in part order.
    """
    labels = list(range(sum(n for n, _ in parts)))
    rnd.shuffle(labels)
    vertices, edges, offset, part_labels = [], [], 0, []
    for n, part_edges in parts:
        part_labels.append(labels[offset:offset + n])
        vertices += part_labels[-1]
        edges += [(labels[offset + u - 1], labels[offset + v - 1]) for u, v in part_edges]
        offset += n
    rnd.shuffle(vertices)
    rnd.shuffle(edges)
    return MarkedGraph.of(vertices, edges), part_labels


def _classify_or_message(call):
    try:
        return call()
    except ClassificationError as exc:
        return f"ClassificationError: {exc}"


@given(
    st.lists(st.sampled_from(DYNKIN_TYPES[:12] + DYNKIN_TYPES[30:36] + DYNKIN_TYPES[-3:]),
             max_size=4),
    st.lists(st.integers(3, 12), min_size=1, max_size=2),
    st.randoms(),
)
def test_deletions_with_cycle_components(types, cycle_lengths, rnd):
    """Dynkin trees plus one or two cycles, shuffled: every in-place deletion
    classifies as the graph delete_vertex builds, or raises the same
    ClassificationError (a cycle that survives the deletion)."""
    cycles = [(m, [(i, i % m + 1) for i in range(1, m + 1)]) for m in cycle_lengths]
    parts = [(t.rank, dynkin_diagram(t).edges) for t in types] + cycles
    rnd.shuffle(parts)
    g, part_labels = _shuffled_union(parts, rnd)
    for v in g.vertices:
        in_place = _classify_or_message(lambda: classify_forest(g, without=v))
        built = _classify_or_message(lambda: classify_forest(delete_vertex(g, v)))
        assert in_place == built, (g, v)
    if len(cycle_lengths) == 1:
        cycle_vertices = part_labels[next(i for i, p in enumerate(parts) if p is cycles[0])]
        cut = DynkinForest.of([*types, DynkinType("A", cycle_lengths[0] - 1)])
        assert all(classify_forest(g, without=v) == cut for v in cycle_vertices)
        assert g.cycle_cut == (None if types else cut)
