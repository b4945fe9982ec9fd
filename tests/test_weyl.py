"""Reflection-group brute force: roots, Coxeter elements, chain counts."""
import ast
import functools
import itertools
import logging
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fecount import weyl
from fecount.counting import coxeter_number, e_dynkin_closed
from fecount.diagrams import DynkinType
from fecount.weyl import (
    OracleBudgetExceeded,
    UnsupportedRankError,
    _kernel_basis,
    absolute_length,
    build_root_system,
    compose,
    count_reflection_factorizations,
    coxeter_element,
    element_order,
)


def T(tok):
    return DynkinType.parse(tok)


def identity(rs):
    """The identity element: the trivial permutation of the root indices."""
    return tuple(range(len(rs)))


def enumerate_factorizations(rs) -> int:
    """Independent oracle: try every sequence of rank-many reflections and
    count the ones whose product is the Coxeter element.  Only viable for
    tiny groups."""
    target = coxeter_element(rs)
    refl = [rs.reflections[i] for i in rs.positive_roots]
    count = 0
    for seq in itertools.product(refl, repeat=rs.rank):
        g = identity(rs)
        for t in seq:
            g = compose(g, t)
        if g == target:
            count += 1
    return count


def ambient_roots(rs):
    """Ambient coordinates of every root, in the order of ``rs.coords``: each
    root's simple-root coordinates applied to the model's ambient simple roots."""
    ambient = weyl._ambient_simple_roots(rs.dtype)
    dim = len(ambient[0])
    return [
        tuple(Fraction(sum(c * a[k] for c, a in zip(vec, ambient))) for k in range(dim))
        for vec in rs.coords
    ]


class TestRootSystems:
    @pytest.mark.parametrize(
        "tok,count",
        [("A1", 2), ("A2", 6), ("A3", 12), ("D4", 24), ("D5", 40),
         ("E6", 72), ("E7", 126), ("E8", 240)],
    )
    def test_cardinalities(self, tok, count):
        assert len(build_root_system(T(tok))) == count

    @pytest.mark.parametrize("tok", ["A3", "D4", "E6"])
    def test_roots_come_in_opposite_pairs(self, tok):
        rs = build_root_system(T(tok))
        roots = ambient_roots(rs)
        vectors = set(roots)
        assert all(tuple(-c for c in v) in vectors for v in vectors)
        assert len(rs.positive_roots) * 2 == len(roots)

    @pytest.mark.parametrize("tok", ["A4", "D5", "E6"])
    def test_closed_under_simple_reflections(self, tok):
        assert_ambient_roots_closed(build_root_system(T(tok)))

    def test_model_check_catches_a_wrong_ambient_model(self, monkeypatch):
        right = weyl._ambient_simple_roots(T("D4"))
        # vertex 2 is D4's branch vertex; swapping it with a leaf breaks the Gram matrix
        wrong = [right[1], right[0]] + right[2:]
        monkeypatch.setattr(weyl, "_ambient_simple_roots", lambda dtype: wrong)
        with pytest.raises(AssertionError):
            build_root_system(T("D4"))
        monkeypatch.undo()
        rs = build_root_system(T("D4"))
        roots = ambient_roots(rs)
        assert len(roots) == len(rs.coords) == 24
        assert all(isinstance(x, Fraction) for v in roots for x in v)
        assert_ambient_roots_closed(rs)

    @pytest.mark.parametrize("tok", ["A3", "D4", "E6"])
    def test_ambient_pairing_is_the_cartan_pairing(self, tok):
        rs = build_root_system(T(tok))
        roots = ambient_roots(rs)
        for a, b in itertools.product(range(len(rs)), repeat=2):
            ambient = sum(x * y for x, y in zip(roots[a], roots[b]))
            assert ambient == cartan_pairing(rs, rs.coords[a], rs.coords[b])

    def test_unsupported_rank(self):
        with pytest.raises(UnsupportedRankError):
            build_root_system(T("A10"))
        with pytest.raises(UnsupportedRankError):
            build_root_system(T("D12"))


def assert_ambient_roots_closed(rs):
    roots = ambient_roots(rs)
    vectors = set(roots)
    for si in rs.simple_roots:
        alpha = roots[si]
        norm = sum(c * c for c in alpha)
        assert norm == 2
        for beta in vectors:
            pairing = sum(a * b for a, b in zip(alpha, beta))
            image = tuple(b - pairing * a for a, b in zip(alpha, beta))
            assert image in vectors


def cartan_pairing(rs, u, v):
    n = rs.rank
    return sum(u[i] * rs.cartan[i][j] * v[j] for i in range(n) for j in range(n))


class TestReflectionTable:
    @pytest.mark.parametrize("tok", ["A4", "D5", "E6", "E8"])
    def test_every_reflection_matches_the_direct_formula(self, tok):
        rs = build_root_system(T(tok))
        index = {vec: k for k, vec in enumerate(rs.coords)}
        n = rs.rank
        for b in rs.positive_roots:
            beta = rs.coords[b]
            # gamma - <gamma, beta> beta, the pairing taken through the Cartan matrix
            paired = [sum(rs.cartan[i][j] * beta[j] for j in range(n)) for i in range(n)]
            direct = []
            for gamma in rs.coords:
                c = sum(g * p for g, p in zip(gamma, paired))
                direct.append(index[tuple(g - c * x for g, x in zip(gamma, beta))])
            direct = tuple(direct)
            assert rs.reflections[b] == direct
            negative = index[tuple(-x for x in beta)]
            assert rs.reflections[negative] == direct

    @pytest.mark.parametrize("tok", ["A4", "D5", "E6", "E8"])
    def test_every_reflection_is_an_involution(self, tok):
        rs = build_root_system(T(tok))
        e = identity(rs)
        for k in range(len(rs)):
            t = rs.reflections[k]
            assert t != e and compose(t, t) == e

    @pytest.mark.parametrize("tok", ["A4", "D5", "E6"])
    def test_coxeter_element_is_the_product_of_simple_reflections(self, tok):
        rs = build_root_system(T(tok))
        n = rs.rank
        orders = [range(n), range(n - 1, -1, -1), [*range(1, n, 2), *range(0, n, 2)]]
        for order in orders:
            product = identity(rs)
            for i in order:
                product = compose(product, rs.reflections[rs.simple_roots[i]])
            assert coxeter_element(rs, index_order=order) == product


def test_weyl_takes_only_the_coxeter_number_from_the_closed_forms():
    """The oracle must stay independent of the closed forms it checks."""
    tree = ast.parse(open(weyl.__file__).read())
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("counting", "fecount.counting"):
                taken += [alias.name for alias in node.names]
            elif node.module in (None, "fecount"):
                assert "counting" not in [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("fecount.counting") for a in node.names)
    assert taken == ["coxeter_number"]


class TestGroupElements:
    def test_permutations_commute_with_negation(self):
        rs = build_root_system(T("D4"))
        coords = list(rs.coords)
        neg = [coords.index(tuple(-x for x in v)) for v in coords]
        g = coxeter_element(rs)
        assert all(g[neg[i]] == neg[g[i]] for i in range(len(coords)))

    def test_identity_and_composition(self):
        rs = build_root_system(T("A3"))
        e = identity(rs)
        t = rs.reflections[rs.positive_roots[0]]
        assert compose(t, t) == e
        assert compose(e, t) == t and compose(t, e) == t

    @pytest.mark.parametrize(
        "tok", ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9",
                "D4", "D5", "D6", "D7", "D8", "D9", "E6", "E7", "E8"]
    )
    def test_coxeter_element_order_is_coxeter_number(self, tok):
        rs = build_root_system(T(tok))
        assert element_order(coxeter_element(rs)) == coxeter_number(T(tok))


class TestAbsoluteLength:
    @pytest.mark.parametrize("tok", ["A3", "D4", "E6"])
    def test_coxeter_element_has_full_length(self, tok):
        rs = build_root_system(T(tok))
        assert absolute_length(rs, coxeter_element(rs)) == rs.rank

    def test_identity_and_reflections(self):
        rs = build_root_system(T("D4"))
        assert absolute_length(rs, identity(rs)) == 0
        for i in rs.positive_roots:
            assert absolute_length(rs, rs.reflections[i]) == 1

    def test_changes_by_one_under_reflection(self):
        import random

        rng = random.Random(7)
        rs = build_root_system(T("A4"))
        refl = [rs.reflections[i] for i in rs.positive_roots]
        g = identity(rs)
        for _ in range(60):
            t = rng.choice(refl)
            h = compose(t, g)
            assert abs(absolute_length(rs, h) - absolute_length(rs, g)) == 1
            g = h


def fraction_rank(matrix) -> int:
    """Rank over Q by plain Fraction row reduction."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestKernelBasis:
    @given(square_matrices)
    def test_integer_kernel_basis(self, matrix):
        n = len(matrix)
        basis = _kernel_basis(matrix)
        assert len(basis) == n - fraction_rank(matrix)
        for vec in basis:
            assert len(vec) == n and all(isinstance(x, int) for x in vec)
            assert any(vec)
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in matrix)
        # the vectors are independent: stacked as rows they have full rank
        assert not basis or fraction_rank(basis) == len(basis)


# Every type of rank <= 8 but E8, whose count the acceptance suite checks.
BELOW_E8 = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7"]


def catalan_number(dtype) -> int:
    """|NC(W)|: C(n+1) for A_n, (3n-2)/n C(2n-2, n-1) for D_n, 833 and 4160
    for E6 and E7."""
    n = dtype.rank
    if dtype.family == "A":
        return math.comb(2 * n + 2, n + 1) // (n + 2)
    if dtype.family == "D":
        return (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n
    return {6: 833, 7: 4160}[n]


class TestFactorizationCounts:
    @pytest.mark.parametrize("tok,expected", [("A1", 1), ("A2", 3), ("A3", 16)])
    def test_matches_exhaustive_enumeration(self, tok, expected):
        rs = build_root_system(T(tok))
        assert enumerate_factorizations(rs) == expected
        assert count_reflection_factorizations(rs) == expected

    def test_d4_matches_exhaustive_enumeration(self):
        rs = build_root_system(T("D4"))
        brute = enumerate_factorizations(rs)
        assert brute == 162
        assert count_reflection_factorizations(rs) == brute

    @pytest.mark.parametrize("tok", BELOW_E8)
    def test_matches_closed_form(self, tok):
        rs = build_root_system(T(tok))
        assert count_reflection_factorizations(rs) == e_dynkin_closed(T(tok))

    @pytest.mark.parametrize("tok", ["A4", "D4"])
    def test_independent_of_simple_root_order(self, tok):
        rs = build_root_system(T(tok))
        reversed_cox = coxeter_element(rs, index_order=range(rs.rank - 1, -1, -1))
        forward = count_reflection_factorizations(rs)
        backward = count_reflection_factorizations(rs, coxeter=reversed_cox)
        assert forward == backward

    def test_shortening_test_agrees_with_rank_computation(self):
        """The fast orthogonality test must decide descent exactly like a
        direct length comparison, for every element below the Coxeter
        element."""
        rs = build_root_system(T("D4"))
        refl = [rs.reflections[i] for i in rs.positive_roots]
        frontier = {coxeter_element(rs)}
        seen = set()
        while frontier:
            g = frontier.pop()
            if g in seen:
                continue
            seen.add(g)
            lg = absolute_length(rs, g)
            for t in refl:
                h = compose(t, g)
                if absolute_length(rs, h) == lg - 1:
                    frontier.add(h)
        # Re-count descents over the rank-verified graph (shortest elements
        # first so sub-counts exist) and compare with the production walk.
        order = sorted(seen, key=lambda g: absolute_length(rs, g))
        chain_count = {}
        for g in order:
            lg = absolute_length(rs, g)
            if lg == 0:
                chain_count[g] = 1
                continue
            total = 0
            for t in refl:
                h = compose(t, g)
                if h in seen and absolute_length(rs, h) == lg - 1:
                    total += chain_count[h]
            chain_count[g] = total
        assert chain_count[coxeter_element(rs)] == 162
        assert count_reflection_factorizations(rs) == 162

    @pytest.mark.parametrize("tok", ["A5", "D5", "E6"])
    def test_descent_masks_agree_with_rank_computation(self, tok):
        """Along one path to each element of NC(W), the AND of the descent
        masks of the reflections taken is the set of reflections whose
        product with the element is one shorter, by direct rank computation."""
        rs = build_root_system(T(tok))
        top = coxeter_element(rs)
        masks = weyl._descent_masks(rs, tuple(top[s] for s in rs.simple_roots))
        refl = [rs.reflections[i] for i in rs.positive_roots]
        length = functools.cache(lambda g: absolute_length(rs, g))
        path_mask = {top: (1 << len(refl)) - 1}
        frontier = [top]
        while frontier:
            g = frontier.pop()
            shortening = 0
            for b, t in enumerate(refl):
                h = compose(t, g)
                if length(h) == length(g) - 1:
                    shortening |= 1 << b
                    if h not in path_mask:
                        path_mask[h] = path_mask[g] & masks[b]
                        frontier.append(h)
            assert path_mask[g] == shortening
        assert len(path_mask) == catalan_number(T(tok))

    @pytest.mark.parametrize("tok,count", [("D4", 72), ("D6", 10800), ("E7", 680400)])
    def test_full_length_non_coxeter_top(self, tok, count):
        """-1 has no fixed vector, so the walk accepts it as a top; its
        factorization counts are pinned."""
        rs = build_root_system(T(tok))
        # coords is sorted and closed under negation: -coords[k] is coords[-1 - k]
        minus_one = tuple(len(rs) - 1 - k for k in range(len(rs)))
        assert absolute_length(rs, minus_one) == rs.rank
        assert count_reflection_factorizations(rs, coxeter=minus_one) == count

    @pytest.mark.parametrize("tok", ["A3", "D4"])
    def test_a_non_coxeter_top_is_refused(self, tok):
        """A reflection has absolute length 1, not the rank: the walk's
        length asserts must refuse it as the ``coxeter`` argument."""
        rs = build_root_system(T(tok))
        with pytest.raises(AssertionError):
            count_reflection_factorizations(rs, coxeter=rs.reflections[rs.positive_roots[0]])

    def test_budget_is_enforced(self):
        rs = build_root_system(T("E6"))
        with pytest.raises(OracleBudgetExceeded) as info:
            count_reflection_factorizations(rs, budget_ms=0.0)
        # a zero budget expires at the first element: the Coxeter element
        assert "absolute length 6" in str(info.value)
        assert "with 1 elements seen" in str(info.value)

    def test_visited_element_count_is_logged(self, caplog):
        rs = build_root_system(T("A3"))
        with caplog.at_level(logging.INFO, logger="fecount.weyl"):
            count_reflection_factorizations(rs)
        notes = [r for r in caplog.records if "elements visited" in r.message]
        assert notes, "expected an INFO record with the memo size"

    @pytest.mark.parametrize("tok,catalan", [(tok, catalan_number(T(tok))) for tok in BELOW_E8])
    def test_visited_elements_are_the_noncrossing_partitions(self, caplog, tok, catalan):
        """The walk visits each element of NC(W) once, |NC(W)| = Catalan(W)."""
        rs = build_root_system(T(tok))
        with caplog.at_level(logging.INFO, logger="fecount.weyl"):
            count_reflection_factorizations(rs)
        visited = [
            int(m.group(1))
            for r in caplog.records
            if (m := re.search(r"(\d+) elements visited", r.getMessage()))
        ]
        assert visited == [catalan]
