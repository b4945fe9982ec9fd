"""Counting engine: closed forms, recursions, LL degrees, cache behaviour."""
import ast
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fecount import counting
from fecount.arith import NonIntegralError, factorial
from fecount.counting import (
    CountCache,
    admissible_triples,
    coxeter_number,
    deg_ll_affine,
    deg_ll_dynkin,
    deletion_counts,
    e_affine,
    e_affine_closed,
    e_dynkin_closed,
    e_dynkin_recursive,
    e_forest,
    invariant_degrees,
    load_cache,
    save_cache,
)
from fecount.diagrams import (
    DynkinForest,
    DynkinType,
    OrbifoldTriple,
    classify_forest,
    delete_vertex,
    dynkin_diagram,
    extended_diagram,
)

ALL_TYPES = (
    [DynkinType("A", n) for n in range(1, 10)]
    + [DynkinType("D", n) for n in range(4, 10)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
)


def T(tok):
    return DynkinType.parse(tok)


class TestDynkinData:
    @pytest.mark.parametrize(
        "tok,h", [("A1", 2), ("A2", 3), ("A9", 10), ("D4", 6), ("D9", 16),
                  ("E6", 12), ("E7", 18), ("E8", 30)]
    )
    def test_coxeter_numbers(self, tok, h):
        assert coxeter_number(T(tok)) == h

    @pytest.mark.parametrize("t", ALL_TYPES, ids=str)
    def test_degrees_shape(self, t):
        d = invariant_degrees(t)
        assert len(d) == t.rank
        assert list(d) == sorted(d)
        assert d[0] == 2 or t.rank == 1
        assert d[-1] == coxeter_number(t)

    @pytest.mark.parametrize("t", ALL_TYPES, ids=str)
    def test_degrees_reproduce_counts(self, t):
        # mu!/(d1...d_mu) * h^mu must equal the per-family closed form;
        # this pins the embedded degree data.
        assert deg_ll_dynkin(t) == e_dynkin_closed(t)


class TestDynkinCounts:
    @pytest.mark.parametrize(
        "tok,expected",
        [("A3", 16), ("A4", 125), ("A5", 1296), ("D4", 162), ("D5", 2048),
         ("E6", 41472), ("E7", 1062882), ("E8", 37968750)],
    )
    def test_closed_values(self, tok, expected):
        assert e_dynkin_closed(T(tok)) == expected

    def test_recursive_base_cases(self):
        assert e_dynkin_recursive(T("A1")) == 1
        assert e_dynkin_recursive(T("A2")) == 3  # (3/2) * (1 + 1)

    @pytest.mark.parametrize("t", ALL_TYPES, ids=str)
    def test_recursion_equals_closed_form(self, t):
        assert e_dynkin_recursive(t) == e_dynkin_closed(t)

    def test_three_counts_agree_past_the_oracle_ranks(self):
        """ALL_TYPES stops at rank 9; the recursion is also used up to rank 120."""
        types = [DynkinType("A", n) for n in range(1, 61)]
        types += [DynkinType("D", n) for n in range(4, 61)]
        types += [DynkinType("E", n) for n in (6, 7, 8)]
        for t in types:
            assert deg_ll_dynkin(t) == e_dynkin_recursive(t) == e_dynkin_closed(t), t


class TestForestCounts:
    def test_examples(self):
        assert e_forest(DynkinForest.of([T("A1"), T("A1")])) == 2
        assert e_forest(DynkinForest.of([T("A2")] * 3)) == 90 * 27 == 2430
        assert e_forest(DynkinForest.of([])) == 1

    def test_shuffle_is_order_free(self):
        a = e_forest(DynkinForest.of([T("D4"), T("A2")]))
        b = e_forest(DynkinForest.of([T("A2"), T("D4")]))
        assert a == b == 15 * 162 * 3


HEADLINE = [
    ((1, 1, 1), 1),
    ((2, 3, 3), 1224720),
    ((2, 3, 4), 46448640),
    ((2, 3, 5), 2551500000),
]


class TestAffineCounts:
    @pytest.mark.parametrize("orders,expected", HEADLINE)
    def test_recursion_headline_values(self, orders, expected):
        assert e_affine(OrbifoldTriple.of(*orders)) == expected

    @pytest.mark.parametrize("orders,expected", HEADLINE)
    def test_closed_headline_values(self, orders, expected):
        assert e_affine_closed(OrbifoldTriple.of(*orders)) == expected

    def test_small_cases(self):
        assert e_affine_closed(OrbifoldTriple.of(1, 2, 2)) == 96
        assert e_affine(OrbifoldTriple.of(1, 2, 2)) == 96
        assert e_affine(OrbifoldTriple.of(2, 2, 3)) == 4 * 4 * 5 * 6 * 81 == 38880

    @pytest.mark.parametrize("r", range(1, 13))
    def test_22r_family_formula(self, r):
        expected = 4 * (r + 1) * (r + 2) * (r + 3) * r ** (r + 1)
        t = OrbifoldTriple.of(2, 2, r)
        assert e_affine(t) == expected
        assert e_affine_closed(t) == expected

    def test_closed_form_is_the_ll_degree_up_to_mu_60(self):
        triples = list(admissible_triples(60))
        assert [str(t) for t in triples if e_affine_closed(t) != deg_ll_affine(t)] == []

    def test_cross_formula_equality_up_to_mu_14(self):
        cache = CountCache()
        triples = list(admissible_triples(14))
        assert len(triples) == 62
        for t in triples:
            closed = e_affine_closed(t)
            assert e_affine(t, cache) == closed
            assert deg_ll_affine(t) == closed

    @given(st.permutations([2, 2, 7]))
    def test_symmetry_in_input_order(self, perm):
        assert e_affine(OrbifoldTriple.of(*perm)) == e_affine(OrbifoldTriple.of(2, 2, 7))

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3), (3, 4), (5, 7)])
    def test_1pq_pattern(self, p, q):
        # the closed form collapses to a two-parameter product
        expected = (
            factorial(p + q - 1)
            // (factorial(p - 1) * factorial(q - 1))
            * p**p
            * q**q
        )
        assert e_affine_closed(OrbifoldTriple.of(1, p, q)) == expected

    @pytest.mark.parametrize("q", range(1, 8))
    def test_11q_pattern(self, q):
        assert e_affine_closed(OrbifoldTriple.of(1, 1, q)) == q ** (q + 1)


class TestDegLL:
    @pytest.mark.parametrize(
        "orders,expected", [((2, 3, 5), 2551500000), ((1, 1, 1), 1)]
    )
    def test_affine_values(self, orders, expected):
        assert deg_ll_affine(OrbifoldTriple.of(*orders)) == expected

    def test_product_form_agrees_with_closed_form(self):
        t = OrbifoldTriple.of(2, 2, 2)
        assert deg_ll_affine(t) == e_affine_closed(t) == 1920

    @pytest.mark.parametrize(
        "tok,expected", [("A4", 125), ("E7", 1062882), ("D5", 2048)]
    )
    def test_dynkin_values(self, tok, expected):
        assert deg_ll_dynkin(T(tok)) == expected


class TestCache:
    def test_transparent(self):
        t = OrbifoldTriple.of(2, 3, 5)
        cache = CountCache()
        first = e_affine(t, cache)
        again = e_affine(t, cache)
        assert first == again == e_affine(t)  # fresh cache agrees
        assert cache.hits >= 1

    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.txt"
        cache = CountCache()
        e_affine(OrbifoldTriple.of(2, 3, 4), cache)
        save_cache(cache, path)
        text = path.read_text()
        assert "2,3,4 -> 46448640" in text

        reloaded = load_cache(path)
        assert len(reloaded) == len(cache)
        before = reloaded.hits
        assert e_affine(OrbifoldTriple.of(2, 3, 4), reloaded) == 46448640
        assert reloaded.hits == before + 1  # served from the file contents

    def test_round_trip_of_a_count_past_the_str_digit_limit(self, tmp_path):
        path = tmp_path / "counts.txt"
        count = e_affine_closed(OrbifoldTriple.of(1, 1, 3000))  # 3000**3001, 10435 digits
        cache = CountCache()
        cache.put_affine((1, 1, 3000), count)
        save_cache(cache, path)
        assert path.read_text() == "1,1,3000 -> " + str(3**3001) + "0" * 9003 + "\n"
        assert load_cache(path).items() == [((1, 1, 3000), count)]

    def test_every_true_count_up_to_mu_20_loads_back(self, tmp_path):
        """The file of all 119 triples with mu <= 20, the range of the
        ``affine --cache`` queries of perfbench's ``session`` workload,
        passes the closed-form check."""
        path = tmp_path / "counts.txt"
        cache = CountCache()
        for t in admissible_triples(20):
            e_affine(t, cache)
        save_cache(cache, path)
        assert len(cache) == 119
        assert load_cache(path).items() == cache.items()

    def test_load_tolerates_comments_and_rejects_junk(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("# comment\n\n2,3,3 -> 1224720\n")
        assert len(load_cache(path)) == 1
        path.write_text("2;3;3 -> 7\n")
        with pytest.raises(ValueError, match="bad cache line"):
            load_cache(path)

    @pytest.mark.parametrize("text", ["3,2,3 -> 7\n", "2,3,3 -> 1224720\n3,2,3 -> 7\n"])
    def test_load_rejects_non_canonical_keys(self, tmp_path, text):
        path = tmp_path / "counts.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad cache line '3,2,3 -> 7'"):
            load_cache(path)

    def test_load_rejects_conflicting_duplicates(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("2,3,3 -> 1224720\n# again\n2,3,3 -> 1224720\n2,3,3 -> 7\n")
        with pytest.raises(ValueError, match=r":4: wrong count for \(2,3,3\)$"):
            load_cache(path)
        path.write_text("2,3,3 -> 1224720\n2,3,3 -> 1224720\n")
        assert load_cache(path).items() == [((2, 3, 3), 1224720)]

    def test_load_refuses_a_short_count_before_the_closed_form(self, tmp_path, monkeypatch):
        """A true count has at least mu - 1 bits, so a shorter one is
        refused without building a closed form of millions of digits."""
        def unbuilt(triple):
            raise AssertionError(f"closed form of {triple} built")

        monkeypatch.setattr(counting, "e_affine_closed", unbuilt)
        path = tmp_path / "counts.txt"
        path.write_text("1,1,10000000 -> 5\n")
        with pytest.raises(ValueError, match=r":1: wrong count for \(1,1,10000000\)$"):
            load_cache(path)

    def test_failed_save_leaves_old_file_and_no_temp_file(self, tmp_path):
        """A write that fails partway (here: past a 64-byte file-size limit
        set in a child process) must not touch the existing file."""
        pytest.importorskip("resource")
        path = tmp_path / "counts.txt"
        path.write_text("2,3,3 -> 1224720\n")
        before = path.read_bytes()
        child = (
            "import resource, signal, sys\n"
            "from fecount.counting import CountCache, admissible_triples, e_affine, save_cache\n"
            "cache = CountCache()\n"
            "for t in admissible_triples(12):\n"
            "    e_affine(t, cache)\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE,\n"
            "                   (64, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "try:\n"
            "    save_cache(cache, sys.argv[1])\n"
            "except OSError as exc:\n"
            "    print('failed', exc.errno)\n"
        )
        src = str(Path(counting.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", child, str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("failed")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["counts.txt"]

    def test_lookup_counters_are_exact_under_threads(self):
        class YieldingInt(int):
            """An int whose addition releases the GIL, so an unlocked
            read-modify-write of a counter loses updates."""

            def __add__(self, other):
                time.sleep(0)
                return YieldingInt(int(self) + other)

        present, absent = (1, 1, 1), (1, 1, 2)
        cache = CountCache()
        cache.put_affine(present, 1)
        cache.hits = cache.misses = YieldingInt(0)
        rounds, workers = 300, 4

        def worker():
            for _ in range(rounds):
                cache.get_affine(present)
                cache.get_affine(absent)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert cache.hits + cache.misses == 2 * rounds * workers
        assert cache.hits == cache.misses == rounds * workers

    def test_cold_recursion_builds_a_triple_only_per_miss(self, monkeypatch):
        """Sub-triples are looked up by their orders: the lookup counts are
        those of one lookup per branch term, and an OrbifoldTriple is built
        (and validated) only for a triple the cache does not hold."""
        built = []
        validate = OrbifoldTriple.__post_init__

        def counted(triple):
            built.append(triple.orders)
            validate(triple)

        monkeypatch.setattr(OrbifoldTriple, "__post_init__", counted)
        cache = CountCache()
        count = e_affine(OrbifoldTriple.of(1, 11, 28), cache)
        assert (cache.hits, cache.misses) == (4896, 253)
        assert len(built) <= 253 and len(set(built)) == len(built)
        assert sorted(built) == [orders for orders, _ in cache.items()]
        assert count == e_affine_closed(OrbifoldTriple.of(1, 11, 28))

    def test_concurrent_use_is_deterministic(self):
        cache = CountCache()
        triples = list(admissible_triples(12))
        results: dict[int, list[int]] = {}

        def worker(slot):
            results[slot] = [e_affine(t, cache) for t in triples]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        fresh = [e_affine(t) for t in triples]
        assert all(results[i] == fresh for i in range(4))


def test_deletion_counts_match_the_delete_vertex_route():
    """The in-place kernel (cycles classified once, one e_forest per
    distinct forest) gives, vertex by vertex, what building each deleted
    graph and classifying it gives."""
    graphs = (
        [extended_diagram(t) for t in admissible_triples(24)]
        + [dynkin_diagram(DynkinType("A", n)) for n in range(1, 61)]
        + [dynkin_diagram(DynkinType("D", n)) for n in range(4, 61)]
        + [dynkin_diagram(DynkinType("E", n)) for n in (6, 7, 8)]
    )
    for g in graphs:
        built = [e_forest(classify_forest(delete_vertex(g, v))) for v in sorted(g.vertices)]
        assert deletion_counts(g) == built, g


def test_recursions_call_the_traced_classify_forest(monkeypatch):
    """Both recursions classify each deletion through the name
    ``counting.classify_forest``, the one the benchmark traces."""
    calls = []

    def counted(graph, without=None):
        calls.append(without)
        return classify_forest(graph, without=without)

    monkeypatch.setattr(counting, "classify_forest", counted)
    assert e_dynkin_recursive(DynkinType("D", 6)) == e_dynkin_closed(DynkinType("D", 6))
    assert sorted(calls) == [1, 2, 3, 4, 5, 6]
    calls.clear()
    assert e_affine(OrbifoldTriple.of(1, 2, 3), CountCache()) == 1296
    assert len(calls) >= 5


class TestIntegrality:
    def test_non_integral_totals_are_hard_failures(self):
        from fractions import Fraction

        from fecount.arith import as_natural

        with pytest.raises(NonIntegralError):
            as_natural(Fraction(1224721, 6), "probe")

    @pytest.mark.parametrize(
        "compute,label",
        [
            (counting.e_affine_closed, "closed form for (2,3,4)"),
            (counting.deg_ll_affine, "LL degree of (2,3,4)"),
            (lambda t: counting.affine_total(t, [1], []), "recursion total for (2,3,4)"),
        ],
        ids=["closed", "ll_degree", "recursion"],
    )
    def test_failure_names_the_triple(self, monkeypatch, compute, label):
        # A wrong Euler numerator makes each of the three divisions inexact.
        monkeypatch.setattr(counting, "euler_numerator", lambda *orders: 10**9 + 7)
        with pytest.raises(NonIntegralError, match=rf"^{re.escape(label)} is not an integer: "):
            compute(OrbifoldTriple.of(2, 3, 4))

    def test_counting_is_integer_only(self):
        """Every rational formula is an integer pair checked by as_natural."""
        tree = ast.parse(Path(counting.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name == "fractions" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "fractions"

    def test_first_term_integrality_is_only_reported(self, caplog):
        # On every admissible triple the 1/chi term happens to be integral,
        # so no report should fire during a full sweep.
        import logging

        with caplog.at_level(logging.INFO, logger="fecount.counting"):
            cache = CountCache()
            for t in admissible_triples(14):
                e_affine(t, cache)
        assert not [r for r in caplog.records if "non-integral" in r.message]


class TestAdmissibleTriples:
    def test_small_bounds(self):
        assert [str(t) for t in admissible_triples(2)] == ["(1,1,1)"]
        names = [str(t) for t in admissible_triples(5)]
        assert "(1,2,3)" in names and "(2,2,2)" in names

    def test_every_listed_triple_is_admissible_and_bounded(self):
        for t in admissible_triples(14):
            assert t.chi > 0 and t.mu <= 14

    def test_count_at_mu_14(self):
        # 49 of shape (1,p,q), 10 of shape (2,2,r>=2), 3 exceptional
        assert len(list(admissible_triples(14))) == 62

    def test_factorial_guard(self):
        # keep the helper honest: mu <= 14 stays tiny for factorials
        assert factorial(14) == 87178291200
