"""Hurwitz identities and golden-table reproduction."""
import ast
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from fecount import verify
from fecount.diagrams import OrbifoldTriple
from fecount.verify import (
    check_hurwitz1,
    check_hurwitz2,
    hurwitz_sweep,
    reproduce_table,
    table_sweep,
)


class TestHurwitz1:
    def test_trivial_corner(self):
        rep = check_hurwitz1(1, 1)
        assert rep["holds"] and rep["lhs"] == rep["rhs"] == "1"

    def test_small_values(self):
        rep = check_hurwitz1(2, 2)
        assert rep["holds"] and rep["lhs"] == "96"

    def test_asymmetric_case(self):
        assert check_hurwitz1(5, 7)["holds"]

    def test_full_range(self):
        for p in range(1, 16):
            for q in range(1, 16):
                assert check_hurwitz1(p, q)["holds"], (p, q)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            check_hurwitz1(0, 3)

    def test_sides_match_the_factorial_formula(self):
        """lhs and rhs agree with an independent evaluation of the docstring's
        formula, every factorial ratio and power taken as a Fraction."""
        pairs = [(p, q) for p in range(1, 16) for q in range(1, 16)]
        pairs += [(30, 7), (7, 30), (24, 24), (40, 3), (3, 40)]
        for p, q in pairs:
            rec = check_hurwitz1(p, q)
            lhs, rhs = hurwitz1_by_factorials(p, q)
            assert (rec["lhs"], rec["rhs"]) == (str(lhs), str(rhs)), (p, q)


def hurwitz1_by_factorials(p, q):
    """Both sides of the (p, q) Hurwitz identity, summed in Fractions."""
    def one_sided(p, q):
        return p * sum(
            Fraction(factorial(p + q - 1), factorial(q + j) * factorial(p - j - 1))
            * Fraction(factorial(q + j - 1), factorial(j - 1) * factorial(q - 1))
            * j**j * q**q * Fraction(p - j) ** (p - j - 2)
            for j in range(1, p)
        )

    lhs = Fraction(factorial(p + q - 1), factorial(p - 1) * factorial(q - 1)) * p**p * q**q
    rhs = p * q * Fraction(p + q) ** (p + q - 2) + one_sided(p, q) + one_sided(q, p)
    return lhs, rhs


class TestHurwitz2:
    def test_trivial_corner(self):
        rep = check_hurwitz2(1)
        assert rep["holds"] and rep["lhs"] == rep["rhs"] == "24"

    @pytest.mark.parametrize("r", [2, 3, 10])
    def test_values(self, r):
        assert check_hurwitz2(r)["holds"]

    def test_full_range(self):
        for r in range(1, 16):
            assert check_hurwitz2(r)["holds"], r

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            check_hurwitz2(0)


class TestHurwitzSweep:
    def test_record_count(self):
        reports = hurwitz_sweep(15)
        assert len(reports) == 15 * 15 + 15 == 240
        assert all(r["holds"] for r in reports)


class TestTables:
    def test_233_rows(self):
        rows = reproduce_table(OrbifoldTriple.of(2, 3, 3))
        by_case = {r["case"]: r for r in rows}
        assert by_case["v=(1,1)"]["computed"] == "21870"
        assert by_case["v=(2,2)"]["computed"] == "38880"
        assert by_case["v=5"]["computed"] == "2430"
        assert by_case["total"]["computed"] == "1224720"
        assert all(r["matches"] for r in rows)

    def test_234_rows_including_flag(self):
        rows = reproduce_table(OrbifoldTriple.of(2, 3, 4))
        by_case = {r["case"]: r for r in rows}
        assert by_case["v=(3,3)"]["computed"] == "1224720"
        flagged = by_case["v=(3,2)"]
        assert flagged["matches"] and flagged["computed"] == str(7 * 38880) == "272160"
        assert "38840" in flagged["note"]  # the misprint variant is called out
        assert by_case["total"]["computed"] == "46448640"
        assert all(r["matches"] for r in rows)

    def test_235_rows(self):
        rows = reproduce_table(OrbifoldTriple.of(2, 3, 5))
        by_case = {r["case"]: r for r in rows}
        assert by_case["v=1"]["computed"] == str(9**7) == "4782969"
        assert by_case["v=9"]["computed"] == "37968750"
        assert by_case["total"]["computed"] == "2551500000"
        assert all(r["matches"] for r in rows)

    @pytest.mark.parametrize("r", range(2, 11))
    def test_22r_instantiations(self, r):
        rows = reproduce_table(OrbifoldTriple.of(2, 2, r))
        assert all(row["matches"] for row in rows)
        total = next(row for row in rows if row["case"] == "total")
        assert total["expected"] == str(4 * (r + 1) * (r + 2) * (r + 3) * r ** (r + 1))

    def test_row_counts(self):
        # mu vertices + sum(a_i - 1) branch rows + the total row
        rows = reproduce_table(OrbifoldTriple.of(2, 3, 5))
        assert len(rows) == 9 + (1 + 2 + 4) + 1

    def test_unsupported_family(self):
        with pytest.raises(ValueError, match="golden table"):
            reproduce_table(OrbifoldTriple.of(1, 3, 4))

    def test_sweep_is_all_green(self):
        rows = table_sweep(max_r=10)
        assert rows and all(r["matches"] for r in rows)


class TestRendering:
    def test_identity_record_uses_decimal_strings(self):
        rec = check_hurwitz1(3, 4)
        assert isinstance(rec["lhs"], str) and rec["lhs"].isdigit()
        assert rec["holds"] is True
        assert list(rec) == sorted(rec)  # printed as JSON in this order

    def test_row_record_carries_note_only_when_present(self):
        recs = reproduce_table(OrbifoldTriple.of(2, 3, 4))
        noted = [r for r in recs if "note" in r]
        assert len(noted) == 1 and noted[0]["case"] == "v=(3,2)"
        assert all(list(r) == sorted(r) for r in recs)


def test_verify_takes_only_the_recursion_terms_from_counting():
    """Golden expected values must never come from a closed form, an LL
    degree or the oracle: the methods stay independent."""
    tree = ast.parse(Path(verify.__file__).read_text())
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("weyl", "fecount.weyl")
            if node.module in ("counting", "fecount.counting"):
                taken += [alias.name for alias in node.names]
            elif node.module in (None, "fecount"):
                names = [alias.name for alias in node.names]
                assert "counting" not in names and "weyl" not in names
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith(("fecount.counting", "fecount.weyl"))
                           for a in node.names)
    assert sorted(taken) == ["CountCache", "affine_parts", "affine_total"]


def test_verify_is_integer_only():
    """The Hurwitz checks sum plain ints: no Fraction and no factorial."""
    tree = ast.parse(Path(verify.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name == "fractions" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "fractions"
            assert "factorial" not in [alias.name for alias in node.names]
