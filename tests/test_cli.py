"""Command-line behaviour: output shape, exit codes, cache, determinism."""
import json
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from fecount import cli, counting, verify
from fecount.cli import main
from fecount.counting import e_affine_closed
from fecount.diagrams import OrbifoldTriple

TESTS = Path(__file__).parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def last_record(out):
    return json.loads(out.strip().splitlines()[-1])


def scrub_elapsed(out):
    return re.sub(r', "elapsed_ms": [0-9.e+-]+}', "}", out)


class TestDynkinCommand:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "dynkin", "A", "5", "--method", "both")
        rec = last_record(out)
        assert code == 0
        assert rec["values"] == {"closed": "1296", "recursive": "1296"}
        assert rec["agree"] is True

    def test_single_token_and_single_method(self, capsys):
        code, out, _ = run_cli(capsys, "dynkin", "E7", "--method", "closed")
        rec = last_record(out)
        assert code == 0
        assert rec["values"] == {"closed": "1062882"}
        assert "agree" not in rec

    def test_all_methods_on_d4(self, capsys):
        code, out, _ = run_cli(capsys, "dynkin", "D4", "--method", "all")
        rec = last_record(out)
        assert code == 0 and rec["agree"] is True
        assert set(rec["values"]) == {"closed", "recursive", "oracle"}
        assert set(rec["values"].values()) == {"162"}

    def test_oracle_infeasibility_is_reported_not_fatal(self, capsys):
        code, out, _ = run_cli(capsys, "dynkin", "A9", "--method", "all",
                               "--budget-ms", "0")
        rec = last_record(out)
        assert code == 0  # closed and recursive still agree
        assert rec["agree"] is True and "oracle" not in rec["values"]
        assert any("oracle skipped" in note for note in rec["notes"])

    @pytest.mark.parametrize(
        "tokens, message",
        [
            ("Q5", "cannot parse Dynkin token 'Q5'"),
            ("A5 5", "expected a type like 'A5' or 'A 5'"),
            ("A1 0", "expected a type like 'A5' or 'A 5'"),
        ],
        ids=["Q5", "A5 5", "A1 0"],
    )
    def test_parse_failure(self, capsys, tokens, message):
        code, out, err = run_cli(capsys, "dynkin", *tokens.split())
        assert code == 2 and out == "" and message in err and err.count("\n") == 1

    def test_count_past_the_str_digit_limit(self, capsys):
        code, out, _ = run_cli(capsys, "dynkin", "A2000", "--method", "closed")
        value = last_record(out)["values"]["closed"]
        assert code == 0 and len(value) == 6600
        assert Decimal(value) == Decimal(2001**1999)

    def test_bad_budget_env_is_an_error_not_a_note(self, capsys, monkeypatch):
        monkeypatch.setenv("FEC_ORACLE_BUDGET_MS", "soon")
        code, out, err = run_cli(capsys, "dynkin", "A3", "--method", "all")
        assert code == 2 and out == "" and "FEC_ORACLE_BUDGET_MS" in err
        code, out, _ = run_cli(capsys, "dynkin", "A3", "--method", "closed")
        assert code == 0 and last_record(out)["values"] == {"closed": "16"}


@pytest.mark.parametrize(
    "argv",
    [("dynkin", "A\u0665", "--method", "closed"),
     ("dynkin", "A", "\u0665", "--method", "closed"),
     ("forest", "A\u0663"),
     ("affine", "2", "3", "\u0665", "--method", "closed"),
     ("affine", "1", "2", "1_0", "--method", "closed"),
     ("verify", "hurwitz", "--max", "\u0662"),
     ("verify", "hurwitz", "--max", "1_0"),
     ("verify", "hurwitz", "--max", "+2"),
     ("verify", "cross", "--max-mu", "\u0663"),
     ("verify", "tables", "--max-r", "\u0662"),
     ("table", "--dynkin", "--max-rank", "\u0663"),
     ("table", "--affine", "--max-mu", "\u0663"),
     ("oracle", "A3", "--budget-ms", "1_000"),
     ("oracle", "A3", "--budget-ms", "\u0661\u0660\u0660\u0660"),
     ("dynkin", "A3", "--method", "closed", "--budget-ms", "\u0661")],
)
def test_numbers_are_ascii_digits_only(capsys, argv):
    """Arabic-Indic digits and ``_`` separators are not read as numbers."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["-1", "nan"])
@pytest.mark.parametrize("query", ["dynkin A3 --method closed", "dynkin A12 --method all"])
def test_bad_budget_flag_is_refused_even_without_the_oracle(capsys, query, value):
    """--budget-ms is checked as it is parsed, also when no oracle runs."""
    code, out, err = run_cli(capsys, *query.split(), "--budget-ms", value)
    assert code == 2 and out == ""
    assert err.startswith("error: --budget-ms") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("verify", "hurwitz", "--format", "xml"),
                                  ("dynkin", "A3", "--budget-ms"), ()],
                         ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_usage_errors_are_one_line(capsys, argv):
    """argparse's own usage errors return 2 with one line, not a usage block."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["\u0661\u0660\u0660\u0660", "1_000"])
def test_budget_env_is_ascii_only(capsys, monkeypatch, value):
    monkeypatch.setenv("FEC_ORACLE_BUDGET_MS", value)
    code, out, err = run_cli(capsys, "oracle", "A3")
    assert code == 2 and out == ""
    assert err.startswith("error: FEC_ORACLE_BUDGET_MS") and err.count("\n") == 1


class TestAffineCommand:
    def test_headline_value(self, capsys):
        code, out, _ = run_cli(capsys, "affine", "2", "3", "5")
        rec = last_record(out)
        assert code == 0 and rec["agree"] is True
        assert rec["values"]["closed"] == "2551500000"

    def test_canonicalizes_argument_order(self, capsys):
        _, out1, _ = run_cli(capsys, "affine", "3", "5", "2", "--method", "closed")
        _, out2, _ = run_cli(capsys, "affine", "2", "3", "5", "--method", "closed")
        assert last_record(out1)["values"] == last_record(out2)["values"]
        assert last_record(out1)["query"] == "affine (2,3,5)"

    def test_rejects_non_positive_euler_number(self, capsys):
        code, _, err = run_cli(capsys, "affine", "2", "3", "7")
        assert code == 2
        assert "(1,p,q), (2,2,r), (2,3,3), (2,3,4), (2,3,5)" in err

    def test_oracle_method_is_refused(self, capsys):
        code, _, err = run_cli(capsys, "affine", "2", "2", "2", "--method", "oracle")
        assert code == 2 and "no finite oracle" in err

    def test_cache_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cache.txt"
        code, out1, _ = run_cli(capsys, "-v", "affine", "2", "3", "4",
                                "--cache", str(path))
        assert code == 0 and path.exists()
        assert "2,3,4 -> 46448640" in path.read_text()
        code, out2, err2 = run_cli(capsys, "-v", "affine", "2", "3", "4",
                                   "--cache", str(path))
        assert code == 0
        assert last_record(out1)["values"] == last_record(out2)["values"]
        assert "hits" in err2  # cache activity is logged when verbose

    # A count that is not the closed form's is refused before any method
    # runs, even when the only method run is the recursion it would feed.
    @pytest.mark.parametrize("argv, line", [
        (("affine", "1", "1", "3", "--method", "recursive"), "1,1,2 -> 99"),
        (("affine", "2", "3", "5"), "2,3,3 -> 99"),
    ], ids=["affine 1 1 3 --method recursive", "affine 2 3 5"])
    def test_poisoned_cache_is_not_written_back(self, capsys, tmp_path, argv, line):
        path = tmp_path / "cache.txt"
        path.write_text(line + "\n")
        before = path.read_bytes()
        code, out, err = run_cli(capsys, *argv, "--cache", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"{path}:1: wrong count for " in err
        assert path.read_bytes() == before

    def test_non_canonical_cache_key_is_refused(self, capsys, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("2,3,3 -> 1224720\n3,2,3 -> 7\n")
        before = path.read_bytes()
        code, out, err = run_cli(capsys, "affine", "2", "3", "3", "--method", "recursive",
                                 "--cache", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert path.read_bytes() == before

    def test_unwritable_cache_is_a_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "missing_dir" / "f.txt"
        code, out, err = run_cli(capsys, "affine", "2", "3", "4", "--cache", str(path))
        assert code == 2 and last_record(out)["agree"] is True
        assert err.startswith("error: cannot write cache file: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not path.parent.exists()

    def test_cache_run_that_adds_nothing_leaves_the_file_untouched(self, capsys, tmp_path):
        path = tmp_path / "cache.txt"
        argv = ("affine", "2", "3", "3", "--method", "all", "--cache", str(path))
        code1, out1, _ = run_cli(capsys, *argv)
        before, stat = path.read_bytes(), path.stat()
        code2, out2, _ = run_cli(capsys, *argv)
        after = path.stat()
        assert code1 == code2 == 0
        assert scrub_elapsed(out1) == scrub_elapsed(out2)
        assert path.read_bytes() == before
        assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)

    def test_cache_run_that_adds_a_count_rewrites_the_file(self, capsys, tmp_path):
        path = tmp_path / "cache.txt"
        run_cli(capsys, "affine", "2", "3", "3", "--cache", str(path))
        before, ino = path.read_text(), path.stat().st_ino
        code, _, _ = run_cli(capsys, "affine", "2", "3", "4", "--cache", str(path))
        assert code == 0 and path.stat().st_ino != ino
        lines = set(path.read_text().splitlines())
        assert set(before.splitlines()) < lines and "2,3,4 -> 46448640" in lines

    # Every number of a line is ASCII 0-9: no underscore, sign or other digit.
    @pytest.mark.parametrize("line", ["garbage", "1,1,1 -> -5", "1,1,2_0 -> 1",
                                      "1,1,+2 -> 8", "1,1,2 -> \u0668"])
    def test_bad_cache_line_is_a_one_line_error(self, capsys, tmp_path, line):
        path = tmp_path / "cache.txt"
        path.write_text(line + "\n")
        before = path.read_bytes()
        code, out, err = run_cli(capsys, "affine", "1", "1", "2", "--cache", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad cache line" in err
        assert path.read_bytes() == before

    def test_count_past_the_str_digit_limit(self, capsys):
        code, out, _ = run_cli(capsys, "affine", "1", "1", "3000", "--method", "closed")
        value = last_record(out)["values"]["closed"]
        assert code == 0 and len(value) > 4300
        assert Decimal(value) == Decimal(e_affine_closed(OrbifoldTriple.of(1, 1, 3000)))


class TestForestAndOracleCommands:
    def test_forest(self, capsys):
        code, out, _ = run_cli(capsys, "forest", "A2", "A2", "A2")
        assert code == 0 and last_record(out)["values"]["closed"] == "2430"

    def test_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "A4")
        assert code == 0 and last_record(out)["values"]["oracle"] == "125"

    def test_oracle_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FEC_ORACLE_BUDGET_MS", "0")
        code, _, err = run_cli(capsys, "oracle", "E6")
        assert code == 2 and "exceeded" in err

    def test_oracle_budget_env_must_be_numeric(self, capsys, monkeypatch):
        monkeypatch.setenv("FEC_ORACLE_BUDGET_MS", "soon")
        code, _, err = run_cli(capsys, "oracle", "A2")
        assert code == 2 and "FEC_ORACLE_BUDGET_MS" in err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_oracle_budget_env_rejects_nan_and_negative(self, capsys, monkeypatch, value):
        monkeypatch.setenv("FEC_ORACLE_BUDGET_MS", value)
        code, out, err = run_cli(capsys, "oracle", "A2")
        assert code == 2 and out == "" and "FEC_ORACLE_BUDGET_MS" in err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_oracle_budget_flag_rejects_nan_and_negative(self, capsys, value):
        code, out, err = run_cli(capsys, "oracle", "A2", "--budget-ms", value)
        assert code == 2 and out == "" and "--budget-ms" in err

    def test_oracle_past_the_rank_cap_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "A10")
        assert code == 2 and out == "" and "rank <= 9" in err

    def test_infinite_budget_means_no_deadline(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "A3", "--budget-ms", "inf")
        assert code == 0 and last_record(out)["values"]["oracle"] == "16"

    def test_verbose_oracle_reports_elements_visited(self, capsys):
        code, _, err = run_cli(capsys, "-v", "oracle", "D4")
        assert code == 0 and "elements visited" in err


class TestVerifyCommand:
    def test_hurwitz_record_count_and_status(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hurwitz", "--max", "15")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0
        assert len(records) == 240
        assert all(r["holds"] for r in records)

    def test_tables_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "tables")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and all(r["matches"] for r in records)
        noted = [r for r in records if "note" in r]
        assert {r["table"] for r in noted} == {"(2,3,4)"}

    def test_cross_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "cross", "--max-mu", "14")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and len(records) == 62
        assert all(r["agree"] for r in records)

    @pytest.mark.parametrize(
        "argv",
        [("verify", "hurwitz", "--max", "0"), ("verify", "hurwitz", "--max", "-3"),
         ("verify", "cross", "--max-mu", "0"),
         ("table", "--affine", "--max-mu", "0", "--format", "json"),
         ("table", "--dynkin", "--max-rank", "0", "--format", "md")],
    )
    def test_empty_sweep_is_an_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "selects no checks" in err

    @pytest.mark.parametrize(
        "suite, bound, patch, row",
        [("cross", ("--max-mu", "2"),
          lambda mp: mp.setattr("fecount.counting.deg_ll_affine", lambda triple: 7),
          "| (1,1,1) | 1 | 1 | 7 | NO |"),
         ("tables", ("--max-r", "2"),
          lambda mp: mp.setitem(verify._TOTAL_GOLD, (2, 3, 3), 7),
          "| (2,3,3) | total | 7 | 1224720 | NO |"),
         ("hurwitz", ("--max", "2"),
          lambda mp: mp.setattr(verify, "_split", lambda r, k: 0),
          "| hurwitz2 | r=2 | 480 | 468 | NO |")],
        ids=["cross", "tables", "hurwitz"],
    )
    def test_failed_check_is_marked_and_exits_1(self, capsys, monkeypatch, suite, bound,
                                                 patch, row):
        patch(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", suite, *bound, "--format", "md")
        failed = [line for line in out.splitlines() if line.endswith("| NO |")]
        assert code == 1 and failed == [row]

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hurwitz", "--max", "2",
                               "--format", "md")
        assert code == 0 and out.splitlines()[0].startswith("| check |")


class TestTableCommand:
    def test_dynkin_markdown_matches_known_counts(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--dynkin", "--max-rank", "8",
                               "--format", "md")
        assert code == 0
        assert "| A5 | 1296 | 1296 |" in out
        assert "| E8 | 37968750 | 37968750 |" in out

    def test_affine_json_contains_headline_triple(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--affine", "--max-mu", "9",
                               "--format", "json")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0
        wanted = [r for r in records if r["triple"] == "(2,3,5)"]
        assert wanted and wanted[0]["e"] == "2551500000"

    def test_affine_csv_smallest_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--affine", "--max-mu", "2",
                               "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "triple,e,deg_ll"
        assert lines[1:] == ['"(1,1,1)",1,1']


class TestDeterminism:
    def test_identical_runs_identical_bytes_apart_from_timing(self, capsys):
        _, out1, _ = run_cli(capsys, "affine", "2", "3", "4", "--method", "all")
        _, out2, _ = run_cli(capsys, "affine", "2", "3", "4", "--method", "all")
        assert scrub_elapsed(out1) == scrub_elapsed(out2)
        assert out1 != scrub_elapsed(out1)  # the timing field really was present

    def test_values_parse_back_exactly(self, capsys):
        _, out, _ = run_cli(capsys, "affine", "2", "3", "5", "--method", "closed")
        value = last_record(out)["values"]["closed"]
        assert int(value) == 2551500000


def _transcript() -> dict[str, str]:
    """Command -> stdout (elapsed_ms removed) from cli_transcript.txt."""
    cases: dict[str, str] = {}
    for line in (TESTS / "cli_transcript.txt").read_text().splitlines(keepends=True):
        if line.startswith("$ fec "):
            command = line[len("$ fec "):].strip()
            cases[command] = ""
        else:
            cases[command] += line
    return cases


@pytest.mark.parametrize("command, expected", _transcript().items(), ids=str)
def test_stdout_is_pinned(capsys, command, expected):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0 and scrub_elapsed(out) == expected
    if "--format md" not in command and "--format csv" not in command:
        assert all(json.loads(line) for line in out.splitlines())


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    """Every ``fec`` line of README's "Command line" block exits 0 and
    prints output that parses."""
    readme = (TESTS.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split()[1:]
                for line in block.splitlines() if line.startswith("fec ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        lines = out.splitlines()
        assert code == 0 and lines, argv
        if "md" in argv:
            assert all(line.startswith("| ") and line.endswith(" |") for line in lines), argv
        else:
            assert all(json.loads(line) for line in lines), argv


@pytest.mark.parametrize("argv", [("verify", "cross", "--max-mu", "8"),
                                  ("table", "--affine", "--max-mu", "8")], ids=" ".join)
def test_sweeps_never_read_a_cache_file(capsys, monkeypatch, argv):
    def refuse(path):
        raise AssertionError(f"cache file {path} read")

    monkeypatch.setattr(cli, "load_cache", refuse)
    monkeypatch.setattr(counting, "load_cache", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


def test_console_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fecount.cli", "dynkin", "A3", "--method", "both"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.strip())
    assert rec["values"]["closed"] == "16"
