"""Command-line behavior: verdict lines, exit codes, atomic CSV extraction."""

from __future__ import annotations

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lifter
from lifter import interp
from lifter.cli import main
from lifter.ingest import bundled_corpus_dir
from lifter.stdlib import STDLIB_NAMES, default_heuristics_dir

from helpers import deep_case_text

# Heuristic outcomes per (case, argument set), columns in shipped order.
# Worked out by hand on the corpus goals and kept frozen here.
TRUTH_TABLE = {
    ("exec", "alt"): "11111111",
    ("exec", "model"): "11111111",
    ("itrev", "alt"): "11011111",
    ("itrev", "model"): "11111111",
    ("itrev", "on_itrev"): "00000111",
    ("small_steps", "drop_sprime"): "11011111",
    ("small_steps", "model"): "11011111",
}
H7_COLUMN = {
    ("exec", "alt"): "1",
    ("exec", "model"): "1",
    ("itrev", "alt"): "1",
    ("itrev", "model"): "1",
    ("itrev", "on_itrev"): "1",
    ("small_steps", "drop_sprime"): "0",
    ("small_steps", "model"): "1",
}


def case_path(name):
    return str(bundled_corpus_dir() / f"{name}.case")


def heuristic_path(name):
    return str(default_heuristics_dir() / f"{name}.lifter")


class TestAssert:
    def test_success(self, capsys):
        rc = main([
            "assert", "--case", case_path("itrev"), "--args", "model",
            "--heuristic", heuristic_path("h1_no_constant"),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "Assertion succeeded.\n"
        assert captured.err == ""

    def test_failure(self, capsys):
        rc = main([
            "assert", "--case", case_path("itrev"), "--args", "on_itrev",
            "--heuristic", heuristic_path("h1_no_constant"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "Assertion failed.\n"
        assert captured.err == ""

    def test_unknown_args_id_exits_two(self, capsys):
        rc = main([
            "assert", "--case", case_path("itrev"), "--args", "nope",
            "--heuristic", heuristic_path("h1_no_constant"),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "nope" in captured.err

    def test_bad_heuristic_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.lifter"
        bad.write_text("EX t : term .\n")
        rc = main([
            "assert", "--case", case_path("itrev"), "--args", "model",
            "--heuristic", str(bad),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "broken.lifter" in captured.err

    def test_missing_case_file_exits_two(self, tmp_path, capsys):
        rc = main([
            "assert", "--case", str(tmp_path / "ghost.case"), "--args", "model",
            "--heuristic", heuristic_path("h1_no_constant"),
        ])
        assert rc == 2
        assert capsys.readouterr().out == ""

    def test_non_utf8_heuristic_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin.lifter"
        bad.write_bytes(b"EX t : term . \xff\n")
        rc = main([
            "assert", "--case", case_path("itrev"), "--args", "model",
            "--heuristic", str(bad),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "latin.lifter" in captured.err

    def test_non_utf8_case_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin.case"
        bad.write_bytes((bundled_corpus_dir() / "itrev.case").read_bytes() + b"\xff\n")
        rc = main([
            "assert", "--case", str(bad), "--args", "model",
            "--heuristic", heuristic_path("h1_no_constant"),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "latin.case" in captured.err

    def test_witness_bindings_go_to_stderr(self, capsys):
        rc = main([
            "assert", "--case", case_path("itrev"), "--args", "model",
            "--heuristic", heuristic_path("h3_same_recursive_occurrence"),
            "--witness",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "Assertion succeeded.\n"
        assert captured.err == (
            'witness t1 = (const "itrev")\n'
            "witness to1 = subgoal 0, path [1, 0]\n"
        )

    def test_no_witnesses_on_failure(self, capsys):
        rc = main([
            "assert", "--case", case_path("itrev"), "--args", "on_itrev",
            "--heuristic", heuristic_path("h1_no_constant"), "--witness",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ""

    @pytest.mark.parametrize("name, args, rc", [
        ("h3_same_recursive_occurrence", "model", 0),
        ("h1_no_constant", "on_itrev", 1),
    ])
    def test_witness_takes_one_evaluator_and_one_run(self, monkeypatch, capsys, name, args, rc):
        # One run of the program gives the verdict and the bindings both.
        counts = {"evaluators": 0, "runs": 0}
        evaluator_init, program_init = interp.Evaluator.__init__, interp.Program.__init__

        def counted_evaluator(self, *values):
            counts["evaluators"] += 1
            evaluator_init(self, *values)

        def counted_program(self, test, slots, chain):
            def counted_test(ev, env):
                counts["runs"] += 1
                return test(ev, env)

            program_init(self, counted_test, slots, chain)

        monkeypatch.setattr(interp.Evaluator, "__init__", counted_evaluator)
        monkeypatch.setattr(interp.Program, "__init__", counted_program)
        assert main([
            "assert", "--case", case_path("itrev"), "--args", args,
            "--heuristic", heuristic_path(name), "--witness",
        ]) == rc
        capsys.readouterr()
        assert counts == {"evaluators": 1, "runs": 1}


class TestTestAll:
    def run(self, capsys, case, args, *extra):
        rc = main(["test-all", "--case", case_path(case), "--args", args, *extra])
        out = capsys.readouterr().out
        return rc, out.splitlines()

    def test_model_arguments_pass_everything(self, capsys):
        rc, lines = self.run(capsys, "itrev", "model")
        assert rc == 0
        assert lines[:-1] == [f"{name}: True" for name in STDLIB_NAMES[:8]]
        assert lines[-1] == "Out of 8 assertions, 8 assertions succeeded."

    def test_alternate_arguments_fail_depth(self, capsys):
        rc, lines = self.run(capsys, "itrev", "alt")
        assert rc == 0
        assert "h2_deepest: False" in lines
        assert lines[-1] == "Out of 8 assertions, 7 assertions succeeded."

    def test_constant_induction_fails_most(self, capsys):
        rc, lines = self.run(capsys, "itrev", "on_itrev")
        assert rc == 0
        assert "h1_no_constant: False" in lines
        assert "h1_no_constant_sugar: False" in lines
        assert lines[-1] == "Out of 8 assertions, 3 assertions succeeded."

    def test_include_h7_extends_the_run(self, capsys):
        rc, lines = self.run(capsys, "itrev", "model", "--include-h7")
        assert rc == 0
        assert lines[-2] == "h7_rule_args_generalized: True"
        assert lines[-1] == "Out of 9 assertions, 9 assertions succeeded."

    def test_exec_model_all_true(self, capsys):
        rc, lines = self.run(capsys, "exec", "model", "--include-h7")
        assert rc == 0
        assert lines[:-1] == [f"{name}: True" for name in STDLIB_NAMES]

    def test_small_steps_mutation_drops_h7(self, capsys):
        rc, lines = self.run(capsys, "small_steps", "drop_sprime", "--include-h7")
        assert rc == 0
        assert "h7_rule_args_generalized: False" in lines
        assert lines[-1] == "Out of 9 assertions, 7 assertions succeeded."

    def test_non_utf8_library_file_exits_two(self, tmp_path, capsys):
        library = tmp_path / "heuristics"
        shutil.copytree(default_heuristics_dir(), library)
        (library / "h2_deepest.lifter").write_bytes(b"\xff\n")
        rc = main(["test-all", "--case", case_path("itrev"), "--args", "model",
                   "--heuristics", str(library)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "h2_deepest.lifter" in captured.err


class TestExtract:
    def run(self, out_path, corpus=None, *extra):
        corpus = corpus or str(bundled_corpus_dir())
        return main(["extract", "--corpus", corpus, "--out", str(out_path), *extra])

    def test_table_matches_frozen_outcomes(self, tmp_path):
        out = tmp_path / "table.csv"
        assert self.run(out) == 0
        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["case_id", "args_id"] + list(STDLIB_NAMES[:8])
        assert [(r[0], r[1]) for r in rows[1:]] == sorted(TRUTH_TABLE)
        for row in rows[1:]:
            assert "".join(row[2:]) == TRUTH_TABLE[(row[0], row[1])]

    def test_include_h7_adds_column(self, tmp_path):
        out = tmp_path / "table.csv"
        assert self.run(out, None, "--include-h7") == 0
        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][-1] == "h7_rule_args_generalized"
        for row in rows[1:]:
            assert row[-1] == H7_COLUMN[(row[0], row[1])]
            assert "".join(row[2:-1]) == TRUTH_TABLE[(row[0], row[1])]

    def test_two_runs_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run(first) == 0
        assert self.run(second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_empty_corpus_writes_header_only(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "table.csv"
        assert self.run(out, str(corpus)) == 0
        assert out.read_text() == "case_id,args_id," + ",".join(STDLIB_NAMES[:8]) + "\n"

    def test_failed_run_leaves_no_output(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(bundled_corpus_dir() / "itrev.case", corpus / "itrev.case")
        (corpus / "broken.case").write_text("(case \"broken\"\n")
        out = tmp_path / "table.csv"
        assert self.run(out, str(corpus)) == 2
        assert capsys.readouterr().err != ""
        assert not out.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrites_previous_table(self, tmp_path):
        out = tmp_path / "table.csv"
        out.write_text("stale\n")
        assert self.run(out) == 0
        assert out.read_text().startswith("case_id,args_id,")


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [
                "lifter", "assert", "--case", case_path("exec"),
                "--args", "model", "--heuristic", heuristic_path("h2_deepest"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "Assertion succeeded.\n"

    def test_entry_point_failure_code(self):
        proc = subprocess.run(
            [
                "lifter", "assert", "--case", case_path("itrev"),
                "--args", "on_itrev", "--heuristic", heuristic_path("h1_no_constant"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == "Assertion failed.\n"


class TestModuleEntry:
    """`python -m lifter` runs the same CLI without an installed script."""

    def run(self, *argv):
        src = Path(lifter.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run(
            [sys.executable, "-m", "lifter", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_success_exits_zero(self):
        proc = self.run("assert", "--case", case_path("exec"), "--args", "model",
                        "--heuristic", heuristic_path("h2_deepest"))
        assert (proc.returncode, proc.stdout) == (0, "Assertion succeeded.\n")

    def test_failure_exits_one(self):
        proc = self.run("assert", "--case", case_path("itrev"), "--args", "on_itrev",
                        "--heuristic", heuristic_path("h1_no_constant"))
        assert (proc.returncode, proc.stdout) == (1, "Assertion failed.\n")

    def test_bad_input_exits_two(self):
        proc = self.run("assert", "--case", case_path("itrev"), "--args", "nope",
                        "--heuristic", heuristic_path("h1_no_constant"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "no argument set 'nope'" in proc.stderr

    def test_deep_term_gets_a_verdict(self, tmp_path):
        case = tmp_path / "deep.case"
        case.write_text(deep_case_text(3000), encoding="utf-8")
        proc = self.run("assert", "--case", str(case), "--args", "x",
                        "--heuristic", heuristic_path("h2_deepest"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Assertion succeeded.\n", "")

    def test_deep_witness_is_printed(self, tmp_path):
        # Rendering a witness 3,000 applications deep used to raise
        # RecursionError.  The first term of the goal is its whole subgoal.
        case = tmp_path / "deep.case"
        case.write_text(deep_case_text(3000), encoding="utf-8")
        heuristic = tmp_path / "any_term.lifter"
        heuristic.write_text("EX t1 : term . True\n", encoding="utf-8")
        proc = self.run("assert", "--case", str(case), "--args", "x",
                        "--heuristic", str(heuristic), "--witness")
        subgoal = '(app (const "f") ' * 3000 + '(free "x")' + ")" * 3000
        assert (proc.returncode, proc.stdout) == (0, "Assertion succeeded.\n")
        assert proc.stderr == f"witness t1 = {subgoal}\n"

    def test_long_not_chain_gets_a_verdict(self, tmp_path):
        # `Not` x 5000 used to raise RecursionError while parsing.
        heuristic = tmp_path / "nots.lifter"
        heuristic.write_text("Not " * 5000 + "True\n", encoding="utf-8")
        proc = self.run("assert", "--case", case_path("itrev"), "--args", "model",
                        "--heuristic", str(heuristic))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Assertion succeeded.\n", "")

    def test_long_implication_chain_gets_a_verdict(self, tmp_path):
        # `True ->` x 2000 used to raise RecursionError while parsing.
        heuristic = tmp_path / "imps.lifter"
        heuristic.write_text("True -> " * 2000 + "True\n", encoding="utf-8")
        proc = self.run("assert", "--case", case_path("itrev"), "--args", "model",
                        "--heuristic", str(heuristic))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Assertion succeeded.\n", "")

    def test_deep_nesting_exits_two_with_its_position(self, tmp_path):
        # 300 nested parentheses used to raise RecursionError and exit 1.
        heuristic = tmp_path / "parens.lifter"
        heuristic.write_text("(" * 300 + "True" + ")" * 300 + "\n", encoding="utf-8")
        proc = self.run("assert", "--case", case_path("itrev"), "--args", "model",
                        "--heuristic", str(heuristic))
        assert (proc.returncode, proc.stdout) == (2, "")
        message = "parentheses and quantifiers nest deeper than 100 levels"
        assert proc.stderr == f"lifter: {heuristic}: 1:101: {message}\n"


class TestInternalError:
    """Any exception other than a lifter error or an OSError is a fault in
    lifter: exit code 3, one line on stderr, no traceback."""

    def test_unexpected_exception_exits_three(self, capsys, monkeypatch):
        def fail(*args):
            raise RuntimeError("no verdict\nhere")

        monkeypatch.setattr(lifter.cli, "Evaluator", fail)
        code = main(["assert", "--case", case_path("itrev"), "--args", "model",
                     "--heuristic", heuristic_path("h1_no_constant")])
        out, err = capsys.readouterr()
        assert code == lifter.cli.INTERNAL_ERROR == 3
        assert out == ""
        assert err == "lifter: internal error: RuntimeError('no verdict\\nhere')\n"
