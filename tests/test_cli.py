import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wordseen import cli, exactprob, moments, montecarlo, recursions, sweeps
from wordseen.cli import main
from wordseen.exactprob import StateCapExceeded
from wordseen.moments import GrowthConstant


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


def test_vn_table(capsys):
    code, out = run(capsys, "vn", "--M", "2", "--N", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,vn,vn_decimal,vnprime,vnprime_decimal,ratio_next"
    assert lines[1].startswith("0,1,1.000000000000,0,")
    assert lines[3].split(",")[1] == "5/8"
    assert lines[4].split(",")[1] == "17/32"


def test_vn_single_row(capsys):
    code, out = run(capsys, "vn", "--M", "2", "--N", "0")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[:2] == ["0", "1"]


def test_vn_long_ratio(capsys):
    code, out = run(capsys, "vn", "--M", "5", "--N", "400")
    last = out.strip().splitlines()[-1]
    assert code == 0
    assert last.split(",")[-1].startswith("0.9978")


def test_vn_rejects_window_one():
    assert run_error("vn", "--M", "1", "--N", "3") == 2
    assert run_error("twoblock", "--p", "1", "--q", "1", "--M", "1") == 2


def test_vn_over_the_budget_exits_two(monkeypatch, capsys):
    # N^2*M = 8001^2 * 2 is over the 2^24 budget: refused before _inv_beta
    # builds 2^M, and so before any row
    def unreachable(M):
        raise AssertionError("work started over the budget")

    monkeypatch.setattr(recursions, "_inv_beta", unreachable)
    assert run_error("vn", "--M", "2", "--N", "8000") == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("wordseen: error:")]
    assert len(errors) == 1 and "over the budget" in errors[0]
    with pytest.raises(ValueError, match="over the budget"):
        recursions.vn_single_recursion(2, 8001)


def test_exact_oracle_agrees(capsys):
    code, plain = run(capsys, "exact", "--word", "1100", "--M", "2")
    assert code == 0
    code2, oracled = run(capsys, "exact", "--word", "1100", "--M", "2",
                         "--oracle")
    assert code2 == 0
    value = plain.strip().splitlines()[1].split(",")[3]
    cells = oracled.strip().splitlines()[1].split(",")
    assert value == "3/8"
    assert cells[3] == cells[5] == "3/8" and cells[6] == "True"
    code3, biased = run(capsys, "exact", "--word", "1100", "--M", "2", "--p",
                        "1/3", "--oracle")
    cells = biased.strip().splitlines()[1].split(",")
    assert code3 == 0 and cells[3] == cells[5] and cells[6] == "True"


def test_exact_oracle_single_prefix(capsys):
    # n*M = 0: the one empty prefix sees the empty word
    code, out = run(capsys, "exact", "--constant", "0", "--M", "1", "--oracle")
    cells = out.strip().splitlines()[1].split(",")
    assert code == 0 and cells[5] == "1" and cells[6] == "True"


def test_exact_oracle_budget(capsys):
    # n*M = 24 > 20: refused before any of the 2^24 prefixes is scanned
    assert run_error("exact", "--word", "110101", "--M", "4", "--oracle") == 2
    assert "exceeds the 20-bit budget" in capsys.readouterr().err


def test_exact_word_families(capsys):
    _, out = run(capsys, "exact", "--alternating", "3", "--M", "2")
    assert out.strip().splitlines()[1].split(",")[3] == "17/32"
    _, out = run(capsys, "exact", "--twoblock", "2", "2", "--M", "2")
    assert out.strip().splitlines()[1].split(",")[3] == "3/8"
    _, out = run(capsys, "exact", "--constant", "2", "--M", "2", "--p", "1/3")
    assert out.strip().splitlines()[1].split(",")[3] == "25/81"
    # 24,917 states with one age per prefix length; over 10^6 without
    code, out = run(capsys, "exact", "--word", "10" * 11, "--M", "12")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[4] == "0.999752753228"


def test_exact_prints_values_over_the_digit_limit(capsys):
    # 1 - 2^-15000: the numerator has 4516 digits, over Python's default 4300
    code, out = run(capsys, "exact", "--constant", "1", "--M", "15000")
    assert code == 0
    assert len(out.splitlines()[1].split(",")[3].split("/")[0]) == 4516


def test_exact_usage_errors():
    assert run_error("exact", "--word", "1102", "--M", "2") == 2
    assert run_error("exact", "--word", "11", "--constant", "2", "--M", "2") == 2
    assert run_error("exact", "--word", "11", "--M", "2", "--p", "2") == 2


def test_maxword(capsys):
    code, out = run(capsys, "maxword", "--n", "1", "--M", "2")
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert cells[2] == "3/4"
    assert set(cells[4].split()) == {"0", "1"}


def test_cm(monkeypatch, capsys):
    code, out = run(capsys, "cm", "--M", "2")
    assert code == 0
    c = float(out.strip().splitlines()[1].split(",")[1])
    assert abs(c - 4 / 3) < 1e-9
    monkeypatch.setattr(cli, "growth_constant",
                        lambda M, tol: GrowthConstant(1.5, 1.5 + 2 * tol))
    assert run(capsys, "cm", "--M", "2")[0] == 1
    monkeypatch.undo()
    # below 1e-12 the bisection cannot split adjacent floats and would not end
    assert run_error("cm", "--M", "2", "--tol", "1e-16") == 2
    assert "tolerance" in capsys.readouterr().err


def test_twoblock(capsys):
    code, out = run(capsys, "twoblock", "--p", "3", "--q", "2", "--M", "2")
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert cells[3] == "153/512" and cells[-1] == "True"


def test_simulate_seeded(capsys):
    argv = ("simulate", "--alternating", "4", "--M", "2", "--trials", "5000",
            "--seed", "9")
    code, first = run(capsys, *argv)
    assert code == 0
    _, second = run(capsys, *argv)
    assert first == second
    est = float(first.strip().splitlines()[1].split(",")[4])
    assert abs(est - 0.453125) < 0.03


def test_simulate_cross(capsys):
    code, out = run(capsys, "simulate", "--M", "2", "--p-x", "0.5", "--p-y",
                    "0.5", "--n", "3", "--trials", "2000")
    assert code == 0
    est = float(out.strip().splitlines()[1].split(",")[5])
    assert 0 < est < 1


def test_simulate_needs_word_or_cross():
    assert run_error("simulate", "--M", "2") == 2


def test_simulate_refuses_flags_its_mode_does_not_read(capsys):
    # word mode reads no --p-x, --p-y or --n, and cross mode reads no --p
    assert run_error("simulate", "--word", "10", "--M", "2", "--n", "5") == 2
    assert run_error("simulate", "--word", "10", "--M", "2", "--p-x", "1/2") == 2
    assert run_error("simulate", "--p-x", "1/2", "--p-y", "1/2", "--n", "3",
                     "--M", "2", "--p", "1/3") == 2
    err = capsys.readouterr().err
    assert err.count("word mode reads no --p-x, --p-y or --n; drop them\n") == 2
    assert err.count("drop --p\n") == 1


def test_couple(capsys):
    code, out = run(capsys, "couple", "--p-x", "0.5", "--p-y", "0.25",
                    "--n", "16", "--trials", "40", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stage,p_in,p1,p_out"
    assert lines[-1].startswith("summary,3,0,")
    # 30 stages would draw 32*2^30 letters per sample; refused before any draw
    assert run_error("couple", "--p-x", "1/1000000000", "--p-y", "1/2") == 2
    assert ("a prefix of 34359738368 letters is over the budget of 4194304"
            in capsys.readouterr().err)
    # 1 - (1 - 1e-20)^2 rounds to 0: the first stage's interval is empty
    assert run_error("couple", "--p-x", "1/100000000000000000000", "--p-y", "1/2") == 2
    assert "is empty in floats" in capsys.readouterr().err


def test_verify_pass_and_usage(capsys):
    code, out = run(capsys, "verify", "thm1a", "--M", "2", "--n", "4")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"
    code, out = run(capsys, "verify", "renewal", "--N", "1")
    assert code == 0 and out.strip().splitlines()[-1] == "PASS"
    assert run_error("verify", "thm1a", "--M", "2", "--n", "-1") == 2
    assert run_error("verify", "nosuch") == 2


def test_verify_flags_follow_the_suite_table(monkeypatch, capsys):
    # thm3 scans 2^(3n) prefixes at M = 3: n = 7 is over core's 20-bit
    # budget and is refused before any prefix is decided
    def unreachable(*args, **kwargs):
        raise AssertionError("work started over the budget")

    monkeypatch.setattr(sweeps, "batch_seen", unreachable)
    assert run_error("verify", "thm3", "--n", "7") == 2
    assert ("exhaustive sweep over 2^21 prefixes exceeds the 20-bit budget"
            in capsys.readouterr().err)
    assert run_error("verify", "thm3", "--n", "8") == 2
    # thm1a searches the 2^n words of each n <= --n: n = 21 is over the word
    # budget and is refused before any automaton is built
    monkeypatch.setattr(exactprob, "build_automaton", unreachable)
    start = time.perf_counter()
    assert run_error("verify", "thm1a", "--n", "21") == 2
    assert time.perf_counter() - start < 1.0
    assert ("sweep over 2^21 words exceeds the enumeration budget"
            in capsys.readouterr().err)
    # thm1b's two-block grids stop at 40: n = 41 is refused before any
    # automaton is built
    monkeypatch.setattr(sweeps, "build_automaton", unreachable)
    assert run_error("verify", "thm1b", "--n", "41") == 2
    assert ("grid bound 41 exceeds the desk-scale budget"
            in capsys.readouterr().err)
    calls = []

    def fake(**kwargs):
        calls.append(kwargs)
        return sweeps.SweepResult("fake")

    for fn_name, _ in sweeps.SUITES.values():
        monkeypatch.setattr(sweeps, fn_name, fake)
    assert main(["verify", "coupling", "--seed", "5"]) == 0
    assert main(["verify", "thm1a", "--n", "6"]) == 0
    assert main(["verify", "renewal", "--M", "3", "--N", "50"]) == 0
    assert main(["verify", "thm4"]) == 0
    assert calls == [{"seed": 5}, {"n_max": 6}, {"M_max": 3, "N": 50}, {}]
    assert capsys.readouterr().out.splitlines()[:2] == ["fake", "PASS"]
    assert run_error("verify", "thm4", "--M", "3") == 2
    assert run_error("verify", "thm1b", "--seed", "1") == 2
    assert run_error("verify", "lemma43", "--tol", "5") == 2


def test_verify_coupling_over_budget_exits_two(capsys):
    # 2097153 samples draw 2^22 + 2 letters in one sample_sequence call:
    # refused before the draw, a usage error rather than a failed check
    start = time.perf_counter()
    assert run_error("verify", "coupling", "--trials", "2097153") == 2
    assert time.perf_counter() - start < 1.0
    assert ("a prefix of 4194306 letters is over the budget of 4194304"
            in capsys.readouterr().err)


def test_verify_renewal_over_budget_exits_two(monkeypatch, capsys):
    # N^2*M_max is checked before the first renewal table: 100000^2 * 6 and
    # 419^2 * 6 are over 2^20, while 418^2 * 6 (and --M 6 --N 400) reach the
    # tables
    start = time.perf_counter()
    assert run_error("verify", "renewal", "--N", "100000") == 2
    assert time.perf_counter() - start < 1.0
    assert ("renewal tables to n = 100000 for M <= 6 are over the budget: "
            "N^2*M = 60000000000 > 1048576" in capsys.readouterr().err)

    def reached(M, N):
        raise KeyError("renewal table reached")

    monkeypatch.setattr(sweeps, "renewal_table", reached)
    assert run_error("verify", "renewal", "--M", "6", "--N", "419") == 2
    with pytest.raises(KeyError, match="renewal table reached"):
        sweeps.sweep_renewal_facts(6, 418)


def test_growth_window_over_budget_exits_two(monkeypatch, capsys):
    # cm and verify renewal refuse M over 24 before the first walk row or
    # renewal table: both are patched to raise if reached
    def reached(*args):
        raise KeyError("series reached")

    monkeypatch.setattr(moments, "_walk_rows", reached)
    monkeypatch.setattr(sweeps, "renewal_table", reached)
    start = time.perf_counter()
    assert run_error("cm", "--M", "32") == 2
    assert run_error("cm", "--M", "64") == 2
    assert run_error("verify", "renewal", "--M", "32") == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "growth constant for M = 32 is over the budget of M <= 24" in err
    assert "growth constant for M = 64 is over the budget of M <= 24" in err
    assert "growth constants for M <= 32 are over the budget of M <= 24" in err


def test_state_cap_exits_two(monkeypatch, capsys):
    def capped(*args, **kwargs):
        raise StateCapExceeded("automaton for word of length 22, M=12 "
                               "exceeded 1000000 states")

    monkeypatch.setattr(cli, "exact_seen_probability", capped)
    assert run_error("exact", "--word", "10" * 11, "--M", "12") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeded 1000000 states" in err


def test_simulate_letter_budget(monkeypatch, capsys):
    # one trial's n*M letters must fit in a chunk; a trial of 9 letters is
    # refused against a budget of 8 before any draw, in both modes
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 8)
    assert main(["simulate", "--word", "1111", "--M", "2", "--trials", "10"]) == 0
    assert main(["simulate", "--M", "2", "--p-x", "1/2", "--p-y", "1/2",
                 "--n", "4", "--trials", "10"]) == 0
    capsys.readouterr()
    assert run_error("simulate", "--word", "111", "--M", "3") == 2
    assert run_error("simulate", "--M", "3", "--p-x", "1/2", "--p-y", "1/2",
                     "--n", "3") == 2
    err = capsys.readouterr().err
    assert err.count("one trial draws 9 letters, over the budget of 8\n") == 2


def test_json_round_trip(capsys):
    for argv in (("vn", "--M", "3", "--N", "4"),
                 ("exact", "--word", "101", "--M", "2"),
                 ("maxword", "--n", "3", "--M", "2"),
                 ("twoblock", "--p", "1", "--q", "1", "--M", "3"),
                 ("cm", "--M", "2"),
                 ("simulate", "--word", "11", "--M", "2", "--trials", "100"),
                 ("simulate", "--M", "2", "--p-x", "2/5", "--p-y", "3/5",
                  "--n", "3", "--trials", "100")):
        _, out = run(capsys, *argv, "--format", "json")
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run(capsys, "vn", "--M", "2", "--N", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[3].split(",")[1] == "5/8"


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out = run(capsys, "verify", "lemma43", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[-1] == "PASS"


@pytest.mark.parametrize("argv", [("exact", "--word", "01", "--M", "2"),
                                  ("verify", "lemma43")])
def test_out_to_an_unwritable_path_exits_two(tmp_path, capsys, argv):
    """A directory, or a file under a missing directory, cannot be written:
    one line on stderr and exit 2, not a traceback and exit 1."""
    for target in (tmp_path, tmp_path / "no" / "such" / "r.txt"):
        assert run_error(*argv, "--out", str(target)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wordseen: cannot write output: ")
        assert captured.err.count("\n") == 1


def test_unwritable_out_is_refused_before_the_suite_runs(monkeypatch, tmp_path,
                                                         capsys):
    calls = []

    def fake(**kwargs):
        calls.append(kwargs)
        return sweeps.SweepResult("fake")

    monkeypatch.setattr(sweeps, "sweep_max_word", fake)
    missing = tmp_path / "no" / "such"
    assert run_error("verify", "thm1a", "--n", "12",
                     "--out", str(missing / "r.txt")) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("wordseen: cannot write output: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name,err", [("r" * 300, "File name too long"),
                                      ("r\0.txt", "embedded null byte")],
                         ids=["long-name", "nul-byte"])
def test_every_out_open_refuses_exits_before_the_suite_runs(
        monkeypatch, tmp_path, capsys, name, err):
    """--out is opened before the command: every path open refuses exits 2
    without the work, a name too long for the file system and a NUL byte
    as well as a directory."""
    calls = []
    monkeypatch.setattr(sweeps, "sweep_max_word", lambda **kw: calls.append(kw))
    assert run_error("verify", "thm1a", "--n", "12",
                     "--out", str(tmp_path / name)) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == "" and err in captured.err
    assert list(tmp_path.iterdir()) == []


def test_a_command_refused_after_the_open_leaves_an_empty_out(tmp_path, capsys):
    """Like "> FILE", --out is created or truncated before the command runs,
    so a refused command leaves it empty."""
    target = tmp_path / "r.csv"
    target.write_text("old\n")
    assert run_error("exact", "--word", "1", "--M", "3000000",
                     "--out", str(target)) == 2
    assert "exceeded 1000000 states" in capsys.readouterr().err
    assert target.read_bytes() == b""


@pytest.mark.parametrize("argv", [
    ("simulate", "--word", "10", "--M", "2"),
    ("couple", "--p-x", "1/2", "--p-y", "1/4"),
    ("verify", "coupling"),
], ids=lambda argv: argv[0])
def test_a_negative_seed_is_refused_before_out_is_opened(tmp_path, capsys, argv):
    """--seed is read as a nonnegative integer, so -1 is a usage error that
    names the flag, raised while parsing: --out is not yet truncated."""
    target = tmp_path / "r.csv"
    target.write_text("old\n")
    assert run_error(*argv, "--seed", "-1", "--out", str(target)) == 2
    err = capsys.readouterr().err
    assert f"wordseen {argv[0]}: error: argument --seed: expected a nonnegative " \
           "integer, got -1\n" in err
    assert target.read_text() == "old\n"


def test_verify_prints_one_report_under_either_format(capsys):
    """perfbench/checks.check_verify reads verify's text report, PASS last,
    from jobs run with --format json: the report must not change with it."""
    plain = run(capsys, "verify", "lemma43")
    assert plain[0] == 0 and plain[1].endswith("\nPASS\n")
    assert run(capsys, "verify", "lemma43", "--format", "json") == plain


def test_a_wordseen_process_writes_its_out_file_and_exits(tmp_path):
    """One real process: sys.exit(main()) gives the exit status, and the
    --out file holds the whole table once the process has ended."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def wordseen(*argv):
        return subprocess.run([sys.executable, "-m", "wordseen.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    target = tmp_path / "p.csv"
    done = wordseen("exact", "--word", "1100", "--M", "2", "--out", str(target))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert target.read_text() == ("word,M,p,probability,decimal\n"
                                  "1100,2,1/2,3/8,0.375000000000\n")
    done = wordseen("exact", "--word", "1100", "--M", "2", "--out", str(tmp_path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("wordseen: cannot write output: ")
    assert done.stderr.count("\n") == 1


def test_a_key_error_in_a_subcommand_is_not_a_usage_error(monkeypatch):
    """Only ValueError is a usage error: a KeyError is a bug, and propagates
    instead of exiting 2."""
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_vn", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["vn", "--M", "2", "--N", "3"])


def test_one_parser_per_process(capsys):
    """The parser is built once, and a usage error leaves nothing in it that
    changes what the next command prints."""
    assert cli.build_parser() is cli.build_parser()
    alone = run(capsys, "exact", "--word", "101", "--M", "2")
    assert run_error("exact", "--M", "2") == 2
    capsys.readouterr()
    assert run(capsys, "exact", "--word", "101", "--M", "2") == alone == (
        0, "word,M,p,probability,decimal\n101,2,1/2,17/32,0.531250000000\n")


def test_an_origin_over_the_state_cap_exits_two_at_once(capsys):
    # the origin of a one-letter word alone has 3 * 10^6 ages, then DEAD
    start = time.perf_counter()
    assert run_error("exact", "--word", "1", "--M", "3000000") == 2
    assert time.perf_counter() - start < 1
    assert "exceeded 1000000 states" in capsys.readouterr().err


def test_values_over_the_budget_exit_two_before_the_build(monkeypatch, capsys):
    # the origin's 200,000 ages and DEAD already hold 200,001 * 200,000 * 2
    # bits, over 2^32: refused before the build
    def unreachable(*args, **kwargs):
        raise AssertionError("the automaton was built")

    monkeypatch.setattr(exactprob, "build_automaton", unreachable)
    assert run_error("exact", "--word", "1", "--M", "200000") == 2
    assert "exceeds 4294967296 bits" in capsys.readouterr().err
    # a bad first gap or p is still refused as such, not as over the budget
    with pytest.raises(ValueError, match="first gap cap"):
        exactprob.exact_seen_probability("1", 200000, first_gap=0)
    with pytest.raises(ValueError, match="strictly between"):
        exactprob.exact_seen_probability("1", 200000, p=Fraction(3, 2))


def test_a_broken_certificate_is_a_fail_line(monkeypatch, capsys):
    """Lemma 4.3's identities raise, under python -O too, and lemma43 reports
    the one that broke as a FAIL line with exit 1."""
    monkeypatch.setattr(recursions, "accumulate", lambda xs: [0] * (len(xs) - 1) + [1])
    code, out = run(capsys, "verify", "lemma43")
    lines = out.splitlines()
    assert code == 1 and lines[-1].startswith("FAIL (")
    assert "FAIL: certificate fails: M=2: (1 - x) divides P" in lines
    assert capsys.readouterr().err == ""


def test_a_certificate_no_suite_reports_exits_one(monkeypatch, capsys):
    # char_poly's sign pattern fails on swapped alpha and beta; thm1a does
    # not catch it, and main turns it into exit 1 and one line
    monkeypatch.setattr(recursions, "alpha_beta", lambda M: (Fraction(1, 4), Fraction(3, 4)))
    assert run_error("verify", "thm1a", "--n", "2") == 1
    err = capsys.readouterr().err
    assert err == "wordseen: verification failed: certificate fails: M=2: f(M*beta) < 0\n"
