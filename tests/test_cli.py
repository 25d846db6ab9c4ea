import json

import pytest

from wordseen import cli, montecarlo, sweeps
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
                        lambda M, tol: GrowthConstant(M, 1.5, 1.5 + 2 * tol, tol))
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


def test_couple(capsys):
    code, out = run(capsys, "couple", "--p-x", "0.5", "--p-y", "0.25",
                    "--n", "16", "--trials", "40", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stage,p_in,p1,p_out"
    assert lines[-1].startswith("summary,3,0,")
    # 30 stages would draw 32*2^30 letters per sample; refused before any draw
    assert run_error("couple", "--p-x", "1/1000000000", "--p-y", "1/2") == 2
    assert "letters per sample" in capsys.readouterr().err
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
        raise AssertionError("decided prefixes over the budget")

    monkeypatch.setattr(sweeps, "batch_seen", unreachable)
    assert run_error("verify", "thm3", "--n", "7") == 2
    assert ("exhaustive sweep over 2^21 prefixes exceeds the 20-bit budget"
            in capsys.readouterr().err)
    assert run_error("verify", "thm3", "--n", "8") == 2
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
