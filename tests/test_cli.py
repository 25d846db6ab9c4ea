import json

import pytest

from wordseen import cli, sweeps
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


def test_verify_pass_and_usage(capsys):
    code, out = run(capsys, "verify", "thm1a", "--M", "2", "--n", "4")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"
    code, out = run(capsys, "verify", "renewal", "--N", "1")
    assert code == 0 and out.strip().splitlines()[-1] == "PASS"
    assert run_error("verify", "thm1a", "--M", "2", "--n", "-1") == 2
    assert run_error("verify", "nosuch") == 2


def test_verify_flags_follow_the_suite_table(monkeypatch, capsys):
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


def test_json_round_trip(capsys):
    for argv in (("vn", "--M", "3", "--N", "4"),
                 ("exact", "--word", "101", "--M", "2"),
                 ("maxword", "--n", "3", "--M", "2"),
                 ("twoblock", "--p", "1", "--q", "1", "--M", "3"),
                 ("cm", "--M", "2"),
                 ("simulate", "--word", "11", "--M", "2", "--trials", "100")):
        _, out = run(capsys, *argv, "--format", "json")
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run(capsys, "vn", "--M", "2", "--N", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[3].split(",")[1] == "5/8"
