"""The README as a behaviour contract.

Every ``$ wordseen ...`` block in README.md is replayed through the CLI and
its stdout compared byte for byte; the library snippet is executed and its
documented values asserted.  A refactor that changes any printed figure
breaks this file.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from wordseen import exactprob, moments
from wordseen.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMANDS = re.findall(r"```\n\$ wordseen (.*?)\n(.*?)```", README, re.S)


def test_readme_lists_every_command():
    names = [line.split()[0] for line, _ in COMMANDS]
    assert names == ["vn", "exact", "maxword", "twoblock", "cm", "couple",
                     "verify"]


@pytest.mark.parametrize("line,expected", COMMANDS,
                         ids=[line.split()[0] for line, _ in COMMANDS])
def test_readme_command(line, expected, capsys):
    assert main(line.split()) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("line", [line for line, _ in COMMANDS
                                  if not line.startswith("verify")],
                         ids=lambda line: line.split()[0])
def test_readme_command_json_round_trip(line, capsys):
    assert main(line.split() + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_readme_library_snippet():
    snippet = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    ns: dict = {}
    exec(snippet, ns)
    assert exactprob.exact_seen_probability("1100", M=2) == Fraction(3, 8)
    assert ns["emb"].positions == (2, 4, 6, 8)
    assert ns["table"].v[6] == Fraction(169, 512)
    assert moments.expected_embeddings(M=3, n=4) == Fraction(81, 16)
    assert ns["est"].estimate == 0.37885
    assert f"{ns['est'].stderr:.4f}" == "0.0034"
