"""The thm3 sweep on core's prefix blocks."""

from wordseen import core, sweeps


def test_spacing_sweep_over_small_blocks(monkeypatch):
    """Blocks of 5 rows split every scan, the last block partial; the seen
    counts summed over blocks still give alpha^n and v_n."""
    monkeypatch.setattr(core, "_BLOCK_ROWS", 5)
    res = sweeps.sweep_spacing_equivalences(n_max=3)
    assert res.ok
    assert res.details == ["M=2: all spacing forms match the engine up to n=3",
                           "M=3: all spacing forms match the engine up to n=3"]


def test_spacing_sweep_names_the_failing_prefix(monkeypatch):
    """A constant criterion that wants spacings < M instead of <= M first
    fails for the word 0 on the prefix 10: row 1, alone in its 1-row block,
    so only its letters identify it."""
    monkeypatch.setattr(core, "_BLOCK_ROWS", 1)
    exact = sweeps.constant_seen_by_spacings
    monkeypatch.setattr(sweeps, "constant_seen_by_spacings",
                        lambda T, M: exact(T, M - 1))
    res = sweeps.sweep_spacing_equivalences(n_max=1)
    assert not res.ok
    assert res.counterexample == ("M=2, n=1, constant(0): spacing test "
                                  "disagrees at prefix 10")
