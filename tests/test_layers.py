"""Module layering.

The benchmark's per-layer tracer finds every function it wraps:
`perfbench/layers.py` wraps the package functions named in LAYERS when a
run is traced (`--trace 1`).  A rename or deletion in the package would
only show there, so every entry is resolved here, and one traced pass
reads every record field its counters read.  And the exact layers
(core, exactprob) import nothing from the simulation layer.  The package
namespace holds only `__version__`: every name is imported from its module.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

from wordseen import cli, sweeps

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_layer_name_resolves():
    layers = _load_layers()
    missing = []
    for module, attr, _, _ in layers.LAYERS:
        owner, name = layers._resolve(module, attr)
        if not callable(getattr(owner, name, None)):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_traced_commands_feed_every_counter(tmp_path):
    """The tracer's counters also read record fields: ProbAutomaton.size,
    .word and .M, TwoBlockTable.P and .Q, RenewalTable.N, the estimates'
    trials and SweepResult.ok, and the kernel counter reads the arrays that
    the estimates and the coupling chain pass to batch_seen.  One traced
    pass over commands that reach each of them fails on a field the package
    no longer has."""
    layers = _load_layers()
    tracer = layers.Tracer()
    commands = ["exact --word 10 --M 2 --oracle", "maxword --n 3 --M 2",
                "twoblock --p 1 --q 1 --M 2",
                "simulate --word 10 --M 2 --trials 100",
                "simulate --p-x 1/2 --p-y 1/2 --n 2 --M 2 --trials 100",
                "couple --p-x 9/10 --p-y 1/10 --n 4 --trials 10",
                "verify thm4"]
    tracer.install()
    try:
        for i, line in enumerate(commands):
            assert cli.main(line.split() + ["--out", str(tmp_path / f"{i}.out")]) == 0
    finally:
        tracer.uninstall()
    assert dict(tracer.errors) == {}
    metrics = layers.summarize(tracer.spans, tracer.counts, tracer.errors)
    counters = ["exactprob.states", "exactprob.dp_state_steps",
                "exactprob.oracle_prefixes", "exactprob.sweep_words",
                "montecarlo.trials", "montecarlo.kernel_cells",
                "recursions.u_cells", "moments.renewal_terms"]
    assert [key for key in counters if not metrics[key] > 0] == []


def test_every_verify_suite_is_one_traced_span():
    """Each suite of `wordseen verify` is a function the tracer wraps in the
    sweeps.fn group, so one verify job is one span there."""
    traced = {attr for module, attr, group, _ in _load_layers().LAYERS
              if (module, group) == ("sweeps", "sweeps.fn")}
    assert {fn_name for fn_name, _ in sweeps.SUITES.values()} <= traced


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["core", "exactprob"])
def test_exact_layers_do_not_import_montecarlo(module):
    """The seen kernels live in core; neither core nor the exact layer
    reaches up into the simulation layer for them."""
    path = LAYERS_PY.parents[1] / "src" / "wordseen" / f"{module}.py"
    imported = _imported_modules(path)
    assert imported and not any("montecarlo" in name.split(".") for name in imported)


def test_package_holds_only_the_version():
    """A second, flat import path cannot grow back in __init__.py, and its
    __version__, which perfbench records with every result, is pyproject's."""
    root = LAYERS_PY.parents[1]
    body = ast.parse((root / "src" / "wordseen" / "__init__.py").read_text()).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign]
    doc, version = body
    assert isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)
    assert [target.id for target in version.targets] == ["__version__"]
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)",
                        (root / "pyproject.toml").read_text(), re.M | re.S)
    declared = re.search(r'^version = "([^"]+)"$', project.group(1), re.M)
    assert ast.literal_eval(version.value) == declared.group(1)
