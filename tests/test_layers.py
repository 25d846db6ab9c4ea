"""Module layering.

The benchmark's per-layer tracer finds every function it wraps:
`perfbench/layers.py` wraps the package functions named in LAYERS when a
run is traced (`--trace 1`).  A rename or deletion in the package would
only show there, so every entry is resolved here.  And the exact layers
(core, exactprob) import nothing from the simulation layer.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_layer_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for module, attr, _, _ in layers.LAYERS:
        owner, name = layers._resolve(module, attr)
        if not callable(getattr(owner, name, None)):
            missing.append(f"{module}.{attr}")
    assert missing == []


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
