"""The benchmark's per-layer tracer finds every function it wraps.

`perfbench/layers.py` wraps the package functions named in LAYERS when a
run is traced (`--trace 1`).  A rename or deletion in the package would
only show there, so every entry is resolved here.
"""

import importlib.util
from pathlib import Path

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
