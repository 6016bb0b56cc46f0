"""The benchmark's trace hooks must name functions the package still has.

``bench/spans.py`` wraps each ``(module, attribute)`` in ``PATCHES``; an
attribute that no longer exists fails every traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_trace_hook_resolves():
    missing = []
    for module_name, attr, _ in load_patches():
        owner = importlib.import_module(module_name)
        *parents, leaf = attr.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"trace hooks name missing attributes: {missing}"
