"""Every entry point the benchmark's tracer wraps still exists.

perfbench/spans.py patches the names in TARGETS from outside the package.
A refactor that deletes a traced function, or leaves a traced method to be
inherited, would make the tracer skip it silently; this test resolves each
target the way Tracer.install does.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner, _, name = attr.rpartition(".")
    if owner:
        cls = getattr(module, owner, None)
        return cls is not None and name in cls.__dict__
    return hasattr(module, name)


def test_every_trace_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = [f"{m}.{a}" for m, a, _ in targets if not _resolves(m, a)]
    assert missing == []
