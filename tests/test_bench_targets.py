"""The benchmark's span tracer rebinds names in module namespaces.

``bench/spans.py`` replaces each listed attribute in each listed namespace
and fails with ``AttributeError`` when a name is gone, so an import that
looks unused in ``src/wlckf`` may still be needed there. This test notices
a dropped name without running the traced benchmark.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_namespaces():
    for name, owner, namespaces, attr, _ in _load_spans().TARGETS:
        original = getattr(owner, attr)
        for namespace in namespaces:
            # The binding a caller looks up must be the traced function itself.
            assert getattr(namespace, attr, None) is original, f"{name}: {namespace.__name__}.{attr}"
