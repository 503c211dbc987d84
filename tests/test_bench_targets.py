"""The benchmark's span tracer rebinds names in module namespaces.

``bench/spans.py`` replaces each listed attribute in each listed namespace
and fails with ``AttributeError`` when a name is gone, so an import that
looks unused in ``src/wlckf`` may still be needed there. This test notices
a dropped name without running the traced benchmark. It also imports
``bench/workloads.py``, so a name the benchmark imports from ``wlckf`` and
that is gone fails here too.
"""
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the class is built.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_traced_name_resolves_in_its_namespaces():
    for name, owner, namespaces, attr, _ in _load("bench_spans", BENCH / "spans.py").TARGETS:
        original = getattr(owner, attr)
        for namespace in namespaces:
            # The binding a caller looks up must be the traced function itself.
            assert getattr(namespace, attr, None) is original, f"{name}: {namespace.__name__}.{attr}"


def test_benchmark_workloads_import():
    workloads = _load("bench_workloads", BENCH / "workloads.py")
    assert workloads.SCALES
