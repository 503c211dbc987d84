"""The benchmark's span tracer rebinds names in module namespaces.

``bench/spans.py`` replaces each listed attribute in each listed namespace
and fails with ``AttributeError`` when a name is gone, so an import that
looks unused in ``src/wlckf`` may still be needed there. This test notices
a dropped name without running the traced benchmark. It also imports
``bench/workloads.py``, so a name the benchmark imports from ``wlckf`` and
that is gone fails here too. A name read only inside a function, such as
``mse.ScalarModelParams`` in a workload builder, fails only when that
function runs, so the source of the workloads and of the scripts is also
walked for every name it reads from ``wlckf``.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def _resolve(dotted):
    """The object a dotted ``wlckf`` name names, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _wlckf_reads(path):
    """Every name ``path`` imports with ``from wlckf... import``, and every attribute it reads off such a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "wlckf":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    reads = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            reads.add(f"{bound[node.value.id]}.{node.attr}")
    return reads


def test_every_wlckf_name_the_benchmark_and_scripts_read_resolves():
    missing = []
    for path in [BENCH / "workloads.py", *sorted((ROOT / "scripts").glob("*.py"))]:
        reads = _wlckf_reads(path)
        assert reads, path
        for dotted in sorted(reads):
            try:
                # Attributes of a class or function imported from wlckf are not followed.
                if isinstance(_resolve(dotted.rpartition(".")[0]), ModuleType):
                    _resolve(dotted)
            except (AttributeError, ImportError):
                missing.append(f"{path.relative_to(ROOT)}: {dotted}")
    assert not missing
