"""The benchmark under perfbench/ wraps package functions by name and calls
others directly. A refactor that deletes or renames one of them must fail
here, not only when the benchmark runs. The benchmark files are read, never
edited or imported as a package: tracer.py is loaded by path, and the
workload and self-test files are only parsed."""

import ast
import importlib
import importlib.util
import pathlib

import elip.cli  # noqa: F401  (loads every elip module, as the benchmark does)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_references(path):
    """(module, name) of every elip name the file imports, and of every
    attribute it calls on an imported elip module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "elip":
            for alias in node.names:
                refs.add((node.module, alias.name))
                if node.module == "elip":
                    modules[alias.asname or alias.name] = f"elip.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            refs.add((modules[node.func.value.id], node.func.attr))
    return refs


def test_every_traced_function_resolves():
    tracer = _load_tracer()
    missing = [f"{m}.{a}" for m, a in tracer.TARGETS if tracer._resolve(m, a) is None]
    assert not missing, f"traced functions not found: {missing}"


def test_every_name_the_benchmark_uses_resolves():
    refs = set()
    for name in ("workloads.py", "selftest.py"):
        refs |= _package_references(PERFBENCH / name)
    missing = sorted(
        f"{module}.{name}" for module, name in refs
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, f"names the benchmark uses are gone: {missing}"


def test_wrapped_references_are_one_function():
    """The tracer wraps image_forward once and finds it under every name
    that holds it; the self-test checks these identities while wrapped."""
    from elip import encoders, objectives

    assert encoders.encode_image is encoders.image_forward
    assert objectives.image_forward is encoders.image_forward
