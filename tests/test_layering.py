"""Layering rules: no library module imports another module's private names,
and none imports scipy, whose separately linked BLAS would start a second
thread pool competing with numpy's for the cores.  The benchmark's span
boundaries name functions that exist."""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import semgmm

SRC = Path(semgmm.__file__).parent


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert offenders == []


def test_no_scipy_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.name}: {name}"
                for name in names
                if name == "scipy" or name.startswith("scipy.")
            ]
    assert offenders == []


def test_bench_span_boundaries_resolve():
    # the tracer skips a boundary the library no longer defines, so a rename
    # would silently drop its span from every per-layer figure
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    paths = [(b.module, b.attr) for b in tracing.BOUNDARIES] + [tracing.MAP_RUNS[1:]]
    missing = []
    for module, attr in paths:
        obj = importlib.import_module(module) if module.startswith("semgmm.") else None
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj) or not obj.__module__.startswith("semgmm"):
            missing.append(f"{module}.{attr}")
    assert missing == []
