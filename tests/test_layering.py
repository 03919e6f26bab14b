"""Layering rules: each library module imports only modules of a lower
layer, no library module imports another module's private names, and none
imports scipy, whose separately linked BLAS would start a second
thread pool competing with numpy's for the cores.  Only semgmm.rng makes
random generators, so every draw comes from a keyed substream, and only the
round bodies of em and sem key a stream on a run's seed.  Only the model's
Cholesky screen factors a covariance, so positive definiteness has one
test.  No function takes a parameter that it never reads.  The benchmark's
span boundaries name functions that exist, each bound to one object."""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import semgmm

SRC = Path(semgmm.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

#: each library module's layer: a module imports only modules of a lower one
RANKS = {
    "model": 0, "rng": 0,
    "estep": 1, "rounds": 1, "ingest": 1,
    "em": 2, "sem": 2,
    "bounds": 3, "synth": 3,
    "harness": 4,
    "cli": 5,
}


def _relative_imports(tree):
    """The names of the package modules a module imports relatively."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (a.name for a in node.names)


def test_modules_import_lower_layers():
    assert set(MODULES) <= set(RANKS)
    offenders = [
        f"{name}.py imports {other}"
        for name in MODULES
        for other in _relative_imports(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")))
        if RANKS[other] >= RANKS[name]
    ]
    assert offenders == []


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


def _numpy_random_uses(tree):
    """Every use of numpy.random in a module other than as the Generator
    type: bit generators, default_rng, SeedSequence and the legacy global
    functions alike."""
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "numpy"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.startswith("numpy.random"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.startswith("numpy.random") or (
                module == "numpy" and any(a.name == "random" for a in node.names)
            ):
                yield f"from {module} import ..."
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in aliases
            and node.attr != "Generator"
        ):
            yield f"{node.value.value.id}.random.{node.attr}"


def test_generators_made_only_in_rng():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "rng.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [f"{path.name}: {use}" for use in _numpy_random_uses(tree)]
    assert offenders == []


def test_generator_check_sees_every_form():
    # the check above must not pass because it cannot see a use
    source = """
import numpy as np
import numpy.random
from numpy import random
from numpy.random import default_rng
a = np.random.default_rng(0)
b = np.random.Generator(np.random.PCG64(1))
c = np.random.normal(size=3)
def f(rng: np.random.Generator) -> None: ...
"""
    assert sorted(_numpy_random_uses(ast.parse(source))) == sorted([
        "numpy.random", "from numpy import ...", "from numpy.random import ...",
        "np.random.default_rng", "np.random.PCG64", "np.random.normal",
    ])
    rng_source = (SRC / "rng.py").read_text(encoding="utf-8")
    assert "np.random.PCG64DXSM" in _numpy_random_uses(ast.parse(rng_source))


def _cholesky_uses(tree):
    """(top-level definition, use) of every reference to a Cholesky
    factorization: any `cholesky` attribute, such as np.linalg.cholesky,
    and any import of the name."""
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "cholesky":
                yield where, ast.unparse(node)
            elif isinstance(node, ast.ImportFrom) and any(a.name == "cholesky" for a in node.names):
                yield where, f"from {node.module} import cholesky"


def test_cholesky_only_in_the_model_screen():
    uses = {
        path.name: list(_cholesky_uses(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(SRC.glob("*.py"))
    }
    offenders = [
        f"{name}: {use}" for name, found in uses.items() if name != "model.py" for _, use in found
    ]
    assert offenders == []
    assert {where for where, _ in uses["model.py"]} == {"cholesky_screen"}


def test_cholesky_check_sees_every_form():
    source = """
import numpy as np
from numpy.linalg import cholesky
def f(a):
    return np.linalg.cholesky(a)
class C:
    def g(self, a):
        return linalg.cholesky(a)
"""
    assert list(_cholesky_uses(ast.parse(source))) == [
        ("<module>", "from numpy.linalg import cholesky"),
        ("f", "np.linalg.cholesky"),
        ("C", "linalg.cholesky"),
    ]


def _unread_parameters(tree):
    """(function, parameter) of every parameter, self and *args alike, that
    its function's body never reads; a read in a nested function or lambda
    counts."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            yield from ((name, p.arg) for p in params if p.arg not in read)


#: unread parameters kept on purpose, with the reason
UNREAD_ALLOWED = {
    "bounds.py: monte_carlo_violation_rate(batch)": "bench/workloads.py passes it",
}


def test_every_parameter_is_read():
    found = {
        f"{path.name}: {function}({param})"
        for path in sorted(SRC.glob("*.py"))
        for function, param in _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set(UNREAD_ALLOWED)


def test_unread_parameter_check_sees_every_form():
    source = """
def f(a, b, *args, c, d=1, **kw):
    return a + c
def g(x, y):
    def inner(z):
        return y
    return inner
class C:
    def m(self, cfg):
        return self
h = lambda u, v: u
"""
    assert sorted(_unread_parameters(ast.parse(source))) == sorted([
        ("f", "b"), ("f", "args"), ("f", "d"), ("f", "kw"),
        ("g", "x"), ("inner", "z"), ("m", "cfg"), ("<lambda>", "v"),
    ])


def _round_streams(tree):
    """Every substream(...) call keyed on a run's seed (its first argument
    an `.rng_seed` attribute, such as cfg.rng_seed): the streams of a
    trajectory's rounds."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        key = node.args[0]
        if name == "substream" and isinstance(key, ast.Attribute) and key.attr == "rng_seed":
            yield ast.unparse(node)


def test_round_streams_built_only_in_the_rounds():
    offenders, seen = [], {}
    for path in sorted(SRC.glob("*.py")):
        calls = list(_round_streams(ast.parse(path.read_text(encoding="utf-8"))))
        if path.name in ("em.py", "sem.py"):
            seen[path.name] = calls
        else:
            offenders += [f"{path.name}: {call}" for call in calls]
    assert offenders == []
    # the check sees the round bodies' own streams: EM's repair stream and
    # SEM's sampling and repair streams
    assert seen == {
        "em.py": ["substream(cfg.rng_seed, t, 2)"],
        "sem.py": ["substream(cfg.rng_seed, t, 0)", "substream(cfg.rng_seed, t, 1)"],
    }


def _boundary_paths():
    """(module, attribute) of every span boundary of bench/tracing.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return [(b.module, b.attr) for b in tracing.BOUNDARIES] + [tracing.MAP_RUNS[1:]]


def test_bench_span_boundaries_resolve():
    # the tracer skips a boundary the library no longer defines, so a rename
    # would silently drop its span from every per-layer figure
    missing = []
    for module, attr in _boundary_paths():
        obj = importlib.import_module(module) if module.startswith("semgmm.") else None
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj) or not obj.__module__.startswith("semgmm"):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_bench_span_boundaries_bound_to_one_object():
    # the tracer patches every module that binds a boundary's own object:
    # a module binding its name to another object would escape the patch
    modules = [semgmm] + [importlib.import_module(f"semgmm.{name}") for name in MODULES]
    split = []
    for module, attr in _boundary_paths():
        name = attr.split(".")[0]
        original = getattr(importlib.import_module(module), name)
        split += [
            f"{m.__name__}.{name}" for m in modules
            if getattr(m, name, original) is not original
        ]
    assert split == []
