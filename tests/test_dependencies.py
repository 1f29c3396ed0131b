"""The runtime has no third-party dependencies: every import in the package
is relative or names a standard-library module. Its only randomness and
time are the consortium's seeded rng and simulated clock, it runs on one
thread, and a built consortium is a value that ``copy.deepcopy`` copies
faithfully."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dnas").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    outside = sorted({name for name in _absolute_imports(path)
                      if name.partition(".")[0] not in sys.stdlib_module_names})
    assert outside == []


def _memo_decorators(path):
    """Names of ``functools.cache`` / ``lru_cache`` decorators in one source."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(
                    target, "id", None)
                if name in ("cache", "lru_cache"):
                    yield f"{node.name}: @{ast.unparse(decorator)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_memo_decorators(path):
    """Memos live on the runtime or the service that owns them: a process-wide
    ``functools`` cache would be shared by every consortium in the process and
    never shrink."""
    assert list(_memo_decorators(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_wall_clock_or_unseeded_randomness(path):
    assert {"secrets", "time"} & set(_absolute_imports(path)) == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_threads(path):
    """The package is single-threaded: it starts no thread and keeps no lock,
    so a lock would protect nothing and stop a deep copy."""
    assert "threading" not in set(_absolute_imports(path))


def _closures_over_self(path):
    """Lambdas that read a ``self`` they do not bind: a deep copy keeps such
    a lambda pointing at the original object, where a bound method follows
    the copy."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Lambda):
            bound = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            read = {n.id for n in ast.walk(node.body) if isinstance(n, ast.Name)}
            if "self" in read - bound:
                yield f"line {node.lineno}: {ast.unparse(node)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_lambda_closes_over_self(path):
    assert list(_closures_over_self(path)) == []
