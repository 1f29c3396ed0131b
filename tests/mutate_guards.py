"""Mutation check of guards: would any tier-1 test notice a guard's loss?

    python tests/mutate_guards.py [src/dnas/ledger.py:378 src/dnas/tags.py:32 ...]

For each ``path:line`` (relative to the repository root) it takes a copy of
the tree, sets the test of the ``if`` or ``elif`` starting on that line to
``False``, runs the tier-1 suite in the copy with ``-x -q``, the mutated
module's own test file first, and prints one line: the guard, ``killed`` and
the first failing test (``timed out`` for a run past ``TIME_LIMIT_S``), or
``survived``. With no arguments it checks every guard in ``src/dnas``: each
``if`` or ``elif`` whose body starts with a ``raise`` or a ``return``. The
working tree is never edited; the copy lives in a temporary directory
(``TMPDIR`` chooses where). Exits 1 if any guard survived. Standard library
only, and pytest does not collect this file.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 600  # per mutant; the whole suite takes about two minutes
_SKIP = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}


def _ignore(directory: str, names):
    return [n for n in names if n in _SKIP or n.endswith(".egg-info")
            or (n == "out" and Path(directory).name == "bench")]


def guards():
    """``path:line`` of every guard in ``src/dnas``, in file and line order."""
    for path in sorted((ROOT / "src" / "dnas").glob("*.py")):
        lines = sorted(node.lineno for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.If)
                       and isinstance(node.body[0], (ast.Raise, ast.Return)))
        yield from (f"{path.relative_to(ROOT)}:{line}" for line in lines)


def mutated(source: str, line: int) -> str:
    """``source`` with the test of the ``if`` starting on ``line`` replaced by ``False``."""
    guards = [node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.If) and node.lineno == line]
    if len(guards) != 1:
        raise SystemExit(f"line {line}: no if statement starts there")
    test = guards[0].test
    data = source.encode()  # ast offsets count UTF-8 bytes
    starts = [0]
    for text in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(text))
    begin = starts[test.lineno - 1] + test.col_offset
    end = starts[test.end_lineno - 1] + test.end_col_offset
    return (data[:begin] + b"False" + data[end:]).decode()


def run_suite(tree: Path, module: str):
    """The suite's run in ``tree``, ``module``'s test file first; None past the time limit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    files = sorted(p.name for p in (tree / "tests").glob("test_*.py"))
    files.sort(key=lambda name: name != f"test_{module}.py")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", *(f"tests/{name}" for name in files)],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:  # the child is killed: a mutant that loops
        return None


def main(specs) -> int:
    targets = []
    for spec in specs or guards():
        path, _, line = spec.rpartition(":")
        source = (ROOT / path).read_text()
        targets.append((spec, path, source, mutated(source, int(line))))
    survivors = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=_ignore)
        for spec, path, source, mutant in targets:
            (tree / path).write_text(mutant)
            try:
                result = run_suite(tree, Path(path).stem)
            finally:
                (tree / path).write_text(source)
            if result is None:
                print(f"{spec} killed: timed out", flush=True)
                continue
            failed = [text for text in result.stdout.splitlines()
                      if text.startswith(("FAILED ", "ERROR "))]
            if result.returncode == 0:
                survivors += 1
                print(f"{spec} survived", flush=True)
            else:
                first = failed[0].split(" - ")[0] if failed else f"pytest exit {result.returncode}"
                print(f"{spec} killed: {first}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
