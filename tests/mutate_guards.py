"""Mutation check of guards: would any tier-1 test notice a guard's loss?

    python tests/mutate_guards.py src/dnas/ledger.py:378 src/dnas/tags.py:32 ...

For each ``path:line`` (relative to the repository root) it takes a copy of
the tree, sets the test of the ``if`` or ``elif`` starting on that line to
``False``, runs the tier-1 suite in the copy with ``-x -q`` and prints one
line: the guard, ``killed`` and the first failing test, or ``survived``. The
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
_SKIP = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}


def _ignore(directory: str, names):
    return [n for n in names if n in _SKIP or n.endswith(".egg-info")
            or (n == "out" and Path(directory).name == "bench")]


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


def run_suite(tree: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True)


def main(specs) -> int:
    if not specs:
        print(__doc__.strip())
        return 2
    targets = []
    for spec in specs:
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
                result = run_suite(tree)
            finally:
                (tree / path).write_text(source)
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
