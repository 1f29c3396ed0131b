"""Mutation check of guards: would any tier-1 test notice a guard's loss?

    python tests/mutate_guards.py [src/dnas/ledger.py:378 src/dnas/tags.py:32 ...]
    python tests/mutate_guards.py --changed REV

For each ``path:line`` (relative to the repository root) it takes a copy of
the tree, sets the test of the ``if`` or ``elif`` starting on that line to
``False``, runs the tier-1 suite in the copy with ``-x -q``, the mutated
module's own test file first, and prints one line: the guard, ``killed`` and
the first failing test (``timed out`` for a run past ``TIME_LIMIT_S``), or
``survived``. With no arguments it checks every guard in ``src/dnas``: each
``if`` or ``elif`` whose body starts with a ``raise`` or a ``return``. With
``--changed REV`` it checks only the guards whose test lies, at least in
part, on a line that ``git diff -U0 REV -- src/dnas`` adds. The working tree
is never edited; the copy lives in a temporary directory (``TMPDIR`` chooses
where), which a SIGTERM removes too, after it kills the suite's run. Exits 1
if any guard survived. Standard library only, and pytest does not collect
this file.
"""

import argparse
import ast
import os
import re
import shutil
import signal
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


def guards(changed=None):
    """``path:line`` of every guard in ``src/dnas``, in file and line order; with
    ``changed`` (path -> line numbers), only the guards whose test spans one."""
    for path in sorted((ROOT / "src" / "dnas").glob("*.py")):
        name = str(path.relative_to(ROOT))
        tests = sorted((node.lineno, range(node.test.lineno, node.test.end_lineno + 1))
                       for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.If)
                       and isinstance(node.body[0], (ast.Raise, ast.Return)))
        yield from (f"{name}:{line}" for line, span in tests
                    if changed is None or not changed.get(name, set()).isdisjoint(span))


def added_lines(diff: str):
    """``path -> line numbers`` that a ``git diff -U0`` text adds, numbered as
    in the new file; a deleted file adds none. A hunk's body is skipped by
    its header's counts, so no removed or added line is read as a header."""
    added, path, body = {}, None, 0
    for text in diff.splitlines():
        if text.startswith("\\"):  # "\ No newline at end of file"
            continue
        if body:
            body -= 1
        elif text.startswith("+++ "):
            path = text[len("+++ b/"):] if text.startswith("+++ b/") else None
        elif hunk := re.match(r"@@ -\d+(?:,(\d+))? \+(\d+)(?:,(\d+))? @@", text):
            removed, start, count = int(hunk[1] or 1), int(hunk[2]), int(hunk[3] or 1)
            body = removed + count
            if path is not None:
                added.setdefault(path, set()).update(range(start, start + count))
    return added


def changed_guards(rev: str):
    """The guards whose test spans a line the working tree adds to ``src/dnas`` since ``rev``."""
    diff = subprocess.run(["git", "diff", "-U0", "--no-color", "--dst-prefix=b/", rev, "--",
                           "src/dnas"], cwd=ROOT, capture_output=True, text=True, check=True)
    return list(guards(added_lines(diff.stdout)))


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
    for spec in specs:
        path, _, line = spec.rpartition(":")
        source = (ROOT / path).read_text()
        targets.append((spec, path, source, mutated(source, int(line))))
    if not targets:
        print("no guards to check", flush=True)
        return 0
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


def _terminated(signum, frame):
    # unwinds through subprocess.run, which kills the suite's run, and
    # through TemporaryDirectory, which removes the tree's copy
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description="Would any tier-1 test notice a guard's loss?")
    parser.add_argument("guards", nargs="*", metavar="PATH:LINE")
    parser.add_argument("--changed", metavar="REV",
                        help="only the guards on lines added to src/dnas since REV")
    args = parser.parse_args()
    if args.changed and args.guards:
        parser.error("give guards or --changed, not both")
    sys.exit(main(changed_guards(args.changed) if args.changed else args.guards or guards()))
