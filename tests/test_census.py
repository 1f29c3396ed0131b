"""The product is what the command line reaches.

One pass of ``dnas`` over its surface runs under ``sys.setprofile``: the
scenario list, each bundled scenario with its report and notification log
written out, a replay check, and a block and a transaction query. Every
``def`` in ``src/dnas`` that no pass calls must be on ``ALLOWED`` with the
reason it stays; an entry that a pass does reach, or that no longer exists,
must leave the list.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import dnas
from dnas import cli

PACKAGE = Path(dnas.__file__).resolve().parent

pytestmark = pytest.mark.fresh_builds  # the pass must reach the constructor itself

ALLOWED = {  # function -> why it stays with no product caller
    "ledger.Chain.apply_block":
        "a replica's block import; it gets its caller once each validator keeps a replica",
    "ledger.SignedTransaction.digest":
        "derives the digest of any transaction that sign_transaction did not build",
    "content_store.PrivateNetwork.holders":
        "a read view the hand-over and replication tests use as their oracle",
}


def package_functions():
    """``(file, first line) -> dotted name`` of every def in the package. The
    first line is a decorated function's first decorator, as in its code object."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def dnas_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == cli.EXIT_OK, (argv, out.getvalue())
    return out.getvalue()


def command_line_pass(tmp_path):
    for name in dnas_main("scenarios").split():
        dnas_main("run", name, "--out", str(tmp_path / f"{name}.json"),
                  "--notifications-out", str(tmp_path / f"{name}.ndjson"))
    dnas_main("replay-check", "happy_path", "--runs", "2")
    block = json.loads(dnas_main("query", "block", "1"))
    dnas_main("query", "tx", block["transactions"][0]["tx_hash"])


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        command_line_pass(tmp_path_factory.mktemp("census"))
    finally:
        sys.setprofile(previous)
    # a code object's file name is the path it was imported by, maybe relative
    reached = {(str(Path(file).resolve()), line) for file, line in reached}
    functions = package_functions()
    unreached = {name for site, name in functions.items() if site not in reached}
    return set(functions.values()), unreached


def test_only_allowed_functions_go_unreached(census):
    _, unreached = census
    assert sorted(unreached - set(ALLOWED)) == [], "no product path reaches these"


def test_allow_list_names_only_unreached_functions(census):
    functions, unreached = census
    assert sorted(set(ALLOWED) - functions) == [], "these no longer exist"
    assert sorted(set(ALLOWED) - unreached) == [], "a product path reaches these now"
