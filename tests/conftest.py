import sys
from collections import Counter

import pytest

from dnas import secp256k1


@pytest.fixture
def recoveries(monkeypatch):
    """Arguments of every ``secp256k1.recover_pubkey`` call the test makes."""
    calls = []
    original = secp256k1.recover_pubkey

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(secp256k1, "recover_pubkey", counting)
    return calls


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(enclosures, callees)`` counts each callee by its
    innermost traced enclosing function, as ``(callee, enclosure or None) ->
    calls``. ``enclosures`` are (owner, attribute) pairs; ``callees`` are
    (name, function) pairs, each patched at every binding in ``dnas``,
    wherever it was imported."""
    inside, calls = [], Counter()

    def enclosing(name, fn):
        def wrapped(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name, inside[-1] if inside else None] += 1
            return fn(*args, **kwargs)
        return wrapped

    def count(enclosures, callees):
        for owner, name in enclosures:
            monkeypatch.setattr(owner, name, enclosing(name, getattr(owner, name)))
        for name, fn in callees:
            for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "dnas"]:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
        return calls

    return count
