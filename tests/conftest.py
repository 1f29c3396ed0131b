import copy
import sys
from collections import Counter

import pytest

from dnas import secp256k1, simnet
from dnas.service import BlockchainService, Consortium

_TEMPLATES = {}  # repr of the constructor arguments -> the consortium built with them


def built_consortium(**kwargs):
    """A deep copy of the one ``Consortium(**kwargs)`` built in this session.
    A build encrypts and decrypts every member's keystore with scrypt, about
    0.7 s for five members; a copy takes milliseconds and equals a fresh build."""
    key = repr(sorted(kwargs.items()))
    if key not in _TEMPLATES:
        _TEMPLATES[key] = Consortium(**kwargs)
    return copy.deepcopy(_TEMPLATES[key])


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "fresh_builds: scenario runs build their consortia from scratch, "
        "for tests whose subject is that independent builds agree")


@pytest.fixture(autouse=True)
def copied_consortia(request, monkeypatch):
    """Every scenario run starts from a copied template unless the test is
    marked ``fresh_builds``."""
    if request.node.get_closest_marker("fresh_builds") is None:
        monkeypatch.setattr(simnet, "Consortium", built_consortium)


@pytest.fixture
def flow_statuses(monkeypatch):
    """``(flows, statuses)``: every create flow the test starts, and after
    each ``Consortium.tick`` the status of each, keyed by that tick."""
    flows, statuses = [], {}
    create, tick = BlockchainService.create_record_flow, Consortium.tick

    def observed_create(self, *args):
        flows.append(create(self, *args))
        return flows[-1]

    def observed_tick(self, now, operations=()):
        tick(self, now, operations)
        statuses[now] = [flow.status for flow in flows]

    monkeypatch.setattr(BlockchainService, "create_record_flow", observed_create)
    monkeypatch.setattr(Consortium, "tick", observed_tick)
    return flows, statuses


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
