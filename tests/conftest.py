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
