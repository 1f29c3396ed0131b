import random

import pytest

from dnas.errors import AuthError, NotFoundError
from dnas.vault import Vault, secret_path


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def vault(clock):
    rng = random.Random(3)
    return Vault(clock=clock, token_source=lambda: rng.randbytes(16).hex())


def test_expired_token_rejected(vault, clock):
    token = vault.issue_token(["dnas/member1/"], lease_seconds=60)
    clock.now = 59
    vault.put(token, "dnas/member1/nodekey", "k1")
    clock.now = 60
    with pytest.raises(AuthError, match="lease expired"):
        vault.get(token, "dnas/member1/nodekey")


def test_reauthentication_after_lease(vault, clock):
    # a fresh token reads what an expired one wrote
    token = vault.issue_token(["dnas/member1/"], lease_seconds=60)
    vault.put(token, "dnas/member1/nodekey", "k1")
    clock.now = 100
    fresh = vault.issue_token(["dnas/member1/"], lease_seconds=60)
    assert fresh != token
    assert vault.get(fresh, "dnas/member1/nodekey") == "k1"
    with pytest.raises(AuthError, match="lease expired"):
        vault.get(token, "dnas/member1/nodekey")


def test_an_unknown_token_is_refused(vault):
    vault.put(vault.issue_token(["dnas/"]), "dnas/member1/nodekey", "k1")
    with pytest.raises(AuthError, match="^unknown token$"):
        vault.get("ghost", "dnas/member1/nodekey")


def test_an_issued_token_carries_a_one_hour_lease(vault, clock):
    token = vault.issue_token(["dnas/member1/"])
    vault.put(token, "dnas/member1/nodekey", "k1")
    clock.now = 3599
    assert vault.get(token, "dnas/member1/nodekey") == "k1"
    clock.now = 3600
    with pytest.raises(AuthError, match="lease expired"):
        vault.get(token, "dnas/member1/nodekey")


def test_a_read_sees_the_latest_write(vault):
    token = vault.issue_token(["dnas/member42/"])
    vault.put(token, "dnas/member42/nodekey", b"k")
    assert vault.get(token, "dnas/member42/nodekey") == b"k"
    vault.put(token, "dnas/member42/nodekey", b"k2")
    assert vault.get(token, "dnas/member42/nodekey") == b"k2"


def test_get_unknown_key(vault):
    token = vault.issue_token(["dnas/"])
    with pytest.raises(NotFoundError):
        vault.get(token, "dnas/member42/missing")


def test_policy_matrix_over_member_prefixes(vault):
    # every member's token may touch exactly its own prefix
    members = [f"member{i}" for i in range(5)]
    tokens = {}
    for m in members:
        tokens[m] = vault.issue_token([f"dnas/{m}/"])
        vault.put(tokens[m], secret_path(m, "nodekey"), f"key-of-{m}")
    for owner in members:
        for target in members:
            if owner == target:
                assert vault.get(tokens[owner], secret_path(target, "nodekey")) == f"key-of-{target}"
            else:
                with pytest.raises(AuthError, match="policies do not cover"):
                    vault.get(tokens[owner], secret_path(target, "nodekey"))


def test_prefix_must_match_segment_boundary(vault):
    token = vault.issue_token(["dnas/member1/"])
    with pytest.raises(AuthError):
        vault.put(token, "dnas/member10/nodekey", "sneaky")
