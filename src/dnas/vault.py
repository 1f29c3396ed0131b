"""In-process secrets vault with operator-issued, leased tokens.

Models the contract of an external vault product: each token carries a lease
and path-prefix policies over a plain key-value store. The consortium issues
each member one token scoped to the member's own path. Its owner supplies
the clock and the token source. Like the rest of the package it is
single-threaded, so it takes no lock, and a deep copy of its owner copies it
whole.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .errors import AuthError, NotFoundError

VAULT_PREFIX_KEY = "dnas"


@dataclass
class _TokenRecord:
    policies: Tuple[str, ...]
    lease_expiry: float


def secret_path(member_id: str, name: str) -> str:
    """Conventional secret layout: <prefix>/<memberID>/<name>."""
    return f"{VAULT_PREFIX_KEY}/{member_id}/{name}"


class Vault:
    """Secret store guarded by leased sessions."""

    def __init__(self, clock: Callable[[], float], token_source: Callable[[], str]):
        self._clock = clock
        self._new_token = token_source
        self._tokens: Dict[str, _TokenRecord] = {}
        self._secrets: Dict[str, object] = {}

    # -- provisioning (vault operator surface) --------------------------------

    def issue_token(self, policies: List[str], lease_seconds: float = 3600.0) -> str:
        token = self._new_token()
        self._tokens[token] = _TokenRecord(tuple(policies), self._clock() + lease_seconds)
        return token

    # -- client surface --------------------------------------------------------

    def put(self, session: str, key: str, value: object) -> None:
        self._authorize(session, key)
        self._secrets[key] = value

    def get(self, session: str, key: str) -> object:
        self._authorize(session, key)
        if key not in self._secrets:
            raise NotFoundError(f"no secret at {key!r}")
        return self._secrets[key]

    # -- internals --------------------------------------------------------------

    def _authorize(self, session: str, key: str) -> None:
        record = self._tokens.get(session)
        if record is None:
            raise AuthError("unknown token")
        if self._clock() >= record.lease_expiry:
            raise AuthError("token lease expired; reauthentication needed")
        for prefix in record.policies:
            if key == prefix or key.startswith(prefix.rstrip("/") + "/"):
                return
        raise AuthError(f"token policies do not cover {key!r}")
