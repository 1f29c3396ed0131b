"""In-process secrets vault with approle login and operator-issued tokens.

Models the contract of an external vault product: leased tokens, approle
login constraints, and path-prefix policies over a plain key-value store.
Its owner supplies the clock and the token source. Like the rest of the
package it is single-threaded, so it takes no lock, and a deep copy of its
owner copies it whole.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .errors import AuthError, NotFoundError

VAULT_PREFIX_KEY = "dnas"


@dataclass
class _TokenRecord:
    policies: Tuple[str, ...]
    lease_expiry: Optional[float]  # None: never expires (root tokens)


@dataclass
class _AppRole:
    secret_id: str
    policies: Tuple[str, ...]
    lease_seconds: float


def secret_path(member_id: str, name: str) -> str:
    """Conventional secret layout: <prefix>/<memberID>/<name>."""
    return f"{VAULT_PREFIX_KEY}/{member_id}/{name}"


class Vault:
    """Secret store guarded by leased sessions."""

    def __init__(self, clock: Callable[[], float], token_source: Callable[[], str]):
        self._clock = clock
        self._new_token = token_source
        self._tokens: Dict[str, _TokenRecord] = {}
        self._approles: Dict[str, _AppRole] = {}
        self._secrets: Dict[str, object] = {}

    # -- provisioning (vault operator surface) --------------------------------

    def issue_token(self, policies: List[str], lease_seconds: Optional[float] = None) -> str:
        token = self._new_token()
        expiry = self._clock() + lease_seconds if lease_seconds is not None else None
        self._tokens[token] = _TokenRecord(tuple(policies), expiry)
        return token

    def create_approle(self, policies: List[str], lease_seconds: float = 3600.0) -> Tuple[str, str]:
        """Registers an approle; returns the (role_id, secret_id) pair."""
        role_id = self._new_token()
        secret_id = self._new_token()
        self._approles[role_id] = _AppRole(secret_id, tuple(policies), lease_seconds)
        return role_id, secret_id

    # -- client surface --------------------------------------------------------

    def login(self, role_id: str, secret_id: str) -> str:
        """Approle login; returns a session token with a live lease."""
        role = self._approles.get(role_id)
        if role is None:
            raise AuthError("unknown role_id")
        if role.secret_id != secret_id:
            raise AuthError("secret_id mismatch")
        return self.issue_token(list(role.policies), role.lease_seconds)

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
        if record.lease_expiry is not None and self._clock() >= record.lease_expiry:
            raise AuthError("token lease expired; reauthentication needed")
        for prefix in record.policies:
            if key == prefix or key.startswith(prefix.rstrip("/") + "/"):
                return
        raise AuthError(f"token policies do not cover {key!r}")
