"""Exception hierarchy shared across the network components."""


class DnasError(Exception):
    """Base class for every error raised by this package."""


class EncodingError(DnasError):
    """Malformed or empty input to a canonical encoding routine."""


class RejectedSeedError(DnasError):
    """Key seed maps to scalar 0 or a value at or beyond the curve order."""


class InvalidKeyError(DnasError):
    """Public key material does not describe a point on the curve."""


class RecoveryError(DnasError):
    """Signature cannot be resolved to a unique signer address."""


class MacError(DnasError):
    """Keystore MAC check failed; wrong password or corrupted file."""


class AuthError(DnasError):
    """Vault, contract or service authentication / authorization failure."""


class NotFoundError(DnasError):
    """Requested item does not exist in the queried component."""


class MembershipError(DnasError):
    """Caller is not a member of the private storage network."""


class CapacityError(DnasError):
    """Payload exceeds the tag's usable memory."""


class TagLockedError(DnasError):
    """Password-protected tag accessed with a wrong or missing password."""


class TagStateError(DnasError):
    """Tag operation invalid in the tag's current state."""


class RoleError(DnasError):
    """Caller's consortium role does not permit the operation."""


class ConfigError(DnasError):
    """Invalid genesis or scenario configuration."""


class PoolError(DnasError):
    """Transaction rejected at pool admission."""


class SealError(DnasError):
    """Block sealing attempt rejected (out of turn, too early, or non-validator)."""


class ContractError(DnasError):
    """Contract method returned its error branch; carries the on-chain message."""


class ProxyError(DnasError):
    """Proxy upgrade refused: an unknown or an already claimed version."""


class FlowError(DnasError):
    """A staged service flow aborted; carries the failing stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class ScenarioError(DnasError):
    """Scenario file failed to parse or validate."""
