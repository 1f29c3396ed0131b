"""Canonical byte serialization shared across storage, chain, and records.

Field-name-sorted JSON with no insignificant whitespace: the same logical
value always maps to the same bytes, which is what content addressing and
state-root agreement rely on.
"""

import json
from typing import Any

from .errors import EncodingError


def canonical_json_bytes(value: Any) -> bytes:
    """``EncodingError`` for what JSON or UTF-8 cannot encode, such as a set, a
    lone surrogate, or a NaN or infinite float (no JSON number spells one)."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False, allow_nan=False).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:  # UnicodeEncodeError is a ValueError
        raise EncodingError(f"value has no canonical encoding: {exc}") from exc

