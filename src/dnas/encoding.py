"""Canonical byte serialization shared across storage, chain, and records.

Field-name-sorted JSON with no insignificant whitespace: the same logical
value always maps to the same bytes, which is what content addressing and
state-root agreement rely on.
"""

import json
from typing import Any


def canonical_json_bytes(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")

