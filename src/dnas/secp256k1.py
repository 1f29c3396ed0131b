"""secp256k1 ECDSA with public-key recovery and deterministic nonces.

Jacobian-coordinate arithmetic with a lazily built fixed-base window table
for generator multiplications. Nonces follow the RFC 6979 HMAC-SHA256
construction so signatures are reproducible; produced signatures are
canonical (low-s) and recovery rejects non-canonical input.
"""

import hmac
import hashlib
import secrets
from typing import Iterator, Optional, Tuple

from .errors import RecoveryError, RejectedSeedError

# Curve parameters from SEC 2: y^2 = x^3 + 7 over F_P, generator order N.
P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

HALF_N = N // 2

Point = Tuple[int, int]
_Jac = Tuple[int, int, int]

_INFINITY: _Jac = (0, 1, 0)


def _jdouble(pt: _Jac) -> _Jac:
    x1, y1, z1 = pt
    if not y1 or not z1:
        return _INFINITY
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = b * b % P
    t = x1 + b
    d = 2 * (t * t - a - c) % P
    e = 3 * a % P
    f = e * e % P
    x3 = (f - 2 * d) % P
    y3 = (e * (d - x3) - 8 * c) % P
    z3 = 2 * y1 * z1 % P
    return x3, y3, z3


def _jadd(p1: _Jac, p2: _Jac) -> _Jac:
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if not z1:
        return p2
    if not z2:
        return p1
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 * z2z2 % P
    s2 = y2 * z1 * z1z1 % P
    if u1 == u2:
        if (s1 - s2) % P:
            return _INFINITY
        return _jdouble(p1)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * s1 * j) % P
    t = z1 + z2
    z3 = (t * t - z1z1 - z2z2) * h % P
    return x3, y3, z3


def _jadd_affine(p1: _Jac, x2: int, y2: int) -> _Jac:
    """Mixed addition with an affine second operand (z2 == 1)."""
    x1, y1, z1 = p1
    if not z1:
        return x2, y2, 1
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 * z1z1 % P
    if x1 == u2:
        if (y1 - s2) % P:
            return _INFINITY
        return _jdouble(p1)
    h = (u2 - x1) % P
    hh = h * h % P
    i = 4 * hh % P
    j = h * i % P
    r = 2 * (s2 - y1) % P
    v = x1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * y1 * j) % P
    t = z1 + h
    z3 = (t * t - z1z1 - hh) % P
    return x3, y3, z3


def _to_affine(pt: _Jac) -> Optional[Point]:
    x, y, z = pt
    if not z:
        return None
    zinv = pow(z, -1, P)
    zinv2 = zinv * zinv % P
    return x * zinv2 % P, y * zinv2 * zinv % P


def is_on_curve(point: Point) -> bool:
    x, y = point
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x + 7)) % P == 0


# Fixed-base table: 64 windows of 4 bits, 15 multiples each. Built lazily on
# first use and published with a single atomic rebind, so concurrent callers
# see either no table or the whole one.
_WINDOW = 4
_G_TABLE: Tuple[Tuple[Point, ...], ...] = ()


def _build_g_table() -> Tuple[Tuple[Point, ...], ...]:
    global _G_TABLE
    if _G_TABLE:
        return _G_TABLE
    table = []
    base: Point = (GX, GY)
    for _ in range(256 // _WINDOW):
        row = []
        acc: _Jac = (base[0], base[1], 1)
        for _ in range(15):
            row.append(_to_affine(acc))
            acc = _jadd_affine(acc, base[0], base[1])
        table.append(tuple(row))
        base = _to_affine(acc)  # 16 * previous base
    _G_TABLE = tuple(table)
    return _G_TABLE


def _mul_g_jac(k: int) -> _Jac:
    table = _G_TABLE or _build_g_table()
    k %= N
    acc = _INFINITY
    w = 0
    while k:
        d = k & 15
        if d:
            px, py = table[w][d - 1]
            acc = _jadd_affine(acc, px, py)
        k >>= 4
        w += 1
    return acc


def _mul_point_jac(k: int, point: Point) -> _Jac:
    """Left-to-right double-and-add with a 4-bit window of multiples."""
    k %= N
    if k == 0:
        return _INFINITY
    base: _Jac = (point[0], point[1], 1)
    multiples = [base]
    for _ in range(14):
        multiples.append(_jadd_affine(multiples[-1], point[0], point[1]))
    digits = []
    while k:
        digits.append(k & 15)
        k >>= 4
    acc = _INFINITY
    for d in reversed(digits):
        acc = _jdouble(_jdouble(_jdouble(_jdouble(acc))))
        if d:
            acc = _jadd(acc, multiples[d - 1])
    return acc


def multiply_generator(k: int) -> Point:
    """k * G in affine coordinates; k is reduced mod N and must not vanish."""
    pt = _to_affine(_mul_g_jac(k))
    if pt is None:
        raise ValueError("scalar is zero modulo the curve order")
    return pt


def point_add(p1: Optional[Point], p2: Optional[Point]) -> Optional[Point]:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return _to_affine(_jadd_affine((p1[0], p1[1], 1), p2[0], p2[1]))


def scalar_from_seed(seed: bytes) -> int:
    """Interpret 32 seed bytes as a secret scalar, rejecting 0 and >= N."""
    if len(seed) != 32:
        raise RejectedSeedError(f"seed must be 32 bytes, got {len(seed)}")
    scalar = int.from_bytes(seed, "big")
    if scalar == 0 or scalar >= N:
        raise RejectedSeedError("seed maps outside [1, n-1]")
    return scalar


def random_scalar() -> int:
    return secrets.randbelow(N - 1) + 1


def _nonce_candidates(secret: int, digest: bytes) -> Iterator[int]:
    """RFC 6979 deterministic nonce stream for (secret, digest)."""
    bx = secret.to_bytes(32, "big") + (int.from_bytes(digest, "big") % N).to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + bx, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + bx, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            yield candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign_digest(secret: int, digest: bytes) -> Tuple[int, int, int]:
    """Sign a 32-byte digest; returns a canonical (v, r, s) with v in {27, 28}."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    if not 1 <= secret < N:
        raise ValueError("secret scalar out of range")
    z = int.from_bytes(digest, "big")
    for k in _nonce_candidates(secret, digest):
        rx, ry = _to_affine(_mul_g_jac(k))
        if rx >= N:  # would need a recovery id beyond {0, 1}; next nonce
            continue
        r = rx
        if r == 0:
            continue
        s = pow(k, -1, N) * (z + r * secret) % N
        if s == 0:
            continue
        recid = ry & 1
        if s > HALF_N:
            s = N - s
            recid ^= 1
        return 27 + recid, r, s
    raise AssertionError("unreachable: nonce stream is infinite")


def recover_pubkey(digest: bytes, v: int, r: int, s: int) -> Point:
    """Recover the unique signer public key of a canonical signature."""
    if len(digest) != 32:
        raise RecoveryError("digest must be 32 bytes")
    if v in (27, 28):
        v -= 27
    if v not in (0, 1):
        raise RecoveryError(f"invalid recovery id {v}")
    if not 1 <= r < N:
        raise RecoveryError("r out of range")
    if not 1 <= s < N:
        raise RecoveryError("s out of range")
    if s > HALF_N:
        raise RecoveryError("non-canonical signature: s above half order")
    y_sq = (pow(r, 3, P) + 7) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if y * y % P != y_sq:
        raise RecoveryError("r is not the x-coordinate of a curve point")
    if (y & 1) != v:
        y = P - y
    z = int.from_bytes(digest, "big")
    rinv = pow(r, -1, N)
    u1 = -z * rinv % N
    u2 = s * rinv % N
    q = _jadd(_mul_g_jac(u1), _mul_point_jac(u2, (r, y)))
    point = _to_affine(q)
    if point is None:
        raise RecoveryError("recovery produced the point at infinity")
    return point
