"""secp256k1 ECDSA with public-key recovery and deterministic nonces.

Jacobian-coordinate arithmetic with a lazily built fixed-base window table
for generator multiplications. Recovery computes u1*G + u2*R in one pass:
the endomorphism lambda*(x, y) = (beta*x, y) splits each scalar into two
halves of about 128 bits (Gallant-Lambert-Vanstone, with the lattice split of
Hankerson-Menezes-Vanstone, Guide to ECC, Alg. 3.74), and the four halves are
written as wNAF digits against odd multiples of G and lambda*G (width 8,
built at import) and of R and lambda*R (width 5, built per call), then added
along one shared chain of about 128 doublings. Verification against a known
key Q (SEC 1 v2, 4.1.4) runs the same chain for u1*G + u2*Q, with width-8
tables of Q built once per key (``key_tables``). Nonces follow the RFC 6979
HMAC-SHA256 construction so signatures are reproducible; produced signatures
are canonical (low-s) and recovery and verification reject non-canonical
input.
"""

import hmac
import hashlib
import secrets
from typing import Dict, Iterator, List, Optional, Tuple

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
    yy = y1 * y1 % P
    s = 4 * x1 * yy % P
    m = 3 * x1 * x1 % P
    x3 = (m * m - 2 * s) % P
    return x3, (m * (s - x3) - 8 * yy * yy) % P, 2 * y1 * z1 % P


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
    h = (x2 * z1z1 - x1) % P
    r = (y2 * z1 * z1z1 - y1) % P
    if not h:
        if r:
            return _INFINITY
        return _jdouble(p1)
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    return x3, (r * (v - x3) - y1 * hhh) % P, z1 * h % P


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


# Endomorphism: LAMBDA * (x, y) == (BETA * x, y) for every curve point.
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# Short basis of the lattice {(a, b): a + b * LAMBDA == 0 mod N}, for the
# rounding split of Guide to ECC, Alg. 3.74.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1


def _split_scalar(k: int) -> Tuple[int, int]:
    """(k1, k2) with k == k1 + k2 * LAMBDA (mod N) and |k1|, |k2| < 2**129."""
    c1 = (_B2 * k + HALF_N) // N
    c2 = (-_B1 * k + HALF_N) // N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(k: int, width: int) -> Iterator[Tuple[int, int]]:
    """Nonzero width-``width`` NAF digits of k as (bit position, odd digit)."""
    sign = -1 if k < 0 else 1
    k = abs(k)
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & ((1 << width) - 1)
        if d >> (width - 1):
            d -= 1 << width
        yield pos, sign * d
        k = (k - d) >> width  # exact: k - d is a multiple of 2**width
        pos += width


def _odd_multiples(point: Point, count: int) -> List[Point]:
    """(2i + 1) * point for i < count, in affine form via one batched inversion."""
    twice = _jdouble((point[0], point[1], 1))
    jac = [(point[0], point[1], 1)]
    for _ in range(count - 1):
        jac.append(_jadd(jac[-1], twice))
    prefix = [1]
    for _, _, z in jac:
        prefix.append(prefix[-1] * z % P)
    inv = pow(prefix[-1], -1, P)
    out = []
    for i in range(count - 1, -1, -1):
        x, y, z = jac[i]
        zinv = inv * prefix[i] % P
        inv = inv * z % P
        zinv2 = zinv * zinv % P
        out.append((x * zinv2 % P, y * zinv2 * zinv % P))
    out.reverse()
    return out


# Odd multiples of a point and of its lambda image, for wNAF digits of
# width w: 2**(w - 2) entries each.
KeyTables = Tuple[List[Point], List[Point]]

_G_WIDTH = 8  # the generator's tables, built at import
_KEY_WIDTH = 8  # a known key's tables, built once per key
_R_WIDTH = 5  # recovery's tables of R, built per call


def _tables(point: Point, width: int) -> KeyTables:
    odd = _odd_multiples(point, 1 << (width - 2))
    return odd, [(BETA * x % P, y) for x, y in odd]


def key_tables(point: Point) -> KeyTables:
    """Tables of a public key, built once and reused by ``verify``."""
    return _tables(point, _KEY_WIDTH)


_G_ODD, _G_ODD_LAMBDA = _tables((GX, GY), _G_WIDTH)


def _mul_joint(u1: int, u2: int, tables: KeyTables, width: int) -> _Jac:
    """u1 * G + u2 * Q along one doubling chain (GLV split, joint wNAF), with
    ``tables`` the odd multiples of Q and lambda*Q built for ``width``."""
    g1, g2 = _split_scalar(u1)
    q1, q2 = _split_scalar(u2)
    adds: Dict[int, List[Point]] = {}
    for k, table, w in ((g1, _G_ODD, _G_WIDTH), (g2, _G_ODD_LAMBDA, _G_WIDTH),
                        (q1, tables[0], width), (q2, tables[1], width)):
        for pos, d in _wnaf(k, w):
            x, y = table[abs(d) >> 1]
            adds.setdefault(pos, []).append((x, y if d > 0 else P - y))
    acc = _INFINITY
    for pos in range(max(adds, default=-1), -1, -1):
        acc = _jdouble(acc)
        for x, y in adds.get(pos, ()):
            acc = _jadd_affine(acc, x, y)
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


def _recovery_id(digest: bytes, v: int, r: int, s: int) -> int:
    """The checks every signature passes before any curve arithmetic; v as 0 or 1."""
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
    return v


def _lift_x(r: int, v: int) -> Point:
    """The curve point with x-coordinate r and y parity v."""
    y_sq = (pow(r, 3, P) + 7) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if y * y % P != y_sq:
        raise RecoveryError("r is not the x-coordinate of a curve point")
    return (r, y if (y & 1) == v else P - y)


def recover_pubkey(digest: bytes, v: int, r: int, s: int) -> Point:
    """Recover the unique signer public key of a canonical signature."""
    v = _recovery_id(digest, v, r, s)
    big_r = _lift_x(r, v)
    z = int.from_bytes(digest, "big")
    rinv = pow(r, -1, N)
    u1 = -z * rinv % N
    u2 = s * rinv % N
    point = _to_affine(_mul_joint(u1, u2, _tables(big_r, _R_WIDTH), _R_WIDTH))
    if point is None:
        raise RecoveryError("recovery produced the point at infinity")
    return point


def verify(digest: bytes, v: int, r: int, s: int, tables: KeyTables) -> bool:
    """Whether (v, r, s) recovers to the key Q whose ``key_tables`` are given.

    Recovery returns Q exactly when R' = (z/s)*G + (r/s)*Q is the point
    (r, y) whose y parity is v, so this checks that instead of recovering.
    x(R') must equal r itself, not r mod N: recovery only lifts x = r.
    A signature that recovery refuses before its scalar multiply (the input
    checks, an r that is no x-coordinate) raises the same RecoveryError here;
    one whose recovery would produce the point at infinity gives False.
    """
    v = _recovery_id(digest, v, r, s)
    sinv = pow(s, -1, N)
    point = _to_affine(_mul_joint(int.from_bytes(digest, "big") * sinv % N, r * sinv % N,
                                  tables, _KEY_WIDTH))
    if point is not None and point[0] == r and point[1] & 1 == v:
        return True
    _lift_x(r, v)  # a match proves that r lifts; only a refusal pays for the check
    return False
