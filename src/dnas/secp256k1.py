"""secp256k1 ECDSA with public-key recovery and deterministic nonces.

Jacobian-coordinate arithmetic. The generator G and every known signer key Q
are fixed bases, multiplied with signed fixed-window tables (Hankerson,
Menezes and Vanstone, Guide to ECC, Alg. 3.41): a scalar is recoded into
signed base-64 digits, row i of the base's table holds the multiples
(j + 1) * 64**i of it that digit i can name, and each digit costs one mixed
addition and no doubling. G's table is built at import and a key's once
(``key_tables``, 1,376 points). Signing takes k*G from G's table; verifying
against a known key (SEC 1 v2, 4.1.4) sums u1*G and u2*Q from the two.
Recovery's R is fresh, so u2*R builds only the first row of R's table and
walks the same signed digits from the most significant, with six doublings
per digit (one chain of about 256); u1*G comes from G's table. Nonces follow
the RFC 6979 HMAC-SHA256 construction so signatures are reproducible;
produced signatures are canonical (low-s) and recovery and verification
reject non-canonical input.
"""

import hmac
import hashlib
import secrets
from typing import Iterator, List, Optional, Tuple

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


def _inverses(values: List[int]) -> List[int]:
    """Inverses mod P of nonzero values, with one inversion for all
    (Montgomery's trick)."""
    prefix = [1]
    for value in values:
        prefix.append(prefix[-1] * value % P)
    inv = pow(prefix[-1], -1, P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % P
        inv = inv * values[i] % P
    return out


def _affine_all(points: List[_Jac]) -> List[Point]:
    """Affine forms of finite Jacobian points, with one inversion for all."""
    out = []
    for (x, y, _), zinv in zip(points, _inverses([z for _, _, z in points])):
        zinv2 = zinv * zinv % P
        out.append((x * zinv2 % P, y * zinv2 * zinv % P))
    return out


# Signed fixed-window digits lie in [-2**(_WINDOW - 1), 2**(_WINDOW - 1)]; a
# negative digit carries one into the next window, so a scalar below N can
# need 257 bits of windows.
_WINDOW = 6
_ROWS = -(-257 // _WINDOW)
KeyTable = List[List[Point]]


def _grow_rows(firsts: List[_Jac]) -> KeyTable:
    """Rows [b, 2b, ..., 2**(_WINDOW - 1) * b] from the Jacobian b and 2b of
    each row, listed row after row. The other columns grow all rows together
    in affine form, with one inversion per column."""
    flat = _affine_all(firsts)
    rows = [flat[i:i + 2] for i in range(0, len(flat), 2)]
    for _ in range(2, 1 << (_WINDOW - 1)):
        for row, inv in zip(rows, _inverses([row[-1][0] - row[0][0] for row in rows])):
            (x1, y1), (x2, y2) = row[-1], row[0]
            lam = (y1 - y2) * inv % P
            x3 = (lam * lam - x1 - x2) % P
            row.append((x3, (lam * (x1 - x3) - y1) % P))
    return rows


def key_tables(point: Point) -> KeyTable:
    """rows[i][j] == (j + 1) * 2**(_WINDOW * i) * point, built once per key.
    One doubling chain gives each row's b and 2b."""
    jac: List[_Jac] = []
    acc = (point[0], point[1], 1)
    for _ in range(_ROWS):
        twice = _jdouble(acc)
        jac += (acc, twice)
        for _ in range(_WINDOW - 1):
            twice = _jdouble(twice)
        acc = twice
    return _grow_rows(jac)


_G_ROWS = key_tables((GX, GY))


def _signed_digits(k: int) -> List[int]:
    """k in signed base-2**_WINDOW digits, least significant first: a digit d
    above 2**(_WINDOW - 1) becomes d - 2**_WINDOW and carries one."""
    digits = []
    while k:
        d = k & ((1 << _WINDOW) - 1)
        k >>= _WINDOW
        if d > 1 << (_WINDOW - 1):
            d -= 1 << _WINDOW
            k += 1
        digits.append(d)
    return digits


def _mul_fixed(k: int, rows: KeyTable, acc: _Jac = _INFINITY) -> _Jac:
    """acc + k * point for 0 <= k < N, with ``rows`` the point's ``key_tables``:
    one mixed addition per nonzero digit and no doubling."""
    for row, d in zip(rows, _signed_digits(k)):
        if d:
            x, y = row[abs(d) - 1]
            acc = _jadd_affine(acc, x, y if d > 0 else P - y)
    return acc


def _mul_fresh(k: int, point: Point) -> _Jac:
    """k * point for 0 <= k < N and a point with no table: the first row of
    its ``key_tables`` alone, and _WINDOW doublings per digit from the most
    significant."""
    jac = (point[0], point[1], 1)
    row, = _grow_rows([jac, _jdouble(jac)])
    acc = _INFINITY
    for d in reversed(_signed_digits(k)):
        for _ in range(_WINDOW):
            acc = _jdouble(acc)
        if d:
            x, y = row[abs(d) - 1]
            acc = _jadd_affine(acc, x, y if d > 0 else P - y)
    return acc


def multiply_generator(k: int) -> Point:
    """k * G in affine coordinates; k is reduced mod N and must not vanish."""
    pt = _to_affine(_mul_fixed(k % N, _G_ROWS))
    if pt is None:
        raise ValueError("scalar is zero modulo the curve order")
    return pt


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
        rx, ry = _to_affine(_mul_fixed(k, _G_ROWS))
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
    point = _to_affine(_mul_fixed(u1, _G_ROWS, _mul_fresh(u2, big_r)))
    if point is None:
        raise RecoveryError("recovery produced the point at infinity")
    return point


def verify(digest: bytes, v: int, r: int, s: int, tables: KeyTable) -> bool:
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
    u2q = _mul_fixed(r * sinv % N, tables)
    point = _to_affine(_mul_fixed(int.from_bytes(digest, "big") * sinv % N, _G_ROWS, u2q))
    if point is not None and point[0] == r and point[1] & 1 == v:
        return True
    _lift_x(r, v)  # a match proves that r lifts; only a refusal pays for the check
    return False
