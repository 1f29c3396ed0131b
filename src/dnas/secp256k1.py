"""secp256k1 ECDSA with public-key recovery and deterministic nonces.

Jacobian-coordinate arithmetic. The generator G and every known signer key Q
are fixed bases, multiplied with signed fixed-window tables (Hankerson,
Menezes and Vanstone, Guide to ECC, Alg. 3.41): a scalar is recoded into
signed base-2**w digits, row i of the base's table holds the multiples
(j + 1) * 2**(w * i) of it that digit i can name, and each nonzero digit
names one table point, with no doubling. G's table is built once, at
import, with 10-bit windows (26 rows of 512 points, about 2.3 MB); a key's
is built once per signer with 7-bit windows (``key_tables``, 37 rows of 64,
2,368 points). The named points are summed as a set (``_sum``): while 32 or
more remain they are added in affine pairs, each round sharing one field
inversion (Montgomery's simultaneous inversion), and fewer take one mixed
addition each. Signing sums k*G's at most 26 points by mixed additions;
verifying against a known key (SEC 1 v2, 4.1.4) sums the at most 63 of
u1*G and u2*Q in one or two affine rounds, then at most 31 mixed additions.
Recovery's R is fresh, so u2*R builds only the first row of R's 6-bit
table, by 31 mixed additions and one inversion, and walks the same signed
digits from the most significant, with six doublings per digit (one chain
of about 256); u1*G comes from G's table.
Nonces follow the RFC 6979 HMAC-SHA256 construction so signatures are
reproducible; produced signatures are canonical (low-s) and recovery and
verification reject non-canonical input.
"""

import hmac
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


def _affine_sums(firsts: List[Point], seconds: List[Point]) -> Optional[List[Point]]:
    """firsts[i] + seconds[i] for every i, with one inversion for all; None
    when some pair shares its x (a doubling, or a point and its negation)."""
    dxs = [x2 - x1 for (x1, _), (x2, _) in zip(firsts, seconds)]
    if 0 in dxs:
        return None
    out = []
    for (x1, y1), (x2, y2), inv in zip(firsts, seconds, _inverses(dxs)):
        lam = (y2 - y1) * inv % P
        x3 = (lam * lam - x1 - x2) % P
        out.append((x3, (lam * (x1 - x3) - y1) % P))
    return out


# Signed fixed-window digits of w bits lie in [-2**(w - 1), 2**(w - 1)]; a
# negative digit carries one into the next window, so a scalar below N can
# need 257 bits of windows. A key's table is built once per signer and G's
# once per process, so G takes the wider windows. Recovery's fresh R builds
# one row per signature at one mixed addition per point, so it keeps 6 bits.
_KEY_WINDOW = 7
_G_WINDOW = 10
_FRESH_WINDOW = 6
# In CPython an inversion mod P costs about four mixed additions and an
# affine pair about two thirds of one, so an affine round pays from about 24
# points; from 32, signing's 26 stay on mixed additions.
_AFFINE_MIN = 32
KeyTable = List[List[Point]]


def key_tables(point: Point, window: int = _KEY_WINDOW) -> KeyTable:
    """rows[i][j] == (j + 1) * 2**(window * i) * point, built once per key.
    One doubling chain gives each row's b and 2b; the other columns grow all
    rows together in affine form, with one inversion per column."""
    jac: List[_Jac] = []
    acc = (point[0], point[1], 1)
    for _ in range(-(-257 // window)):
        twice = _jdouble(acc)
        jac += (acc, twice)
        for _ in range(window - 1):
            twice = _jdouble(twice)
        acc = twice
    flat = _affine_all(jac)
    rows = [flat[i:i + 2] for i in range(0, len(flat), 2)]
    for _ in range(2, 1 << (window - 1)):
        column = _affine_sums([row[-1] for row in rows], [row[0] for row in rows])
        for row, pt in zip(rows, column):
            row.append(pt)
    return rows


_G_ROWS = key_tables((GX, GY), _G_WINDOW)


def _signed_digits(k: int, window: int) -> List[int]:
    """k in signed base-2**window digits, least significant first: a digit d
    above 2**(window - 1) becomes d - 2**window and carries one."""
    digits = []
    while k:
        d = k & ((1 << window) - 1)
        k >>= window
        if d > 1 << (window - 1):
            d -= 1 << window
            k += 1
        digits.append(d)
    return digits


def _sum(points: List[Point], acc: _Jac = _INFINITY) -> _Jac:
    """acc plus the sum of affine points. While at least _AFFINE_MIN remain,
    they are added in pairs, each round sharing one inversion; fewer take
    one mixed addition each, and so do all that remain once a round meets
    a pair with equal x."""
    while len(points) >= _AFFINE_MIN:
        half = _affine_sums(points[0::2], points[1::2])
        if half is None:
            break
        points = half + points[2 * len(half):]
    for x, y in points:
        acc = _jadd_affine(acc, x, y)
    return acc


def _mul_fixed(*terms: Tuple[int, KeyTable], acc: _Jac = _INFINITY) -> _Jac:
    """acc plus k * point for each term (k, rows), 0 <= k < N and ``rows`` the
    point's ``key_tables`` of any window: one table point per nonzero digit,
    and no doubling."""
    points = []
    for k, rows in terms:
        for row, d in zip(rows, _signed_digits(k, len(rows[0]).bit_length())):
            if d:
                x, y = row[abs(d) - 1]
                points.append((x, y) if d > 0 else (x, P - y))
    return _sum(points, acc)


def _mul_fresh(k: int, point: Point) -> _Jac:
    """k * point for 0 <= k < N and a point with no table: only the first row
    of its ``key_tables`` of _FRESH_WINDOW bits, built by mixed additions and
    made affine with one inversion, and _FRESH_WINDOW doublings per digit
    from the most significant."""
    x, y = point
    row = [(x, y, 1)]
    for _ in range(1, 1 << (_FRESH_WINDOW - 1)):
        row.append(_jadd_affine(row[-1], x, y))
    row = _affine_all(row)
    acc = _INFINITY
    for d in reversed(_signed_digits(k, _FRESH_WINDOW)):
        for _ in range(_FRESH_WINDOW):
            acc = _jdouble(acc)
        if d:
            x, y = row[abs(d) - 1]
            acc = _jadd_affine(acc, x, y if d > 0 else P - y)
    return acc


def multiply_generator(k: int) -> Point:
    """k * G in affine coordinates; k is reduced mod N and must not vanish."""
    pt = _to_affine(_mul_fixed((k % N, _G_ROWS)))
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


def _nonce_candidates(secret: int, digest: bytes) -> Iterator[int]:
    """RFC 6979 deterministic nonce stream for (secret, digest)."""
    bx = secret.to_bytes(32, "big") + (int.from_bytes(digest, "big") % N).to_bytes(32, "big")
    v = b"\x01" * 32
    k = hmac.digest(b"\x00" * 32, v + b"\x00" + bx, "sha256")
    v = hmac.digest(k, v, "sha256")
    k = hmac.digest(k, v + b"\x01" + bx, "sha256")
    v = hmac.digest(k, v, "sha256")
    while True:
        v = hmac.digest(k, v, "sha256")
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            yield candidate
        k = hmac.digest(k, v + b"\x00", "sha256")
        v = hmac.digest(k, v, "sha256")


def sign_digest(secret: int, digest: bytes) -> Tuple[int, int, int]:
    """Sign a 32-byte digest; returns a canonical (v, r, s) with v in {27, 28}."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    if not 1 <= secret < N:
        raise ValueError("secret scalar out of range")
    z = int.from_bytes(digest, "big")
    for k in _nonce_candidates(secret, digest):
        rx, ry = _to_affine(_mul_fixed((k, _G_ROWS)))
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
    point = _to_affine(_mul_fixed((u1, _G_ROWS), acc=_mul_fresh(u2, big_r)))
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
    point = _to_affine(_mul_fixed((int.from_bytes(digest, "big") * sinv % N, _G_ROWS),
                                  (r * sinv % N, tables)))
    if point is not None and point[0] == r and point[1] & 1 == v:
        return True
    _lift_x(r, v)  # a match proves that r lifts; only a refusal pays for the check
    return False
