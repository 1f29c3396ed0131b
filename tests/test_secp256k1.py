import collections
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    decode_dss_signature,
    encode_dss_signature,
)

from dnas import secp256k1
from dnas.errors import RecoveryError, RejectedSeedError

import reference_ecdsa as ref

# (secret, digest hex, v, r, s) frozen after byte-for-byte agreement between
# this package and the independent affine reference in reference_ecdsa.py.
FIXED_VECTORS = [
    (0xA6F9A72819A456456AD19E42F31995E22EED5BF762F9A15A4373D364C0ECBD25,
     "c33cd18ee0e5d3edcfb3cf4e228a1279aaf1c9f34a6783607792a3b2701d3119",
     27, 0xE9A1D7682A4ADB8E6F866939A9CA8C1272A9279F24F54461B4C19DC04AB56FF,
     0x727ED6885F70196F2731EEF93C63681D47EF18AF140625889659596799D492C8),
    (0x8D839E2676486E22C312697DD621B799ABD797875A5869DF17778BB81F884615,
     "ffbacfc40d8121dbda4372f471f4a99041378035efd4237fd53bb1ab5e91e0ff",
     28, 0xC2C1D3D50E37B751DE4D8A34AA30795AA789E09D08C04486A132541720E6E233,
     0x225678E4345DCCCE51F6FFDB3581BDE85D5D6F4243606A2B0DB462B5DEB0DF19),
    (0xA54BF6A8BF8E3BE650441CF14A853F798BBD9548F92695FB354C62203CB76B16,
     "5f21d2ef25440538e5bb188d6fcf4eb4d823daea60235addaa6d0a61dc9946d0",
     28, 0x9B354745F1096C7B6B278CE4ABD357788DEC55730D984E60B5BA2DE138AA8AE,
     0x6BA3C84B402B500B699F06C1EF59B7B29DF2453B987D6A95DD90A7FBAAB6B587),
    (0xB115656D3FA617953011323D549DE0A1CDB8BC48A005FC7834A1DF7A4C6D1534,
     "5a488748e315325468963c3ce727c7616947d00ec6c4a1172b0108848eb487fb",
     28, 0x40B4D546E964D2BF31F23223D41240231CA27767B69F102515921DEEAC41430C,
     0xF6916163C18A8707DD25FF761A04833568BEEAA57D20A7FDC8257EE8BD25E1B),
    (0x28180E55C44646A1476D8D0E33375E8E2DFC7A267AE0A54120D23AC2EEF2F40A,
     "e16dbe6a69b7e72890f6a7cb5cfb0704a830ef6449022bc8b8ee90c19fa520d0",
     28, 0xB0D048D36D1FC8B36854CA185394FC21DD4B90C9A2553D9528B27771B5D5356A,
     0x10B3FC16F4440F9D249C7B72A53899ABD84041BAD3F0B209CDBC633DFBEA1FFA),
    (0xFB7F5E09EB821C7665B5F85D1E35412D5C69F8BB53999994C7D16C447168C0C4,
     "4f64233a63dead97f7f7627853f74815807b0f77980457f1ed2c693eeda5ba45",
     28, 0x183C0031A04187971E84F412F07EF47833860B71D02DC1BF04DBAC6754E52375,
     0x259C68512D67111FA780A9674913A4699DA0D7ACBB36E06F4BA305CB0C9A80C5),
    (0x779E0AA7C865F1D7F0F5545D40A62F49E26F5DDCDBC7254A94B74C13DA9B7329,
     "fe38b7f88cf9f5186cb86c568b75ea550878013f35ffe3f3dd7dfd560c33c628",
     28, 0x3AD11F5C68EDC3219618E207980ABE3BF52D6624E4DA51AF8008F86CCEEC410D,
     0x7433707A3004F2879E6E8A1756CF5F957EE8579F896B9B9AFEE47A8606C41160),
    (0x430D623210F08E39409E73E3DBB8FF89E8B0F001C1F6B2FA4128E5B1C012ED69,
     "14a08c1b7e5ab9ac0c83d848e75deadae9ba11fc525f9c0d53b525048dc3f4bd",
     28, 0x9B2F2BDFDD37B1D7CE196D67E5684929015F3769621A77985CA8F0905F6A61E1,
     0x392EAD13169A08C427E718D86BF5CA13E89ACE8547F69A74A75FC6D32661F6DE),
    (0xBB654427B6FA7CF134583BAFCC9D03B933FB2B0810124A149FF4845C7BD66D2A,
     "44f11de5b1f222a0f8367eb460abf873ab5a4d9b08c0fe58a03c71118853b07d",
     28, 0x368981684CDB473341E6D718CCF0C6265ACFF6A6EC1AB7DCAD3C0C98657CAF19,
     0x628B972C3F1903433879BC9BB099ACCAB39CF1C24E949F385B4F9FE3C5BE394E),
    (0xA7EAAFA353918A5DC6AD91348A2F6CC42212AEA0AE82B72DF4CFF0B09BD8A087,
     "1df71a57967e04c2b552c295e0d831846c5e6212115ef7e9ec95ee6a2a92d905",
     27, 0x43082BBE4F151FA43DEE286EB521FC6E164943E6C3C837798A806E57102C17B0,
     0x27EB10AE554AD5C329A3050079C6F43CA6A0E43D8158CF8697DA7E8B582608E4),
]


def _openssl_public_numbers(secret):
    key = ec.derive_private_key(secret, ec.SECP256K1())
    return key.public_key().public_numbers()


def test_generator_matches_published_point():
    assert secp256k1.multiply_generator(1) == (secp256k1.GX, secp256k1.GY)


def test_scalar_mult_against_openssl():
    rng = random.Random(2024)
    for _ in range(40):
        k = rng.randrange(1, secp256k1.N)
        nums = _openssl_public_numbers(k)
        assert secp256k1.multiply_generator(k) == (nums.x, nums.y)


def test_point_add_against_openssl():
    a = secp256k1.multiply_generator(1234567)
    b = secp256k1.multiply_generator(7654321)
    nums = _openssl_public_numbers(1234567 + 7654321)
    assert ref.point_add(a, b) == (nums.x, nums.y)  # the oracle itself, against OpenSSL


@pytest.mark.parametrize("secret,digest_hex,v,r,s", FIXED_VECTORS)
def test_fixed_vectors_match_reference(secret, digest_hex, v, r, s):
    digest = bytes.fromhex(digest_hex)
    assert secp256k1.sign_digest(secret, digest) == (v, r, s)
    assert ref.sign(secret, digest) == (v, r, s)
    point = secp256k1.recover_pubkey(digest, v, r, s)
    assert point == ref.recover(digest, v, r, s)
    nums = _openssl_public_numbers(secret)
    assert point == (nums.x, nums.y)


def test_signatures_verify_under_openssl():
    rng = random.Random(99)
    for _ in range(10):
        secret = rng.randrange(1, secp256k1.N)
        digest = rng.randbytes(32)
        v, r, s = secp256k1.sign_digest(secret, digest)
        pub = ec.derive_private_key(secret, ec.SECP256K1()).public_key()
        pub.verify(encode_dss_signature(r, s), digest,
                   ec.ECDSA(Prehashed(hashes.SHA256())))


def test_openssl_signatures_recover_to_signer():
    rng = random.Random(17)
    for _ in range(10):
        secret = rng.randrange(1, secp256k1.N)
        key = ec.derive_private_key(secret, ec.SECP256K1())
        digest = rng.randbytes(32)
        r, s = decode_dss_signature(key.sign(digest, ec.ECDSA(Prehashed(hashes.SHA256()))))
        if s > secp256k1.HALF_N:
            s = secp256k1.N - s
        nums = key.public_key().public_numbers()
        recovered = set()
        for v in (27, 28):
            try:
                recovered.add(secp256k1.recover_pubkey(digest, v, r, s))
            except RecoveryError:
                pass
        assert (nums.x, nums.y) in recovered


def test_signing_is_deterministic():
    digest = hashlib.sha256(b"same message").digest()
    assert secp256k1.sign_digest(42, digest) == secp256k1.sign_digest(42, digest)


def test_signatures_always_low_s():
    rng = random.Random(5)
    for _ in range(30):
        _, _, s = secp256k1.sign_digest(rng.randrange(1, secp256k1.N), rng.randbytes(32))
        assert 1 <= s <= secp256k1.HALF_N


def test_high_s_rejected():
    digest = hashlib.sha256(b"payload").digest()
    v, r, s = secp256k1.sign_digest(7, digest)
    with pytest.raises(RecoveryError):
        secp256k1.recover_pubkey(digest, v, r, secp256k1.N - s)


def test_invalid_recovery_id_rejected():
    digest = hashlib.sha256(b"payload").digest()
    v, r, s = secp256k1.sign_digest(7, digest)
    for bad_v in (2, 26, 29, 255):
        with pytest.raises(RecoveryError):
            secp256k1.recover_pubkey(digest, bad_v, r, s)


def test_random_signature_bytes_mostly_error():
    # 65 random bytes form (r, s, v); nearly all should fail recovery since a
    # random v byte is valid 4/256 of the time and s is canonical half the time.
    rng = random.Random(31337)
    digest = hashlib.sha256(b"fuzz").digest()
    trials = 10_000
    errors = 0
    for _ in range(trials):
        raw = rng.randbytes(65)
        try:
            secp256k1.recover_pubkey(
                digest, raw[64],
                int.from_bytes(raw[:32], "big"),
                int.from_bytes(raw[32:64], "big"))
        except RecoveryError:
            errors += 1
    assert errors / trials > 0.97


def test_seed_rejection_at_curve_order():
    with pytest.raises(RejectedSeedError):
        secp256k1.scalar_from_seed(secp256k1.N.to_bytes(32, "big"))
    with pytest.raises(RejectedSeedError):
        secp256k1.scalar_from_seed(b"\x00" * 32)
    with pytest.raises(RejectedSeedError):
        secp256k1.scalar_from_seed(b"\xff" * 32)
    with pytest.raises(RejectedSeedError, match="must be 32 bytes, got 31"):
        secp256k1.scalar_from_seed(b"\x01" * 31)
    # largest valid scalar
    assert secp256k1.scalar_from_seed((secp256k1.N - 1).to_bytes(32, "big")) == secp256k1.N - 1


def test_out_of_range_scalars_digests_and_coordinates_are_refused():
    with pytest.raises(ValueError, match="digest must be 32 bytes"):
        secp256k1.sign_digest(7, bytes(31))
    for secret in (0, secp256k1.N):  # a nonzero digest: s = z / k would not vanish
        with pytest.raises(ValueError, match="secret scalar out of range"):
            secp256k1.sign_digest(secret, b"\x01" * 32)
    with pytest.raises(ValueError, match="scalar is zero modulo the curve order"):
        secp256k1.multiply_generator(secp256k1.N)
    # G's coordinates shifted by P satisfy the curve equation mod P
    assert secp256k1.is_on_curve((secp256k1.GX, secp256k1.GY))
    for point in ((secp256k1.GX + secp256k1.P, secp256k1.GY),
                  (secp256k1.GX, secp256k1.GY + secp256k1.P)):
        assert not secp256k1.is_on_curve(point)


def test_order_matches_openssl_boundary():
    # n-1 derives fine under OpenSSL while n is rejected, confirming the
    # published order constant.
    ec.derive_private_key(secp256k1.N - 1, ec.SECP256K1())
    with pytest.raises(ValueError):
        ec.derive_private_key(secp256k1.N, ec.SECP256K1())


# -- fixed-window multiplication -----------------------------------------------------------

_W = secp256k1._KEY_WINDOW  # a key's table
_GW = secp256k1._G_WINDOW
_KEY = ref.point_mul(0xC0FFEE << 200 | 0x5EED, ref.G)
_BASES = {"G": (ref.G, secp256k1._G_ROWS), "key": (_KEY, secp256k1.key_tables(_KEY))}
_TOP = (len(_BASES["key"][1]) - 1) * _W  # the lowest bit of a key table's top window
_G_TOP = (len(secp256k1._G_ROWS) - 1) * _GW  # the same for G's table


_MULTIPLY = {
    "fixed": lambda k, point, rows: secp256k1._mul_fixed((k, rows)),
    "fresh": lambda k, point, rows: secp256k1._mul_fresh(k, point),  # recovery's, no table
}


@settings(max_examples=100, deadline=None)
@given(k=st.integers(0, secp256k1.N - 1), base=st.sampled_from(sorted(_BASES)),
       method=st.sampled_from(sorted(_MULTIPLY)))
@example(k=0, base="G", method="fixed")
@example(k=1, base="key", method="fixed")
@example(k=secp256k1.N - 1, base="G", method="fixed")
@example(k=secp256k1.N - 1, base="key", method="fixed")
@example(k=1 << (_W - 1), base="key", method="fixed")  # a key's width: a digit of exactly 2**7
@example(k=(1 << (_W - 1)) << (7 * _W), base="key", method="fixed")
@example(k=(127 << _W) | ((1 << _W) - 1), base="key", method="fixed")  # a carry makes a digit of 2**7
@example(k=129 << (31 * _W), base="key", method="fixed")  # a digit of -127 in row 31 carries into row 32
@example(k=(1 << _TOP) - 1, base="key", method="fixed")  # all ones into a key's top window (bit 256)
@example(k=(1 << 255) - 1, base="G", method="fixed")
@example(k=1 << (_GW - 1), base="G", method="fixed")  # G's width: a digit of exactly 2**11
@example(k=(1 << (_GW - 1)) << (11 * _GW), base="G", method="fixed")
@example(k=(2047 << _GW) | ((1 << _GW) - 1), base="G", method="fixed")  # a carry makes a digit of 2**11
@example(k=(1 << _G_TOP) - 1, base="G", method="fixed")  # all ones into G's top window (bit 252)
@example(k=0, base="key", method="fresh")
@example(k=1, base="key", method="fresh")
@example(k=secp256k1.N - 1, base="G", method="fresh")
@example(k=1 << 255, base="key", method="fresh")  # a single top bit: doublings and one addition
@example(k=(1 << 255) - 1, base="G", method="fresh")  # all ones: an addition after every doubling
@example(k=int("10" * 128, 2), base="key", method="fresh")  # alternating bits
def test_fixed_window_multiply_matches_reference(k, base, method):
    point, rows = _BASES[base]
    assert secp256k1._to_affine(_MULTIPLY[method](k, point, rows)) == ref.point_mul(k, point)


@pytest.mark.parametrize("base", sorted(_BASES))
def test_fixed_window_table_entries(base):
    point, rows = _BASES[base]
    shape = {"G": (22, 2048), "key": (33, 128)}[base]  # (rows, points per row)
    assert len(rows) == shape[0]
    assert {len(row) for row in rows} == {shape[1]}
    window = shape[1].bit_length()  # the width ``_mul_fixed`` reads from the table
    # signed digits of a scalar below N span 257 bits; fewer would let zip drop one
    assert len(rows) * window >= 257
    last_i, last_j = len(rows) - 1, len(rows[0]) - 1
    rng = random.Random(base)
    spots = {(0, 0), (0, 1), (0, 2), (0, last_j), (last_i, 0), (last_i, last_j)}
    spots |= {(rng.randrange(last_i + 1), rng.randrange(last_j + 1)) for _ in range(6)}
    for i, j in sorted(spots):
        packed = rows[i][j]
        assert (packed >> 256, packed & (2**256 - 1)) == ref.point_mul((j + 1) << (window * i),
                                                                        point)


def test_fixed_window_tables_stay_packed():
    """The memory a table keeps, built at G's 12-bit and a key's 8-bit
    windows: one int per point fits; an (x, y) tuple per point, or a second
    copy of a table, does not."""
    for point, window, ceiling in (((secp256k1.GX, secp256k1.GY), 12, 5.0e6),
                                   (_KEY, 8, 0.5e6)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = secp256k1.key_tables(point, window)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows) * len(rows[0]) == -(-257 // window) << (window - 1)
        assert kept < ceiling, (window, kept)


def _table_point(base, k):
    """k * base for 0 < abs(k) <= 64, unpacked from row 0 of the base's table."""
    packed = _BASES[base][1][0][abs(k) - 1]
    x, y = packed >> 256, packed & (2**256 - 1)
    return (x, y) if k > 0 else (x, secp256k1.P - y)


_TERM = st.tuples(st.sampled_from(sorted(_BASES)),
                  st.integers(-64, 64).filter(bool))  # 64 fits a key table row
_CLASH = [("G", 1), ("G", 3), ("G", 1), ("G", 3)]  # round one gives 4G twice: round two doubles
_LONG = [("key", k) for k in range(1, 61)]  # round one pairs no equal x


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(_TERM, max_size=80), start=st.integers(-64, 64), small=st.booleans())
@example(terms=[], start=0, small=False)  # the empty set: the point at infinity
@example(terms=[], start=5, small=False)  # u1 = 0 in recovery: the R half alone
@example(terms=[("key", 7)], start=0, small=False)  # one point
@example(terms=[("G", 5)] * 64, start=0, small=False)  # every round-one pair doubles
@example(terms=[("key", 9), ("key", -9)] * 32, start=0, small=False)  # every pair cancels
@example(terms=_LONG[:10] + [("G", 2), ("G", 2)] + _LONG[10:], start=0, small=False)
@example(terms=_LONG[:10] + [("G", 2), ("G", -2)] + _LONG[10:], start=3, small=False)
@example(terms=_LONG + [("G", 1), ("G", 2), ("G", 3)], start=0, small=False)  # two rounds
@example(terms=_CLASH + _LONG, start=0, small=False)
@example(terms=_CLASH + _LONG[:59], start=-2, small=False)  # 63 points: two affine rounds
@example(terms=_LONG[:31] + [("key", -31)] + _LONG[:31], start=0, small=False)
@example(terms=[("G", 1), ("G", -1)] * 16 + [("G", 2)], start=0, small=True)
def test_sum_matches_the_reference_sum(terms, start, small):
    """``_sum`` adds any affine points onto any Jacobian start, equal and
    opposite points included, as the reference adds them one at a time.
    ``small`` draws the points from a pool of four, so that rounds meet
    equal x often."""
    if small:
        terms = [(base, k % 4 - 2 or 2) for base, k in terms]
    points = [_table_point(base, k) for base, k in terms]
    expected = None
    if start:
        expected = x, y = _table_point("G", start)
        z = 0xC0FFEE  # a start with z != 1, as recovery's R half is
        acc = (x * z * z % secp256k1.P, y * z * z * z % secp256k1.P, z)
    else:
        acc = secp256k1._INFINITY
    for point in points:
        expected = ref.point_add(expected, point)
    assert secp256k1._to_affine(secp256k1._sum(points, acc)) == expected


def test_fixed_bases_cost_one_addition_per_table_row(monkeypatch):
    """A deterministic cost guard. Signing pays at most one addition per row
    of G's table, all of them mixed, and one inversion mod P. Verifying
    against a known key pays at most one addition, affine or mixed, per row
    of G's table and of the key's; at most two inversions mod P, for one
    affine round and the final affine form; and fewer mixed additions than
    an affine round needs points. A narrower table, an extra round or a sum
    left to mixed additions fails here."""
    counts = collections.Counter()
    add, sums = secp256k1._jadd_affine, secp256k1._affine_sums

    def counting_add(*args):
        counts["mixed"] += 1
        return add(*args)

    def counting_sums(firsts, seconds):
        out = sums(firsts, seconds)
        counts["affine"] += len(out or ())
        return out

    def counting_pow(base, exponent, modulus=None):
        counts["inversions"] += exponent == -1 and modulus == secp256k1.P
        return pow(base, exponent, modulus)

    monkeypatch.setattr(secp256k1, "_jadd_affine", counting_add)
    monkeypatch.setattr(secp256k1, "_affine_sums", counting_sums)
    monkeypatch.setattr(secp256k1, "pow", counting_pow, raising=False)
    g_rows, key_rows = 22, 33  # fixed here, so a narrower table cannot move the bound
    assert (len(secp256k1._G_ROWS), len(_BASES["key"][1])) == (g_rows, key_rows)
    rng = random.Random(1414)
    for _ in range(8):
        secret, digest = rng.randrange(1, secp256k1.N), rng.randbytes(32)
        tables = secp256k1.key_tables(secp256k1.multiply_generator(secret))
        counts.clear()
        v, r, s = secp256k1.sign_digest(secret, digest)
        assert 0 < counts["mixed"] <= g_rows and counts["affine"] == 0
        assert counts["inversions"] == 1
        counts.clear()
        assert secp256k1.verify(digest, v, r, s, tables)
        assert 0 < counts["mixed"] + counts["affine"] <= g_rows + key_rows
        assert counts["mixed"] <= 31 and counts["inversions"] <= 2


@settings(max_examples=30, deadline=None)
@given(secret=st.integers(1, secp256k1.N - 1), digest=st.binary(min_size=32, max_size=32))
def test_sign_digest_matches_reference(secret, digest):
    assert secp256k1.sign_digest(secret, digest) == ref.sign(secret, digest)


@settings(max_examples=40, deadline=None)
@given(secret=st.integers(1, secp256k1.N - 1), digest=st.binary(min_size=32, max_size=32))
def test_recovery_property_against_openssl(secret, digest):
    v, r, s = secp256k1.sign_digest(secret, digest)
    nums = _openssl_public_numbers(secret)
    assert secp256k1.recover_pubkey(digest, v, r, s) == secp256k1.multiply_generator(secret)
    assert secp256k1.multiply_generator(secret) == (nums.x, nums.y)


@pytest.mark.parametrize("digest", [
    bytes(32),                                   # u1 = 0: only the R half contributes
    b"\xff" * 32,                                # digest >= N
    (secp256k1.N + 5).to_bytes(32, "big"),       # digest >= N, close to the order
], ids=["zero", "all-ones", "order-plus-5"])
def test_recovery_edge_digests(digest):
    for secret in (1, 2, 0xC0FFEE, secp256k1.N - 1):
        v, r, s = secp256k1.sign_digest(secret, digest)
        nums = _openssl_public_numbers(secret)
        assert secp256k1.recover_pubkey(digest, v, r, s) == (nums.x, nums.y)
        assert ref.recover(digest, v, r, s) == (nums.x, nums.y)


def test_recovery_both_recovery_ids():
    rng = random.Random(808)
    seen = set()
    while seen != {27, 28}:
        secret, digest = rng.randrange(1, secp256k1.N), rng.randbytes(32)
        v, r, s = secp256k1.sign_digest(secret, digest)
        seen.add(v)
        nums = _openssl_public_numbers(secret)
        assert secp256k1.recover_pubkey(digest, v, r, s) == (nums.x, nums.y)
        # the other id names the other point with x = r: a different key
        other = secp256k1.recover_pubkey(digest, 55 - v, r, s)
        assert other == ref.recover(digest, 55 - v, r, s)
        assert other != (nums.x, nums.y)


# -- verification against a known key ------------------------------------------------------

def _recovery_outcome(digest, v, r, s, point):
    """What ``verify`` must give: the message of a refusal before recovery's
    scalar multiply, else whether recovery yields ``point``."""
    try:
        return secp256k1.recover_pubkey(digest, v, r, s) == point
    except RecoveryError as exc:
        return False if "point at infinity" in str(exc) else str(exc)


def _verify_outcome(digest, v, r, s, tables):
    try:
        return secp256k1.verify(digest, v, r, s, tables)
    except RecoveryError as exc:
        return str(exc)


_KINDS = ["valid", "wrong-key", "flipped-v", "high-s", "r-zero", "r-order", "s-zero",
          "s-order", "v-invalid", "random-bytes", "names-no-key"]


def _naming_no_key(k, digest):
    """A signature with R = k*G and s*R == z*G: recovery's (s*R - z*G) / r is
    the point at infinity."""
    n = secp256k1.N
    x, y = secp256k1.multiply_generator(k)
    s = int.from_bytes(digest, "big") * pow(k, -1, n) % n
    if s > secp256k1.HALF_N:
        s, y = n - s, secp256k1.P - y  # (-s) * (-R) == s * R
    return 27 + (y & 1), x, s


def _mutated(kind, secret, other, digest, raw):
    v, r, s = secp256k1.sign_digest(secret, digest)
    n = secp256k1.N
    return {
        "valid": (v, r, s),
        "wrong-key": secp256k1.sign_digest(other, digest),
        "flipped-v": (55 - v, r, s),
        "high-s": (v, r, n - s),
        "r-zero": (v, 0, s),
        "r-order": (v, n, s),
        "s-zero": (v, r, 0),
        "s-order": (v, r, n),
        "v-invalid": (v + 2, r, s),
        "random-bytes": (raw[64], int.from_bytes(raw[:32], "big"),
                         int.from_bytes(raw[32:64], "big")),
        "names-no-key": _naming_no_key(other, digest),
    }[kind]


@settings(max_examples=60, deadline=None)
@given(secret=st.integers(1, secp256k1.N - 1), other=st.integers(1, secp256k1.N - 1),
       digest=st.binary(min_size=32, max_size=32), kind=st.sampled_from(_KINDS),
       raw=st.binary(min_size=65, max_size=65))
@example(secret=7, other=8, digest=bytes(32), kind="valid", raw=bytes(65))
@example(secret=7, other=8, digest=b"\xff" * 32, kind="flipped-v", raw=bytes(65))
@example(secret=7, other=5, digest=bytes(31) + b"\x0b", kind="names-no-key", raw=bytes(65))
def test_verify_agrees_with_recover_and_compare(secret, other, digest, kind, raw):
    point = secp256k1.multiply_generator(secret)
    v, r, s = _mutated(kind, secret, other, digest, raw)
    expected = _recovery_outcome(digest, v, r, s, point)
    assert _verify_outcome(digest, v, r, s, secp256k1.key_tables(point)) == expected
    if kind == "valid":
        assert expected is True


def test_verify_agrees_on_openssl_signatures():
    rng = random.Random(23)
    for _ in range(10):
        secret = rng.randrange(1, secp256k1.N)
        key = ec.derive_private_key(secret, ec.SECP256K1())
        nums = key.public_key().public_numbers()
        tables = secp256k1.key_tables((nums.x, nums.y))
        digest = rng.randbytes(32)
        r, s = decode_dss_signature(key.sign(digest, ec.ECDSA(Prehashed(hashes.SHA256()))))
        if s > secp256k1.HALF_N:
            s = secp256k1.N - s
        answers = {v: _verify_outcome(digest, v, r, s, tables) for v in (27, 28)}
        assert answers == {v: _recovery_outcome(digest, v, r, s, (nums.x, nums.y))
                           for v in (27, 28)}
        assert sorted(answers.values()) == [False, True]  # exactly one recovery id names the key


def test_verify_compares_x_exactly_not_mod_order():
    # R has x >= N, so r = x - N; a verifier comparing x mod N would accept
    # the key Q = (s*R - z*G) / r, but recovery lifts x = r and names another
    # key, so ``verify`` must refuse it too.
    x = secp256k1.N
    while True:
        x += 1
        y = pow((x ** 3 + 7) % secp256k1.P, (secp256k1.P + 1) // 4, secp256k1.P)
        if y * y % secp256k1.P == (x ** 3 + 7) % secp256k1.P:
            break
    r, s, digest = x - secp256k1.N, 12345, bytes(31) + b"\x09"
    minus_zg = ref.point_mul(secp256k1.N - 9, ref.G)
    q = ref.point_mul(pow(r, -1, secp256k1.N), ref.point_add(ref.point_mul(s, (x, y)), minus_zg))
    tables = secp256k1.key_tables(q)
    u1, u2 = 9 * pow(s, -1, secp256k1.N) % secp256k1.N, r * pow(s, -1, secp256k1.N) % secp256k1.N
    assert ref.point_add(ref.point_mul(u1, ref.G), ref.point_mul(u2, q)) == (x, y)
    for v in (27, 28):
        outcome = _verify_outcome(digest, v, r, s, tables)
        assert outcome is not True
        assert outcome == _recovery_outcome(digest, v, r, s, q)


def test_verify_raises_what_recovery_raises_before_multiplying():
    tables = secp256k1.key_tables(secp256k1.multiply_generator(7))
    x = 1
    while pow((x ** 3 + 7) % secp256k1.P, (secp256k1.P - 1) // 2, secp256k1.P) == 1:
        x += 1  # the smallest r that is no x-coordinate
    for digest, v, r, s, message in ((bytes(31), 27, 1, 1, "32 bytes"),
                                     (bytes(32), 29, 1, 1, "recovery id"),
                                     (bytes(32), 27, 0, 1, "r out of range"),
                                     (bytes(32), 27, 1, secp256k1.N, "s out of range"),
                                     (bytes(32), 27, 1, secp256k1.N - 1, "half order"),
                                     (bytes(32), 27, x, 1, "not the x-coordinate")):
        for check in (secp256k1.recover_pubkey, lambda *a: secp256k1.verify(*a, tables)):
            with pytest.raises(RecoveryError, match=message):
                check(digest, v, r, s)
