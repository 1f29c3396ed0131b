import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from dnas.keccak import _sponge, keccak256

# Published Keccak-256 known-answer vectors.
EMPTY = "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
ABC = "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"


def test_known_vectors():
    assert keccak256(b"").hex() == EMPTY
    assert keccak256(b"abc").hex() == ABC


def test_differs_from_sha3():
    # Keccak-256 and SHA3-256 share the permutation but not the domain byte.
    assert keccak256(b"") != hashlib.sha3_256(b"").digest()


@given(st.binary(min_size=0, max_size=700))
@settings(max_examples=300, deadline=None)
def test_sha3_domain_matches_openssl(data):
    # Same sponge with the FIPS domain byte must reproduce OpenSSL's SHA3-256,
    # which pins down the permutation, padding, and byte ordering.
    assert _sponge(data, 0x06) == hashlib.sha3_256(data).digest()


def test_block_boundary_lengths():
    for n in (135, 136, 137, 271, 272, 273):
        data = bytes(range(256))[:1] * n
        assert _sponge(data, 0x06) == hashlib.sha3_256(data).digest()


def test_single_bit_sensitivity():
    base = keccak256(b"provenance")
    assert keccak256(b"provenancf") != base
    assert keccak256(b"Provenance") != base


def test_output_length():
    assert len(keccak256(b"x")) == 32
