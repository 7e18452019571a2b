import hashlib

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bridgeguard.hashing import (
    derive_seed,
    derive_seeds,
    event_topic,
    keccak256,
    selector,
    sha3_256,
    stable_hash64,
)

# Published keccak-256 vectors (single block).
KNOWN = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}


def test_known_vectors():
    for message, digest in KNOWN.items():
        assert keccak256(message).hex() == digest


def test_sponge_matches_hashlib_sha3_across_block_boundaries():
    # Same permutation and sponge as SHA3; only the domain byte differs.
    rng = np.random.default_rng(99)
    for n in [0, 1, 64, 135, 136, 137, 271, 272, 273, 1000]:
        message = rng.bytes(n)
        assert sha3_256(message) == hashlib.sha3_256(message).digest()


def test_well_known_ethereum_constants():
    assert selector("transfer(address,uint256)") == "a9059cbb"
    assert selector("transferFrom(address,address,uint256)") == "23b872dd"
    assert event_topic("Transfer(address,address,uint256)") == (
        "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef")


def test_stable_hash64_is_stable_and_sized():
    assert stable_hash64("x") == stable_hash64("x")
    assert len(stable_hash64("anything")) == 16
    assert stable_hash64("a") != stable_hash64("b")


@given(st.text())
def test_stable_hash64_is_the_8_byte_blake2b_of_the_utf8_text(text):
    expected = hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()
    assert stable_hash64(text) == expected
    assert stable_hash64(text) == expected  # the shared empty state is never updated


def test_derive_seed_separates_contexts():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert 0 <= derive_seed(7, "z") < 2**64


_PARTS = st.lists(st.one_of(st.text(), st.integers()), max_size=3)


def _one_pass(seed, parts):
    """The seed of the documented bytes, hashed in one pass: the base seed in
    decimal, then each part after a 0x1f separator."""
    context = b"".join(b"\x1f" + str(part).encode("utf-8") for part in parts)
    digest = hashlib.blake2b(str(seed).encode("ascii") + context, digest_size=8).digest()
    return int.from_bytes(digest, "big")


@given(seed=st.integers(min_value=0, max_value=2**64 - 1), parts=_PARTS, more=_PARTS)
def test_prefix_copied_seed_equals_derive_seed(seed, parts, more):
    # derive_seeds hashes the prefix once and copies it per last part.
    assert derive_seed(seed, *parts, *more) == _one_pass(seed, parts + more)
    assert derive_seeds(seed, parts, more) == [_one_pass(seed, parts + [last])
                                               for last in more]
    assert derive_seeds(seed, parts, more) == [derive_seed(seed, *parts, last)
                                               for last in more]  # prefix kept


@given(seed=st.integers(min_value=0, max_value=2**64 - 1), parts=_PARTS,
       more=st.lists(st.one_of(st.text(), st.integers()), max_size=12))
def test_extend_seeds_equals_extend_seed_per_part(seed, parts, more):
    assert derive_seeds(seed, parts, more) == [derive_seed(seed, *parts, last)
                                               for last in more]
    assert derive_seeds(seed, parts, range(5)) == [derive_seed(seed, *parts, e)
                                                   for e in range(5)]
    assert derive_seeds(seed, [], more) == [derive_seed(seed, last) for last in more]
    assert derive_seeds(seed, parts, []) == []
