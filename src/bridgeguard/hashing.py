"""Hashing primitives: keccak-256, stable 64-bit label hashes, seed derivation.

keccak-256 (the pre-SHA3 padding variant used by EVM chains) is not available
from hashlib or any package on the local mirror, so the sponge is implemented
here. The permutation and sponge are shared with SHA3; only the domain
suffix byte differs (0x01 for keccak, 0x06 for SHA3), which the tests exploit
to cross-validate against hashlib.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

_MASK64 = (1 << 64) - 1


def _rol64(a: int, n: int) -> int:
    n %= 64
    return ((a << n) | (a >> (64 - n))) & _MASK64


def _keccak_f1600(lanes: list[int]) -> list[int]:
    # lanes indexed [x + 5*y]
    rc = 1
    for _ in range(24):
        # theta
        c = [lanes[x] ^ lanes[x + 5] ^ lanes[x + 10] ^ lanes[x + 15] ^ lanes[x + 20]
             for x in range(5)]
        d = [c[(x + 4) % 5] ^ _rol64(c[(x + 1) % 5], 1) for x in range(5)]
        lanes = [lanes[i] ^ d[i % 5] for i in range(25)]
        # rho + pi
        x, y = 1, 0
        current = lanes[x + 5 * y]
        for t in range(24):
            x, y = y, (2 * x + 3 * y) % 5
            current, lanes[x + 5 * y] = lanes[x + 5 * y], _rol64(current, (t + 1) * (t + 2) // 2)
        # chi
        for yy in range(0, 25, 5):
            row = lanes[yy:yy + 5]
            for xx in range(5):
                lanes[yy + xx] = row[xx] ^ ((~row[(xx + 1) % 5]) & row[(xx + 2) % 5] & _MASK64)
        # iota
        for j in range(7):
            rc = ((rc << 1) ^ ((rc >> 7) * 0x71)) % 256
            if rc & 2:
                lanes[0] ^= 1 << ((1 << j) - 1)
    return lanes


def _sponge_1600(data: bytes, suffix: int, out_len: int, rate_bytes: int = 136) -> bytes:
    state = bytearray(200)

    def permute() -> None:
        lanes = [int.from_bytes(state[8 * i:8 * i + 8], "little") for i in range(25)]
        lanes = _keccak_f1600(lanes)
        for i, lane in enumerate(lanes):
            state[8 * i:8 * i + 8] = lane.to_bytes(8, "little")

    offset = 0
    block = 0
    while offset < len(data):
        block = min(len(data) - offset, rate_bytes)
        for i in range(block):
            state[i] ^= data[offset + i]
        offset += block
        if block == rate_bytes:
            permute()
            block = 0
    state[block] ^= suffix
    state[rate_bytes - 1] ^= 0x80
    permute()

    out = bytearray()
    while len(out) < out_len:
        out += state[:min(out_len - len(out), rate_bytes)]
        if len(out) < out_len:
            permute()
    return bytes(out)


def keccak256(data: bytes) -> bytes:
    """Keccak-256 digest (EVM convention, multi-rate padding byte 0x01)."""
    return _sponge_1600(data, 0x01, 32)


def sha3_256(data: bytes) -> bytes:
    """SHA3-256 via the same sponge; exists for cross-validation tests."""
    return _sponge_1600(data, 0x06, 32)


def selector(signature: str) -> str:
    """4-byte function selector for a canonical signature, lowercase hex."""
    return keccak256(signature.encode("ascii"))[:4].hex()


def event_topic(signature: str) -> str:
    """topic0 for a canonical event signature, 0x-prefixed lowercase hex."""
    return "0x" + keccak256(signature.encode("ascii")).hex()


def stable_hash64(text: str) -> str:
    """Platform-stable 64-bit hash of a label string, as 16 hex chars."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def json_hash64(payload: object) -> str:
    """`stable_hash64` of the canonical JSON of `payload`: sorted keys, no
    whitespace. Equal settings hash equally wherever they are written."""
    return stable_hash64(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def seed_prefix(seed: int, *parts: object) -> hashlib.blake2b:
    """The hash state `derive_seed(seed, *parts, ...)` reaches after `parts`.

    `extend_seed(seed_prefix(seed, *parts), *more)` equals
    `derive_seed(seed, *parts, *more)`: it hashes the same bytes, and a caller
    deriving many seeds under one prefix hashes the prefix once.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode("ascii"))
    _absorb(h, parts)
    return h


def extend_seed(prefix: hashlib.blake2b, *parts: object) -> int:
    """The seed derived from a `seed_prefix` state and further context parts;
    the prefix itself is left as it was."""
    h = prefix.copy()
    _absorb(h, parts)
    return int.from_bytes(h.digest(), "big")


def extend_seeds(prefix: hashlib.blake2b, parts: Iterable[object]) -> list[int]:
    """`[extend_seed(prefix, part) for part in parts]`, with one prefix copy
    and one update per part: the bytes `_absorb` would add, in one piece."""
    seeds = []
    for part in parts:
        h = prefix.copy()
        h.update(b"\x1f" + str(part).encode("utf-8"))
        seeds.append(int.from_bytes(h.digest(), "big"))
    return seeds


def _absorb(h: hashlib.blake2b, parts: tuple) -> None:
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))


def derive_seed(seed: int, *parts: object) -> int:
    """Derive an independent 64-bit RNG seed from a base seed and context.

    Context parts are stringified, so content hashes and indices both work.
    """
    return int.from_bytes(seed_prefix(seed, *parts).digest(), "big")
