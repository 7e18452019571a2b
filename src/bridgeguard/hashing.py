"""Hashing primitives: keccak-256, stable 64-bit label hashes, canonical JSON,
seed derivation.

keccak-256 (the pre-SHA3 padding variant used by EVM chains) is not available
from hashlib or any package on the local mirror, so the sponge is implemented
here. The permutation and sponge are shared with SHA3; only the domain
suffix byte differs (0x01 for keccak, 0x06 for SHA3), which the tests exploit
to cross-validate against hashlib.

`canonical_json` is the toolkit's one JSON text: every file it writes, its
`--format json` output, the config hash (`json_hash64`) and a trace
document's derived tx hash all take it.

Every RNG seed is `derive_seed(seed, *parts)`: blake2b-64 of the base seed
and its context parts. `derive_seeds(seed, parts, lasts)` gives the seeds of
many contexts that differ only in their last part, such as one per epoch,
hashing the shared prefix once; it returns exactly `derive_seed`'s values.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from .errors import MalformedTrace

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


_RATE = 136  # bytes: the 1088-bit rate of the 256-bit variants


def _sponge_1600(data: bytes, suffix: int) -> bytes:
    """The 32-byte digest of `data` with domain `suffix` at rate 136. The
    digest fits in one rate block: the first 32 bytes of the final state."""
    state = bytearray(200)

    def permute() -> None:
        lanes = [int.from_bytes(state[8 * i:8 * i + 8], "little") for i in range(25)]
        lanes = _keccak_f1600(lanes)
        for i, lane in enumerate(lanes):
            state[8 * i:8 * i + 8] = lane.to_bytes(8, "little")

    offset = 0
    block = 0
    while offset < len(data):
        block = min(len(data) - offset, _RATE)
        for i in range(block):
            state[i] ^= data[offset + i]
        offset += block
        if block == _RATE:
            permute()
            block = 0
    state[block] ^= suffix
    state[_RATE - 1] ^= 0x80
    permute()
    return bytes(state[:32])


def keccak256(data: bytes) -> bytes:
    """Keccak-256 digest (EVM convention, multi-rate padding byte 0x01)."""
    return _sponge_1600(data, 0x01)


def sha3_256(data: bytes) -> bytes:
    """SHA3-256 via the same sponge; exists for cross-validation tests."""
    return _sponge_1600(data, 0x06)


def selector(signature: str) -> str:
    """4-byte function selector for a canonical signature, lowercase hex."""
    return keccak256(signature.encode("ascii"))[:4].hex()


def event_topic(signature: str) -> str:
    """topic0 for a canonical event signature, 0x-prefixed lowercase hex."""
    return "0x" + keccak256(signature.encode("ascii")).hex()


# Each label hash copies this empty hash state: cheaper than a new blake2b.
_BLAKE2B_64 = hashlib.blake2b(digest_size=8)


def stable_hash64(text: str) -> str:
    """Platform-stable 64-bit hash of a label string, as 16 hex chars: the
    8-byte blake2b digest of its UTF-8 bytes."""
    h = _BLAKE2B_64.copy()
    h.update(text.encode("utf-8"))
    return h.hexdigest()


def canonical_json(payload: object) -> str:
    """The canonical JSON text of `payload`: sorted keys, no whitespace, no
    final newline, from the C encoder. Content hashes are taken of this
    text, so equal payloads hash equally wherever they are written. The
    encoder recurses once per nesting level: a payload nesting deeper than
    that allows raises MalformedTrace, and so does one that JSON cannot hold
    (a cycle, a set, an int past int()'s digit limit)."""
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except RecursionError as exc:
        raise MalformedTrace(f"document nests too deep to write as JSON ({exc})") from exc
    except (ValueError, TypeError) as exc:
        raise MalformedTrace(f"document cannot be written as JSON ({exc})") from exc


def json_hash64(payload: object) -> str:
    """`stable_hash64` of `canonical_json(payload)`."""
    return stable_hash64(canonical_json(payload))


def _seed_bytes(seed: int, parts: Iterable[object]) -> bytes:
    """What a seed derivation hashes: the base seed in decimal, then each
    context part as `str`, each part after a 0x1f separator, UTF-8."""
    return "\x1f".join([str(int(seed)), *map(str, parts)]).encode("utf-8")


def derive_seed(seed: int, *parts: object) -> int:
    """Derive an independent 64-bit RNG seed from a base seed and context:
    the 8-byte blake2b digest of `_seed_bytes`, read big-endian.

    Context parts are stringified, so content hashes and indices both work.
    """
    h = hashlib.blake2b(_seed_bytes(seed, parts), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def derive_seeds(seed: int, parts: Iterable[object], lasts: Iterable[object]) -> list[int]:
    """`[derive_seed(seed, *parts, last) for last in lasts]`, hashing the
    seed and `parts` once: each seed copies that hash state and adds its
    `last` as `_seed_bytes` adds a part."""
    prefix = hashlib.blake2b(_seed_bytes(seed, parts), digest_size=8)
    seeds = []
    for last in lasts:
        h = prefix.copy()
        h.update(b"\x1f" + str(last).encode("utf-8"))
        seeds.append(int.from_bytes(h.digest(), "big"))
    return seeds
