"""Run configuration: defaults < config file < environment < flags.

The fully resolved config is embedded (with its hash) into every output
artifact so results are attributable to exact settings.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .classify import CLASSIFIERS
from .errors import InvalidConfig
from .features import DEPOSIT, EMBED_DIM, WITHDRAWAL
from .hashing import json_hash64
from .ingest import read_json

ENV_RPC_URL = "BRIDGEGUARD_RPC_URL"


@dataclass
class RunConfig:
    rpc_url: str | None = None
    cache_dir: str | None = None
    wl_iterations: int = 2
    embedding_dim: int = EMBED_DIM
    epochs: int = 100
    learning_rate: float = 0.025
    negative: int = 5
    classifier: str = "knn"
    k: int = 5
    max_depth: int | None = 16
    min_samples_leaf: int = 1
    class_weighting: bool = False
    split_ratio: float = 0.7
    runs: int = 10
    seed: int = 0
    workers: int = 4
    signatures: dict | None = None  # topic0 -> deposit|withdrawal overrides

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        return json_hash64(self.to_dict())


# Field name -> the types its value may have (`int | None` -> (int, NoneType)).
_FIELD_TYPES = {name: get_args(hint) or (hint,)
                for name, hint in get_type_hints(RunConfig).items()}


_is_topic0 = re.compile(r"0x[0-9a-f]{64}").fullmatch

# Field name -> (whether a value of the right type is in range, that range).
_RANGES = {
    "wl_iterations": (lambda v: v >= 1, ">= 1"),
    "epochs": (lambda v: v >= 1, ">= 1"),
    "negative": (lambda v: v >= 0, ">= 0"),
    "embedding_dim": (lambda v: v == EMBED_DIM, f"{EMBED_DIM} (the embedding block's width)"),
    # Compared exactly, so NaN, inf and an int too large for a float all fail.
    "learning_rate": (lambda v: 0 < v <= sys.float_info.max, "finite and > 0"),
    "classifier": (lambda v: v in CLASSIFIERS, f"one of {', '.join(CLASSIFIERS)}"),
    "k": (lambda v: v >= 1, ">= 1"),
    "max_depth": (lambda v: v is None or v >= 1, ">= 1 or null"),
    "min_samples_leaf": (lambda v: v >= 1, ">= 1"),
    "split_ratio": (lambda v: 0 < v < 1, "in (0, 1)"),
    "runs": (lambda v: v >= 1, ">= 1"),
    "seed": (lambda v: v >= 0, ">= 0"),
    "signatures": (lambda v: v is None or all(
        isinstance(topic, str) and _is_topic0(topic) and direction in (DEPOSIT, WITHDRAWAL)
        for topic, direction in v.items()),
        f"null or a map of topic0 (0x and 64 lowercase hex digits, as ingest "
        f"normalizes it) to {DEPOSIT!r} or {WITHDRAWAL!r}"),
}


def _type_ok(value: object, allowed: tuple[type, ...]) -> bool:
    if isinstance(value, bool):  # a bool is an int to isinstance
        return bool in allowed
    if isinstance(value, int) and float in allowed:
        return True
    return isinstance(value, allowed)


def field_error(key: str, value: object) -> str | None:
    """Why `value` is not a valid setting of RunConfig field `key` (not of
    its type, or outside its `_RANGES` range), or None when it is."""
    allowed = _FIELD_TYPES[key]
    if not _type_ok(value, allowed):
        expected = " | ".join("null" if t is type(None) else t.__name__ for t in allowed)
        return f"{key} must be {expected}, got {type(value).__name__} {value!r}"
    if key in _RANGES and not _RANGES[key][0](value):
        return f"{key} must be {_RANGES[key][1]}, got {value!r}"
    return None


def config_from_dict(values: dict, source: str | Path) -> RunConfig:
    """A RunConfig from stored or user-given settings; a key that is not a
    RunConfig field, or a value not of its field's type or outside its
    `_RANGES` range, is an InvalidConfig naming `source` and the key. An int
    given for a float field becomes a float, so equal settings hash equally."""
    if not isinstance(values, dict):
        raise InvalidConfig(f"{source}: settings must be a JSON object")
    unknown = set(values) - set(_FIELD_TYPES)
    if unknown:
        raise InvalidConfig(f"{source}: unknown keys {sorted(unknown)}")
    for key, value in values.items():
        problem = field_error(key, value)
        if problem:
            raise InvalidConfig(f"{source}: {problem}")
    return RunConfig(**{key: float(value) if float in _FIELD_TYPES[key] else value
                        for key, value in values.items()})


def resolve_config(config_file: str | Path | None = None,
                   env: dict | None = None, **flags) -> RunConfig:
    """Build a RunConfig; later sources win (flags strongest)."""
    env = os.environ if env is None else env
    values: dict = {}

    if config_file is not None:
        file_values = read_json(config_file, InvalidConfig)
        config_from_dict(file_values, config_file)  # rejects unknown keys
        values.update(file_values)

    if env.get(ENV_RPC_URL):
        values["rpc_url"] = env[ENV_RPC_URL]

    for key, value in flags.items():
        if value is not None:
            values[key] = value

    return config_from_dict(values, "flags")
