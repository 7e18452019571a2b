"""Run configuration: defaults < config file < environment < flags.

The fully resolved config is embedded (with its hash) into every output
artifact so results are attributable to exact settings.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import InvalidConfig

ENV_RPC_URL = "BRIDGEGUARD_RPC_URL"


@dataclass
class RunConfig:
    rpc_url: str | None = None
    cache_dir: str | None = None
    wl_iterations: int = 2
    embedding_dim: int = 16
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
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


def config_from_dict(values: dict, source: str | Path) -> RunConfig:
    """A RunConfig from stored or user-given settings; a key that is not a
    RunConfig field is an InvalidConfig naming `source`."""
    if not isinstance(values, dict):
        raise InvalidConfig(f"{source}: settings must be a JSON object")
    unknown = set(values) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise InvalidConfig(f"{source}: unknown keys {sorted(unknown)}")
    return RunConfig(**values)


def resolve_config(config_file: str | Path | None = None,
                   env: dict | None = None, **flags) -> RunConfig:
    """Build a RunConfig; later sources win (flags strongest)."""
    env = os.environ if env is None else env
    values: dict = {}

    if config_file is not None:
        with open(config_file) as f:
            try:
                file_values = json.load(f)
            except json.JSONDecodeError as exc:
                raise InvalidConfig(f"{config_file}: invalid JSON ({exc})") from exc
        config_from_dict(file_values, config_file)  # rejects unknown keys
        values.update(file_values)

    if env.get(ENV_RPC_URL):
        values["rpc_url"] = env[ENV_RPC_URL]

    for key, value in flags.items():
        if value is not None:
            values[key] = value

    return config_from_dict(values, "flags")
