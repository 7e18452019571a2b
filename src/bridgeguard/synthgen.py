"""Synthetic labeled corpora of bridge transactions.

Templates follow the documented call-chain patterns: a full deposit chain
(user -> router.deposit -> token.transferFrom -> vault, with Lock and
Deposit events), its withdrawal mirror, a source-chain attack that skips
the token-transfer subcall while still emitting the deposit event, and a
target-chain attack that deploys a contract, drives the router mint path,
and self-destructs. Benign noise calls (price oracles, fee collectors) are
attached so classes are not separable by vertex count alone.

Everything is a pure function of (config, seed): addresses, amounts, noise
placement, and the final corpus order all derive from the seed. Bridge
contract addresses stay fixed per corpus, mirroring real deployments.
The four templates share one seeded frame (`_generate`); each builds only
its own calls and logs. `gen_dataset` parses every record through one string table (the `strings`
parameter of the `gen_*` functions, passed on to
`ingest.record_from_document`), so a corpus stores each repeated address,
selector and topic once; the table is dropped when the call returns.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig
from .features import DEPOSIT_EVENT, LOCK_EVENT, UNLOCK_EVENT, WITHDRAWAL_EVENT
from .hashing import derive_seed, event_topic, json_hash64, selector
from .ingest import (
    DatasetManifest,
    ManifestEntry,
    TxRecord,
    bounded_repr,
    record_from_document,
    record_to_document,
    save_manifest,
    write_json,
)

NOISE_OFF = (0.0, 0)

SOURCE_CHAIN_ID = 1
TARGET_CHAIN_ID = 56

SEL_DEPOSIT = selector("deposit(address,uint256)")
SEL_WITHDRAW = selector("withdraw(address,uint256)")
SEL_TRANSFER_FROM = selector("transferFrom(address,address,uint256)")
SEL_TRANSFER = selector("transfer(address,uint256)")
SEL_MINT = selector("mint(address,uint256)")
SEL_LATEST_ANSWER = selector("latestAnswer()")
SEL_COLLECT_FEE = selector("collectFee(address)")

TOPIC_LOCK = event_topic(LOCK_EVENT)
TOPIC_DEPOSIT = event_topic(DEPOSIT_EVENT)
TOPIC_UNLOCK = event_topic(UNLOCK_EVENT)
TOPIC_WITHDRAWAL = event_topic(WITHDRAWAL_EVENT)


@dataclass
class GenConfig:
    n_normal: int = 4000
    attack_rate: float = 0.005
    src_tgt_ratio: float = 0.5  # fraction of attacks on the source chain
    noise: tuple[float, int] = (0.5, 3)  # (extra benign call probability, depth jitter)
    seed: int = 0

    def validate(self) -> None:
        """InvalidConfig unless each field has its type and range. Counts,
        the seed and the depth jitter are ints and the rates real numbers;
        a bool is neither."""
        n_normal, seed = self.n_normal, self.seed
        if not _is_int(n_normal) or n_normal < 0:
            raise InvalidConfig(f"n_normal must be an int >= 0, got {bounded_repr(n_normal)}")
        if not _is_real(self.attack_rate) or not 0.0 < self.attack_rate < 1.0:
            raise InvalidConfig("attack_rate must be a number in (0, 1), "
                                f"got {bounded_repr(self.attack_rate)}")
        if not _is_real(self.src_tgt_ratio) or not 0.0 <= self.src_tgt_ratio <= 1.0:
            raise InvalidConfig("src_tgt_ratio must be a number in [0, 1], "
                                f"got {bounded_repr(self.src_tgt_ratio)}")
        noise = self.noise
        if not (isinstance(noise, (tuple, list)) and len(noise) == 2
                and _is_real(noise[0]) and 0.0 <= noise[0] <= 1.0
                and _is_int(noise[1]) and noise[1] >= 0):
            raise InvalidConfig("noise must be (probability in [0, 1], int jitter >= 0), "
                                f"got {bounded_repr(noise)}")
        if not _is_int(seed) or seed < 0:
            raise InvalidConfig(f"seed must be an int >= 0, got {bounded_repr(seed)}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class SynthTx:
    record: TxRecord
    label: str
    template_id: str


def _hex_id(nbytes: int, *parts: object) -> str:
    """A 0x-prefixed id of `nbytes` bytes (20: an address, 32: a tx hash):
    the blake2b digest of that size of the parts joined by "|"."""
    h = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=nbytes)
    return "0x" + h.hexdigest()


@dataclass(frozen=True)
class BridgeEnv:
    """Per-corpus fixed contract deployment."""
    router: str
    token: str
    vault: str
    noise_pool: tuple[tuple[str, str, str], ...]  # (kind, address, input)

    @classmethod
    def from_seed(cls, seed: int) -> "BridgeEnv":
        oracles = [("STATICCALL", _hex_id(20, seed, "oracle", i),
                    "0x" + SEL_LATEST_ANSWER) for i in range(3)]
        collectors = [("CALL", _hex_id(20, seed, "collector", i),
                       "0x" + SEL_COLLECT_FEE) for i in range(2)]
        registry = [("STATICCALL", _hex_id(20, seed, "registry"), "0x")]
        return cls(
            router=_hex_id(20, seed, "router"),
            token=_hex_id(20, seed, "token"),
            vault=_hex_id(20, seed, "vault"),
            noise_pool=tuple(oracles + collectors + registry),
        )


def _node(kind: str, frm: str, to: str, input_hex: str = "0x",
          value: int = 0, calls: list | None = None) -> dict:
    return {"type": kind, "from": frm, "to": to, "input": input_hex,
            "value": hex(value), "calls": calls if calls is not None else []}


def _log(emitter: str, topic0: str, index: int, amount: int) -> dict:
    return {"address": emitter, "topics": [topic0],
            "data": "0x" + format(amount, "064x"), "logIndex": index}


def _calldata(sel: str, *words: int) -> str:
    return "0x" + sel + "".join(format(w % (1 << 256), "064x") for w in words)


def _walk(node: dict, depth: int = 0):
    yield node, depth
    for child in node["calls"]:
        yield from _walk(child, depth + 1)


def _apply_noise(trace: dict, rng: np.random.Generator,
                 noise: tuple[float, int], env: BridgeEnv) -> None:
    prob, jitter = noise
    if prob <= 0.0:
        return
    extra = int(rng.binomial(len(env.noise_pool), prob))
    for _ in range(extra):
        hosts = [node for node, depth in _walk(trace)
                 if depth <= jitter and node["type"] != "SELFDESTRUCT"]
        host = hosts[int(rng.integers(len(hosts)))]
        kind, target, input_hex = env.noise_pool[int(rng.integers(len(env.noise_pool)))]
        value = int(rng.integers(0, 10**15)) if kind == "CALL" else 0
        child = _node(kind, host["to"], target, input_hex, value)
        host["calls"].insert(int(rng.integers(len(host["calls"]) + 1)), child)


def _generate(build, template_id: str, seed: int, noise: tuple[float, int],
              env: BridgeEnv | None, strings: dict[str, str] | None) -> SynthTx:
    """The seeded frame every template shares: the env (built from `seed`
    unless given), the amount, the sender, noise, tx hash and block number
    all derive from `seed`; `build(env, seed, sender, amount)` returns the
    template's own (trace, logs, label, chain id)."""
    env = env or BridgeEnv.from_seed(derive_seed(seed, "env"))
    rng = np.random.default_rng(derive_seed(seed, "amounts"))
    amount = int(rng.integers(1, 10**9)) * 10**9
    trace, logs, label, chain_id = build(env, seed, _hex_id(20, seed, "eoa"), amount)
    rng = np.random.default_rng(derive_seed(seed, "noise"))
    _apply_noise(trace, rng, noise, env)
    doc = {"tx_hash": _hex_id(32, seed, "tx"), "chain_id": chain_id,
           "block_number": int(rng.integers(15_000_000, 20_000_000)),
           "sender": trace["from"], "trace": trace, "logs": logs}
    return SynthTx(record=record_from_document(doc, strings=strings), label=label,
                   template_id=template_id)


def _deposit(env: BridgeEnv, seed: int, user: str, amount: int):
    vault_leg = _node("CALL", env.token, env.vault, "0x", amount)
    token_leg = _node("CALL", env.router, env.token,
                      _calldata(SEL_TRANSFER_FROM, 1, 2, amount), 0, [vault_leg])
    trace = _node("CALL", user, env.router, _calldata(SEL_DEPOSIT, 1, amount),
                  0, [token_leg])
    logs = [_log(env.token, TOPIC_LOCK, 0, amount),
            _log(env.router, TOPIC_DEPOSIT, 1, amount)]
    return trace, logs, "Normal", SOURCE_CHAIN_ID


def _withdrawal(env: BridgeEnv, seed: int, relayer: str, amount: int):
    payout = _node("CALL", env.token, _hex_id(20, seed, "recipient"), "0x", amount)
    token_leg = _node("CALL", env.router, env.token,
                      _calldata(SEL_TRANSFER, 1, amount), 0, [payout])
    trace = _node("CALL", relayer, env.router, _calldata(SEL_WITHDRAW, 1, amount),
                  0, [token_leg])
    logs = [_log(env.token, TOPIC_UNLOCK, 0, amount),
            _log(env.router, TOPIC_WITHDRAWAL, 1, amount)]
    return trace, logs, "Normal", TARGET_CHAIN_ID


def _attack_src(env: BridgeEnv, seed: int, attacker: str, amount: int):
    trace = _node("CALL", attacker, env.router, _calldata(SEL_DEPOSIT, 1, amount))
    return trace, [_log(env.router, TOPIC_DEPOSIT, 0, amount)], "AttackSrc", SOURCE_CHAIN_ID


def _attack_tgt(env: BridgeEnv, seed: int, attacker: str, amount: int):
    attack_contract = _hex_id(20, seed, "attack-contract")
    mint_leg = _node("CALL", env.router, env.token, _calldata(SEL_MINT, 1, amount))
    router_leg = _node("CALL", attack_contract, env.router,
                       _calldata(SEL_WITHDRAW, 1, amount), 0, [mint_leg])
    destruct = _node("SELFDESTRUCT", attack_contract, attacker)
    trace = _node("CREATE", attacker, attack_contract, "0x", 0, [router_leg, destruct])
    return trace, [_log(env.token, TOPIC_UNLOCK, 0, amount)], "AttackTgt", TARGET_CHAIN_ID


def gen_normal_deposit(seed: int, noise: tuple[float, int] = NOISE_OFF,
                       env: BridgeEnv | None = None,
                       strings: dict[str, str] | None = None) -> SynthTx:
    """Source-chain deposit: full lock chain plus Lock and Deposit events."""
    return _generate(_deposit, "normal_deposit", seed, noise, env, strings)


def gen_normal_withdrawal(seed: int, noise: tuple[float, int] = NOISE_OFF,
                          env: BridgeEnv | None = None,
                          strings: dict[str, str] | None = None) -> SynthTx:
    """Target-chain withdrawal: release chain plus Unlock and Withdrawal events."""
    return _generate(_withdrawal, "normal_withdrawal", seed, noise, env, strings)


def gen_attack_src(seed: int, noise: tuple[float, int] = NOISE_OFF,
                   env: BridgeEnv | None = None,
                   strings: dict[str, str] | None = None) -> SynthTx:
    """Source-chain attack: deposit event without the token-transfer subcall."""
    return _generate(_attack_src, "attack_src", seed, noise, env, strings)


def gen_attack_tgt(seed: int, noise: tuple[float, int] = NOISE_OFF,
                   env: BridgeEnv | None = None,
                   strings: dict[str, str] | None = None) -> SynthTx:
    """Target-chain attack: contract creation, forced mint, self-destruct."""
    return _generate(_attack_tgt, "attack_tgt", seed, noise, env, strings)


def gen_dataset(cfg: GenConfig) -> tuple[list[SynthTx], DatasetManifest]:
    """Exact per-config counts, seeded shuffle, manifest over trace filenames."""
    cfg.validate()
    env = BridgeEnv.from_seed(derive_seed(cfg.seed, "corpus-env"))
    n_attack = round(cfg.n_normal * cfg.attack_rate)
    n_src = round(n_attack * cfg.src_tgt_ratio)
    n_tgt = n_attack - n_src

    plan = ([((gen_normal_deposit, gen_normal_withdrawal)[i % 2], "normal", i)
             for i in range(cfg.n_normal)]
            + [(gen_attack_src, "attack-src", i) for i in range(n_src)]
            + [(gen_attack_tgt, "attack-tgt", i) for i in range(n_tgt)])
    strings: dict[str, str] = {}
    samples = [gen(derive_seed(cfg.seed, stream, i), cfg.noise, env, strings)
               for gen, stream, i in plan]

    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    order = rng.permutation(len(samples))
    samples = [samples[i] for i in order]
    manifest = DatasetManifest(entries=[
        ManifestEntry(source=f"traces/{tx.record.tx_hash}.json", label=tx.label,
                      chain_id=tx.record.chain_id) for tx in samples])
    return samples, manifest


def gen_config_hash(cfg: GenConfig) -> str:
    return json_hash64(asdict(cfg))


def write_corpus(samples: list[SynthTx], manifest: DatasetManifest,
                 out_dir: str | Path, cfg: GenConfig) -> Path:
    """Write trace files, manifest.jsonl, and the reproducibility sidecar."""
    out_dir = Path(out_dir)
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)
    for tx in samples:
        write_json(out_dir / "traces" / f"{tx.record.tx_hash}.json",
                   record_to_document(tx.record))
    save_manifest(manifest, out_dir / "manifest.jsonl")
    write_json(out_dir / "gen_config.json",
               dict(asdict(cfg), config_hash=gen_config_hash(cfg)))
    return out_dir / "manifest.jsonl"
