import hashlib
import json

import pytest

from bridgeguard.errors import InvalidConfig
from bridgeguard.features import DEPOSIT, DEFAULT_SIGNATURES
from bridgeguard.hashing import canonical_json
from bridgeguard.ingest import (
    load_manifest,
    load_trace_file,
    record_from_document,
    record_to_document,
)
from bridgeguard.motifs import local_feature
from bridgeguard.synthgen import (
    GenConfig,
    gen_attack_src,
    gen_attack_tgt,
    gen_config_hash,
    gen_dataset,
    gen_normal_deposit,
    gen_normal_withdrawal,
    write_corpus,
)
from bridgeguard.wl import wl_document
from bridgeguard.xteg import build_xteg
from conftest import validate_record


def test_deposit_template_structure_and_determinism():
    tx1 = gen_normal_deposit(seed=7)
    tx2 = gen_normal_deposit(seed=7)
    assert tx1 == tx2
    graph = build_xteg(tx1.record)
    assert len(graph.vertices) == 6
    assert sorted(e.kind for e in graph.edges) == ["CALL"] * 3 + ["EMIT"] * 2
    assert tx1.label == "Normal"


def test_same_template_different_seeds_are_isomorphic():
    docs = {wl_document(build_xteg(gen_normal_deposit(seed=s).record))
            for s in range(8)}
    assert len(docs) == 1  # address identities vary, structure does not
    withdrawals = {wl_document(build_xteg(gen_normal_withdrawal(seed=s).record))
                   for s in range(8)}
    assert len(withdrawals) == 1


def test_deposit_corpus_always_carries_deposit_topic():
    deposit_topics = {t for t, d in DEFAULT_SIGNATURES.items() if d == DEPOSIT}
    for i in range(1000):
        tx = gen_normal_deposit(seed=i, noise=(0.5, 3))
        assert any(log.topic0 in deposit_topics for log in tx.record.logs)


def test_withdrawal_template():
    tx = gen_normal_withdrawal(seed=11)
    graph = build_xteg(tx.record)
    assert len(graph.vertices) == 6
    assert tx.label == "Normal"
    withdrawal_topics = {t for t, d in DEFAULT_SIGNATURES.items() if d != DEPOSIT}
    assert any(log.topic0 in withdrawal_topics for log in tx.record.logs)


def test_attack_src_misses_the_transfer_leg():
    env_seed = 123
    normal = build_xteg(gen_normal_deposit(seed=env_seed).record)
    attack = build_xteg(gen_attack_src(seed=env_seed).record)
    assert len(attack.vertices) < len(normal.vertices)
    assert sum(1 for e in attack.edges if e.kind == "CALL") == 1
    assert local_feature(attack).counts != local_feature(normal).counts
    assert wl_document(attack) != wl_document(normal)
    for i in range(50):
        assert gen_attack_src(seed=i).label == "AttackSrc"


def test_attack_tgt_creates_and_destructs():
    tx = gen_attack_tgt(seed=5)
    graph = build_xteg(tx.record)
    kinds = {e.kind for e in graph.edges}
    assert "CREATE" in kinds and "SELFDESTRUCT" in kinds
    assert tx.label == "AttackTgt"
    # structural separation from its paired normal template
    normal = build_xteg(gen_normal_withdrawal(seed=5).record)
    assert wl_document(graph) != wl_document(normal)
    assert local_feature(graph).counts != local_feature(normal).counts


def test_no_normal_template_contains_selfdestruct():
    for i in range(200):
        for gen in (gen_normal_deposit, gen_normal_withdrawal):
            record = gen(seed=i, noise=(0.6, 3)).record
            kinds = {e.kind for e in build_xteg(record).edges}
            assert "SELFDESTRUCT" not in kinds
            assert "CREATE" not in kinds


def test_gen_dataset_counts_and_shuffle():
    cfg = GenConfig(n_normal=400, attack_rate=0.05, src_tgt_ratio=0.5,
                    noise=(0.3, 2), seed=9)
    samples, manifest = gen_dataset(cfg)
    counts = {label: sum(1 for s in samples if s.label == label)
              for label in ("Normal", "AttackSrc", "AttackTgt")}
    assert counts == {"Normal": 400, "AttackSrc": 10, "AttackTgt": 10}
    assert len(samples) == 420 == len(manifest.entries)
    labels_in_order = [s.label for s in samples]
    assert labels_in_order != (["Normal"] * 400 + ["AttackSrc"] * 10
                               + ["AttackTgt"] * 10)  # shuffled
    assert len({s.record.tx_hash for s in samples}) == len(samples)


def test_gen_dataset_matches_protocol_arithmetic():
    # 0.5% of 4,000 -> 20 attacks, 4,020 transactions overall.
    assert round(4000 * 0.005) == 20
    cfg = GenConfig(n_normal=1000, attack_rate=0.005, seed=1)
    samples, _ = gen_dataset(cfg)
    assert len(samples) == 1005
    assert sum(1 for s in samples if s.label != "Normal") == 5


def test_gen_dataset_deterministic():
    cfg = GenConfig(n_normal=60, attack_rate=0.05, seed=42)
    s1, m1 = gen_dataset(cfg)
    s2, m2 = gen_dataset(cfg)
    assert s1 == s2
    assert m1 == m2
    s3, _ = gen_dataset(GenConfig(n_normal=60, attack_rate=0.05, seed=43))
    assert s1 != s3


def test_every_generated_tx_survives_ingest_and_build():
    cfg = GenConfig(n_normal=80, attack_rate=0.05, noise=(0.7, 3), seed=17)
    samples, _ = gen_dataset(cfg)
    for tx in samples:
        validate_record(tx.record)
        graph = build_xteg(tx.record)
        assert len(graph.vertices) >= 2


def test_noise_varies_graph_sizes():
    cfg = GenConfig(n_normal=100, attack_rate=0.05, noise=(0.6, 3), seed=2)
    samples, _ = gen_dataset(cfg)
    normal_sizes = {len(build_xteg(s.record).vertices)
                    for s in samples if s.label == "Normal"}
    attack_sizes = {len(build_xteg(s.record).vertices)
                    for s in samples if s.label != "Normal"}
    assert len(normal_sizes) > 1
    assert normal_sizes & attack_sizes  # |V| alone cannot separate the classes


def test_write_corpus_round_trips(tmp_path):
    cfg = GenConfig(n_normal=20, attack_rate=0.1, seed=3)
    samples, manifest = gen_dataset(cfg)
    manifest_path = write_corpus(samples, manifest, tmp_path, cfg)
    loaded = load_manifest(manifest_path)
    assert [e.label for e in loaded.entries] == [s.label for s in samples]
    for entry, tx in zip(loaded.entries, samples):
        record = load_trace_file(tmp_path / entry.source)
        assert record == tx.record
    sidecar = json.loads((tmp_path / "gen_config.json").read_text())
    assert sidecar["seed"] == 3 and sidecar["n_normal"] == 20


def test_written_bytes_are_pinned(tmp_path):
    # Trace files are the benchmark's inputs. Every file holds its documents'
    # `canonical_json` text, one per line in the manifest, so these bytes and
    # the derived hashes move only with the generator or that one encoding.
    cfg = GenConfig(n_normal=8, attack_rate=0.25, seed=11)
    samples, manifest = gen_dataset(cfg)
    write_corpus(samples, manifest, tmp_path, cfg)
    traces = sorted((tmp_path / "traces").iterdir())
    assert len(traces) == 10
    digest = hashlib.sha256(b"".join(path.read_bytes() for path in traces)).hexdigest()
    assert digest == "2d19682d58665d967ab5b85c2f05af0dcac9e57d5fc490e9c40139606cd88893"
    assert hashlib.sha256((tmp_path / "gen_config.json").read_bytes()).hexdigest() == (
        "9051e014de3bcdea7d41d9411aaea1ced0ba4424185aa68da08809d980db9c6d")
    assert hashlib.sha256((tmp_path / "manifest.jsonl").read_bytes()).hexdigest() == (
        "6e313baddeac509d127bc9526ebdd3dc91730b268f3aa46fff644c93520c6773")
    assert gen_config_hash(cfg) == "7e22d8a2a2977b9f"
    doc = {"trace": {"type": "CALL", "from": "0x" + "ab" * 20, "to": "0x" + "cd" * 20,
                     "input": "0x", "value": "0x0"}, "logs": []}
    assert record_from_document(doc).tx_hash == (
        "0x8c65e7fd8876ac1e377c32012a3808cce3ba7284204e001596064be47067b3e9")


@pytest.mark.parametrize("gen, label, template_id, digest", [
    (gen_normal_deposit, "Normal", "normal_deposit",
     "d8eba765f94e11a3f332716aab10b45fab2726093ba1d6a053f13a307118719a"),
    (gen_normal_withdrawal, "Normal", "normal_withdrawal",
     "9b422d0f9fd3742edd489941976333c599062c1d2b200cfed0de10b130e9051e"),
    (gen_attack_src, "AttackSrc", "attack_src",
     "885a5a73dc55cdcb61c4cd5b80b7b2e09320a73c479c109d2512172cfd530874"),
    (gen_attack_tgt, "AttackTgt", "attack_tgt",
     "ad51ccae441defbd62b0a4eafa835937ef25a8d5a17c24934a5088c59224725a"),
])
def test_template_bytes_are_pinned(gen, label, template_id, digest):
    # Each template called on its own: the env built from its own seed, with
    # and without noise. `gen_dataset` reaches the templates only through one
    # shared env, so `test_written_bytes_are_pinned` does not cover this path.
    h = hashlib.sha256()
    for seed in (0, 7, 123, 2024):
        for tx in (gen(seed), gen(seed, noise=(0.5, 3))):
            assert (tx.label, tx.template_id) == (label, template_id)
            h.update(canonical_json(record_to_document(tx.record)).encode() + b"\n")
    assert h.hexdigest() == digest


def test_invalid_configs_rejected():
    for cfg in (
        GenConfig(n_normal=-1),
        GenConfig(attack_rate=0.0),
        GenConfig(attack_rate=1.0),
        GenConfig(src_tgt_ratio=1.5),
        GenConfig(noise=(1.5, 0)),
        GenConfig(noise=(0.2, -1)),
    ):
        with pytest.raises(InvalidConfig):
            gen_dataset(cfg)


@pytest.mark.parametrize("field, value", [
    ("n_normal", 2.5), ("n_normal", "4"), ("n_normal", True), ("n_normal", None),
    ("attack_rate", "0.1"), ("attack_rate", None), ("attack_rate", True),
    ("src_tgt_ratio", "0.5"), ("src_tgt_ratio", False), ("src_tgt_ratio", float("nan")),
    ("noise", (0.5,)), ("noise", (0.5, 3, 1)), ("noise", 0.5), ("noise", "ab"),
    ("noise", (0.5, 2.5)), ("noise", (0.5, True)), ("noise", ("0.5", 3)),
    ("noise", (float("nan"), 3)),
    ("seed", 1.5), ("seed", -1), ("seed", True), ("seed", "0"),
])
def test_config_of_the_wrong_type_or_range_rejected_naming_the_field(field, value):
    with pytest.raises(InvalidConfig, match=f"^{field} must be "):
        gen_dataset(GenConfig(**{field: value}))


def test_range_edges_and_a_noise_list_accepted():
    samples, _ = gen_dataset(GenConfig(n_normal=0, attack_rate=0.5, src_tgt_ratio=0,
                                       noise=[1, 0], seed=0))
    assert samples == []
    samples, _ = gen_dataset(GenConfig(n_normal=2, attack_rate=0.5, src_tgt_ratio=1.0,
                                       noise=(0.0, 2), seed=2**70))
    assert [s.label for s in samples].count("AttackSrc") == 1
