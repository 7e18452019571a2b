"""One string table per corpus, and none per process.

`gen_dataset` and `load_corpus` parse every record with one table, the
`strings` parameter of `ingest.record_from_document`, and
`pipeline.prepare_corpus` builds every WL document with one table, the
`strings` parameter of `wl.wl_document`. So a corpus stores each repeated
address, selector, topic and token once, and every frame stores its kind's
object from `FRAME_KINDS`. The tables live only as long as those calls: the
single-transaction path (`load_trace_file` + `detect`) keeps nothing per
input, and nothing uses `sys.intern`, whose strings CPython 3.12 never frees.
The parser's per-document address memo stays apart from the table, so a
topic or selector in the table is never taken for a checked address.
"""

import gc
import hashlib
import json
import re
import sys
import tracemalloc

import pytest

from bridgeguard.config import RunConfig
from bridgeguard.errors import MalformedTrace
from bridgeguard.ingest import (
    FRAME_KINDS,
    flatten_frames,
    load_corpus,
    load_trace_file,
    record_from_document,
    record_to_document,
)
from bridgeguard.pipeline import detect, prepare, prepare_corpus, train_detector
from bridgeguard.synthgen import GenConfig, gen_dataset, write_corpus

CORPUS = GenConfig(n_normal=400, attack_rate=0.05, noise=(0.5, 3), seed=11)
FAST = RunConfig(epochs=5, seed=3)

# Traced bytes that a corpus's records, and then its preparations, keep per
# transaction (`_retained_per_tx` on CORPUS, CPython 3.11): 2047 (generated
# records), 2043 (loaded records) and 1162 (preparations); 3294, 3291 and
# 2547 before strings were shared. The bounds leave 15% for other CPython
# versions' object sizes.
RECORD_BYTES_PER_TX = 2350
PREP_BYTES_PER_TX = 1340


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The CORPUS samples and its manifest, written to disk."""
    samples, manifest = gen_dataset(CORPUS)
    return samples, write_corpus(samples, manifest,
                                 tmp_path_factory.mktemp("sharing"), CORPUS)


def _strings(record):
    """(field kind, string) for every string a corpus shares in `record`."""
    yield "address", record.sender
    for frame in flatten_frames(record):
        yield "kind", frame.frame_kind
        yield "address", frame.caller
        yield "address", frame.callee
        if frame.selector is not None:
            yield "selector", frame.selector
    for log in record.logs:
        yield "address", log.emitter
        for topic in ([log.topic0] if log.topic0 is not None else []) + log.topics_rest:
            yield "topic", topic


def _assert_one_object_per_value(values) -> int:
    """Every equal value in `values` is one object; returns how many
    values repeat an earlier one."""
    first: dict = {}
    count = 0
    for value in values:
        assert first.setdefault(value, value) is value, f"two objects for {value!r}"
        count += 1
    return count - len(first)


def _assert_records_share(records):
    by_kind: dict[str, list[str]] = {}
    for record in records:
        for kind, value in _strings(record):
            by_kind.setdefault(kind, []).append(value)
    assert set(by_kind) == {"address", "kind", "selector", "topic"}
    for kind, values in by_kind.items():
        assert _assert_one_object_per_value(values) > len(records) // 2, kind
    canonical = {kind: kind for kind in FRAME_KINDS}
    assert all(kind is canonical[kind] for kind in by_kind["kind"])


def test_generated_records_share_their_strings(corpus):
    samples, _ = corpus
    _assert_records_share([s.record for s in samples])


def test_loaded_records_share_their_strings(corpus):
    samples, manifest = corpus
    records, labels = load_corpus(manifest)
    assert labels == [s.label for s in samples]
    _assert_records_share(records)


def test_addresses_spelt_in_two_cases_load_as_one_object(tmp_path):
    address = "0x" + "ab" * 20
    for name, spelling in [("lower.json", address), ("upper.json", "0x" + "AB" * 20)]:
        (tmp_path / name).write_text(json.dumps({"trace": {
            "type": "CALL", "from": spelling, "to": "0x" + "cd" * 20}}))
    (tmp_path / "manifest.jsonl").write_text(
        '{"source":"lower.json","label":"Normal"}\n{"source":"upper.json","label":"Normal"}\n')
    lower, upper = load_corpus(tmp_path / "manifest.jsonl")[0]
    assert lower.sender == address
    assert upper.sender is lower.sender
    assert upper.root_frame.callee is lower.root_frame.callee


@pytest.mark.parametrize("shared, error", [
    ("0x" + "ef" * 32, "expected 20 bytes"),  # a topic
    ("a9059cbb", "expected 0x-prefixed hex string"),  # a selector
], ids=["topic", "selector"])
def test_a_shared_topic_or_selector_is_not_taken_for_an_address(shared, error):
    """The table is not the address memo: a value it holds still passes the
    address check before a document may use it as an address."""
    strings: dict[str, str] = {}
    record_from_document({
        "trace": {"type": "CALL", "from": "0x" + "ab" * 20, "to": "0x" + "cd" * 20,
                  "input": "0xa9059cbb"},
        "logs": [{"address": "0x" + "cd" * 20, "topics": ["0x" + "ef" * 32]}],
    }, strings=strings)
    assert shared in strings
    with pytest.raises(MalformedTrace, match=f"from: {error}"):
        record_from_document({"trace": {"type": "CALL", "from": shared}}, strings=strings)


def test_prepared_documents_share_their_tokens(corpus):
    samples, manifest = corpus
    records, _ = load_corpus(manifest)
    preps = prepare_corpus(records, FAST)
    assert [p.doc for p in preps] == [prepare(r, FAST).doc for r in records]
    assert all(p.record is r for p, r in zip(preps, records))
    tokens = [token for prep in preps for token in prep.doc.tokens]
    assert _assert_one_object_per_value(tokens) > len(records)


def _retained_per_tx(build) -> tuple[object, float]:
    """What `build()` returns, and the traced bytes it keeps alive per
    transaction once garbage is collected."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return kept, (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()


def test_records_and_preparations_stay_under_their_byte_bounds(corpus):
    _, manifest = corpus
    gen_dataset(GenConfig(n_normal=4, seed=1))  # first-call allocations, untimed
    _, generated = _retained_per_tx(lambda: [s.record for s in gen_dataset(CORPUS)[0]])
    records, loaded = _retained_per_tx(lambda: load_corpus(manifest)[0])
    _, prepared = _retained_per_tx(lambda: prepare_corpus(records, FAST))
    assert generated < RECORD_BYTES_PER_TX
    assert loaded < RECORD_BYTES_PER_TX
    assert prepared < PREP_BYTES_PER_TX


@pytest.fixture(scope="module")
def bundle(corpus):
    samples, _ = corpus
    return train_detector([s.record for s in samples], [s.label for s in samples],
                          FAST)[0]


def test_corpus_paths_run_without_sys_intern(corpus, bundle, monkeypatch):
    """`sys.intern` raises when the program calls it. The standard library
    may still call it: `pathlib` interns path parts on some versions."""
    real_intern = sys.intern

    def refuse(value):
        if sys._getframe(1).f_globals.get("__name__", "").startswith("bridgeguard"):
            raise AssertionError(f"sys.intern({value!r})")
        return real_intern(value)

    monkeypatch.setattr(sys, "intern", refuse)
    _, manifest = corpus
    records, _ = load_corpus(manifest)
    prepare_corpus(records[:50], FAST)
    assert len(detect(bundle, records[:50])) == 50
    gen_dataset(GenConfig(n_normal=20, seed=5))


_ADDRESS = re.compile(r'"0x[0-9a-f]{40}"')


def _fresh_trace_files(out, bases: list[str], n: int, tag: str) -> list[str]:
    """`n` trace files, the `bases` documents in turn, each with a tx hash
    and addresses that no other file and no parsed record has."""
    def fresh(nbytes: int, *parts) -> str:
        return '"0x' + hashlib.blake2b(repr(parts).encode(), digest_size=nbytes).hexdigest() + '"'

    out.mkdir()
    paths = []
    for i in range(n):
        text = _ADDRESS.sub(lambda m: fresh(20, tag, i, m.group()), bases[i % len(bases)])
        paths.append(str(out / f"{i}.json"))  # a str: a `Path` keeps its text once asked
        with open(paths[-1], "w") as f:
            f.write(text.replace('"TX_HASH"', fresh(32, tag, i)))
    return paths


def test_labelling_new_inputs_one_at_a_time_keeps_no_memory(corpus, bundle, tmp_path):
    """2,000 inputs whose addresses and hash no earlier input had, labelled
    one at a time from trace files: traced memory returns to where it was,
    so nothing grows per input. The inputs repeat the structures of a warm-up
    pass, which fills the KNN model's per-training-row answers."""
    bases = [json.dumps(dict(record_to_document(s.record), tx_hash="TX_HASH"))
             for s in corpus[0][:40]]
    warm_up = _fresh_trace_files(tmp_path / "warm-up", bases, len(bases), "warm-up")
    paths = _fresh_trace_files(tmp_path / "measured", bases, 2000, "measured")

    def label(path):
        return detect(bundle, [load_trace_file(path)])[0]["label"]

    for path in warm_up:
        label(path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for path in paths:
            label(path)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 2,000-5,000 bytes remain; keeping the addresses of each input would be
    # over 1,000,000, and a 42-character string per input 182,000
    assert grown < 32_000, f"{grown} bytes kept after labelling {len(paths)} inputs"


@pytest.mark.parametrize("spelling", ["call", "Call", "CALL"])
def test_frame_kinds_are_the_frame_kinds_objects(spelling):
    """Every spelling stores the one object in FRAME_KINDS. A frame `type`
    that is not a string is a MalformedTrace: see `_TRICKY` in
    test_ingest.py."""
    canonical = next(kind for kind in FRAME_KINDS if kind == "CALL")
    frame = record_from_document({"trace": {
        "type": spelling, "from": "0x" + "aa" * 20, "to": "0x" + "bb" * 20}}).root_frame
    assert frame.frame_kind is canonical
