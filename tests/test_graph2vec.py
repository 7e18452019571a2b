import dataclasses
import json
import logging
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bridgeguard import graph2vec
from bridgeguard.errors import (
    BridgeGuardError,
    EmptyCorpus,
    InvalidConfig,
    ModelMissing,
    ModelVersionMismatch,
    TrainingDiverged,
)
from bridgeguard.graph2vec import (
    TrainParams,
    _NoiseSampler,
    _pcg64_states,
    _Streams,
    infer_embedding,
    train_graph2vec,
)
from bridgeguard.hashing import derive_seed
from bridgeguard.pipeline import BUNDLE_FILE, MODEL_FILE, load_bundle, save_bundle
from bridgeguard.wl import WLDocument
from conftest import rewrite_model, tiny_bundle

FAST = TrainParams(epochs=30)


def _doc(*tokens):
    return WLDocument(tokens=tuple(sorted(tokens)))


def _family(prefix, n_docs, rng):
    """Documents sharing a token core, each with a private variation."""
    core = [f"{prefix}-core-{i}" for i in range(6)]
    return [_doc(*(core + [f"{prefix}-var-{rng.integers(0, 4)}-{j % 2}"]))
            for j in range(n_docs)]


def _cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_identical_documents_get_identical_vectors():
    corpus = [_doc("a", "b", "c"), _doc("c", "b", "a"), _doc("x", "y", "z")]
    model = train_graph2vec(corpus, params=FAST, seed=5)
    assert np.array_equal(model.graph_vectors[0], model.graph_vectors[1])
    assert not np.array_equal(model.graph_vectors[0], model.graph_vectors[2])


def test_training_is_bitwise_deterministic():
    rng = np.random.default_rng(0)
    corpus = _family("a", 6, rng) + _family("b", 6, rng)
    m1 = train_graph2vec(corpus, params=FAST, seed=123)
    m2 = train_graph2vec(corpus, params=FAST, seed=123)
    assert np.array_equal(m1.graph_vectors, m2.graph_vectors)
    assert np.array_equal(m1.token_vectors, m2.token_vectors)
    m3 = train_graph2vec(corpus, params=FAST, seed=124)
    assert not np.array_equal(m1.graph_vectors, m3.graph_vectors)


def test_two_disjoint_classes_separate():
    # Literal two-template case: disjoint token sets.
    corpus = [_doc("a1", "a2", "a3")] * 10 + [_doc("b1", "b2", "b3")] * 10
    model = train_graph2vec(corpus, params=TrainParams(epochs=60), seed=7)
    v = model.graph_vectors
    intra, inter = [], []
    for i in range(20):
        for j in range(i + 1, 20):
            (intra if (i < 10) == (j < 10) else inter).append(_cosine(v[i], v[j]))
    assert np.mean(intra) > np.mean(inter)


def test_structurally_distinct_families_separate(rng):
    corpus = _family("left", 10, rng) + _family("right", 10, rng)
    model = train_graph2vec(corpus, params=TrainParams(epochs=60), seed=3)
    v = model.graph_vectors
    intra, inter = [], []
    for i in range(20):
        for j in range(i + 1, 20):
            (intra if (i < 10) == (j < 10) else inter).append(_cosine(v[i], v[j]))
    margin = float(np.mean(intra) - np.mean(inter))
    assert margin > 0
    print(f"family separation margin: {margin:.4f}")  # recorded, not pinned


def test_infer_exact_content_fast_path():
    corpus = [_doc("a", "b"), _doc("c", "d"), _doc("e", "f")]
    model = train_graph2vec(corpus, params=FAST, seed=1)
    again = _doc("b", "a")  # same multiset
    assert np.array_equal(infer_embedding(model, again), model.graph_vectors[0])


def test_infer_unseen_tokens_is_finite_and_deterministic():
    model = train_graph2vec([_doc("a", "b"), _doc("c", "d")], params=FAST, seed=2)
    unseen = _doc("zz1", "zz2", "zz3")
    v1 = infer_embedding(model, unseen)
    v2 = infer_embedding(model, unseen)
    assert np.isfinite(v1).all()
    assert np.array_equal(v1, v2)


def test_infer_near_duplicate_lands_nearest_its_source(rng):
    docs = [
        _doc("p1", "p2", "p3", "p4", "p5"),
        _doc("q1", "q2", "q3", "q4", "q5"),
        _doc("r1", "r2", "r3", "r4", "r5"),
    ]
    model = train_graph2vec(docs, params=TrainParams(epochs=60), seed=9)
    probe = _doc("q1", "q2", "q3", "q4", "novel")  # doc 1 with one token changed
    v = infer_embedding(model, probe)
    sims = [_cosine(v, model.graph_vectors[i]) for i in range(3)]
    assert max(range(3), key=sims.__getitem__) == 1


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train_graph2vec([])


def test_divergence_is_one_typed_error_without_warnings():
    corpus = [_doc("a", "b", "c"), _doc("b", "c", "d"), _doc("a", "d")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match="diverged") as caught:
            train_graph2vec(corpus, params=TrainParams(epochs=5, learning_rate=1e100), seed=1)
    assert isinstance(caught.value, BridgeGuardError)


def test_no_negatives_trains_and_infers():
    model = train_graph2vec([_doc("a", "b"), _doc("c")], params=TrainParams(epochs=3, negative=0))
    assert np.isfinite(model.graph_vectors).all()
    assert np.isfinite(infer_embedding(model, _doc("a", "zz"))).all()


def _saved(tmp_path, model):
    """The directory of a bundle that holds `model`."""
    return save_bundle(tiny_bundle(embedding=model), tmp_path / "model")


def _rewrite_meta(model_dir, edit) -> None:
    """Apply `edit` to the bundle.json document in `model_dir`."""
    path = model_dir / BUNDLE_FILE
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


def test_model_round_trip_and_version_check(tmp_path):
    corpus = [_doc("a", "b"), _doc("c", "d")]
    model = train_graph2vec(corpus, params=FAST, seed=4)
    model_dir = _saved(tmp_path, model)
    loaded = load_bundle(model_dir).embedding
    assert np.array_equal(loaded.graph_vectors, model.graph_vectors)
    assert np.array_equal(loaded.token_vectors, model.token_vectors)
    assert np.array_equal(loaded.token_counts, model.token_counts)
    assert loaded.vocab == model.vocab
    assert loaded.doc_hashes == model.doc_hashes
    assert (loaded.params, loaded.seed) == (model.params, model.seed)
    assert np.array_equal(infer_embedding(loaded, _doc("a", "b")),
                          model.graph_vectors[0])
    miss = _doc("a", "c", "zz")
    assert np.array_equal(infer_embedding(loaded, miss), infer_embedding(model, miss))

    _rewrite_meta(model_dir, lambda meta: meta.update(version=999))
    with pytest.raises(ModelVersionMismatch, match="bundle format 999 .* retrain"):
        load_bundle(model_dir)


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)
    return "token"


class _Payload:
    """Unpickling this calls `_record_unpickling`, as a crafted file could
    call anything."""

    def __reduce__(self):
        return _record_unpickling, ()


@pytest.mark.parametrize("version", [1, 2])
def test_object_arrays_are_never_unpickled(tmp_path, version):
    # Bundle format 1 is rejected before any array is read; format 2 refuses
    # to unpickle an object array.
    model_dir = _saved(tmp_path, train_graph2vec([_doc("a", "b")], params=FAST, seed=4))
    with np.load(model_dir / MODEL_FILE) as data:
        doc_hashes = data["doc_hashes"]
    rewrite_model(model_dir, tokens=np.array([_Payload()] * 2, dtype=object),
                  doc_hashes=doc_hashes.astype(object))
    _rewrite_meta(model_dir, lambda meta: meta.update(version=version))
    with pytest.raises(ModelVersionMismatch, match=BUNDLE_FILE if version == 1 else MODEL_FILE):
        load_bundle(model_dir)
    assert _UNPICKLED == []


def _set_setting(key, value):
    def edit(meta):
        if key is None:
            meta["config"] = value
        else:
            meta["config"][key] = value
    return edit


# The embedding's header (its dim, seed and training params) is the config
# in bundle.json, checked as settings: out of RunConfig's ranges, every miss
# would raise an untyped error or give NaN vectors.
@pytest.mark.parametrize("key, value, named", [
    (None, [], None),
    ("window", 3, "window"),
    ("embedding_dim", [16], "embedding_dim"),
    ("embedding_dim", "16", "embedding_dim"),
    ("embedding_dim", 16.5, "embedding_dim"),
    ("seed", [], "seed"),
    ("negative", -1, "negative"),
    ("epochs", "100", "epochs"),
    ("epochs", 1.5, "epochs"),
    ("epochs", 0, "epochs"),
    ("epochs", True, "epochs"),
    ("learning_rate", float("nan"), "learning_rate"),
    ("learning_rate", 0, "learning_rate"),
    ("learning_rate", 10**400, "learning_rate"),  # an int too large for a float
    ("wl_iterations", 0, "wl_iterations"),
], ids=["params-list", "params-unknown-key", "dim-list", "dim-string", "dim-float",
        "seed-list", "negative-below-0", "epochs-string", "epochs-float", "epochs-0",
        "epochs-bool", "learning-rate-nan", "learning-rate-0", "learning-rate-huge-int",
        "wl-iterations-0"])
def test_header_field_of_the_wrong_type_rejected_naming_it(tmp_path, key, value, named):
    model_dir = _saved(tmp_path, train_graph2vec([_doc("a", "b")], params=FAST, seed=4))
    _rewrite_meta(model_dir, _set_setting(key, value))
    with pytest.raises(InvalidConfig, match=BUNDLE_FILE) as caught:
        load_bundle(model_dir)
    assert named is None or named in str(caught.value)


def test_header_nested_deeper_than_the_decoder_recurses_rejected_naming_it(tmp_path):
    model_dir = _saved(tmp_path, train_graph2vec([_doc("a", "b")], params=FAST, seed=4))
    (model_dir / BUNDLE_FILE).write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ModelMissing, match=BUNDLE_FILE):
        load_bundle(model_dir)


@pytest.mark.parametrize("content", [b"not a model", b"", b"PK\x03\x04truncated"],
                         ids=["text", "empty", "truncated-zip"])
def test_file_that_is_not_a_model_rejected_naming_it(tmp_path, content):
    model_dir = _saved(tmp_path, train_graph2vec([_doc("a", "b")], params=FAST, seed=4))
    (model_dir / MODEL_FILE).write_bytes(content)
    with pytest.raises(ModelVersionMismatch, match=MODEL_FILE):
        load_bundle(model_dir)


def test_vectors_have_requested_dim_and_are_finite():
    model = train_graph2vec([_doc("a")], params=FAST, seed=0)
    assert model.graph_vectors.shape == (1, 16)
    assert np.isfinite(model.graph_vectors).all()
    assert np.isfinite(model.token_vectors).all()


@pytest.mark.parametrize("key, value", [
    ("token_counts", np.zeros(0, dtype=np.int64)),
    ("token_counts", np.zeros(2, dtype=np.int64)),
    ("token_counts", np.ones(3, dtype=np.int64)),
    ("token_vectors", np.zeros((1, 16))),
    ("graph_vectors", np.zeros((2, 16))),
    ("tokens", np.arange(2)),
    ("doc_hashes", np.arange(1)),
], ids=["no-counts", "zero-counts", "extra-count", "missing-token-row", "extra-doc-row",
        "integer-tokens", "integer-doc-hashes"])
def test_model_with_inconsistent_arrays_rejected_naming_it(tmp_path, key, value):
    # A two-token, one-document model whose noise distribution or array
    # shapes are broken; sampling from it could pick a missing token row.
    model_dir = _saved(tmp_path, train_graph2vec([_doc("a", "b")], params=FAST, seed=4))
    rewrite_model(model_dir, **{key: value})
    with pytest.raises(ModelVersionMismatch, match=MODEL_FILE):
        load_bundle(model_dir)


# --- the guide-table noise sampler ----------------------------------------


def _edge_uniforms(sampler: _NoiseSampler) -> np.ndarray:
    """Uniforms on and beside every bucket edge b/K and every CDF value."""
    edges = np.arange(sampler.buckets) / sampler.buckets
    cdf = sampler.cdf
    u = np.concatenate([[0.0, 1.0 - 2.0 ** -53], edges, np.nextafter(edges, 0.0),
                        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
    return u[u < 1.0]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=3000),
       skew=st.floats(min_value=0.0, max_value=12.0))
@example(seed=0, n=1, skew=0.0)  # a one-token vocabulary
@example(seed=1, n=3000, skew=12.0)  # counts across twelve orders of magnitude
def test_guide_table_draw_equals_searchsorted(seed, n, skew):
    rng = np.random.default_rng(seed)
    counts = np.floor(10.0 ** (skew * rng.random(n))).astype(np.int64)
    sampler = _NoiseSampler(counts)
    assert sampler.buckets >= 4 * n
    u = np.concatenate([rng.random(4000), _edge_uniforms(sampler)])
    assert np.array_equal(sampler.draw(u), np.searchsorted(sampler.cdf, u))


def test_guide_table_walks_a_bucket_holding_many_tokens():
    # One dominant token leaves a thousand CDF steps inside the last bucket.
    sampler = _NoiseSampler(np.array([10**12] + [1] * 1000))
    u = _edge_uniforms(sampler)
    assert np.array_equal(sampler.draw(u), np.searchsorted(sampler.cdf, u))
    assert sampler.draw(np.array([1.0 - 2.0 ** -53]))[0] == 1000


# --- the seeded streams ----------------------------------------------------


_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
       n=st.integers(min_value=0, max_value=400))
@example(seeds=_EDGE_SEEDS, n=0)
@example(seeds=_EDGE_SEEDS, n=150)
def test_seeded_streams_equal_default_rng(seeds, n):
    states = _pcg64_states(seeds)
    rows = np.full((len(seeds), n), np.nan)
    streams = _Streams()
    streams.fill(states, rows)
    for seed, state, row in zip(seeds, states, rows, strict=True):
        oracle = np.random.default_rng(seed)
        assert np.array_equal(row, oracle.random(n))
        rng = streams.at(state)
        oracle = np.random.default_rng(seed)
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert np.array_equal(rng.uniform(-0.5 / 16, 0.5 / 16, 16),
                              oracle.uniform(-0.5 / 16, 0.5 / 16, 16))


# --- oracle: the plain per-document algorithm ------------------------------
#
# An independent copy of the straightforward trainer and inference: noise
# drawn with `searchsorted` over the CDF per document and epoch, a step that
# always computes the token gradient, and `np.add.at` on token rows. The
# optimized module must reproduce it bit for bit.


def _plain_cdf(counts):
    cdf = np.cumsum(counts.astype(np.float64) ** 0.75)
    return cdf / cdf[-1]


def _plain_step(d, rows, labels, token_vectors, lr):
    w = token_vectors[rows]
    coef = 1.0 / (1.0 + np.exp(-np.clip(w @ d, -35.0, 35.0))) - labels
    grad_d = w.T @ coef
    token_grad = coef[:, None] * d[None, :]
    d -= lr * grad_d
    return token_grad


def _plain_lr(params, epoch):
    return params.learning_rate * max(1.0 - epoch / params.epochs, 1e-4)


def _plain_init(seed, dim):
    return np.random.default_rng(seed).uniform(-0.5 / dim, 0.5 / dim, dim)


def _plain_train(corpus, dim, params, seed, on_epoch=None):
    vocab = {}
    for doc in corpus:
        for token in doc.tokens:
            vocab.setdefault(token, len(vocab))
    counts = np.zeros(len(vocab), dtype=np.int64)
    for doc in corpus:
        for token in doc.tokens:
            counts[vocab[token]] += 1
    cdf = _plain_cdf(counts)
    token_vectors = np.random.default_rng(seed).uniform(-0.5 / dim, 0.5 / dim,
                                                        (len(vocab), dim))
    jobs = {}
    for doc in corpus:
        h = doc.content_hash
        if h not in jobs:
            jobs[h] = [np.array([vocab[t] for t in doc.tokens], dtype=np.int64), 0,
                       _plain_init(derive_seed(seed, "doc", h), dim)]
        jobs[h][1] += 1
    for epoch in range(params.epochs):
        lr = _plain_lr(params, epoch)
        snapshot = token_vectors.copy()
        accum = np.zeros_like(token_vectors)
        for h, (idx, mult, vec) in jobs.items():
            rng = np.random.default_rng(derive_seed(seed, "neg", h, epoch))
            negs = np.searchsorted(cdf, rng.random(idx.size * params.negative))
            rows = np.concatenate([idx, negs])
            labels = np.concatenate([np.ones(idx.size), np.zeros(negs.size)])
            token_grad = _plain_step(vec, rows, labels, snapshot, lr)
            np.add.at(accum, rows, (-lr * mult) * token_grad)
        token_vectors += accum
        if on_epoch is not None:
            on_epoch(token_vectors, [vec for _, _, vec in jobs.values()])
    graph_vectors = np.stack([jobs[doc.content_hash][2] for doc in corpus])
    return vocab, counts, token_vectors, graph_vectors


def _assert_trains_as_the_plain_algorithm(model, corpus, dim, params, seed):
    vocab, counts, token_vectors, graph_vectors = _plain_train(corpus, dim, params, seed)
    assert list(model.vocab.items()) == list(vocab.items())  # the numbering, in order
    assert model.token_counts.dtype == counts.dtype
    assert np.array_equal(model.token_counts, counts)
    assert np.array_equal(model.token_vectors, token_vectors)
    assert np.array_equal(model.graph_vectors, graph_vectors)
    assert model.doc_hashes == [doc.content_hash for doc in corpus]


def _plain_infer(model, doc):
    hit = model.lookup(doc)
    if hit is not None:
        return model.graph_vectors[hit].copy()
    params, h = model.params, doc.content_hash
    idx = np.array([model.vocab[t] for t in doc.tokens if t in model.vocab],
                   dtype=np.int64)
    cdf = _plain_cdf(model.token_counts)
    d = _plain_init(derive_seed(model.seed, "infer", h), model.dim)
    for epoch in range(params.epochs):
        rng = np.random.default_rng(derive_seed(model.seed, "inferneg", h, epoch))
        negs = np.searchsorted(cdf, rng.random(len(doc.tokens) * params.negative))
        rows = np.concatenate([idx, negs])
        labels = np.concatenate([np.ones(idx.size), np.zeros(negs.size)])
        _plain_step(d, rows, labels, model.token_vectors, _plain_lr(params, epoch))
    return d


@pytest.mark.parametrize("with_empty", [False, True],
                         ids=["empty-doc-missed", "empty-doc-trained"])
def test_training_and_inference_match_the_plain_algorithm(rng, with_empty):
    corpus = (_family("a", 8, rng) + _family("b", 8, rng)
              + [_doc("c1", "c2", "c2", "c3")] * 3  # duplicate contents
              + [_doc(*[f"t{i % 40}" for i in range(300)])])  # a long document
    if with_empty:
        corpus.append(WLDocument(tokens=()))
    params = TrainParams(epochs=12, negative=3)
    model = train_graph2vec(corpus, dim=8, params=params, seed=11)
    _assert_trains_as_the_plain_algorithm(model, corpus, 8, params, 11)

    probes = [
        corpus[0],  # a trained-vector hit
        _doc("a-core-0", "a-core-1", "b-core-2", "c1", "novel"),  # a miss
        _doc("oov-1", "oov-2", "oov-2"),  # every token out of vocabulary
        WLDocument(tokens=()),  # zero tokens: a hit only when trained
        _doc(*[f"t{i % 50}" for i in range(2000)]),  # 2000 tokens x 3 negatives
    ]
    assert (model.lookup(probes[3]) is not None) == with_empty
    for probe in probes:
        assert np.array_equal(infer_embedding(model, probe), _plain_infer(model, probe))


# --- inference misses against the plain algorithm ------------------------
#
# A miss fills the uniforms of a block of epochs, one row per epoch, and
# draws them in pieces of at most `_DRAW_BLOCK`. The probes below hold 4 and
# 40 tokens, so with 3 negatives an epoch has 12 or 120 uniforms: a block
# size of 1 or 5 splits every epoch, 24 puts two epochs of the short probe in
# a block (7 epochs leave a block of one), and 2^14 puts every epoch in one.


def _inference_model(epochs, negative):
    corpus = [_doc("a1", "a2", "a3"), _doc("a1", "b1", "b2"), _doc("b1", "b2", "b2"),
              _doc(*[f"t{i % 9}" for i in range(30)])]
    return train_graph2vec(corpus, dim=8, params=TrainParams(epochs=epochs, negative=negative),
                           seed=21)


_INFERENCE_PROBES = {
    "miss": _doc("a1", "a2", "b1", "novel"),
    "all-out-of-vocabulary": _doc("oov-1", "oov-2", "oov-2", "oov-3"),
    "no-tokens": WLDocument(tokens=()),
    "long": _doc(*[f"t{i % 12}" for i in range(40)]),
}


@pytest.mark.parametrize("draw_block", [1, 5, 24, 2 ** 14])
@pytest.mark.parametrize("epochs", [1, 7])
@pytest.mark.parametrize("negative", [0, 3])
def test_inference_blocks_match_the_plain_algorithm(draw_block, epochs, negative):
    model = _inference_model(epochs, negative)
    with mock.patch.object(graph2vec, "_DRAW_BLOCK", draw_block):
        for name, probe in _INFERENCE_PROBES.items():
            assert model.lookup(probe) is None, name
            assert np.array_equal(infer_embedding(model, probe), _plain_infer(model, probe)), name


@pytest.mark.parametrize("negative, probe", [(0, "miss"), (0, "long"), (3, "no-tokens")])
def test_inference_without_negatives_seeds_only_the_start_vector(negative, probe):
    model = _inference_model(7, negative)
    doc = _INFERENCE_PROBES[probe]
    seen = []

    def recording(seeds):
        seen.append(list(seeds))
        return _pcg64_states(seeds)

    with mock.patch.object(graph2vec, "_pcg64_states", recording):
        vector = infer_embedding(model, doc)
    assert seen == [[derive_seed(model.seed, "infer", doc.content_hash)]]
    assert np.array_equal(vector, _plain_infer(model, doc))


def test_inference_matches_the_plain_algorithm_on_saturating_token_vectors():
    # Token vectors near 1e39, as a diverged training run leaves them (ROADMAP
    # item 1): every score hits the +-35 clip and d grows far past 1.
    model = _inference_model(12, 3)
    huge = dataclasses.replace(model, token_vectors=model.token_vectors * 1e39)
    for name, probe in _INFERENCE_PROBES.items():
        vector = infer_embedding(huge, probe)
        assert np.array_equal(vector, _plain_infer(huge, probe)), name
    scores = np.abs(huge.token_vectors @ infer_embedding(huge, _INFERENCE_PROBES["miss"]))
    assert scores.min() > 35.0


# --- the batched epoch layout against the plain algorithm -----------------
#
# `train_graph2vec` runs an epoch as stacked products over jobs of equal row
# count and accumulates token gradients span by span. With the chunk and
# draw-block sizes cut to a few rows, stacks, spans and noise blocks split
# mid-corpus, so every boundary case of the layout meets the oracle.


def _small_chunks(rows):
    return mock.patch.multiple(graph2vec, _CHUNK_ROWS=rows, _DRAW_BLOCK=rows)


_ORACLE_CORPORA = {
    # 60 tokens: longer than a chunk, with or without negatives.
    "long-document": lambda rng: ([_doc("s1", "s2")] + _family("a", 3, rng)
                                  + [_doc(*[f"t{i % 9}" for i in range(60)])]
                                  + _family("b", 3, rng)),
    "equal-lengths": lambda rng: [_doc(f"e{i % 7}", f"e{(i * 3) % 11}", f"f{i}")
                                  for i in range(40)],
    "interleaved-duplicates": lambda rng: [
        _doc("x", "y"), _doc("p", "q", "r"), _doc("y", "x"), _doc("q", "p", "r"),
        _doc("x", "y"), _doc("z"), _doc("r", "q", "p"), _doc("z")],
    "one-document": lambda rng: [_doc("a", "b", "b", "c")],
    "empty-document": lambda rng: [WLDocument(tokens=()), _doc("a", "b"),
                                   WLDocument(tokens=()), _doc("c"), _doc("b", "a")],
}


@pytest.mark.parametrize("chunk", [1, 5, 24])
@pytest.mark.parametrize("dim", [8, 16])
@pytest.mark.parametrize("negative", [0, 3])
@pytest.mark.parametrize("name", list(_ORACLE_CORPORA))
def test_batched_epochs_match_the_plain_algorithm(rng, name, negative, dim, chunk):
    corpus = _ORACLE_CORPORA[name](rng)
    params = TrainParams(epochs=6, negative=negative)
    with _small_chunks(chunk):
        model = train_graph2vec(corpus, dim=dim, params=params, seed=17)
    _assert_trains_as_the_plain_algorithm(model, corpus, dim, params, 17)


@settings(max_examples=60, deadline=None)
@given(docs=st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=12),
                     min_size=1, max_size=9),
       negative=st.integers(min_value=0, max_value=3),
       epochs=st.integers(min_value=1, max_value=4),
       dim=st.sampled_from([8, 16]),
       chunk=st.sampled_from([1, 2, 7, 64, 2 ** 11]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(docs=[["a", "b"], ["c"], ["b", "a"], [], ["c"]], negative=2, epochs=3, dim=8,
         chunk=2, seed=0)  # duplicates interleaved, an empty document
def test_batched_epochs_match_the_plain_algorithm_on_random_corpora(
        docs, negative, epochs, dim, chunk, seed):
    assume(any(docs))
    corpus = [_doc(*tokens) for tokens in docs]
    params = TrainParams(epochs=epochs, negative=negative)
    with _small_chunks(chunk):
        model = train_graph2vec(corpus, dim=dim, params=params, seed=seed)
    _assert_trains_as_the_plain_algorithm(model, corpus, dim, params, seed)


@pytest.mark.parametrize("chunk", [1, 4, 10, 1000])
def test_stacks_and_spans_partition_the_jobs(chunk):
    n_pos = np.array([3, 0, 1, 3, 12, 1, 3, 0, 3, 2])
    negative = 2
    sizes = n_pos * (1 + negative)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    with _small_chunks(chunk):
        stacks = graph2vec._stacks(n_pos, negative)
        spans = graph2vec._spans(offsets)
    stacked = np.concatenate([jobs for _, jobs in stacks])
    assert sorted(stacked.tolist()) == np.flatnonzero(n_pos).tolist()
    for p, jobs in stacks:
        assert (n_pos[jobs] == p).all() and (np.diff(jobs) > 0).all()
        assert jobs.size == 1 or jobs.size * p * (1 + negative) <= chunk
    assert [a for a, _, _, _ in spans] == [0] + [b for _, b, _, _ in spans[:-1]]
    assert spans[-1][1] == n_pos.size
    for a, b, first, last in spans:
        assert (first, last) == (offsets[a], offsets[b])
        assert b == a + 1 or last - first <= chunk


# --- training diagnostics --------------------------------------------------


def test_debug_logging_reports_each_epoch_and_leaves_the_vectors_alone(rng, caplog):
    corpus = _family("a", 6, rng) + _family("b", 6, rng)
    params = TrainParams(epochs=4, negative=2)
    with caplog.at_level(logging.WARNING, logger="bridgeguard.graph2vec"):
        quiet = train_graph2vec(corpus, dim=8, params=params, seed=5)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="bridgeguard.graph2vec"):
        loud = train_graph2vec(corpus, dim=8, params=params, seed=5)
    assert np.array_equal(loud.token_vectors, quiet.token_vectors)
    assert np.array_equal(loud.graph_vectors, quiet.graph_vectors)

    epochs = [record.args for record in caplog.records
              if record.name == "bridgeguard.graph2vec"]
    assert [(args[0], args[1]) for args in epochs] == [(e, 4) for e in range(1, 5)]
    *_, (_, _, max_token, max_doc, ms) = epochs
    assert max_token == np.abs(loud.token_vectors).max()
    assert max_doc == np.abs(loud.graph_vectors).max()
    assert ms >= 0.0


def test_divergence_names_the_first_epoch_whose_vectors_are_not_finite():
    corpus = [_doc("a", "b", "c"), _doc("b", "c", "d"), _doc("a", "d")]
    params = TrainParams(epochs=5, learning_rate=1e100)
    finite = []
    with np.errstate(all="ignore"):
        _plain_train(corpus, 16, params, 1, on_epoch=lambda tokens, docs: finite.append(
            bool(np.isfinite(tokens).all() and np.isfinite(docs).all())))
    first = finite.index(False) + 1
    assert 1 < first < params.epochs  # the run stops before its last epoch
    with pytest.raises(TrainingDiverged, match=f"after epoch {first} of 5"):
        train_graph2vec(corpus, params=params, seed=1)


# --- memory ----------------------------------------------------------------
#
# The rows of an epoch are the tokens and negatives of each distinct
# document. The only per-row state is one int32 row index and one float64
# coefficient, 12 bytes. Each distinct document adds its vector, gradient,
# noise-seed prefix and list entries, which come to about 20 bytes a row at
# the 60 rows a document of this test (measured: 31 bytes a row in all; the
# per-document loop this layout replaced read 26). One whole-epoch
# (rows x dim) float64 array would add 8 x dim = 128 bytes a row.
_BYTES_PER_ROW = 64


def _training_bytes(corpus, params):
    """Peak traced allocation while training, minus the model's arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = train_graph2vec(corpus, dim=16, params=params, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    arrays = (model.token_vectors, model.graph_vectors, model.token_counts,
              model._noise.cdf, model._noise.guide)
    return peak - sum(a.nbytes for a in arrays)


def test_training_memory_grows_by_a_bounded_amount_per_row():
    # Distinct 20-token documents over one 50-token vocabulary, so the
    # vocabulary, the chunk buffers and the noise table stay the same size.
    rng = np.random.default_rng(8)
    docs = [_doc(*(f"v{t}" for t in rng.integers(0, 50, 20))) for _ in range(2000)]
    params = TrainParams(epochs=2, negative=2)
    rows = [len(docs[:n]) * 20 * (1 + params.negative) for n in (500, 2000)]
    small, large = (_training_bytes(docs[:n], params) for n in (500, 2000))
    assert large - small <= _BYTES_PER_ROW * (rows[1] - rows[0])


# A miss holds its token rows and their scores, rows x (dim + 1) float64
# values, for all epochs. Its noise buffers (uniforms and negatives) and the
# sampler's temporaries are bounded by the draw block, not the epoch count:
# measured 2.3 x `_DRAW_BLOCK` float64 values for the probe below. Noise for
# all 100 epochs at once would add 100 x 10000 x 8 bytes.
_DRAW_BLOCK_VALUES = 4


def test_inference_memory_is_its_rows_and_a_draw_block():
    rng = np.random.default_rng(3)
    docs = [_doc(*(f"v{t}" for t in rng.integers(0, 50, 20))) for _ in range(30)]
    params = TrainParams(epochs=100, negative=5)
    model = train_graph2vec(docs, dim=16, params=params, seed=3)
    probe = _doc(*(f"v{i % 60}" for i in range(2000)))  # 10000 negatives an epoch
    rows = 2000 * (1 + params.negative)
    assert rows - 2000 <= graph2vec._DRAW_BLOCK
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        infer_embedding(model, probe)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= rows * (16 + 1) * 8 + _DRAW_BLOCK_VALUES * graph2vec._DRAW_BLOCK * 8
