import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgeguard.errors import (
    BridgeGuardError,
    EmptyCorpus,
    ModelVersionMismatch,
    TrainingDiverged,
)
from bridgeguard.graph2vec import (
    TrainParams,
    _NoiseSampler,
    _seeded,
    infer_embedding,
    load_model,
    save_model,
    train_graph2vec,
)
from bridgeguard.hashing import derive_seed
from bridgeguard.wl import WLDocument

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


def test_model_round_trip_and_version_check(tmp_path):
    corpus = [_doc("a", "b"), _doc("c", "d")]
    model = train_graph2vec(corpus, params=FAST, seed=4)
    path = tmp_path / "embedding.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.graph_vectors, model.graph_vectors)
    assert np.array_equal(loaded.token_vectors, model.token_vectors)
    assert loaded.vocab == model.vocab
    assert loaded.params == model.params
    assert np.array_equal(infer_embedding(loaded, _doc("a", "b")),
                          model.graph_vectors[0])
    miss = _doc("a", "c", "zz")
    assert np.array_equal(infer_embedding(loaded, miss), infer_embedding(model, miss))

    # corrupt the version field
    import json

    import numpy as np_
    with np_.load(path, allow_pickle=True) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(str(arrays["header"]))
    header["version"] = 999
    arrays["header"] = json.dumps(header)
    np_.savez(path, **arrays)
    with pytest.raises(ModelVersionMismatch):
        load_model(path)


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
    # Version 1 stored tokens and hashes as pickled object arrays.
    path = tmp_path / "embedding.npz"
    save_model(train_graph2vec([_doc("a", "b")], params=FAST, seed=4), path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    header = json.loads(str(arrays["header"]))
    header["version"] = version
    arrays.update(header=json.dumps(header), tokens=np.array([_Payload()] * 2, dtype=object),
                  doc_hashes=arrays["doc_hashes"].astype(object))
    np.savez(path, **arrays)
    with pytest.raises(ModelVersionMismatch, match="embedding.npz"):
        load_model(path)
    assert _UNPICKLED == []


@pytest.mark.parametrize("field, value", [
    ("params", []),
    ("params", {"epochs": 1, "window": 3}),
    ("dim", [16]),
    ("dim", "16"),
    ("dim", 16.5),
    ("seed", []),
], ids=["params-list", "params-unknown-key", "dim-list", "dim-string", "dim-float",
        "seed-list"])
def test_header_field_of_the_wrong_type_rejected_naming_it(tmp_path, field, value):
    path = tmp_path / "embedding.npz"
    save_model(train_graph2vec([_doc("a", "b")], params=FAST, seed=4), path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    header = json.loads(str(arrays["header"]))
    header[field] = value
    arrays["header"] = json.dumps(header)
    np.savez(path, **arrays)
    with pytest.raises(ModelVersionMismatch, match="embedding.npz"):
        load_model(path)


@pytest.mark.parametrize("content", [b"not a model", b"", b"PK\x03\x04truncated"],
                         ids=["text", "empty", "truncated-zip"])
def test_file_that_is_not_a_model_rejected_naming_it(tmp_path, content):
    path = tmp_path / "embedding.npz"
    path.write_bytes(content)
    with pytest.raises(ModelVersionMismatch, match="embedding.npz"):
        load_model(path)


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
], ids=["no-counts", "zero-counts", "extra-count", "missing-token-row", "extra-doc-row"])
def test_model_with_inconsistent_arrays_rejected_naming_it(tmp_path, key, value):
    # A two-token, one-document model whose noise distribution or array
    # shapes are broken; sampling from it could pick a missing token row.
    path = tmp_path / "embedding.npz"
    save_model(train_graph2vec([_doc("a", "b")], params=FAST, seed=4), path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    arrays[key] = value
    np.savez(path, **arrays)
    with pytest.raises(ModelVersionMismatch, match="embedding.npz"):
        load_model(path)


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
    for seed, rng in zip(seeds, _seeded(seeds), strict=True):
        oracle = np.random.default_rng(seed)
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert np.array_equal(rng.random(n), oracle.random(n))
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


def _plain_train(corpus, dim, params, seed):
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
    graph_vectors = np.stack([jobs[doc.content_hash][2] for doc in corpus])
    return token_vectors, graph_vectors


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
    token_vectors, graph_vectors = _plain_train(corpus, 8, params, 11)
    assert np.array_equal(model.token_vectors, token_vectors)
    assert np.array_equal(model.graph_vectors, graph_vectors)

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
