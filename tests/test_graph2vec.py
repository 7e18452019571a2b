import json

import numpy as np
import pytest

from bridgeguard.errors import EmptyCorpus, ModelVersionMismatch
from bridgeguard.graph2vec import (
    TrainParams,
    infer_embedding,
    load_model,
    save_model,
    train_graph2vec,
)
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
