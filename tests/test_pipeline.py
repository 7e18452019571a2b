import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeguard import pipeline
from bridgeguard.bench import STAGES, run_bench
from bridgeguard.classify import (
    CLASSIFIERS,
    dtree_leaf_distribution,
    dtree_predict,
    knn_neighbor_stats,
    knn_predict,
    split_indices,
)
from bridgeguard.config import RunConfig
from bridgeguard.errors import (
    BridgeGuardError,
    InvalidConfig,
    LengthMismatch,
    ModelMissing,
    ModelVersionMismatch,
)
from bridgeguard.pipeline import (
    BUNDLE_FILE,
    MODEL_FILE,
    _mean_std,
    detect,
    feature_vector,
    load_bundle,
    prepare,
    repeated_pipeline_eval,
    save_bundle,
    train_detector,
)
from bridgeguard.synthgen import GenConfig, gen_attack_tgt, gen_dataset
from conftest import JSON_JUNK, json_slots

FAST = dict(epochs=25, runs=2)


@pytest.fixture(scope="module")
def small_corpus():
    samples, _ = gen_dataset(GenConfig(n_normal=120, attack_rate=0.1,
                                       noise=(0.4, 2), seed=21))
    records = [s.record for s in samples]
    labels = [s.label for s in samples]
    return records, labels


def test_feature_dimensions_everywhere(small_corpus):
    records, labels = small_corpus
    cfg = RunConfig(seed=2, **FAST)
    bundle, _ = train_detector(records[:60], labels[:60], cfg)
    for record in records[:10]:
        prep = prepare(record, cfg)
        glob_dim = 21
        fv = feature_vector(prep, bundle.embedding)
        assert fv.values.shape == (37,)
        assert np.isfinite(fv.values).all()
        assert bundle.embedding.dim == 16
        assert len(fv.values) - glob_dim == 16


def test_train_detector_reports_both_views(small_corpus):
    records, labels = small_corpus
    cfg = RunConfig(seed=5, **FAST)
    bundle, metrics = train_detector(records, labels, cfg)
    assert metrics["classes"] == ["Normal", "AttackSrc", "AttackTgt"]
    assert metrics["binary"]["classes"] == ["Normal", "Attack"]
    assert bundle.config.classifier == "knn"


@pytest.mark.parametrize("kind", ["knn", "dtree"])
def test_train_detector_report_is_run_zero_of_the_protocol(small_corpus, kind):
    records, labels = small_corpus
    cfg = RunConfig(seed=9, classifier=kind, epochs=25, runs=1)
    _, report = train_detector(records, labels, cfg)
    protocol = repeated_pipeline_eval(records, labels, cfg, classifiers=(kind,))
    # The aggregate holds floats where the run's report holds ints.
    assert report == protocol[kind]["mean"]
    assert isinstance(report["per_class"]["Normal"]["support"], int)


def _report(accuracy: float, support: int, confusion: list) -> dict:
    return {"classes": ["Normal", "AttackSrc"],
            "per_class": {"Normal": {"f1": accuracy, "support": support}},
            "confusion": confusion, "accuracy": accuracy,
            "binary": {"classes": ["Normal", "Attack"], "macro_f1": 1.0 - accuracy}}


def test_mean_std_is_elementwise_over_the_runs():
    reports = [_report(0.5, 3, [[1, 2], [3, 4]]), _report(1.0, 5, [[3, 2], [1, 0]])]
    assert _mean_std(reports) == {
        "mean": {"classes": ["Normal", "AttackSrc"],
                 "per_class": {"Normal": {"f1": 0.75, "support": 4.0}},
                 "confusion": [[2.0, 2.0], [2.0, 2.0]], "accuracy": 0.75,
                 "binary": {"classes": ["Normal", "Attack"], "macro_f1": 0.25}},
        "std": {"classes": ["Normal", "AttackSrc"],
                "per_class": {"Normal": {"f1": 0.25, "support": 1.0}},
                "confusion": [[1.0, 0.0], [1.0, 2.0]], "accuracy": 0.25,
                "binary": {"classes": ["Normal", "Attack"], "macro_f1": 0.25}},
    }


def test_bundle_round_trip_and_detection(small_corpus, tmp_path):
    records, labels = small_corpus
    cfg = RunConfig(seed=7, **FAST)
    bundle, _ = train_detector(records, labels, cfg)
    save_bundle(bundle, tmp_path / "model")
    loaded = load_bundle(tmp_path / "model")

    probes = records[:8] + [gen_attack_tgt(seed=10_000, noise=(0.4, 2)).record]
    original = detect(bundle, probes)
    assert detect(loaded, probes) == original
    assert all(set(r) == {"tx_hash", "label", "scores"} for r in original)
    assert loaded.config == cfg
    assert (loaded.embedding.params, loaded.embedding.seed) == (
        bundle.embedding.params, bundle.embedding.seed)
    assert sorted(p.name for p in (tmp_path / "model").iterdir()) == [BUNDLE_FILE, MODEL_FILE]

    with pytest.raises(ModelMissing):
        load_bundle(tmp_path / "nope")


def test_detect_labels_fresh_attacks(small_corpus):
    # End-to-end on seeded data: unseen target-chain attacks are flagged.
    records, labels = small_corpus
    cfg = RunConfig(seed=11, **FAST)
    bundle, _ = train_detector(records, labels, cfg)
    fresh = [gen_attack_tgt(seed=10_000 + i, noise=(0.4, 2)).record for i in range(5)]
    rows = detect(bundle, fresh)
    assert [r["label"] for r in rows] == ["AttackTgt"] * 5


def test_repeated_pipeline_eval_deterministic_json(small_corpus):
    records, labels = small_corpus
    cfg = RunConfig(seed=3, **FAST)
    r1 = repeated_pipeline_eval(records, labels, cfg, classifiers=("knn", "dtree"))
    r2 = repeated_pipeline_eval(records, labels, cfg, classifiers=("knn", "dtree"))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["runs"] == 2
    for kind in ("knn", "dtree"):
        per_class = r1[kind]["mean"]["per_class"]
        assert set(per_class) == {"Normal", "AttackSrc", "AttackTgt"}
        assert set(r1[kind]["std"]["per_class"]) == set(per_class)


def test_repeated_pipeline_eval_fits_a_repeated_kind_once(small_corpus, monkeypatch):
    records, labels = small_corpus
    cfg = RunConfig(seed=3, **FAST)
    once = repeated_pipeline_eval(records, labels, cfg, classifiers=("knn", "dtree"))
    fits = []
    dtree_train = pipeline.dtree_train
    monkeypatch.setattr(pipeline, "dtree_train",
                        lambda *a, **kw: fits.append(1) or dtree_train(*a, **kw))
    twice = repeated_pipeline_eval(records, labels, cfg,
                                   classifiers=("dtree", "knn", "dtree", "knn"))
    assert twice == once
    assert list(twice) == ["runs", "config_hash", "dtree", "knn"]  # first-seen order
    assert len(fits) == cfg.runs


def test_repeated_pipeline_eval_dtree_deterministic(small_corpus):
    records, labels = small_corpus
    cfg = RunConfig(seed=2, max_depth=4, epochs=25, runs=3)
    r1 = repeated_pipeline_eval(records, labels, cfg, classifiers=("dtree",))
    r2 = repeated_pipeline_eval(records, labels, cfg, classifiers=("dtree",))
    assert r1 == r2
    assert r1["runs"] == 3


def _leaves(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _leaves(value)
    else:
        yield node


def test_repeated_pipeline_eval_single_run_has_zero_std(small_corpus):
    records, labels = small_corpus
    report = repeated_pipeline_eval(records, labels, RunConfig(seed=5, epochs=25, runs=1),
                                    classifiers=("knn", "dtree"))
    assert report["runs"] == 1
    for kind in ("knn", "dtree"):
        assert all(v == 0.0 for v in _leaves(report[kind]["std"]) if not isinstance(v, str))


def test_repeated_pipeline_eval_normal_only_corpus(small_corpus):
    records, labels = small_corpus
    normal = [r for r, lab in zip(records, labels) if lab == "Normal"][:40]
    report = repeated_pipeline_eval(normal, ["Normal"] * len(normal),
                                    RunConfig(seed=1, k=3, epochs=10, runs=3))
    assert report["knn"]["mean"]["per_class"]["Normal"]["recall"] == 1.0
    assert report["knn"]["std"]["per_class"]["Normal"]["recall"] == 0.0


def test_unknown_classifier_kind_rejected_naming_it(small_corpus):
    records, labels = small_corpus
    with pytest.raises(InvalidConfig, match="unknown classifier 'svm'"):
        repeated_pipeline_eval(records[:20], labels[:20], RunConfig(runs=1),
                               classifiers=("knn", "svm"))


@pytest.mark.parametrize("train", [
    lambda records, labels: train_detector(records, labels, RunConfig()),
    lambda records, labels: repeated_pipeline_eval(records, labels, RunConfig(runs=1)),
], ids=["train_detector", "repeated_pipeline_eval"])
@pytest.mark.parametrize("relabel, error, match", [
    (lambda labels: labels + ["Normal"], LengthMismatch, "20 records but 21 labels"),
    (lambda labels: labels[:-1], LengthMismatch, "20 records but 19 labels"),
    (lambda labels: labels[:3] + ["Attack"] + labels[4:], InvalidConfig,
     r"labels\[3\]: 'Attack' is not one of Normal, AttackSrc, AttackTgt"),
], ids=["more-labels", "fewer-labels", "unknown-label"])
def test_labels_that_do_not_fit_the_records_rejected_before_preparation(
        small_corpus, monkeypatch, train, relabel, error, match):
    def prepare_corpus(*args):
        raise AssertionError("prepared before the labels were checked")

    monkeypatch.setattr(pipeline, "prepare_corpus", prepare_corpus)
    records, labels = small_corpus
    with pytest.raises(error, match=match):
        train(records[:20], relabel(labels[:20]))


def test_load_bundle_rejects_unknown_config_key(small_corpus, tmp_path):
    records, labels = small_corpus
    bundle, _ = train_detector(records[:40], labels[:40], RunConfig(seed=2, epochs=5))
    save_bundle(bundle, tmp_path / "model")
    meta_path = tmp_path / "model" / BUNDLE_FILE
    meta = json.loads(meta_path.read_text())
    meta["config"]["not_a_key"] = 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(InvalidConfig, match="not_a_key"):
        load_bundle(tmp_path / "model")

    for content in ("[]", "{broken"):
        meta_path.write_text(content)
        with pytest.raises(ModelMissing, match="bundle.json"):
            load_bundle(tmp_path / "model")


@pytest.mark.parametrize("key", ["config", "config_hash"])
def test_load_bundle_missing_key_rejected_naming_it(small_corpus, tmp_path, key):
    records, labels = small_corpus
    bundle, _ = train_detector(records[:40], labels[:40], RunConfig(seed=2, epochs=5))
    save_bundle(bundle, tmp_path / "model")
    meta_path = tmp_path / "model" / BUNDLE_FILE
    meta = json.loads(meta_path.read_text())
    del meta[key]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ModelMissing, match=f"bundle.json: missing key '{key}'"):
        load_bundle(tmp_path / "model")


def test_load_bundle_rejects_the_older_format_asking_to_retrain(small_corpus, tmp_path):
    records, labels = small_corpus
    cfg = RunConfig(seed=2, epochs=5, classifier="dtree")
    bundle, _ = train_detector(records[:40], labels[:40], cfg)
    save_bundle(bundle, tmp_path / "model")
    meta_path = tmp_path / "model" / BUNDLE_FILE
    meta = json.loads(meta_path.read_text())
    assert set(meta) == {"version", "config", "config_hash"}

    # Format 1 kept embedding.npz and classifier.json, and older bundles
    # also recorded the kind as `classifier_kind`.
    meta_path.write_text(json.dumps({**meta, "version": 1, "classifier_kind": "dtree"}))
    with pytest.raises(ModelVersionMismatch, match="bundle format 1 is not 2; retrain"):
        load_bundle(tmp_path / "model")
    meta_path.write_text(json.dumps({**meta, "classifier_kind": "dtree"}))
    with pytest.raises(ModelMissing, match=r"unknown keys \['classifier_kind'\]"):
        load_bundle(tmp_path / "model")


def test_config_that_does_not_match_its_hash_rejected(small_corpus, tmp_path):
    records, labels = small_corpus
    bundle, _ = train_detector(records[:40], labels[:40], RunConfig(seed=2, epochs=5))
    save_bundle(bundle, tmp_path / "model")
    meta_path = tmp_path / "model" / BUNDLE_FILE
    meta = json.loads(meta_path.read_text())
    meta["config"]["k"] = 3  # valid, but not the k the bundle's hash is of
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ModelVersionMismatch, match="config_hash"):
        load_bundle(tmp_path / "model")


@pytest.fixture(scope="module")
def saved_bundles(small_corpus, tmp_path_factory):
    """Per classifier kind, the bundle.json document and model.npz arrays of
    a detector trained on part of the small corpus."""
    records, labels = small_corpus
    saved = {}
    for kind in ("knn", "dtree"):
        cfg = RunConfig(seed=2, epochs=5, classifier=kind)
        bundle, _ = train_detector(records[:40], labels[:40], cfg)
        model_dir = save_bundle(bundle, tmp_path_factory.mktemp(kind))
        with np.load(model_dir / MODEL_FILE) as data:
            arrays = {key: data[key] for key in data.files}
        saved[kind] = (json.loads((model_dir / BUNDLE_FILE).read_text()), arrays)
    return saved


def _as(array: np.ndarray, dtype) -> np.ndarray:
    """`array` cast to `dtype`, or ones of its shape where the values do not cast."""
    try:
        return array.astype(dtype)
    except ValueError:
        return np.ones(array.shape, dtype=dtype)


def _with_entry(array: np.ndarray, index: int, value) -> np.ndarray:
    """A copy of `array` with flat entry `index` set to `value`."""
    array = array.copy()
    if array.size:
        array.flat[index % array.size] = value
    return array


def _junk_arrays(array: np.ndarray):
    """`array` with another dtype or shape, a NaN, an object dtype, or one
    entry set to a small integer: for `right`, a child index out of range or
    pointing backwards."""
    index = st.integers(0, 2**16)
    return st.one_of(
        st.sampled_from([bool, np.int32, np.int64, np.float32, np.float64, np.longdouble,
                         "U3"]).map(lambda dtype: _as(array, dtype)),
        st.sampled_from([array.reshape(-1), array[:-1], array[..., None], array[:0],
                         np.asarray(array.flat[0] if array.size else 0)]),
        index.map(lambda i: _with_entry(_as(array, np.float64), i, np.nan)),
        st.just(array.astype(object)),
        st.tuples(index, st.integers(-3, array.size + 3)).map(
            lambda iv: _with_entry(array, *iv)),
    )


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["knn", "dtree"]), in_json=st.booleans(), data=st.data())
def test_any_bundle_gives_a_label_or_a_typed_error(saved_bundles, tmp_path_factory,
                                                  small_corpus, kind, in_json, data):
    # A saved bundle with one value of bundle.json replaced by any JSON, or
    # one array of model.npz by junk.
    meta, arrays = saved_bundles[kind]
    meta, arrays = json.loads(json.dumps(meta)), dict(arrays)
    if in_json:
        container, key = data.draw(st.sampled_from(list(json_slots(meta))))
        container[key] = data.draw(JSON_JUNK)
    else:
        key = data.draw(st.sampled_from(sorted(arrays)))
        arrays[key] = data.draw(_junk_arrays(arrays[key]))
    model_dir = tmp_path_factory.getbasetemp() / "fuzzed-bundle"
    model_dir.mkdir(exist_ok=True)
    (model_dir / BUNDLE_FILE).write_text(json.dumps(meta))
    np.savez(model_dir / MODEL_FILE, **arrays)
    records = [small_corpus[0][0], gen_attack_tgt(seed=10_000, noise=(0.4, 2)).record]
    try:
        bundle = load_bundle(model_dir)
        rows = detect(bundle, records)
    except BridgeGuardError:
        return
    assert all(row["label"] in bundle.classifier.classes for row in rows)


@pytest.mark.parametrize("kind, oracle_label, oracle_scores", [
    ("knn", knn_predict, knn_neighbor_stats),
    ("dtree", dtree_predict, dtree_leaf_distribution),
])
def test_detect_and_bench_share_the_classification_path(small_corpus, kind,
                                                        oracle_label, oracle_scores):
    records, labels = small_corpus
    cfg = RunConfig(seed=13, classifier=kind, **FAST)
    bundle, _ = train_detector(records, labels, cfg)
    rows = detect(bundle, records)
    assert [r["tx_hash"] for r in rows] == [r.tx_hash for r in records]
    for record, row in zip(records, rows):
        fv = feature_vector(prepare(record, cfg), bundle.embedding)
        assert row["label"] == oracle_label(bundle.classifier, fv)
        assert row["scores"] == oracle_scores(bundle.classifier, fv)

    report = run_bench(records, bundle)
    assert report.n == len(records)
    assert tuple(report.stage_ms) == STAGES
    assert all(report.stage_ms[s] >= 0 for s in STAGES)
    assert report.total_ms == pytest.approx(sum(report.stage_ms.values()))
    assert 0 < report.median_total_ms


def test_saved_bundle_detects_as_the_trained_one_on_the_default_corpus(tmp_path):
    # Both kinds, fit in one protocol run on GenConfig(4000, 0.005, 2024):
    # after a save and a load, every vector, label and score is unchanged
    # on all the held-out records.
    samples, _ = gen_dataset(GenConfig(n_normal=4000, attack_rate=0.005, seed=2024))
    records, labels = [s.record for s in samples], [s.label for s in samples]
    cfg = RunConfig()
    model, fitted = pipeline._protocol_run(pipeline.prepare_corpus(records, cfg), labels,
                                           cfg, cfg.seed, CLASSIFIERS)
    _, test_idx = split_indices(labels, ratio=cfg.split_ratio, seed=cfg.seed)
    held_out = [records[i] for i in test_idx]
    assert len(held_out) == 1206
    for kind, (classifier, _) in fitted.items():
        bundle = pipeline.DetectorBundle(model, classifier, RunConfig(classifier=kind))
        loaded = load_bundle(save_bundle(bundle, tmp_path / kind))
        assert np.array_equal(loaded.embedding.token_vectors, model.token_vectors)
        assert np.array_equal(loaded.embedding.graph_vectors, model.graph_vectors)
        assert detect(loaded, held_out) == detect(bundle, held_out)
