"""End-to-end wiring: records -> graphs -> features -> detector.

The embedding model is always fit on training data only; test and detect
inputs are embedded against the frozen model. A trained detector is saved
as a bundle directory of two files: `bundle.json` holds the resolved
configuration and its hash, `model.npz` every array of the embedding model
and the classifier. Training and evaluation prepare their corpus with
`prepare_corpus`, whose documents share equal WL tokens through one string
table per call; `detect` prepares each record on its own and keeps nothing.
"""

from __future__ import annotations

import zipfile
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import (
    CLASSIFIERS,
    DecisionTreeModel,
    FeatureVector,
    KNNModel,
    LabeledSample,
    Standardizer,
    concat_features,
    dtree_train,
    evaluate,
    evaluate_binary,
    knn_train,
    split_indices,
)
from .config import RunConfig, config_from_dict
from .errors import (
    BridgeGuardError,
    InvalidConfig,
    LengthMismatch,
    ModelMissing,
    ModelVersionMismatch,
)
from .features import FEATURE_DIM, assemble_global, direction_flag, graph_stats
from .graph2vec import EmbeddingModel, TrainParams, infer_embedding, train_graph2vec
from .ingest import LABELS, TxRecord, bounded_repr, read_json, write_json
from .motifs import LocalFeature, local_feature
from .wl import WLDocument, wl_document
from .xteg import build_xteg

BUNDLE_FILE = "bundle.json"
MODEL_FILE = "model.npz"
BUNDLE_FORMAT_VERSION = 2
_BUNDLE_KEYS = ("version", "config", "config_hash")

# The paper's stages, in pipeline order; `stage` hooks receive these names.
STAGES = ("xteg_construction", "global_mining", "local_mining", "classification")

_UNTIMED = nullcontext()


def _no_stage(name: str) -> AbstractContextManager:
    """The default stage hook: runs each stage untimed."""
    return _UNTIMED


@dataclass
class PreparedTx:
    """Split-independent per-transaction artifacts; only the embedding
    depends on the training split."""
    record: TxRecord
    doc: WLDocument
    stats: tuple[int, int, int, float]
    flag: float
    census: LocalFeature


def prepare(record: TxRecord, cfg: RunConfig, stage=_no_stage,
            strings: dict[str, str] | None = None) -> PreparedTx:
    """`stage(name)` gives a context manager entered around each stage's
    work, for timing; the default does nothing. `strings` is the string
    table of the WL document's tokens (see `wl_document`)."""
    with stage("xteg_construction"):
        graph = build_xteg(record)
    with stage("global_mining"):
        doc = wl_document(graph, cfg.wl_iterations, strings)
        stats = graph_stats(graph)
        flag = direction_flag(record.logs, cfg.signatures or None)
    with stage("local_mining"):
        census = local_feature(graph)
    return PreparedTx(record=record, doc=doc, stats=stats, flag=flag, census=census)


def prepare_corpus(records: list[TxRecord], cfg: RunConfig) -> list[PreparedTx]:
    """`prepare` of each record, in order, with equal WL tokens stored once:
    every document is built through one string table, which lives only as
    long as this call."""
    strings: dict[str, str] = {}
    return [prepare(record, cfg, strings=strings) for record in records]


def feature_vector(prep: PreparedTx, model: EmbeddingModel,
                   stage=_no_stage) -> FeatureVector:
    """The 37-dim vector of `prep` under `model`: the one featurization of
    train, evaluate and detect."""
    with stage("global_mining"):
        glob = assemble_global(infer_embedding(model, prep.doc), prep.stats, prep.flag)
    with stage("classification"):  # the 37-dim input, as the classifier sees it
        return concat_features(glob, prep.census)


@dataclass
class DetectorBundle:
    embedding: EmbeddingModel
    classifier: object  # KNNModel | DecisionTreeModel, of kind config.classifier
    config: RunConfig


def _train_params(cfg: RunConfig) -> TrainParams:
    return TrainParams(epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                       negative=cfg.negative)


def _protocol_run(preps: list[PreparedTx], labels: list[str], cfg: RunConfig,
                  seed: int, kinds: tuple[str, ...]) -> tuple[EmbeddingModel, dict]:
    """One run of the evaluation protocol: a seeded stratified split,
    graph2vec fit on the training documents only, then each classifier kind
    fit on the training vectors and scored on the test vectors.

    Returns the embedding model and, per kind, (classifier, report): the
    three-class test metrics with their binary collapse under "binary"."""
    for kind in kinds:
        if kind not in CLASSIFIERS:
            raise InvalidConfig(f"unknown classifier {kind!r}; one of {', '.join(CLASSIFIERS)}")
    train_idx, test_idx = split_indices(labels, ratio=cfg.split_ratio, seed=seed)
    model = train_graph2vec([preps[i].doc for i in train_idx], dim=cfg.embedding_dim,
                            params=_train_params(cfg), seed=seed, workers=cfg.workers)

    def sample(i: int) -> LabeledSample:
        return LabeledSample(preps[i].record.tx_hash, feature_vector(preps[i], model),
                             labels[i])

    train = [sample(i) for i in train_idx]
    test = [sample(i) for i in test_idx]
    truth = [labels[i] for i in test_idx]
    fitted = {}
    for kind in kinds:
        if kind == "knn":
            classifier = knn_train(train, k=cfg.k)
        else:
            classifier = dtree_train(train, max_depth=cfg.max_depth,
                                     min_samples_leaf=cfg.min_samples_leaf,
                                     class_weighting=cfg.class_weighting)
        predictions = [classifier.label(classifier.scores(s.features)) for s in test]
        report = evaluate(predictions, truth, classes=LABELS).to_dict()
        report["binary"] = evaluate_binary(predictions, truth).to_dict()
        fitted[kind] = (classifier, report)
    return model, fitted


def _check_labels(records: list[TxRecord], labels: list[str]) -> None:
    """One label of LABELS per record: LengthMismatch or InvalidConfig otherwise."""
    if len(labels) != len(records):
        raise LengthMismatch(f"{len(records)} records but {len(labels)} labels")
    for i, label in enumerate(labels):
        if label not in LABELS:
            raise InvalidConfig(f"labels[{i}]: {bounded_repr(label)} is not one of "
                                f"{', '.join(LABELS)}")


def train_detector(records: list[TxRecord], labels: list[str],
                   cfg: RunConfig) -> tuple[DetectorBundle, dict]:
    """One protocol run seeded `cfg.seed` with the configured classifier:
    the detector bundle and its test report."""
    _check_labels(records, labels)
    preps = prepare_corpus(records, cfg)
    model, fitted = _protocol_run(preps, labels, cfg, cfg.seed, (cfg.classifier,))
    classifier, report = fitted[cfg.classifier]
    return DetectorBundle(embedding=model, classifier=classifier, config=cfg), report


def repeated_pipeline_eval(records: list[TxRecord], labels: list[str],
                           cfg: RunConfig,
                           classifiers: tuple[str, ...] = ("knn",)) -> dict:
    """`cfg.runs` protocol runs seeded `cfg.seed + run`; the mean and std of
    each classifier kind's reports."""
    if cfg.runs < 1:
        raise InvalidConfig("runs must be >= 1")
    _check_labels(records, labels)
    classifiers = tuple(dict.fromkeys(classifiers))  # each kind is fitted once
    preps = prepare_corpus(records, cfg)
    reports: dict[str, list[dict]] = {kind: [] for kind in classifiers}
    for run in range(cfg.runs):
        _, fitted = _protocol_run(preps, labels, cfg, cfg.seed + run, classifiers)
        for kind in classifiers:
            reports[kind].append(fitted[kind][1])
    return {"runs": cfg.runs, "config_hash": cfg.config_hash(),
            **{kind: _mean_std(reports[kind]) for kind in classifiers}}


def _mean_std(reports: list[dict]) -> dict:
    """Mean/std (population) over per-run report dicts of identical shape.

    Numeric leaves (scalars and nested numeric lists like the confusion
    matrix) are aggregated elementwise; the class-name lists pass through.
    """
    def aggregate(nodes: list, stat) -> object:
        if isinstance(nodes[0], dict):
            return {key: sub if key == "classes"
                    else aggregate([node[key] for node in nodes], stat)
                    for key, sub in nodes[0].items()}
        agg = stat(np.asarray(nodes, dtype=np.float64), axis=0)
        return agg.tolist() if agg.ndim else float(agg)

    return {"mean": aggregate(reports, np.mean), "std": aggregate(reports, np.std)}


# --- bundle persistence ------------------------------------------------------


def save_bundle(bundle: DetectorBundle, out_dir: str | Path) -> Path:
    """Write `bundle.json` (the format version, the config and its hash) and
    `model.npz` (the embedding's and the classifier's arrays) to `out_dir`.
    The config is the one home of every scalar: the embedding's training
    params and seed, and KNN's k, must be the config's."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    embedding, classifier = bundle.embedding, bundle.classifier
    arrays = {
        "tokens": np.array(sorted(embedding.vocab, key=embedding.vocab.get), dtype=str),
        "token_vectors": embedding.token_vectors,
        "graph_vectors": embedding.graph_vectors,
        "token_counts": embedding.token_counts,
        "doc_hashes": np.array(embedding.doc_hashes, dtype=str),
        "classes": np.array(classifier.classes, dtype=str),
    }
    if isinstance(classifier, KNNModel):
        arrays.update(x=classifier.x, y=np.array(classifier.y, dtype=str),
                      mean=classifier.standardizer.mean, std=classifier.standardizer.std)
    else:
        arrays.update(dim=classifier.dim, threshold=classifier.threshold,
                      right=classifier.right, counts=classifier.counts)
    np.savez(out_dir / MODEL_FILE, **arrays)
    write_json(out_dir / BUNDLE_FILE, {
        "version": BUNDLE_FORMAT_VERSION,
        "config": bundle.config.to_dict(),
        "config_hash": bundle.config.config_hash(),
    })
    return out_dir


def _array(data, key: str, dtype: type, shape: tuple) -> np.ndarray:
    """Array `key` of a model file, of `dtype` (for str, any string dtype)
    and of `shape`, where None is any length; a float array must be finite."""
    if key not in data:
        raise ValueError(f"missing array {key!r}")
    value = data[key]
    if ((value.dtype.kind != "U" if dtype is str else value.dtype != dtype)
            or value.ndim != len(shape)
            or any(want not in (None, got) for got, want in zip(value.shape, shape))):
        raise ValueError(f"{key} is a {value.dtype} array of shape {value.shape}, not "
                         f"{dtype.__name__} of shape {shape}")
    if dtype is np.float64 and not np.isfinite(value).all():
        raise ValueError(f"{key} is not finite")
    return value


def _model_from_arrays(data, cfg: RunConfig) -> tuple[EmbeddingModel, object]:
    """The embedding and classifier of a model file's arrays, with every
    scalar taken from `cfg`."""
    dim = cfg.embedding_dim
    tokens = _array(data, "tokens", str, (None,)).tolist()
    embedding = EmbeddingModel(
        dim=dim,
        vocab={token: i for i, token in enumerate(tokens)},
        token_vectors=_array(data, "token_vectors", np.float64, (None, dim)),
        graph_vectors=_array(data, "graph_vectors", np.float64, (None, dim)),
        token_counts=_array(data, "token_counts", np.int64, (None,)),
        doc_hashes=_array(data, "doc_hashes", str, (None,)).tolist(),
        params=_train_params(cfg),
        seed=cfg.seed,
    )
    classes = _array(data, "classes", str, (None,)).tolist()
    if not classes or len(set(classes)) != len(classes):
        raise ValueError(f"classes {classes} are not distinct labels")
    if cfg.classifier == "knn":
        classifier = KNNModel(
            k=cfg.k,
            standardizer=Standardizer(mean=_array(data, "mean", np.float64, (FEATURE_DIM,)),
                                      std=_array(data, "std", np.float64, (FEATURE_DIM,))),
            x=_array(data, "x", np.float64, (None, FEATURE_DIM)),
            y=_array(data, "y", str, (None,)).tolist(),
            classes=classes)
    else:
        classifier = DecisionTreeModel(
            dim=_array(data, "dim", np.int64, (None,)),
            threshold=_array(data, "threshold", np.float64, (None,)),
            right=_array(data, "right", np.int64, (None,)),
            counts=_array(data, "counts", np.float64, (None, None)),
            classes=classes)
    return embedding, classifier


def load_bundle(model_dir: str | Path) -> DetectorBundle:
    """The detector `save_bundle` wrote to `model_dir`, checked once so that
    `detect` gives every record a label or a typed error. A bundle of
    another format raises ModelVersionMismatch asking for a retrain; so do
    a config that does not match its hash, and arrays that are missing, of
    the wrong dtype or shape, not finite or not consistent, naming the
    file. `model.npz` is read without unpickling anything."""
    model_dir = Path(model_dir)
    meta_path, model_path = model_dir / BUNDLE_FILE, model_dir / MODEL_FILE
    if not meta_path.exists():
        raise ModelMissing(f"no detector bundle at {model_dir}")
    meta = read_json(meta_path, ModelMissing)
    if not isinstance(meta, dict):
        raise ModelMissing(f"{meta_path}: not a JSON object")
    if meta.get("version") != BUNDLE_FORMAT_VERSION:
        raise ModelVersionMismatch(
            f"{meta_path}: bundle format {meta.get('version')!r} is not "
            f"{BUNDLE_FORMAT_VERSION}; retrain the detector")
    for key in _BUNDLE_KEYS:
        if key not in meta:
            raise ModelMissing(f"{meta_path}: missing key '{key}'")
    if len(meta) > len(_BUNDLE_KEYS):
        raise ModelMissing(f"{meta_path}: unknown keys {sorted(set(meta) - set(_BUNDLE_KEYS))}")
    cfg = config_from_dict(meta["config"], meta_path)
    if meta["config_hash"] != cfg.config_hash():
        raise ModelVersionMismatch(f"{meta_path}: config_hash {meta['config_hash']!r} "
                                   f"is not the config's, {cfg.config_hash()}")
    if not model_path.exists():
        raise ModelMissing(f"no {MODEL_FILE} in {model_dir}")
    try:
        with np.load(model_path, allow_pickle=False) as data:
            embedding, classifier = _model_from_arrays(data, cfg)
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile, BridgeGuardError) as exc:
        raise ModelVersionMismatch(f"{model_path}: not a model file ({exc})") from exc
    return DetectorBundle(embedding=embedding, classifier=classifier, config=cfg)


def detect(bundle: DetectorBundle, records: list[TxRecord],
           stage=_no_stage) -> list[dict]:
    """One output row per transaction: hash, predicted label, score detail.

    The label is derived from the score detail, computed once; `stage` is
    the timing hook of `prepare`."""
    cfg, classifier = bundle.config, bundle.classifier
    rows = []
    for record in records:
        features = feature_vector(prepare(record, cfg, stage), bundle.embedding, stage)
        with stage("classification"):
            scores = classifier.scores(features)
            label = classifier.label(scores)
        rows.append({"tx_hash": record.tx_hash, "label": label, "scores": scores})
    return rows
