"""End-to-end wiring: records -> graphs -> features -> detector.

The embedding model is always fit on training data only; test and detect
inputs are embedded against the frozen model. A trained detector is saved
as a bundle directory holding the embedding model, the classifier, and the
resolved configuration.
"""

from __future__ import annotations

import json
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import (
    FeatureVector,
    LabeledSample,
    concat_features,
    dtree_train,
    evaluate,
    evaluate_binary,
    knn_train,
    load_classifier,
    save_classifier,
    split_dataset,
)
from .config import RunConfig, config_from_dict
from .errors import InvalidConfig, ModelMissing
from .features import assemble_global, direction_flag, graph_stats
from .graph2vec import (
    EmbeddingModel,
    TrainParams,
    infer_embedding,
    load_model,
    save_model,
    train_graph2vec,
)
from .ingest import LABELS, TxRecord, read_json
from .motifs import LocalFeature, local_feature
from .wl import WLDocument, wl_document
from .xteg import build_xteg

BUNDLE_FILE = "bundle.json"
EMBEDDING_FILE = "embedding.npz"
CLASSIFIER_FILE = "classifier.json"
BUNDLE_FORMAT_VERSION = 1

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


def prepare(record: TxRecord, cfg: RunConfig, stage=_no_stage) -> PreparedTx:
    """`stage(name)` gives a context manager entered around each stage's
    work, for timing; the default does nothing."""
    with stage("xteg_construction"):
        graph = build_xteg(record)
    with stage("global_mining"):
        doc = wl_document(graph, cfg.wl_iterations)
        stats = graph_stats(graph)
        flag = direction_flag(record.logs, cfg.signatures or None)
    with stage("local_mining"):
        census = local_feature(graph)
    return PreparedTx(record=record, doc=doc, stats=stats, flag=flag, census=census)


def feature_vector(prep: PreparedTx, model: EmbeddingModel,
                   stage=_no_stage) -> FeatureVector:
    with stage("global_mining"):
        embedding = infer_embedding(model, prep.doc)
    return _assemble(prep, embedding, stage)


def _assemble(prep: PreparedTx, embedding: np.ndarray, stage=_no_stage) -> FeatureVector:
    with stage("global_mining"):
        glob = assemble_global(embedding, prep.stats, prep.flag)
    with stage("classification"):  # the 37-dim input, as the classifier sees it
        return concat_features(glob, prep.census)


@dataclass
class DetectorBundle:
    embedding: EmbeddingModel
    classifier: object  # KNNModel | DecisionTreeModel
    classifier_kind: str
    config: RunConfig


CLASSIFIERS = ("knn", "dtree")  # the kinds `_fit_classifier` accepts


def _fit_classifier(kind: str, train: list[LabeledSample], cfg: RunConfig):
    if kind == "knn":
        return knn_train(train, k=cfg.k, seed=cfg.seed)
    if kind == "dtree":
        return dtree_train(train, max_depth=cfg.max_depth,
                           min_samples_leaf=cfg.min_samples_leaf, seed=cfg.seed,
                           class_weighting=cfg.class_weighting)
    raise InvalidConfig(f"unknown classifier {kind!r}")


def _fit_split(preps: list[PreparedTx], labels: list[str], cfg: RunConfig,
               seed: int):
    """Seeded stratified split, graph2vec fit on the training documents only,
    and the labelled feature vectors of both sides: (model, train, test)."""
    shells = [LabeledSample(tx_hash=str(i), features=None, label=lab)
              for i, lab in enumerate(labels)]
    train_shells, test_shells = split_dataset(shells, ratio=cfg.split_ratio, seed=seed)
    train_idx = [int(s.tx_hash) for s in train_shells]
    test_idx = [int(s.tx_hash) for s in test_shells]
    params = TrainParams(epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                         negative=cfg.negative, wl_iterations=cfg.wl_iterations)
    model = train_graph2vec([preps[i].doc for i in train_idx],
                            dim=cfg.embedding_dim, params=params, seed=seed)
    # infer_embedding depends only on (model, content hash), and contents repeat.
    embeddings: dict[str, np.ndarray] = {}

    def sample(i: int) -> LabeledSample:
        doc = preps[i].doc
        if doc.content_hash not in embeddings:
            embeddings[doc.content_hash] = infer_embedding(model, doc)
        return LabeledSample(preps[i].record.tx_hash,
                             _assemble(preps[i], embeddings[doc.content_hash]),
                             labels[i])

    return model, [sample(i) for i in train_idx], [sample(i) for i in test_idx]


def _test_metrics(classifier, test: list[LabeledSample]) -> tuple[dict, dict]:
    """(three-class, binary) metrics of `classifier` on the test samples."""
    predictions = [classifier.label(classifier.scores(s.features)) for s in test]
    truth = [s.label for s in test]
    return (evaluate(predictions, truth, classes=LABELS).to_dict(),
            evaluate_binary(predictions, truth).to_dict())


def train_detector(records: list[TxRecord], labels: list[str],
                   cfg: RunConfig) -> tuple[DetectorBundle, dict]:
    """Single split -> embedding + classifier; returns bundle and test metrics."""
    preps = [prepare(r, cfg) for r in records]
    model, train, test = _fit_split(preps, labels, cfg, cfg.seed)
    classifier = _fit_classifier(cfg.classifier, train, cfg)
    bundle = DetectorBundle(embedding=model, classifier=classifier,
                            classifier_kind=cfg.classifier, config=cfg)
    three_class, binary = _test_metrics(classifier, test)
    return bundle, {"three_class": three_class, "binary": binary}


def repeated_pipeline_eval(records: list[TxRecord], labels: list[str],
                           cfg: RunConfig,
                           classifiers: tuple[str, ...] = ("knn",)) -> dict:
    """The repeated protocol with a leakage-free embedding refit per split."""
    if cfg.runs < 1:
        raise InvalidConfig("runs must be >= 1")
    preps = [prepare(r, cfg) for r in records]
    per_run: dict[str, list[dict]] = {kind: [] for kind in classifiers}
    for run in range(cfg.runs):
        _, train, test = _fit_split(preps, labels, cfg, cfg.seed + run)
        for kind in classifiers:
            report, binary = _test_metrics(_fit_classifier(kind, train, cfg), test)
            report["binary"] = binary
            per_run[kind].append(report)

    out: dict = {"runs": cfg.runs, "config_hash": cfg.config_hash()}
    for kind in classifiers:
        out[kind] = _mean_std(per_run[kind])
    return out


def _mean_std(reports: list[dict]) -> dict:
    """Mean/std (population) over per-run report dicts of identical shape.

    Numeric leaves (scalars and nested numeric lists like the confusion
    matrix) are aggregated elementwise; the class-name lists pass through.
    """
    def walk(path, node, collected):
        if isinstance(node, dict):
            for key, sub in node.items():
                walk(path + (key,), sub, collected)
        else:
            collected.setdefault(path, []).append(node)

    collected: dict[tuple, list] = {}
    for report in reports:
        walk((), report, collected)

    def build(stat: str) -> dict:
        out: dict = {}
        for path, values in collected.items():
            cursor = out
            for key in path[:-1]:
                cursor = cursor.setdefault(key, {})
            if path[-1] == "classes":
                cursor[path[-1]] = values[0]
                continue
            arr = np.asarray(values, dtype=np.float64)
            agg = arr.mean(axis=0) if stat == "mean" else arr.std(axis=0)
            cursor[path[-1]] = agg.tolist() if agg.ndim else float(agg)
        return out

    return {"mean": build("mean"), "std": build("std")}


# --- bundle persistence ------------------------------------------------------


def save_bundle(bundle: DetectorBundle, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(bundle.embedding, out_dir / EMBEDDING_FILE)
    save_classifier(bundle.classifier, out_dir / CLASSIFIER_FILE)
    meta = {
        "version": BUNDLE_FORMAT_VERSION,
        "classifier_kind": bundle.classifier_kind,
        "config": bundle.config.to_dict(),
        "config_hash": bundle.config.config_hash(),
    }
    with open(out_dir / BUNDLE_FILE, "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
        f.write("\n")
    return out_dir


def load_bundle(model_dir: str | Path) -> DetectorBundle:
    model_dir = Path(model_dir)
    meta_path = model_dir / BUNDLE_FILE
    if not meta_path.exists():
        raise ModelMissing(f"no detector bundle at {model_dir}")
    meta = read_json(meta_path, ModelMissing)
    if not isinstance(meta, dict):
        raise ModelMissing(f"{meta_path}: not a JSON object")
    if meta.get("version") != BUNDLE_FORMAT_VERSION:
        raise ModelMissing(f"unsupported bundle version {meta.get('version')}")
    for key in ("classifier_kind", "config"):
        if key not in meta:
            raise ModelMissing(f"{meta_path}: missing key {key!r}")
    return DetectorBundle(
        embedding=load_model(model_dir / EMBEDDING_FILE),
        classifier=load_classifier(model_dir / CLASSIFIER_FILE),
        classifier_kind=meta["classifier_kind"],
        config=config_from_dict(meta["config"], meta_path),
    )


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
