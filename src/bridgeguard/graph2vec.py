"""Whole-graph embeddings: WL token documents -> fixed-dim vectors.

Distributed-bag-of-words training with negative sampling: each document
vector is trained to score its own tokens above noise tokens drawn from the
unigram^0.75 distribution. Two departures from the classic streaming SGD
keep the model exactly reproducible and make equal inputs provably equal
outputs:

* document vectors and negative-sample streams are derived from the
  document's CONTENT hash, never its corpus index;
* token vectors update synchronously once per epoch (documents read an
  epoch-start snapshot; their token gradients are accumulated and applied
  at the epoch boundary).

Together these guarantee that identical documents hold identical vectors at
every step, which also licenses training each distinct content once and
weighting its token gradient by multiplicity.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyCorpus, ModelVersionMismatch
from .hashing import derive_seed
from .wl import WLDocument

MODEL_FORMAT_VERSION = 2  # 2: string arrays, loaded without pickle


@dataclass(frozen=True)
class TrainParams:
    epochs: int = 100
    learning_rate: float = 0.025  # linearly decayed over epochs
    negative: int = 5
    wl_iterations: int = 2


@dataclass
class EmbeddingModel:
    dim: int
    vocab: dict[str, int]
    token_vectors: np.ndarray  # (|vocab|, dim)
    graph_vectors: np.ndarray  # (corpus size, dim)
    token_counts: np.ndarray  # corpus unigram counts, for noise sampling
    doc_hashes: list[str]  # content hash per corpus document
    params: TrainParams
    seed: int
    _hash_to_index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._hash_to_index:
            for i, h in enumerate(self.doc_hashes):
                self._hash_to_index.setdefault(h, i)

    def lookup(self, doc: WLDocument) -> int | None:
        return self._hash_to_index.get(doc.content_hash)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -35.0, 35.0)))


def _noise_cdf(token_counts: np.ndarray) -> np.ndarray:
    weights = token_counts.astype(np.float64) ** 0.75
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _init_vector(seed: int, dim: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-0.5 / dim, 0.5 / dim, dim)


def _lr_schedule(params: TrainParams, epoch: int) -> float:
    return params.learning_rate * max(1.0 - epoch / params.epochs, 1e-4)


def _dbow_step(d: np.ndarray, rows: np.ndarray, labels: np.ndarray,
               snapshot: np.ndarray, lr: float):
    """One batched gradient step for a document; returns token-row gradients."""
    w = snapshot[rows]
    coef = _sigmoid(w @ d) - labels
    grad_d = w.T @ coef
    token_grad = coef[:, None] * d[None, :]
    d -= lr * grad_d
    return token_grad


def train_graph2vec(corpus: list[WLDocument], dim: int = 16,
                    params: TrainParams | None = None, seed: int = 0) -> EmbeddingModel:
    """Fit one vector per corpus document; bit-reproducible under the seed."""
    if not corpus:
        raise EmptyCorpus("training corpus is empty")
    params = params or TrainParams()

    vocab: dict[str, int] = {}
    for doc in corpus:
        for token in doc.tokens:
            if token not in vocab:
                vocab[token] = len(vocab)
    if not vocab:
        raise EmptyCorpus("corpus documents contain no tokens")

    token_counts = np.zeros(len(vocab), dtype=np.int64)
    for doc in corpus:
        for token in doc.tokens:
            token_counts[vocab[token]] += 1
    noise_cdf = _noise_cdf(token_counts)

    token_vectors = np.random.default_rng(seed).uniform(
        -0.5 / dim, 0.5 / dim, (len(vocab), dim))

    # One training job per distinct content; duplicates share the trajectory.
    jobs: list[dict] = []
    by_hash: dict[str, dict] = {}
    for doc in corpus:
        h = doc.content_hash
        job = by_hash.get(h)
        if job is None:
            job = {
                "hash": h,
                "idx": np.array([vocab[t] for t in doc.tokens], dtype=np.int64),
                "mult": 0,
                "vec": _init_vector(derive_seed(seed, "doc", h), dim),
            }
            by_hash[h] = job
            jobs.append(job)
        job["mult"] += 1

    n_neg = params.negative
    for epoch in range(params.epochs):
        lr = _lr_schedule(params, epoch)
        snapshot = token_vectors.copy()
        accum = np.zeros_like(token_vectors)
        for job in jobs:
            idx = job["idx"]
            rng = np.random.default_rng(derive_seed(seed, "neg", job["hash"], epoch))
            negs = np.searchsorted(noise_cdf, rng.random(idx.size * n_neg))
            rows = np.concatenate([idx, negs])
            labels = np.concatenate([
                np.ones(idx.size), np.zeros(negs.size)])
            token_grad = _dbow_step(job["vec"], rows, labels, snapshot, lr)
            np.add.at(accum, rows, (-lr * job["mult"]) * token_grad)
        token_vectors += accum

    graph_vectors = np.stack([by_hash[doc.content_hash]["vec"] for doc in corpus])
    if not np.isfinite(graph_vectors).all() or not np.isfinite(token_vectors).all():
        raise FloatingPointError("embedding training diverged")
    return EmbeddingModel(
        dim=dim,
        vocab=vocab,
        token_vectors=token_vectors,
        graph_vectors=graph_vectors,
        token_counts=token_counts,
        doc_hashes=[doc.content_hash for doc in corpus],
        params=params,
        seed=seed,
    )


def infer_embedding(model: EmbeddingModel, doc: WLDocument) -> np.ndarray:
    """Embed a document against the frozen token matrix.

    Contents seen during training short-circuit to the trained vector.
    Out-of-vocabulary tokens contribute no positive term, but every token
    position still draws negatives, so fully unseen documents remain finite.
    """
    hit = model.lookup(doc)
    if hit is not None:
        return model.graph_vectors[hit].copy()

    params = model.params
    h = doc.content_hash
    idx = np.array([model.vocab[t] for t in doc.tokens if t in model.vocab],
                   dtype=np.int64)
    noise_cdf = _noise_cdf(model.token_counts)
    d = _init_vector(derive_seed(model.seed, "infer", h), model.dim)
    n_slots = len(doc.tokens)
    for epoch in range(params.epochs):
        lr = _lr_schedule(params, epoch)
        rng = np.random.default_rng(derive_seed(model.seed, "inferneg", h, epoch))
        negs = np.searchsorted(noise_cdf, rng.random(n_slots * params.negative))
        rows = np.concatenate([idx, negs])
        labels = np.concatenate([np.ones(idx.size), np.zeros(negs.size)])
        _dbow_step(d, rows, labels, model.token_vectors, lr)
    return d


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    header = {
        "version": MODEL_FORMAT_VERSION,
        "dim": model.dim,
        "seed": model.seed,
        "params": {
            "epochs": model.params.epochs,
            "learning_rate": model.params.learning_rate,
            "negative": model.params.negative,
            "wl_iterations": model.params.wl_iterations,
        },
    }
    np.savez(
        path,
        header=json.dumps(header),
        tokens=np.array(sorted(model.vocab, key=model.vocab.get), dtype=str),
        token_vectors=model.token_vectors,
        graph_vectors=model.graph_vectors,
        token_counts=model.token_counts,
        doc_hashes=np.array(model.doc_hashes, dtype=str),
    )


def load_model(path: str | Path) -> EmbeddingModel:
    """Read a model `save_model` wrote, unpickling nothing. A file that is not
    a version-2 model raises ModelVersionMismatch naming it."""
    try:
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            if not isinstance(header, dict) or header.get("version") != MODEL_FORMAT_VERSION:
                raise ModelVersionMismatch(f"{path}: model format is not {MODEL_FORMAT_VERSION}")
            return EmbeddingModel(
                dim=int(header["dim"]),
                vocab={token: i for i, token in enumerate(data["tokens"].tolist())},
                token_vectors=data["token_vectors"],
                graph_vectors=data["graph_vectors"],
                token_counts=data["token_counts"],
                doc_hashes=data["doc_hashes"].tolist(),
                params=TrainParams(**header["params"]),
                seed=int(header["seed"]),
            )
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ModelVersionMismatch(f"{path}: not an embedding model ({exc})") from exc
