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

Noise tokens are drawn by inversion: a uniform u in [0, 1) maps to the first
token whose unigram^0.75 CDF value is >= u, which is `searchsorted(cdf, u)`.
`_NoiseSampler` finds that index through a guide table (Chen & Asau 1974)
of K = 2^(ceil(log2 |vocab|) + 2) buckets, `guide[b] = searchsorted(cdf,
b/K)`, built once per model: a draw starts at `guide[floor(u*K)]` and steps
forward while `cdf[idx] < u`. K is a power of two, so `u*K` and `b/K` are
exact; every index below `guide[b]` has a CDF value below b/K <= u and the
forward steps stop at the first value >= u, so each draw equals the
`searchsorted` result bit for bit. Each bucket holds 1/K of the probability
mass and there are at least 4 buckets per token, so a draw takes a quarter
of a step on average, at most.
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


class _NoiseSampler:
    """Exact inverse-CDF draws from the unigram^0.75 noise distribution
    through a guide table (see the module docstring)."""

    def __init__(self, token_counts: np.ndarray) -> None:
        cdf = np.cumsum(np.asarray(token_counts, dtype=np.float64) ** 0.75)
        if not cdf.size or not cdf[-1] > 0:
            raise ValueError("noise distribution needs a positive token count")
        self.cdf = cdf / cdf[-1]
        self.buckets = 2 ** ((cdf.size - 1).bit_length() + 2)
        self.guide = np.searchsorted(self.cdf, np.arange(self.buckets) / self.buckets)

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The token index of each uniform in [0, 1): `searchsorted(cdf, u)`."""
        idx = self.guide[(u * self.buckets).astype(np.intp)]
        behind = np.flatnonzero(self.cdf[idx] < u)
        while behind.size:
            idx[behind] += 1
            behind = behind[self.cdf[idx[behind]] < u[behind]]
        return idx


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
    _noise: _NoiseSampler = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.vocab)
        if (self.token_vectors.shape != (n, self.dim) or self.token_counts.shape != (n,)
                or self.graph_vectors.shape != (len(self.doc_hashes), self.dim)):
            raise ValueError("array shapes do not match the vocabulary and documents")
        if not self._hash_to_index:
            for i, h in enumerate(self.doc_hashes):
                self._hash_to_index.setdefault(h, i)
        self._noise = _NoiseSampler(self.token_counts)

    def lookup(self, doc: WLDocument) -> int | None:
        return self._hash_to_index.get(doc.content_hash)


# Uniforms per sampler call: bounds its transient memory, and blocks of this
# size stay in cache.
_DRAW_BLOCK = 2 ** 14


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -35.0, 35.0)))


def _init_vector(seed: int, dim: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-0.5 / dim, 0.5 / dim, dim)


def _lr_schedule(params: TrainParams, epoch: int) -> float:
    return params.learning_rate * max(1.0 - epoch / params.epochs, 1e-4)


def _dbow_step(d: np.ndarray, w: np.ndarray, n_pos: int, lr: float,
               token_grad: bool = False) -> np.ndarray | None:
    """One batched gradient step of document vector `d` against its token
    rows `w`: `n_pos` positives (label 1), then negatives (label 0). Returns
    the gradient of those rows when `token_grad` is set (training);
    inference, which keeps the token matrix frozen, skips it."""
    coef = _sigmoid(w @ d)
    coef[:n_pos] -= 1.0  # minus the labels
    grad_d = w.T @ coef
    grad_w = coef[:, None] * d[None, :] if token_grad else None
    d -= lr * grad_d
    return grad_w


def _negatives(noise: _NoiseSampler, seed: int, stream: str, requests):
    """The negatives of each (content hash, epoch, count) request, in order.

    A request's uniforms come from its own (hash, epoch) generator, so they
    do not depend on what else is drawn; the sampler runs on blocks of up to
    `_DRAW_BLOCK` of them (or one larger request)."""
    def drawn(block: list[np.ndarray]) -> list[np.ndarray]:
        negatives = noise.draw(np.concatenate(block))
        return np.split(negatives, np.cumsum([u.size for u in block])[:-1])

    block: list[np.ndarray] = []
    size = 0
    for h, epoch, n in requests:
        if block and size + n > _DRAW_BLOCK:
            yield from drawn(block)
            block, size = [], 0
        block.append(np.random.default_rng(derive_seed(seed, stream, h, epoch)).random(n))
        size += n
    if block:
        yield from drawn(block)


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
    noise = _NoiseSampler(token_counts)

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
    columns = np.arange(dim)

    for epoch in range(params.epochs):
        lr = _lr_schedule(params, epoch)
        snapshot = token_vectors.copy()
        accum = np.zeros_like(token_vectors)
        requests = ((job["hash"], epoch, job["idx"].size * params.negative) for job in jobs)
        for job, negs in zip(jobs, _negatives(noise, seed, "neg", requests)):
            rows = np.concatenate([job["idx"], negs])
            token_grad = _dbow_step(job["vec"], snapshot[rows], job["idx"].size, lr,
                                    token_grad=True)
            # Adding the rows into the flat view makes the same additions in
            # the same order as `np.add.at(accum, rows, ...)`, on numpy's
            # faster one-dimensional path.
            np.add.at(accum.reshape(-1), (rows[:, None] * dim + columns).reshape(-1),
                      ((-lr * job["mult"]) * token_grad).reshape(-1))
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
    n_neg = len(doc.tokens) * params.negative
    d = _init_vector(derive_seed(model.seed, "infer", h), model.dim)
    # The positive rows stay put; each epoch overwrites only the negatives.
    rows = np.empty((idx.size + n_neg, model.dim))
    np.take(model.token_vectors, idx, axis=0, out=rows[:idx.size])
    requests = ((h, epoch, n_neg) for epoch in range(params.epochs))
    for epoch, negs in enumerate(_negatives(model._noise, model.seed, "inferneg", requests)):
        # The indices are in range; "clip" only skips a buffered bounds check.
        np.take(model.token_vectors, negs, axis=0, out=rows[idx.size:], mode="clip")
        _dbow_step(d, rows, idx.size, _lr_schedule(params, epoch))
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
            if not isinstance(header["dim"], int):
                raise ModelVersionMismatch(f"{path}: dim {header['dim']!r} is not an integer")
            return EmbeddingModel(
                dim=header["dim"],
                vocab={token: i for i, token in enumerate(data["tokens"].tolist())},
                token_vectors=data["token_vectors"],
                graph_vectors=data["graph_vectors"],
                token_counts=data["token_counts"],
                doc_hashes=data["doc_hashes"].tolist(),
                params=TrainParams(**header["params"]),
                seed=int(header["seed"]),
            )
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ModelVersionMismatch(f"{path}: not an embedding model ({exc})") from exc
