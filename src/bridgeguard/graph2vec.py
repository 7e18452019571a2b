"""Whole-graph embeddings: WL token documents -> fixed-dim vectors.

Distributed-bag-of-words training with negative sampling: each document
vector is trained to score its own tokens above noise tokens drawn from the
unigram^0.75 distribution. Two departures from the classic streaming SGD
keep the model exactly reproducible and make equal inputs provably equal
outputs:

* document vectors and negative-sample streams are derived from the
  document's CONTENT hash, never its corpus index;
* token vectors update synchronously once per epoch (documents read the
  token matrix as it stood at the epoch start; their token gradients are
  accumulated and applied at the epoch boundary, so no copy is needed).

Together these guarantee that identical documents hold identical vectors at
every step, which also licenses training each distinct content once (a job)
and weighting its token gradient by multiplicity.

An epoch is a handful of array passes over all jobs, and gives bit for bit
the vectors of the plain per-job loop (the tests keep that loop as their
oracle). Job j owns rows `offsets[j]:offsets[j + 1]` of one int32 row array:
its tokens, then its negatives, redrawn in place each epoch; one float64
coefficient per row holds `sigmoid(w . d) - label`. Three things keep it
exact:

* Stacked products. Jobs with the same row count m form stacks of shape
  (jobs, m, dim). `np.matmul` loops over a stack and calls, for each item,
  the BLAS gemv that `w @ d` (and `w.T @ coef`) calls for that job alone,
  with the same shape and strides, so each score and document gradient is
  the per-job one. `einsum` sums in another order and is not equal.
* Elementwise passes. The sigmoid, the label subtraction, `d -= lr * grad`
  and the token-gradient value `(-lr * mult) * (coef * d)` are elementwise,
  so batching them changes no result.
* Accumulation in job order. `np.add.at` adds its values one by one, in
  order, so calling it on consecutive job-order spans gives each token cell
  the same additions in the same order as one call per job. Summing a span
  first (`bincount`) and adding the sum would round differently.

The row and coefficient arrays, 12 bytes a row, are the only state that
grows with the corpus's rows. Every other temporary is bounded by
`_CHUNK_ROWS` rows (or one longer document) times dim: a stack holds at
most that many rows, and the accumulation runs span by span, each at most
that long, through two reused chunk buffers. The noise buffers hold
`_DRAW_BLOCK` uniforms (or one longer document's negatives).

Logger `bridgeguard.graph2vec` reports, at DEBUG, each epoch's largest
token and document vector entry and its wall time; they are computed only
when DEBUG is on. Vectors are checked for finiteness after every epoch, so
a diverging run stops at the first epoch that breaks them.

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

Every noise stream (a distinct document's epoch in training, an epoch of an
inference miss) and every start vector draws from `np.random.default_rng(s)`
for a seed s derived from the content hash. Building that generator costs a
SeedSequence and a PCG64, about 25 us, for a few hundred uniforms, so
`_Streams` reproduces it without building one per seed. `default_rng(s)` is
`Generator(PCG64(SeedSequence(s)))`:

* SeedSequence splits s into little-endian 32-bit words (one or two for a
  64-bit seed) and hashes them into a four-word pool; pool words past the
  seed's are hashed from 0, so a seed below 2^32 pools like [s, 0]. It then
  mixes every pool word into every other one. Every step is uint32
  multiply, xor and shift, and its hash constants follow a fixed sequence
  that does not depend on s.
* `generate_state(4, uint64)` hashes the pool, cycled, into eight words:
  PCG64's 128-bit initstate and initseq.
* PCG64 seeds itself (`pcg64_srandom_r`) with inc = 2 initseq + 1 and
  state = (inc + initstate) M + inc mod 2^128, M its multiplier.

So one vectorized uint32 pass (`_pcg64_states`) computes (state, inc) for
all of a call's seeds, and one PCG64 set to each in turn gives the bits, and
through the same `Generator` the doubles, that `default_rng(s)` gives. This
rests on NumPy's stream guarantee for bit generators (NEP 19, "Compatibility
policy" of `numpy.random`): for a given seed, SeedSequence and PCG64 produce
the same bits in every release. The tests compare filled rows with
`default_rng(s).random(n)` on seeds across the whole 64-bit range, and the
plain algorithm of the tests still builds one `default_rng` per stream.

The noise of a call is filled and drawn block by block. `_Streams.fill` sets
the PCG64 to each stream's state in turn and lets `Generator.random(out=...)`
write that stream's uniforms straight into its slice of one reused buffer:
a row per epoch of an inference miss, a span per job in training. A block
holds at most `_DRAW_BLOCK` uniforms (or one larger stream), and the sampler
draws at most `_DRAW_BLOCK` of them per call. A draw depends only on its own
uniform, so where the blocks are cut changes no token.

An inference miss runs its epochs through buffers made once per miss: the
token rows (positives first, then the negatives that one `take` overwrites
each epoch), the row scores and the gradient. Each epoch is the plain step
`d -= lr * (w.T @ (sigmoid(w @ d) - labels))` as the same operations on the
same values, written in place: `np.matmul(..., out=...)` calls the gemv that
`@` calls for the same shapes and strides; the sigmoid and the label
subtraction are elementwise; and `lr * g`, then `d - (lr * g)`, are the two
elementwise passes of the plain step, in its order. No sign-folding or other
algebraic rewrite is made. Such rewrites are equal in exact arithmetic but
not in floating point: storing -d and adding `lr * g` gives -0.0 wherever d
becomes an exact zero (x - x is +0.0), and a regrouped product rounds
differently.
"""

from __future__ import annotations

import json
import logging
import time
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import field_error
from .errors import EmptyCorpus, ModelVersionMismatch, TrainingDiverged
from .features import EMBED_DIM
from .hashing import derive_seed, derive_seeds
from .wl import WLDocument

MODEL_FORMAT_VERSION = 2  # 2: string arrays, loaded without pickle

logger = logging.getLogger(__name__)


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

    def draw(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The token index of each uniform in [0, 1): `searchsorted(cdf, u)`,
        written to `out` (intp, u's size) when given."""
        # u * buckets < buckets, so "clip" only skips a buffered bounds check.
        idx = self.guide.take((u * self.buckets).astype(np.intp), out=out, mode="clip")
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
    _hash_to_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _noise: _NoiseSampler = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.vocab)
        if (self.token_vectors.shape != (n, self.dim) or self.token_counts.shape != (n,)
                or self.graph_vectors.shape != (len(self.doc_hashes), self.dim)):
            raise ValueError("array shapes do not match the vocabulary and documents")
        self._hash_to_index = {}
        for i, h in enumerate(self.doc_hashes):
            self._hash_to_index.setdefault(h, i)
        self._noise = _NoiseSampler(self.token_counts)

    def lookup(self, doc: WLDocument) -> int | None:
        return self._hash_to_index.get(doc.content_hash)


# Uniforms per sampler call: bounds its transient memory, and blocks of this
# size stay in cache.
_DRAW_BLOCK = 2 ** 14


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """`1 / (1 + exp(-clip(x, -35, 35)))` in place in `x`: the same
    operations in the same order, without a temporary per operation."""
    np.maximum(x, -35.0, out=x)
    np.minimum(x, 35.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(x, 1.0, out=x)
    return np.divide(1.0, x, out=x)


# SeedSequence's hash constants and PCG64's multiplier, from NumPy's
# numpy/random/bit_generator.pyx and numpy/random/src/pcg64/pcg64.h.
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The hash constant before and after each of `steps` successive
    SeedSequence hash steps: two rows of uint32."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)


# Pool hashing takes 4 steps and mixing 12; generate_state(4, uint64) 8.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value: np.ndarray, before, after) -> np.ndarray:
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """The (state, inc) of `np.random.default_rng(seed).bit_generator` for
    each seed in 0..2^64-1 (see the module docstring)."""
    seeds = np.array(seeds, dtype=np.uint64)
    words = np.zeros((4, seeds.size), dtype=np.uint32)
    words[0] = seeds.astype(np.uint32)
    words[1] = (seeds >> 32).astype(np.uint32)
    before, after = _POOL_HASH
    pool = _hashmix(words, before[:4, None], after[:4, None])
    # Each source word mixes into the other three in turn; it does not change
    # meanwhile, so its three steps are one (3, n) operation.
    for src, step in enumerate(range(4, 16, 3)):
        dst = [i for i in range(4) if i != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(
            pool[src], before[step:step + 3, None], after[step:step + 3, None])
        pool[dst] = mixed ^ (mixed >> 16)
    before, after = _STATE_HASH
    state = _hashmix(np.concatenate([pool, pool]), before[:, None], after[:, None])
    state = state.astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = (state[0::2] | state[1::2] << 32).tolist()
    states = []
    for a, b, c, d in zip(init_hi, init_lo, seq_hi, seq_lo):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        states.append((((a << 64 | b) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


class _Streams:
    """One PCG64, re-seeded in turn to the state `np.random.default_rng(seed)`
    starts in, from its `_pcg64_states` entry (see the module docstring)."""

    def __init__(self) -> None:
        self._bits = np.random.PCG64(0)
        self._settings = self._bits.state  # no buffered 32-bit half, as when fresh
        self._rng = np.random.Generator(self._bits)

    def at(self, state: tuple[int, int]) -> np.random.Generator:
        """The generator, set to `state`; draw from it before the next call."""
        self._settings["state"] = {"state": state[0], "inc": state[1]}
        self._bits.state = self._settings
        return self._rng

    def fill(self, states: Iterable[tuple[int, int]], outs: Iterable[np.ndarray]) -> None:
        """Fill each contiguous float64 array of `outs` in place with the first
        uniforms of the stream of the matching state: its size many, as
        `default_rng(seed).random(size)` draws them."""
        bits, settings, rng = self._bits, self._settings, self._rng
        # `at`, inlined: this loop runs once per stream.
        for (state, inc), out in zip(states, outs, strict=True):
            settings["state"] = {"state": state, "inc": inc}
            bits.state = settings
            rng.random(out=out)


def _init_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.uniform(-0.5 / dim, 0.5 / dim, dim)


def _lr_schedule(params: TrainParams) -> list[float]:
    """Each epoch's learning rate, `learning_rate * max(1 - epoch / epochs,
    1e-4)`: elementwise, so each value is the scalar formula's."""
    decay = np.maximum(1.0 - np.arange(params.epochs) / params.epochs, 1e-4)
    return (params.learning_rate * decay).tolist()


# Rows per stacked product and per accumulation pass in training. Every
# transient array of an epoch is bounded by it (or by one longer document);
# only the row and coefficient arrays grow with the corpus.
_CHUNK_ROWS = 2 ** 11


def _stacks(n_pos: np.ndarray, negative: int) -> list[tuple[int, np.ndarray]]:
    """The jobs of each row count, in job order, cut into stacks of at most
    `_CHUNK_ROWS` rows (or one longer job): (positives per job, jobs).
    Empty documents have no rows and no gradient, so they are left out."""
    order = np.argsort(n_pos, kind="stable")
    lengths, firsts = np.unique(n_pos[order], return_index=True)
    stacks = []
    for p, jobs in zip(lengths.tolist(), np.split(order, firsts[1:])):
        if p:
            per = max(1, _CHUNK_ROWS // (p * (1 + negative)))
            stacks += [(p, jobs[i:i + per]) for i in range(0, jobs.size, per)]
    return stacks


def _spans(offsets: np.ndarray, limit: int | None = None) -> list[tuple[int, int, int, int]]:
    """Consecutive job ranges of at most `limit` (default `_CHUNK_ROWS`) rows
    (or one longer job), covering all jobs in order: (first job, end job,
    first row, end row). `offsets[j]` is job j's first row and `offsets[-1]`
    the row count."""
    limit = _CHUNK_ROWS if limit is None else limit
    spans, a, n_jobs = [], 0, offsets.size - 1
    while a < n_jobs:
        b = max(a + 1, int(np.searchsorted(offsets, offsets[a] + limit, "right")) - 1)
        spans.append((a, b, int(offsets[a]), int(offsets[b])))
        a = b
    return spans


# A diverging run overflows on the way; the per-epoch finiteness check
# reports it as one TrainingDiverged, not a stream of RuntimeWarnings.
@np.errstate(over="ignore", invalid="ignore")
def train_graph2vec(corpus: list[WLDocument], dim: int = EMBED_DIM,
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
    job_of: dict[str, int] = {}
    docs: list[WLDocument] = []
    mult: list[int] = []
    doc_hashes, corpus_jobs = [], []
    for doc in corpus:
        h = doc.content_hash
        j = job_of.setdefault(h, len(docs))
        if j == len(docs):
            docs.append(doc)
            mult.append(0)
        mult[j] += 1
        doc_hashes.append(h)
        corpus_jobs.append(j)
    hashes = list(job_of)
    streams = _Streams()
    doc_vectors = np.empty((len(docs), dim))
    for j, state in enumerate(_pcg64_states([derive_seed(seed, "doc", h) for h in hashes])):
        doc_vectors[j] = _init_vector(streams.at(state), dim)

    # Job j owns rows[offsets[j]:offsets[j + 1]]: its tokens, then its
    # negatives, which each epoch redraws in place.
    n_pos = np.array([len(doc) for doc in docs], dtype=np.int64)
    sizes = n_pos * (1 + params.negative)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rows = np.empty(offsets[-1], dtype=np.int32)
    for doc, start, p in zip(docs, offsets.tolist(), n_pos.tolist()):
        rows[start:start + p] = [vocab[t] for t in doc.tokens]
    # An epoch's uniforms, job after job, are cut into blocks of at most
    # `_DRAW_BLOCK` (or one larger job), each filled and drawn in reused
    # buffers. Job j's uniforms start at `neg_offsets[j]`; uniform i of the
    # epoch lands in row `i + shift[j]`.
    neg_counts = n_pos * params.negative
    neg_offsets = np.concatenate([[0], np.cumsum(neg_counts)])
    shift = offsets[:-1] + n_pos - neg_offsets[:-1]
    blocks = [(a, b, first, last, (neg_offsets[a:b + 1] - first).tolist())
              for a, b, first, last in _spans(neg_offsets, _DRAW_BLOCK)]
    draw_size = max(_DRAW_BLOCK, int(neg_counts.max()))
    uniforms, negatives = np.empty(draw_size), np.empty(draw_size, dtype=np.intp)
    ramp = np.arange(draw_size)
    coefs = np.empty(rows.size)
    grads = np.zeros_like(doc_vectors)  # an empty document's stays zero
    stacks = _stacks(n_pos, params.negative)
    spans = _spans(offsets)
    mult = np.array(mult, dtype=np.float64)
    # Chunk-sized buffers for the gathered token rows and the token
    # gradient, reused: a fresh array of this size costs its page faults.
    most = max(_CHUNK_ROWS, int(sizes.max()))
    chunk = np.empty(most * dim)
    cells = np.empty((most, dim), dtype=np.intp)
    columns = np.arange(dim)
    debug = logger.isEnabledFor(logging.DEBUG)

    # Within an epoch every job reads its own document vector and the token
    # matrix as it stood at the epoch start; both change only at its end.
    for epoch, lr in enumerate(_lr_schedule(params)):
        started = time.perf_counter() if debug else 0.0
        states = _pcg64_states([derive_seed(seed, "neg", h, epoch) for h in hashes])
        for a, b, first, last, cuts in blocks:
            u = uniforms[:last - first]
            streams.fill(states[a:b], (u[i:j] for i, j in zip(cuts, cuts[1:])))
            at = np.repeat(shift[a:b] + first, neg_counts[a:b])
            at += ramp[:u.size]
            rows[at] = noise.draw(u, out=negatives[:u.size])
        for p, jobs in stacks:
            at = offsets[jobs, None] + np.arange(p * (1 + params.negative))
            w = chunk[:at.size * dim].reshape(*at.shape, dim)
            token_vectors.take(rows[at], axis=0, out=w, mode="clip")
            scores = np.matmul(w, doc_vectors[jobs, :, None])
            coef = _sigmoid(scores[..., 0])
            coef[:, :p] -= 1.0  # minus the labels
            grads[jobs] = np.matmul(w.transpose(0, 2, 1), scores)[..., 0]
            coefs[at] = coef
        # Each token cell gets its additions in job order, row order, as the
        # per-job step made them: add.at adds sequentially, span by span.
        accum = np.zeros_like(token_vectors)
        scale = -lr * mult
        for a, b, first, last in spans:
            owner = np.repeat(np.arange(a, b), sizes[a:b])
            values = doc_vectors.take(owner, axis=0, out=chunk[:owner.size * dim]
                                      .reshape(-1, dim))
            values *= coefs[first:last, None]
            values *= scale[owner, None]
            flat = np.multiply(rows[first:last, None], dim, out=cells[:owner.size])
            flat += columns
            np.add.at(accum.reshape(-1), flat.reshape(-1), values.reshape(-1))
        token_vectors += accum
        doc_vectors -= lr * grads

        if not (np.isfinite(token_vectors).all() and np.isfinite(doc_vectors).all()):
            raise TrainingDiverged("embedding training diverged: a vector is not finite "
                                   f"after epoch {epoch + 1} of {params.epochs}")
        if debug:
            logger.debug("epoch %d/%d: max |token| %.6g, max |doc| %.6g, %.1f ms",
                         epoch + 1, params.epochs, np.abs(token_vectors).max(),
                         np.abs(doc_vectors).max(), (time.perf_counter() - started) * 1e3)

    return EmbeddingModel(
        dim=dim,
        vocab=vocab,
        token_vectors=token_vectors,
        graph_vectors=doc_vectors[corpus_jobs],
        token_counts=token_counts,
        doc_hashes=doc_hashes,
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
    n_pos, n_neg = idx.size, len(doc.tokens) * params.negative
    seeds = [derive_seed(model.seed, "infer", h)]
    if n_neg:  # without negatives the epochs draw nothing
        seeds += derive_seeds(model.seed, ("inferneg", h), range(params.epochs))
    init_state, *noise_states = _pcg64_states(seeds)
    streams = _Streams()
    d = _init_vector(streams.at(init_state), model.dim)
    lrs = _lr_schedule(params)

    # Every buffer of the epoch step is allocated once. The positive rows
    # stay put; each epoch overwrites only the negatives.
    rows = np.empty((n_pos + n_neg, model.dim))
    np.take(model.token_vectors, idx, axis=0, out=rows[:n_pos])
    negative_rows, rows_t = rows[n_pos:], rows.T
    x = np.empty(n_pos + n_neg)
    positives = x[:n_pos]
    grad = np.empty(model.dim)
    # A block of epochs fills one uniform row per epoch.
    per_block = max(1, _DRAW_BLOCK // n_neg) if n_neg else params.epochs
    uniforms = np.empty((min(per_block, params.epochs), n_neg))
    negatives = np.empty(uniforms.shape, dtype=np.intp)
    for first in range(0, params.epochs, per_block):
        u, negs = uniforms[:params.epochs - first], negatives[:params.epochs - first]
        if n_neg:
            streams.fill(noise_states[first:first + len(u)], u)
            flat_u, flat_negs = u.reshape(-1), negs.reshape(-1)
            for i in range(0, flat_u.size, _DRAW_BLOCK):
                model._noise.draw(flat_u[i:i + _DRAW_BLOCK], out=flat_negs[i:i + _DRAW_BLOCK])
        for epoch_negs, lr in zip(negs, lrs[first:]):
            # d -= lr * (w.T @ (sigmoid(w @ d) - labels)), in place.
            model.token_vectors.take(epoch_negs, axis=0, out=negative_rows, mode="clip")
            np.matmul(rows, d, out=x)
            _sigmoid(x)
            np.subtract(positives, 1.0, out=positives)  # minus the labels
            np.matmul(rows_t, x, out=grad)
            np.multiply(grad, lr, out=grad)
            np.subtract(d, grad, out=d)
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
            params = TrainParams(**header["params"])
            for key, value in asdict(params).items():
                problem = field_error(key, value)  # TrainParams fields are RunConfig's
                if problem:
                    raise ModelVersionMismatch(f"{path}: params.{problem}")
            for key in ("tokens", "doc_hashes"):
                if data[key].dtype.kind != "U":
                    raise ModelVersionMismatch(f"{path}: {key} is not an array of strings")
            return EmbeddingModel(
                dim=header["dim"],
                vocab={token: i for i, token in enumerate(data["tokens"].tolist())},
                token_vectors=data["token_vectors"],
                graph_vectors=data["graph_vectors"],
                token_counts=data["token_counts"],
                doc_hashes=data["doc_hashes"].tolist(),
                params=params,
                seed=int(header["seed"]),
            )
    except (ValueError, KeyError, TypeError, EOFError, RecursionError,
            zipfile.BadZipFile) as exc:
        raise ModelVersionMismatch(f"{path}: not an embedding model ({exc})") from exc
