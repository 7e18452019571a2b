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
and weighting its token gradient by multiplicity. Job j is the j-th distinct
content hash of the corpus; tokens are numbered as the jobs' documents,
read once in job order, first name them. A duplicate never comes before
its first occurrence, so that is the corpus-order numbering, and the token
counts are each job's counts times its multiplicity.

An epoch is a handful of array passes over all jobs, and gives bit for bit
the vectors of the plain per-job loop (the tests keep that loop as their
oracle). Job j owns rows `offsets[j]:offsets[j + 1]` of one int32 row array:
its tokens, then its negatives, redrawn in place each epoch; one float64
coefficient per row holds `sigmoid(w . d) - label`. The document vectors
live in two arrays: an epoch reads one and writes each job's stepped vector
`d - lr * grad` to the other, so no job sees another's step. Three things
keep it exact:

* Stacked products. Jobs with the same row count m form stacks of shape
  (jobs, m, dim). `np.matmul` loops over a stack and calls, for each item,
  the BLAS gemv that `w @ d` (and `w.T @ coef`) calls for that job alone,
  with the same shape and strides, so each score and document gradient is
  the per-job one. `einsum` sums in another order and is not equal.
* Elementwise passes. The sigmoid, the label subtraction, `d - lr * grad`
  and the token-gradient value `(-lr * mult) * (coef * d)` are elementwise,
  so batching them changes no result.
* Accumulation in job order. `np.add.at` adds its values one by one, in
  order, so calling it on consecutive job-order spans gives each token cell
  the same additions in the same order as one call per job. Summing a span
  first (`bincount`) and adding the sum would round differently. A span's
  flat cell indices `token * dim + column` are one `take` of rows from a
  (tokens, dim) table of them, built once.

An epoch runs on up to `workers` processes (`train_graph2vec`): this one and
children made by `os.fork`, one per part. It has two phases, and every
process ends one before any starts the next:

* Scoring. Stacks are dealt out whole, the one with the most rows first,
  each to the process with the fewest rows so far. A process redraws the
  negatives of its stacks' jobs, each job from its own seeded stream, and
  computes their products. A draw depends only on its uniform and a product
  only on its job's rows, so where a job is scored changes no bit.
* Accumulation and update. The tokens are cut into consecutive ranges of
  about equal expected rows (positives plus the noise share of the
  negatives), one per process. Each process walks every span in job order
  and applies `np.add.at` only to the rows whose token is in its range, in
  its own accumulator. So each token cell gets the additions, in the order,
  of the one-process run. The process then adds its accumulator to its
  token rows and checks its token rows and its range of document rows for
  finiteness (and finds their largest entries at DEBUG, whose maximum is
  the whole arrays').

The parent runs the first part and coordinates: it releases each phase with
a byte on each child's command pipe and reads each child's report, a
pickle, from its result pipe. Only the child holds the write end of that
pipe, so a child that ends without reporting leaves the parent an end of
file, never a wait: that is a `TrainingProcessLost`, and a child's exception
is raised again in the parent. The `with` block that holds the children
reaps them (killing them first on an error), so none outlives the call.
It takes plain `os.fork` and pipes, not `multiprocessing`, whose import
alone adds about 0.7 MB to a process's resident memory. One process runs
the same partitioned loop in-process, with no fork: when `workers` is 1,
off Linux, with one usable CPU, or when an epoch has fewer than
`_FORK_MIN_ROWS` rows. The usable CPUs are those of the affinity mask,
capped by the cgroup's CPU quota: a container may list more CPUs than its
quota lets it use. Only one and two processes have been timed (on a
2-vCPU host); more are bit-identical by the tests. Timing each part's
phases in turn in one process puts the critical path (the slowest part's
phases) at 0.53-0.58, 0.41-0.44 and 0.27-0.36 of the one-part time on 2,
3 and 4 parts (a 2,814-document training split, 100 epochs), not a half,
a third and a quarter, since every part walks every span. Their
coordination on real CPUs is unmeasured.

The row and coefficient arrays, 12 bytes a row, are the only state that
grows with the corpus's rows. Every other temporary is bounded by
`_CHUNK_ROWS` rows (or one longer document) times dim: a stack holds at
most that many rows, and the accumulation runs span by span, each at most
that long, through two reused chunk buffers. The noise buffers hold
`_DRAW_BLOCK` uniforms (or one longer document's negatives). With more than
one process, the arrays that processes write for each other (rows,
coefficients, token and document vectors) are anonymous shared `mmap`s of
the same sizes, made before the fork; each process has its own chunk and
noise buffers and an accumulator of its token rows. One process uses plain
arrays.

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

import logging
import mmap
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

from .errors import (
    BridgeGuardError,
    EmptyCorpus,
    InvalidConfig,
    TrainingDiverged,
    TrainingProcessLost,
)
from .features import EMBED_DIM
from .hashing import derive_seed, derive_seeds
from .wl import WLDocument

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainParams:
    epochs: int = 100
    learning_rate: float = 0.025  # linearly decayed over epochs
    negative: int = 5


class _NoiseSampler:
    """Exact inverse-CDF draws from the unigram^0.75 noise distribution
    through a guide table (see the module docstring)."""

    def __init__(self, token_counts: np.ndarray) -> None:
        counts = np.asarray(token_counts, dtype=np.float64)
        if (counts < 0).any():
            raise ValueError("token counts must not be negative")
        cdf = np.cumsum(counts ** 0.75)
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


# Rows an epoch needs before training forks. On a 2-vCPU Xeon VM, 100
# epochs on 2 processes took 1.14-1.21x the time of 1 at 54k-61k rows and
# 0.68-0.83x at 69k-164k (medians of 7): below the cut, the start-up and
# the two hand-offs of each epoch cost more than the second core saves.
_FORK_MIN_ROWS = 2 ** 16


def _quota_cpus(root: Path = Path("/sys/fs/cgroup")) -> int | None:
    """The whole CPUs of the CPU quota of the cgroup mounted at `root`, as a
    container sees its own (v2 `cpu.max`, else v1 `cpu/cpu.cfs_quota_us`
    over `cpu.cfs_period_us`), at least one; None without a quota."""
    try:
        if (root / "cpu.max").exists():
            quota, period = (root / "cpu.max").read_text().split()
        else:
            quota, period = ((root / "cpu" / name).read_text().strip()
                             for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us"))
        return None if quota in ("max", "-1") else max(1, int(quota) // int(period))
    except (OSError, ValueError):
        return None


def _usable_cpus() -> int:
    """The CPUs this process may run on, capped by its CPU quota: a
    container may list more CPUs than its quota lets it use."""
    return min(len(os.sched_getaffinity(0)), _quota_cpus() or sys.maxsize)


def _process_count(workers: int, rows: int) -> int:
    """How many processes train an epoch of `rows` rows when `workers` are
    asked for: one unless fork is there (Linux) and pays, at most the usable
    CPUs."""
    if workers <= 1 or rows < _FORK_MIN_ROWS or not sys.platform.startswith("linux"):
        return 1
    return max(1, min(workers, _usable_cpus()))


def _shared(array: np.ndarray) -> np.ndarray:
    """A copy of `array` in anonymous shared memory: what a forked child
    writes to it, every process sees."""
    buffer = mmap.mmap(-1, max(array.nbytes, 1))
    out = np.frombuffer(buffer, array.dtype, count=array.size).reshape(array.shape)
    out[...] = array
    return out


def _cuts(weights: np.ndarray, parts: int) -> list[int]:
    """Bounds that cut the items into `parts` consecutive ranges of about
    equal weight: range i is items `cuts[i]:cuts[i + 1]`."""
    total = np.cumsum(weights, dtype=np.float64)
    inner = np.searchsorted(total, total[-1] * np.arange(1, parts) / parts)
    return [0, *inner.tolist(), weights.size]


@dataclass
class _Part:
    """One process's share of every epoch: some stacks, whose jobs it draws
    noise for, and the token and document rows it owns (it accumulates and
    updates those tokens and checks both)."""
    stacks: list[tuple[int, np.ndarray]]
    tokens: tuple[int, int]
    docs: tuple[int, int]


class _Run:
    """The layout of a training run and the arrays its epochs change: in
    shared memory when `processes` > 1 (see the module docstring). The token
    vectors and the document vectors of `docs[epoch % 2]` are an epoch's
    input; its document steps go to the other `docs` array."""

    def __init__(self, hashes: list[str], n_pos: np.ndarray, mult: np.ndarray,
                 ids: np.ndarray, noise: _NoiseSampler, token_vectors: np.ndarray,
                 doc_vectors: np.ndarray, params: TrainParams, seed: int,
                 processes: int, debug: bool) -> None:
        self.hashes, self.mult, self.noise, self.seed = hashes, mult, noise, seed
        self.params, self.lrs, self.debug = params, _lr_schedule(params), debug
        self.dim = token_vectors.shape[1]
        place = _shared if processes > 1 else (lambda array: array)
        # Job j owns rows[offsets[j]:offsets[j + 1]]: its tokens, then its
        # negatives, which each epoch redraws in place. Earlier jobs put
        # `neg_offsets[j]` negative rows before its tokens, so entry i of
        # `ids` is row `i + neg_offsets[j]`.
        self.n_pos = n_pos
        self.sizes = n_pos * (1 + params.negative)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.neg_counts = n_pos * params.negative
        neg_offsets = np.concatenate([[0], np.cumsum(self.neg_counts)])
        rows = np.empty(self.offsets[-1], dtype=np.int32)
        rows[np.arange(ids.size) + np.repeat(neg_offsets[:-1], n_pos)] = ids
        self.rows = place(rows)
        del rows
        self.coefs = place(np.empty(self.rows.size))
        self.tokens = place(token_vectors)
        self.docs = (place(doc_vectors), place(doc_vectors.copy()))
        self.stacks = _stacks(n_pos, params.negative)
        self.spans = _spans(self.offsets)
        self.job_ids = np.arange(n_pos.size)
        # Each process's chunk and noise buffers are its own, and reused: a
        # fresh array of this size costs its page faults.
        self.most = max(_CHUNK_ROWS, int(self.sizes.max()))
        self.draw_size = max(_DRAW_BLOCK, int(self.neg_counts.max()))
        self.parts = self._deal(processes, ids)

    def _deal(self, n: int, ids: np.ndarray) -> list[_Part]:
        """The epoch dealt out to `n` processes: stacks to the process with
        the fewest rows, most rows first; tokens in ranges of about equal
        expected rows (their positives plus their share of the negatives),
        and documents in ranges of equal size."""
        noise_share = np.diff(self.noise.cdf, prepend=0.0) * self.neg_counts.sum()
        tokens = _cuts(np.bincount(ids, minlength=len(self.tokens)) + noise_share, n)
        docs = _cuts(np.ones(len(self.hashes)), n)
        loads, dealt = [0] * n, [[] for _ in range(n)]
        weights = [jobs.size * p * (1 + self.params.negative) for p, jobs in self.stacks]
        for i in sorted(range(len(self.stacks)), key=weights.__getitem__, reverse=True):
            least = loads.index(min(loads))
            dealt[least].append(i)
            loads[least] += weights[i]
        return [_Part(stacks=[self.stacks[i] for i in sorted(dealt[k])],
                      tokens=(tokens[k], tokens[k + 1]), docs=(docs[k], docs[k + 1]))
                for k in range(n)]


class _Worker:
    """One process's buffers and its share of each phase of an epoch."""

    def __init__(self, run: _Run, part: _Part) -> None:
        self.run, self.part = run, part
        # The part's jobs, stack after stack, draw their uniforms one after
        # another: job k's start at `firsts[k]` of the part's, and uniform i
        # lands in row `i + shift[k]`. They are cut into blocks of at most
        # `_DRAW_BLOCK` (or one larger job), each filled and drawn in reused
        # buffers.
        jobs = np.concatenate([[], *(jobs for _, jobs in part.stacks)]).astype(np.intp)
        self.hashes = [run.hashes[j] for j in jobs.tolist()]
        self.neg_counts = run.neg_counts[jobs]
        firsts = np.concatenate([[0], np.cumsum(self.neg_counts)])
        self.shift = run.offsets[jobs] + run.n_pos[jobs] - firsts[:-1]
        self.blocks = [(a, b, first, last, (firsts[a:b + 1] - first).tolist())
                       for a, b, first, last in _spans(firsts, _DRAW_BLOCK) if last > first]
        self.streams = _Streams()
        self.uniforms = np.empty(run.draw_size)
        self.negatives = np.empty(run.draw_size, dtype=np.intp)
        self.ramp = np.arange(run.draw_size)
        self.chunk = np.empty(run.most * run.dim)
        self.cells = np.empty((run.most, run.dim), dtype=np.intp)
        lo, hi = part.tokens
        self.accum = np.empty((hi - lo, run.dim))
        # Cell (t, c) of `accum` is entry `table[t, c]` of its flat view.
        self.table = np.arange(self.accum.size, dtype=np.intp).reshape(self.accum.shape)
        self.whole = (lo, hi) == (0, len(run.tokens))
        self.shifted = None if self.whole else np.empty(run.most, dtype=np.int32)

    def score(self, epoch: int) -> None:
        """Redraw the negatives of this part's jobs, then score its stacks:
        each row's coefficient, and each job's document vector after its
        step."""
        run, dim, lr = self.run, self.run.dim, self.run.lrs[epoch]
        if self.blocks:
            states = _pcg64_states([derive_seed(run.seed, "neg", h, epoch)
                                    for h in self.hashes])
            for a, b, first, last, cuts in self.blocks:
                u = self.uniforms[:last - first]
                self.streams.fill(states[a:b], (u[i:j] for i, j in zip(cuts, cuts[1:])))
                at = np.repeat(self.shift[a:b] + first, self.neg_counts[a:b])
                at += self.ramp[:u.size]
                run.rows[at] = run.noise.draw(u, out=self.negatives[:u.size])
        docs, stepped = run.docs[epoch % 2], run.docs[1 - epoch % 2]
        for p, jobs in self.part.stacks:
            at = run.offsets[jobs, None] + np.arange(p * (1 + run.params.negative))
            w = self.chunk[:at.size * dim].reshape(*at.shape, dim)
            run.tokens.take(run.rows[at], axis=0, out=w, mode="clip")
            scores = np.matmul(w, docs[jobs, :, None])
            coef = _sigmoid(scores[..., 0])
            coef[:, :p] -= 1.0  # minus the labels
            grad = np.matmul(w.transpose(0, 2, 1), scores)[..., 0]
            grad *= lr
            stepped[jobs] = docs[jobs] - grad
            run.coefs[at] = coef

    def accumulate(self, epoch: int) -> tuple[bool, float, float]:
        """Add the epoch's token gradient to this part's token rows; whether
        its token and document rows are finite, and (at DEBUG) their
        largest entries."""
        run, dim, lr = self.run, self.run.dim, self.run.lrs[epoch]
        docs, stepped = run.docs[epoch % 2], run.docs[1 - epoch % 2]
        (lo, hi), accum = self.part.tokens, self.accum
        accum.fill(0.0)
        scale = -lr * run.mult
        # Each token cell gets its additions in job order, row order, as the
        # per-job step made them: add.at adds sequentially, span by span.
        for a, b, first, last in run.spans:
            owner = np.repeat(run.job_ids[a:b], run.sizes[a:b])
            tokens, coefs = run.rows[first:last], run.coefs[first:last]
            if not self.whole:
                shifted = np.subtract(tokens, lo, out=self.shifted[:tokens.size])
                mine = np.flatnonzero(shifted.view(np.uint32) < hi - lo)
                tokens, owner, coefs = shifted[mine], owner[mine], coefs[mine]
            values = docs.take(owner, axis=0, out=self.chunk[:owner.size * dim]
                               .reshape(-1, dim))
            values *= coefs[:, None]
            values *= scale[owner, None]
            flat = self.table.take(tokens, axis=0, out=self.cells[:owner.size], mode="clip")
            np.add.at(accum.reshape(-1), flat.reshape(-1), values.reshape(-1))
        own_tokens = run.tokens[lo:hi]
        own_tokens += accum
        own_docs = stepped[slice(*self.part.docs)]
        if not (np.isfinite(own_tokens).all() and np.isfinite(own_docs).all()):
            return False, 0.0, 0.0
        if not run.debug:
            return True, 0.0, 0.0
        return True, np.abs(own_tokens).max(initial=0.0), np.abs(own_docs).max(initial=0.0)


def _child(run: _Run, part: _Part, commands: int, results: int) -> None:
    """A forked child: run each phase of each epoch for `part` once the
    parent releases it (a byte on `commands`), and write its result, or the
    exception it raised, to `results` as a pickle."""
    out = os.fdopen(results, "wb")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            worker = _Worker(run, part)
            for epoch in range(len(run.lrs)):
                for phase in (worker.score, worker.accumulate):
                    if not os.read(commands, 1):
                        return  # the parent has stopped
                    pickle.dump((True, phase(epoch)), out)
                    out.flush()
    except BaseException as exc:
        try:
            report = pickle.dumps((False, exc))
            pickle.loads(report)  # the parent must be able to rebuild it
        except Exception:
            report = pickle.dumps((False, BridgeGuardError(f"{type(exc).__name__}: {exc}")))
        out.write(report)
        out.flush()


@dataclass
class _Child:
    pid: int
    commands: int  # the write end of the child's command pipe
    results: BinaryIO  # the read end of its result pipe
    exitcode: int | None = None


class _Team:
    """A forked child for each part of a training run but the first, which
    this process runs: they run each phase together. A child that ends
    closes its result pipe, so a read of it never waits for a dead child.
    Leaving the `with` block reaps the children, killing them first when it
    is left by an exception."""

    def __init__(self, run: _Run) -> None:
        self.children: list[_Child] = []
        try:
            for part in run.parts[1:]:
                self._fork(run, part)
        except BaseException:
            self.close(failed=True)
            raise

    def _fork(self, run: _Run, part: _Part) -> None:
        command_read, command_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (command_read, command_write, result_read, result_write):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                # Only the parent may hold the others' pipe ends: a child
                # that ends must leave its result pipe with no writer.
                for child in self.children:
                    os.close(child.commands)
                    os.close(child.results.fileno())
                os.close(command_write)
                os.close(result_read)
                _child(run, part, command_read, result_write)
                code = 0
            finally:
                os._exit(code)
        os.close(command_read)
        os.close(result_write)
        self.children.append(_Child(pid, command_write, os.fdopen(result_read, "rb")))

    def __enter__(self) -> "_Team":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(failed=exc_type is not None)

    def close(self, failed: bool) -> None:
        for child in self.children:
            os.close(child.commands)  # a waiting child reads the end and exits
            child.results.close()
            if failed and child.exitcode is None:
                os.kill(child.pid, signal.SIGKILL)
            self._reap(child)

    @staticmethod
    def _reap(child: _Child) -> int:
        if child.exitcode is None:
            child.exitcode = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
        return child.exitcode

    def _lost(self, child: _Child) -> TrainingProcessLost:
        return TrainingProcessLost(f"training process {child.pid} ended (exit code "
                                   f"{self._reap(child)}) without reporting its share of "
                                   "an epoch")

    def together(self, phase, epoch: int) -> list:
        """Run `phase` (a method of the first part's `_Worker`) here and
        in every child: each part's result, in part order, once all have
        ended. A child's exception is raised here; a child that ended
        without reporting is a TrainingProcessLost."""
        for child in self.children:
            try:
                os.write(child.commands, b"\0")
            except BrokenPipeError:
                raise self._lost(child) from None
        results = [phase(epoch)]
        for child in self.children:
            try:
                ok, value = pickle.load(child.results)
            except (EOFError, pickle.UnpicklingError):
                raise self._lost(child) from None
            if not ok:
                raise value
            results.append(value)
        return results


# A diverging run overflows on the way; the per-epoch finiteness check
# reports it as one TrainingDiverged, not a stream of RuntimeWarnings.
@np.errstate(over="ignore", invalid="ignore")
def train_graph2vec(corpus: list[WLDocument], dim: int = EMBED_DIM,
                    params: TrainParams | None = None, seed: int = 0,
                    workers: int = 1) -> EmbeddingModel:
    """Fit one vector per corpus document; bit-reproducible under the seed,
    and bit-equal for every `workers`, the most processes an epoch runs on
    (see the module docstring)."""
    if not corpus:
        raise EmptyCorpus("training corpus is empty")
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    params = params or TrainParams()

    # Jobs and tokens are numbered by first occurrence (module docstring).
    doc_hashes = [doc.content_hash for doc in corpus]
    job_of: dict[str, int] = {}
    corpus_jobs = np.array([job_of.setdefault(h, len(job_of)) for h in doc_hashes])
    hashes = list(job_of)
    docs = [corpus[i] for i in np.unique(corpus_jobs, return_index=True)[1]]
    mult = np.bincount(corpus_jobs)
    n_pos = np.array([len(doc) for doc in docs], dtype=np.int64)
    vocab: dict[str, int] = {}
    ids = np.array([vocab.setdefault(t, len(vocab)) for doc in docs for t in doc.tokens],
                   dtype=np.intp)
    if not vocab:
        raise EmptyCorpus("corpus documents contain no tokens")
    token_counts = np.zeros(len(vocab), dtype=np.int64)
    np.add.at(token_counts, ids, np.repeat(mult, n_pos))
    noise = _NoiseSampler(token_counts)

    token_vectors = np.random.default_rng(seed).uniform(
        -0.5 / dim, 0.5 / dim, (len(vocab), dim))
    streams = _Streams()
    doc_vectors = np.empty((len(docs), dim))
    for j, state in enumerate(_pcg64_states([derive_seed(seed, "doc", h) for h in hashes])):
        doc_vectors[j] = _init_vector(streams.at(state), dim)

    debug = logger.isEnabledFor(logging.DEBUG)
    processes = _process_count(workers, int(n_pos.sum()) * (1 + params.negative))
    run = _Run(hashes, n_pos, mult, ids, noise, token_vectors, doc_vectors, params, seed,
               processes, debug)
    del token_vectors, doc_vectors
    own = _Worker(run, run.parts[0])
    # Within an epoch every job reads its own document vector and the token
    # matrix as they stood at the epoch start; both change only at its end.
    with _Team(run) as team:
        for epoch in range(params.epochs):
            started = time.perf_counter() if debug else 0.0
            team.together(own.score, epoch)
            results = team.together(own.accumulate, epoch)
            if not all(finite for finite, _, _ in results):
                raise TrainingDiverged("embedding training diverged: a vector is not finite "
                                       f"after epoch {epoch + 1} of {params.epochs}")
            if debug:
                logger.debug("epoch %d/%d: max |token| %.6g, max |doc| %.6g, %.1f ms",
                             epoch + 1, params.epochs, max(r[1] for r in results),
                             max(r[2] for r in results), (time.perf_counter() - started) * 1e3)

    token_vectors = run.tokens if processes == 1 else run.tokens.copy()
    return EmbeddingModel(
        dim=dim,
        vocab=vocab,
        token_vectors=token_vectors,
        graph_vectors=run.docs[params.epochs % 2][corpus_jobs],
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

