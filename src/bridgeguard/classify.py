"""Supervised classification of transaction feature vectors.

Implements exactly-specified K-nearest-neighbors and Gini decision-tree
classifiers (deterministic tie rules, bit-reproducible under seeds), the
stratified split protocol, and precision/recall/F1/support evaluation with
the 0/0 -> 0 convention. `features` states the 37-dim input layout.

KNN neighbours are the k smallest distances
`sqrt(((x - z) ** 2).sum(axis=1))` between the standardized query z and the
training rows x; equal distances rank by training-row index. Training rows
that are bitwise equal, up to the sign of zero, have bitwise equal
distances to every query, so the model groups them once, at construction,
and searches the distinct rows only. A query finds its neighbours exactly
in three steps:

1. One BLAS matvec gives each distinct row's squared distance by the Gram
   identity `|x|^2 - 2x.z + |z|^2`. In d dims, its rounding error and that
   of the reference expression are each at most gamma (|x|+|z|)^2, with
   gamma = (d+3)u / (1 - (d+3)u) and u the unit roundoff (Higham, Accuracy and
   Stability of Numerical Algorithms, ch. 3). The Gram value plus or minus
   four times that bound therefore brackets the reference squared sum.
2. A distinct row is a candidate when its lower end is at most the
   min(k, distinct rows)-th smallest upper end times (1 + 4u). The slack
   admits squared sums that `sqrt` rounds to the same distance, since `sqrt`
   is not injective. Each distinct row stands for at least one training row,
   so that bound is never below the k-th smallest upper end over all rows:
   grouping can only admit more rows.
3. Only the candidates get the reference expression. Each expands to its
   member rows, and the members are ordered by (distance, row index), the
   full scan's tie rule.

The neighbours, their distances and so every label are those of a full
scan, bit for bit. Queries bitwise equal to a training row (after
standardization) are common: a graph2vec trained-vector hit whose graph
statistics, direction flag and census match a training transaction's is
one. The first such query of a distinct row runs the search and the model
keeps its answer, so every later query of that row costs one dict lookup.
Construction runs no search.

The decision tree is held, scored and stored as four pre-order node arrays,
the ones a bundle's `model.npz` holds: `dim`, `threshold`, `right` and
`counts`. Growing appends each node to them in pre-order; scoring walks them
from node 0. `DecisionTreeModel` checks them once, at construction, so that
no walk can fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClassTooSmall,
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidConfig,
    KTooLarge,
    LengthMismatch,
)
from .features import FEATURE_DIM
from .hashing import derive_seed
from .ingest import LABELS
from .motifs import LocalFeature

ATTACK = "Attack"  # binary collapse of AttackSrc/AttackTgt
BINARY_CLASSES = ("Normal", ATTACK)

CLASSIFIERS = ("knn", "dtree")  # the classifier kinds a detector can use


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray  # features.py's layout, length FEATURE_DIM

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (FEATURE_DIM,):
            raise DimensionMismatch(f"feature vector must have {FEATURE_DIM} dims")
        if not np.isfinite(values).all():
            raise DimensionMismatch("feature vector contains non-finite values")


@dataclass
class LabeledSample:
    tx_hash: str
    features: FeatureVector
    label: str


def concat_features(glob: np.ndarray, loc: LocalFeature) -> FeatureVector:
    """37-dim vector: the global block of `assemble_global`, then the census."""
    if not isinstance(glob, np.ndarray) or not isinstance(loc, LocalFeature):
        raise TypeError("concat_features takes (global block array, LocalFeature)")
    return FeatureVector(values=np.concatenate([glob, loc.counts]))


def _values(features) -> np.ndarray:
    """The float64 array of a FeatureVector or of a plain array-like."""
    return np.asarray(getattr(features, "values", features), dtype=np.float64)


def _as_matrix(samples: list[LabeledSample]) -> tuple[np.ndarray, list[str]]:
    return np.stack([_values(s.features) for s in samples]), [s.label for s in samples]


def _class_rank(label: str) -> tuple[int, str]:
    """The fixed class order: LABELS in their order, then other labels by name."""
    return (LABELS.index(label) if label in LABELS else len(LABELS), label)


def _label_order(labels: set[str]) -> list[str]:
    return sorted(labels, key=_class_rank)


# --- dataset splitting ----------------------------------------------------


def split_indices(labels: list[str], ratio: float = 0.7,
                  seed: int = 0) -> tuple[list[int], list[int]]:
    """Disjoint, exhaustive (train, test) positions into `labels`; per-class
    proportions within ±1."""
    if not 0.0 < ratio < 1.0:
        raise InvalidConfig(f"split ratio must be in (0, 1), got {ratio}")
    if not labels:
        raise ClassTooSmall("no samples to split")

    groups: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)

    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in _label_order(set(groups)):
        idx = np.array(groups[label])
        rng = np.random.default_rng(derive_seed(seed, "split", label))
        rng.shuffle(idx)
        n_train = int(round(ratio * idx.size))
        n_train = min(max(n_train, 1), idx.size)
        if n_train == idx.size and idx.size > 1:
            n_train -= 1
        train_idx.extend(idx[:n_train].tolist())
        test_idx.extend(idx[n_train:].tolist())

    if not test_idx:
        raise ClassTooSmall("split produced an empty test set")
    mix = np.random.default_rng(derive_seed(seed, "mix"))
    mix.shuffle(train_idx)
    mix.shuffle(test_idx)
    return train_idx, test_idx


def split_dataset(samples: list[LabeledSample], ratio: float = 0.7, seed: int = 0):
    """The samples at `split_indices` of their labels, as (train, test)."""
    train_idx, test_idx = split_indices([s.label for s in samples], ratio, seed)
    return [samples[i] for i in train_idx], [samples[i] for i in test_idx]


# --- standardization -------------------------------------------------------


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray  # zero-variance dims pinned to 1

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


# --- K-nearest neighbors ----------------------------------------------------

_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps / 2)
# Bound on |Gram - reference| in units of gamma (|x|+|z|)^2: one for each
# expression, the rest for rounding the bound itself.
_GRAM_SAFETY = 4.0


def _admit_sqrt_ties(t: float) -> float:
    """Every a with fl(sqrt(a)) <= fl(sqrt(t)) is at most this value."""
    return t * (1.0 + 4.0 * _UNIT_ROUNDOFF)


@dataclass
class KNNModel:
    """`x` must not be modified in place: its distinct rows are fixed at
    construction, and their neighbours once first asked for."""
    k: int
    standardizer: Standardizer
    x: np.ndarray  # standardized training matrix
    y: list[str]
    classes: list[str]
    _distinct: np.ndarray = field(init=False, repr=False, compare=False)
    _members: np.ndarray = field(init=False, repr=False, compare=False)
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)
    _sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    _norms: np.ndarray = field(init=False, repr=False, compare=False)
    _err_scale: float = field(init=False, repr=False, compare=False)
    _err_floor: float = field(init=False, repr=False, compare=False)
    _row_index: dict[bytes, int] = field(init=False, repr=False, compare=False)
    _answers: dict[int, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x, mean, std = self.x, self.standardizer.mean, self.standardizer.std
        if x.ndim != 2 or not np.isfinite(x).all():
            raise DimensionMismatch("KNN training matrix must be 2-D and finite")
        rows, dims = x.shape
        if rows != len(self.y):
            raise DimensionMismatch(f"{rows} training rows vs {len(self.y)} labels")
        if np.shape(mean) != (dims,) or np.shape(std) != (dims,):
            raise DimensionMismatch(f"standardizer must have {dims} dims")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std != 0).all()):
            raise DimensionMismatch("standardizer must be finite with nonzero std")
        if not set(self.y) <= set(self.classes):
            raise InvalidConfig("training labels missing from the class list")
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise InvalidConfig(f"k must be an integer >= 1, got {self.k!r}")
        if self.k > rows:
            raise KTooLarge(f"k={self.k} exceeds training size {rows}")
        # Group rows by their bits, with -0.0 read as 0.0: members of a group
        # are equal, so every distance to them is equal. Groups are numbered
        # in order of first occurrence; group g's rows, ascending, are
        # members[starts[g]:starts[g] + counts[g]].
        self._row_index, self._answers = {}, {}
        group = np.array([self._row_index.setdefault(row.tobytes(), len(self._row_index))
                          for row in np.asarray(x, dtype=np.float64) + 0.0], dtype=np.intp)
        self._counts = np.bincount(group)
        self._members = np.argsort(group, kind="stable")
        self._starts = np.cumsum(self._counts) - self._counts
        self._distinct = np.asarray(x[self._members[self._starts]], dtype=np.float64)
        self._sq_norms = np.einsum("ij,ij->i", self._distinct, self._distinct)
        self._norms = np.sqrt(self._sq_norms)
        gamma = (dims + 3) * _UNIT_ROUNDOFF / (1 - (dims + 3) * _UNIT_ROUNDOFF)
        self._err_scale = _GRAM_SAFETY * gamma
        # Each of the 4d products in the two expressions loses at most half
        # a subnormal to underflow.
        self._err_floor = 4.0 * (dims + 1) * float(np.finfo(np.float64).smallest_subnormal)

    def neighbors(self, features) -> tuple[np.ndarray, np.ndarray]:
        """Training-row indices of the k nearest, nearest first (equal
        distances by row index), and their distances."""
        z = self.standardizer.transform(_values(features))
        g = self._row_index.get((z + 0.0).tobytes())
        if g is None:
            return self._search(z)
        if g not in self._answers:  # the neighbours of distinct row g
            self._answers[g] = self._search(z)
        nearest, dist = self._answers[g]
        return nearest.copy(), dist.copy()

    def _search(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`neighbors` of the standardized query z, by the distinct-row
        search of the module docstring."""
        # Squares may overflow to inf and inf - inf gives NaN, by design.
        with np.errstate(over="ignore", invalid="ignore"):
            z_sq = z @ z
            gram = self._distinct @ z
            gram *= -2.0
            gram += self._sq_norms
            gram += z_sq
            err = self._norms + np.sqrt(z_sq)
            err *= err  # squared before scaling, so an overflow reads as inf
            err *= self._err_scale
            nth = min(self.k, gram.size) - 1
            kth = np.partition(gram + err, nth)[nth]
            gram -= err
            # NaN bounds (an overflow, a non-finite query) admit their rows.
            limit = _admit_sqrt_ties(kth + self._err_floor) + self._err_floor
            cand = np.flatnonzero(~(gram > limit))
            dist = np.sqrt(((self._distinct[cand] - z) ** 2).sum(axis=1))
        # Each candidate's member rows, with its distance.
        counts = self._counts[cand]
        ends = np.cumsum(counts)
        at = np.repeat(self._starts[cand] - (ends - counts), counts)
        at += np.arange(at.size)
        rows = self._members[at]
        dist = np.repeat(dist, counts)
        order = np.lexsort((rows, dist))[:self.k]
        return rows[order], dist[order]

    def scores(self, features) -> dict[str, dict[str, float]]:
        return knn_neighbor_stats(self, features)

    def label(self, stats: dict[str, dict[str, float]]) -> str:
        """Majority class of the neighbor stats; ties break on smallest
        summed distance, then fixed class order."""
        def rank(label: str):
            entry = stats[label]
            return (-entry["count"], entry["sum_distance"], _class_rank(label))
        present = [c for c in self.classes if stats[c]["count"] > 0]
        return min(present, key=rank)


def knn_train(train: list[LabeledSample], k: int = 5) -> KNNModel:
    if not train:
        raise EmptyTrainingSet("KNN needs at least one training sample")
    x, y = _as_matrix(train)
    standardizer = Standardizer.fit(x)
    return KNNModel(k=k, standardizer=standardizer, x=standardizer.transform(x),
                    y=y, classes=_label_order(set(y)))


def knn_neighbor_stats(model: KNNModel, features) -> dict[str, dict[str, float]]:
    """Per-class neighbor count and summed distance among the k nearest."""
    nearest, dist = model.neighbors(features)
    stats: dict[str, dict[str, float]] = {
        c: {"count": 0, "sum_distance": 0.0} for c in model.classes}
    for i, d in zip(nearest.tolist(), dist.tolist()):
        entry = stats[model.y[i]]
        entry["count"] += 1
        entry["sum_distance"] += d
    return stats


def knn_predict(model: KNNModel, features) -> str:
    """Majority label among the k nearest by standardized Euclidean distance."""
    return model.label(knn_neighbor_stats(model, features))


# --- decision tree -----------------------------------------------------------

# The most levels below its root that a tree grows or loads, whatever
# `max_depth` asks: growing recurses once per level, and this bound leaves it
# far inside Python's default recursion limit.
MAX_TREE_DEPTH = 256


@dataclass
class DecisionTreeModel:
    """A tree as pre-order node arrays: each split's left child is the node
    after it and `right[i]` the index of its right child; a leaf has dim -1
    and right -1. Row i of `counts` is node i's weighted class histogram.
    The arrays must not be modified in place: they are checked once, at
    construction."""
    dim: np.ndarray  # int64: split feature, -1 at a leaf
    threshold: np.ndarray  # float64: a query goes left when its value is <= this
    right: np.ndarray  # int64: right child, -1 at a leaf
    counts: np.ndarray  # float64, (nodes, classes)
    classes: list[str]

    def __post_init__(self) -> None:
        """Arrays that are not a pre-order tree, a split dim outside the
        feature vector, a negative count, or a split below MAX_TREE_DEPTH
        raise ValueError."""
        n = len(self.counts)
        if (not n or np.shape(self.counts) != (n, len(self.classes))
                or any(np.shape(a) != (n,) for a in (self.dim, self.threshold, self.right))):
            raise ValueError("tree arrays are empty, of unequal lengths, or counts "
                             "without one column per class")
        if (self.counts < 0).any():
            raise ValueError("tree counts are negative")
        dims, rights = self.dim.tolist(), self.right.tolist()
        stack = [(0, 0)]  # (node, depth) in the order a pre-order walk visits them
        for i in range(n):
            if not stack or stack[-1][0] != i:
                raise ValueError(f"node {i} is not where a pre-order walk reaches it")
            depth = stack.pop()[1]
            if dims[i] == -1 and rights[i] == -1:  # a leaf
                continue
            if not 0 <= dims[i] < FEATURE_DIM or not i + 1 < rights[i] < n:
                raise ValueError(f"node {i}: dim {dims[i]} is not in 0..{FEATURE_DIM - 1} "
                                 f"or right child {rights[i]} is not in {i + 2}..{n - 1}")
            if depth >= MAX_TREE_DEPTH:
                raise ValueError(f"tree splits below its maximum depth {MAX_TREE_DEPTH}")
            stack += [(rights[i], depth + 1), (i + 1, depth + 1)]
        if stack:
            raise ValueError(f"node {stack[-1][0]} is the child of two splits")

    def scores(self, features) -> dict[str, float]:
        return dtree_leaf_distribution(self, features)

    def label(self, dist: dict[str, float]) -> str:
        """Most probable leaf class; ties break on fixed class order."""
        return min(self.classes, key=lambda label: (-dist[label], _class_rank(label)))


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split(x: np.ndarray, y: np.ndarray, w: np.ndarray, n_classes: int,
                min_leaf: int):
    """Lowest-impurity (dim, threshold); ties prefer low dim, low threshold."""
    n = x.shape[0]
    if n < 2 * min_leaf:
        return None
    total_counts = np.zeros(n_classes)
    np.add.at(total_counts, y, w)
    parent = _gini(total_counts)
    total_w = total_counts.sum()
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    onehot *= w[:, None]

    best = None  # (weighted child impurity, dim, threshold)
    positions = np.arange(1, n)
    for dim in range(x.shape[1]):
        order = np.argsort(x[:, dim], kind="stable")
        xs = x[order, dim]
        left = np.cumsum(onehot[order], axis=0)[:-1]  # counts left of each cut
        left_w = left.sum(axis=1)
        right = total_counts[None, :] - left
        right_w = total_w - left_w
        with np.errstate(invalid="ignore", divide="ignore"):
            gini_l = 1.0 - ((left / left_w[:, None]) ** 2).sum(axis=1)
            gini_r = 1.0 - ((right / right_w[:, None]) ** 2).sum(axis=1)
        child = (left_w * gini_l + right_w * gini_r) / total_w
        invalid = (xs[:-1] == xs[1:]) | (positions < min_leaf) | (n - positions < min_leaf)
        child[invalid] = np.inf
        pos = int(np.argmin(child))  # first minimum = lowest threshold
        if not np.isfinite(child[pos]) or child[pos] >= parent:
            continue  # split must strictly reduce impurity
        cand = (float(child[pos]), dim, (xs[pos] + xs[pos + 1]) / 2.0)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    return best[1], best[2]


def _grow(x: np.ndarray, y: np.ndarray, w: np.ndarray, n_classes: int,
          depth: int, max_depth: int, min_leaf: int, nodes: list[list]) -> None:
    """Append the subtree of these samples to `nodes` in pre-order, one
    [dim, threshold, right, counts] entry per node."""
    counts = np.zeros(n_classes)
    np.add.at(counts, y, w)
    node = [-1, 0.0, -1, counts]
    nodes.append(node)
    if depth >= max_depth or len(np.unique(y)) <= 1:
        return
    found = _best_split(x, y, w, n_classes, min_leaf)
    if found is None:
        return
    dim, threshold = found
    mask = x[:, dim] <= threshold
    _grow(x[mask], y[mask], w[mask], n_classes, depth + 1, max_depth, min_leaf, nodes)
    node[:3] = dim, threshold, len(nodes)
    _grow(x[~mask], y[~mask], w[~mask], n_classes, depth + 1, max_depth, min_leaf, nodes)


def dtree_train(train: list[LabeledSample], max_depth: int | None = None,
                min_samples_leaf: int = 1,
                class_weighting: bool = False) -> DecisionTreeModel:
    if max_depth is not None and max_depth < 1:
        raise InvalidConfig(f"max_depth must be >= 1 or None, got {max_depth!r}")
    if min_samples_leaf < 1:
        raise InvalidConfig(f"min_samples_leaf must be >= 1, got {min_samples_leaf!r}")
    if not train:
        raise EmptyTrainingSet("decision tree needs at least one training sample")
    x, labels = _as_matrix(train)
    classes = _label_order(set(labels))
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[c] for c in labels])
    if class_weighting:
        freq = np.bincount(y, minlength=len(classes)).astype(np.float64)
        per_class = y.size / (len(classes) * np.maximum(freq, 1.0))
        w = per_class[y]
    else:
        w = np.ones(y.size)
    limit = MAX_TREE_DEPTH if max_depth is None else min(max_depth, MAX_TREE_DEPTH)
    nodes: list[list] = []
    _grow(x, y, w, len(classes), 0, limit, min_samples_leaf, nodes)
    dim, threshold, right, counts = zip(*nodes)
    return DecisionTreeModel(dim=np.array(dim, dtype=np.int64),
                             threshold=np.array(threshold, dtype=np.float64),
                             right=np.array(right, dtype=np.int64),
                             counts=np.stack(counts), classes=classes)


def dtree_leaf_distribution(model: DecisionTreeModel, features) -> dict[str, float]:
    q = _values(features)
    i = 0
    while model.right[i] != -1:
        i = i + 1 if q[model.dim[i]] <= model.threshold[i] else model.right[i]
    counts = model.counts[i]
    total = counts.sum()
    return {c: float(counts[j] / total) if total else 0.0
            for j, c in enumerate(model.classes)}


def dtree_predict(model: DecisionTreeModel, features) -> str:
    return model.label(dtree_leaf_distribution(model, features))


# --- evaluation --------------------------------------------------------------


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class Metrics:
    classes: list[str]
    per_class: dict[str, ClassMetrics]
    confusion: np.ndarray  # rows = true, cols = predicted
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float = field(init=False)
    micro_recall: float = field(init=False)

    def __post_init__(self) -> None:
        tp = float(np.trace(self.confusion))
        total = float(self.confusion.sum())
        self.micro_precision = tp / total if total else 0.0
        self.micro_recall = tp / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "per_class": {
                c: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                } for c, m in self.per_class.items()
            },
            "confusion": self.confusion.astype(int).tolist(),
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
        }


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def evaluate(predictions: list[str], labels: list[str],
             classes: tuple[str, ...] | list[str] | None = None) -> Metrics:
    """Per-class precision/recall/F1/support, macro averages, confusion."""
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not labels:
        raise LengthMismatch("nothing to evaluate")
    if classes is None:
        classes = _label_order(set(labels) | set(predictions))
    classes = list(classes)
    index = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for pred, true in zip(predictions, labels):
        confusion[index[true], index[pred]] += 1

    per_class: dict[str, ClassMetrics] = {}
    for c, i in index.items():
        tp = float(confusion[i, i])
        precision = _safe_div(tp, float(confusion[:, i].sum()))
        recall = _safe_div(tp, float(confusion[i, :].sum()))
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class[c] = ClassMetrics(precision=precision, recall=recall, f1=f1,
                                    support=int(confusion[i, :].sum()))
    macro = lambda attr: float(np.mean([getattr(m, attr) for m in per_class.values()]))
    return Metrics(
        classes=classes,
        per_class=per_class,
        confusion=confusion,
        accuracy=_safe_div(float(np.trace(confusion)), float(confusion.sum())),
        macro_precision=macro("precision"),
        macro_recall=macro("recall"),
        macro_f1=macro("f1"),
    )


def collapse_attack(label: str) -> str:
    """Three-class label -> binary attack-vs-normal label."""
    return "Normal" if label == "Normal" else ATTACK


def evaluate_binary(predictions: list[str], labels: list[str]) -> Metrics:
    return evaluate([collapse_attack(p) for p in predictions],
                    [collapse_attack(t) for t in labels], classes=BINARY_CLASSES)
