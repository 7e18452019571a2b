import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgeguard.classify import (
    DecisionTreeModel,
    FeatureVector,
    KNNModel,
    LabeledSample,
    Standardizer,
    TreeNode,
    _admit_sqrt_ties,
    _label_order,
    collapse_attack,
    concat_features,
    dtree_predict,
    dtree_train,
    evaluate,
    evaluate_binary,
    knn_neighbor_stats,
    knn_predict,
    knn_train,
    load_classifier,
    save_classifier,
    split_dataset,
    split_indices,
)
from bridgeguard.errors import (
    ClassTooSmall,
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidConfig,
    KTooLarge,
    LengthMismatch,
    ModelMissing,
    ModelVersionMismatch,
)
from bridgeguard.features import FEATURE_DIM, assemble_global
from bridgeguard.ingest import LABELS
from bridgeguard.motifs import LocalFeature


def _sample(values, label, tag="t"):
    return LabeledSample(tx_hash=tag, features=np.asarray(values, dtype=float),
                         label=label)


def _blobs(rng, n_per_class=40, dim=5, spread=8.0):
    a = rng.normal(0.0, 1.0, (n_per_class, dim))
    b = rng.normal(spread, 1.0, (n_per_class, dim))
    samples = [_sample(row, "Normal", f"a{i}") for i, row in enumerate(a)]
    samples += [_sample(row, "AttackSrc", f"b{i}") for i, row in enumerate(b)]
    return samples


# --- feature vector / concat -------------------------------------------------


def test_concat_layout_and_length():
    glob = assemble_global(np.arange(16, dtype=float), (4, 3, 2, 0.5), 1.0)
    loc = LocalFeature(counts=tuple(range(16)))
    fv = concat_features(glob, loc)
    assert fv.values.shape == (FEATURE_DIM,) == (37,)
    assert list(fv.values[:16]) == list(range(16))
    assert list(fv.values[21:]) == list(range(16))


def test_concat_zero_inputs():
    glob = assemble_global(np.zeros(16), (0, 0, 0, 0.0), 0.0)
    fv = concat_features(glob, LocalFeature(counts=(0,) * 16))
    assert not fv.values.any()


def test_concat_rejects_swapped_arguments():
    glob = assemble_global(np.zeros(16), (0, 0, 0, 0.0), 0.0)
    loc = LocalFeature(counts=(0,) * 16)
    with pytest.raises(TypeError):
        concat_features(loc, glob)


def test_feature_vector_validation():
    with pytest.raises(DimensionMismatch):
        FeatureVector(values=np.zeros(36))
    bad = np.zeros(37)
    bad[0] = np.nan
    with pytest.raises(DimensionMismatch):
        FeatureVector(values=bad)


# --- splitting ----------------------------------------------------------------


def test_split_stratified_arithmetic():
    samples = [_sample([i], "Normal", f"n{i}") for i in range(90)]
    samples += [_sample([i], "AttackSrc", f"a{i}") for i in range(10)]
    train, test = split_dataset(samples, ratio=0.7, seed=1)
    train_counts = {c: sum(1 for s in train if s.label == c) for c in ("Normal", "AttackSrc")}
    test_counts = {c: sum(1 for s in test if s.label == c) for c in ("Normal", "AttackSrc")}
    assert train_counts == {"Normal": 63, "AttackSrc": 7}
    assert test_counts == {"Normal": 27, "AttackSrc": 3}
    assert {s.tx_hash for s in train} | {s.tx_hash for s in test} == {s.tx_hash for s in samples}
    assert {s.tx_hash for s in train} & {s.tx_hash for s in test} == set()


def test_split_deterministic_given_seed():
    rng = np.random.default_rng(1)
    samples = _blobs(rng)
    t1 = split_dataset(samples, seed=9)
    t2 = split_dataset(samples, seed=9)
    assert [s.tx_hash for s in t1[0]] == [s.tx_hash for s in t2[0]]
    assert [s.tx_hash for s in t1[1]] == [s.tx_hash for s in t2[1]]
    t3 = split_dataset(samples, seed=10)
    assert [s.tx_hash for s in t1[0]] != [s.tx_hash for s in t3[0]]


def test_split_dataset_takes_the_samples_at_split_indices(rng):
    samples = _blobs(rng)
    labels = [s.label for s in samples]
    train_idx, test_idx = split_indices(labels, ratio=0.6, seed=4)
    train, test = split_dataset(samples, ratio=0.6, seed=4)
    assert [s.tx_hash for s in train] == [samples[i].tx_hash for i in train_idx]
    assert [s.tx_hash for s in test] == [samples[i].tx_hash for i in test_idx]
    assert sorted(train_idx + test_idx) == list(range(len(samples)))


def test_class_order_puts_labels_first_then_other_names_for_splits_and_tree_ties():
    assert _label_order({"Zeta", "AttackTgt", "Alpha", "Normal"}) == [
        "Normal", "AttackTgt", "Alpha", "Zeta"]
    tree = DecisionTreeModel(root=TreeNode(counts=np.array([1.0, 1.0, 1.0])),
                             classes=["Other", "AttackTgt", "Normal"])
    assert tree.label(tree.scores([0.0] * FEATURE_DIM)) == "Normal"


def test_split_rejects_degenerate_ratio_and_empty():
    samples = [_sample([0], "Normal")]
    for ratio in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(InvalidConfig):
            split_dataset(samples, ratio=ratio)
    with pytest.raises(ClassTooSmall):
        split_dataset([], ratio=0.7)
    with pytest.raises(ClassTooSmall):
        split_dataset(samples, ratio=0.7)  # one sample cannot yield a test set


def test_split_proportions_within_one(rng):
    for _ in range(10):
        n_a = int(rng.integers(5, 60))
        n_b = int(rng.integers(5, 60))
        samples = [_sample([i], "Normal", f"n{i}") for i in range(n_a)]
        samples += [_sample([i], "AttackTgt", f"t{i}") for i in range(n_b)]
        ratio = float(rng.uniform(0.3, 0.9))
        train, _ = split_dataset(samples, ratio=ratio, seed=int(rng.integers(1000)))
        for label, total in (("Normal", n_a), ("AttackTgt", n_b)):
            got = sum(1 for s in train if s.label == label)
            assert abs(got - ratio * total) <= 1.0


# --- KNN -----------------------------------------------------------------------


def test_knn_training_point_identity():
    rng = np.random.default_rng(2)
    samples = _blobs(rng, n_per_class=10)
    model = knn_train(samples, k=1)
    for s in samples[:5] + samples[-5:]:
        assert knn_predict(model, s.features) == s.label


def test_knn_blobs_match_exhaustive_oracle(rng):
    samples = _blobs(rng, n_per_class=30)
    train, test = split_dataset(samples, ratio=0.7, seed=4)
    k = 5
    model = knn_train(train, k=k)

    x_train = np.stack([s.features for s in train])
    mean, std = x_train.mean(axis=0), x_train.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    z_train = (x_train - mean) / std
    correct = 0
    for s in test:
        z = (s.features - mean) / std
        dist = np.sqrt(((z_train - z) ** 2).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[:k]
        votes = {}
        for i in nearest:
            votes.setdefault(train[i].label, []).append(dist[i])
        best = min(votes, key=lambda c: (-len(votes[c]), sum(votes[c])))
        assert knn_predict(model, s.features) == best
        correct += best == s.label
    assert correct == len(test)  # well-separated blobs: accuracy 1.0


def test_knn_k_equals_train_size_returns_majority():
    rng = np.random.default_rng(3)
    samples = [_sample(rng.normal(0, 1, 3), "Normal", f"n{i}") for i in range(7)]
    samples += [_sample(rng.normal(0, 1, 3), "AttackSrc", f"a{i}") for i in range(3)]
    model = knn_train(samples, k=10)
    for _ in range(5):
        assert knn_predict(model, rng.normal(0, 5, 3)) == "Normal"


def test_knn_tie_breaks_by_distance_then_class_order():
    # k=2, one neighbor per class: equal counts; distances decide.
    samples = [_sample([0.0], "AttackSrc", "a"), _sample([2.0], "Normal", "n")]
    model = knn_train(samples, k=2)
    assert knn_predict(model, np.array([0.4])) == "AttackSrc"
    assert knn_predict(model, np.array([1.6])) == "Normal"
    # perfectly equidistant: fixed class order wins (Normal < AttackSrc)
    assert knn_predict(model, np.array([1.0])) == "Normal"


def test_knn_errors():
    with pytest.raises(EmptyTrainingSet):
        knn_train([], k=1)
    samples = [_sample([0.0], "Normal")]
    with pytest.raises(KTooLarge):
        knn_train(samples, k=2)
    with pytest.raises(InvalidConfig):
        knn_train(samples, k=0)
    with pytest.raises(InvalidConfig):
        knn_train(samples, k=True)  # a bool is an int to isinstance


def test_knn_invariant_under_affine_rescaling(rng):
    samples = _blobs(rng, n_per_class=25, dim=4)
    train, test = split_dataset(samples, ratio=0.7, seed=8)
    model = knn_train(train, k=5)
    base = [knn_predict(model, s.features) for s in test]

    scale = rng.uniform(0.5, 20.0, 4)
    shift = rng.uniform(-5.0, 5.0, 4)
    rescaled_train = [LabeledSample(s.tx_hash, s.features * scale + shift, s.label)
                      for s in train]
    model2 = knn_train(rescaled_train, k=5)
    rescaled = [knn_predict(model2, s.features * scale + shift) for s in test]
    assert rescaled == base


def test_standardizer_fitted_on_train_only(rng):
    samples = _blobs(rng, n_per_class=20)
    train, test = split_dataset(samples, ratio=0.7, seed=2)
    model = knn_train(train, k=3)
    x_train = np.stack([s.features for s in train])
    assert np.allclose(model.standardizer.mean, x_train.mean(axis=0))
    # shifting the test set cannot touch the fitted model
    shifted_test = [LabeledSample(s.tx_hash, s.features + 100.0, s.label) for s in test]
    model_again = knn_train(train, k=3)
    assert np.array_equal(model.standardizer.mean, model_again.standardizer.mean)
    assert np.array_equal(model.x, model_again.x)
    del shifted_test


def test_knn_neighbor_stats_shape():
    rng = np.random.default_rng(5)
    samples = _blobs(rng, n_per_class=10)
    model = knn_train(samples, k=5)
    stats = knn_neighbor_stats(model, samples[0].features)
    assert sum(v["count"] for v in stats.values()) == 5
    assert set(stats) == {"Normal", "AttackSrc"}


# --- KNN against the full scan ---------------------------------------------------


def _raw_knn(x, k) -> KNNModel:
    """A KNN model on `x` as given (identity standardizer), labels cycling."""
    x = np.asarray(x, dtype=np.float64)
    y = [LABELS[i % len(LABELS)] for i in range(len(x))]
    dims = x.shape[1]
    return KNNModel(k=k, standardizer=Standardizer(np.zeros(dims), np.ones(dims)), x=x,
                    y=y, classes=[c for c in LABELS if c in y])


def _full_scan(model: KNNModel, query):
    """The plain scan over every training row: neighbours, distances and
    per-class stats."""
    with np.errstate(over="ignore", invalid="ignore"):  # squares that overflow
        z = (np.asarray(query, dtype=np.float64) - model.standardizer.mean) / model.standardizer.std
        dist = np.sqrt(((model.x - z) ** 2).sum(axis=1))
    nearest = np.argsort(dist, kind="stable")[:model.k]
    stats = {c: {"count": 0, "sum_distance": 0.0} for c in model.classes}
    for i in nearest:
        stats[model.y[i]]["count"] += 1
        stats[model.y[i]]["sum_distance"] += float(dist[i])
    return nearest, dist[nearest], stats


def _same_stats(a, b) -> bool:
    """Equal per-class stats, a NaN summed distance equal to a NaN."""
    return a.keys() == b.keys() and all(
        a[c]["count"] == b[c]["count"]
        and np.array_equal(a[c]["sum_distance"], b[c]["sum_distance"], equal_nan=True)
        for c in a)


def _assert_matches_full_scan(model: KNNModel, query) -> None:
    q = np.asarray(query, dtype=np.float64)
    nearest, dist, expected = _full_scan(model, q)
    with np.errstate(all="ignore"):  # a non-finite query, squares that overflow
        indices, distances = model.neighbors(q)
        stats = knn_neighbor_stats(model, q)
        label = knn_predict(model, q)
    assert np.array_equal(indices, nearest)
    assert np.array_equal(distances, dist, equal_nan=True)
    assert _same_stats(stats, expected)
    assert label == model.label(expected)


_GRID = st.integers(min_value=-3, max_value=3)


@st.composite
def _grid_knn_case(draw):
    """Small-integer rows (many duplicates and equal distances) at a scale
    from subnormal to overflowing squares, and a query, optionally far from
    every row. An origin 2^26-2^28 grid steps away makes the Gram identity
    cancel to a few significant bits, so it misranks rows."""
    dims = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=24))
    cell = st.lists(_GRID, min_size=dims, max_size=dims)
    x = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=np.float64)
    q = np.array(draw(cell), dtype=np.float64)
    exp = draw(st.integers(min_value=-1074, max_value=940))
    far = 2.0 ** draw(st.sampled_from([0, 20, 60]))
    shift = draw(st.sampled_from([None, 26, 27, 28]))
    origin = 0.0 if shift is None else 2.0 ** (exp + shift)
    return (x * 2.0 ** exp + origin, q * 2.0 ** exp * far + origin,
            draw(st.integers(min_value=1, max_value=n)))


@settings(max_examples=400, deadline=None)
@given(case=_grid_knn_case())
def test_knn_neighbors_equal_the_full_scan(case):
    x, q, k = case
    _assert_matches_full_scan(_raw_knn(x, k), q)


# Squared distances from the origin 1, 1, 1+2^-52, 1+2^-51 and 1+2^-50 (m = 0,
# 1, 2, 3, 4): one ulp apart, and the first three share the distance 1.0.
_NEAR_ONE = [[1.0, m * 2.0 ** -27] for m in (2, 0, 1, 3, 2, 4, 0)]
_SHIFTED = np.random.default_rng(3).integers(-3, 4, (13, 3)) + 2.0 ** 27


@pytest.mark.parametrize("x, query, k", [
    ([[1, 2], [0, 0], [1, 2], [1, 2], [3, 3]], [1, 2], 2),
    ([[-1], [1], [2], [-1], [1]], [0], 3),
    (np.random.default_rng(0).normal(size=(6, 3)), [0.5, -0.5, 0.0], 6),
    ([[0.25], [-3.0], [0.25], [7.5]], [0.1], 2),
    ([[0, 1], [1, 0], [1, 1], [0, 0]], [1e12, -1e12], 2),
    ([[-1e-160, 0], [1e-160, 0], [0, 3e-160]], [0, 0], 2),
    (_NEAR_ONE, [0.0, 0.0], 2),
    (np.array(_NEAR_ONE) + [2.0 ** 40, 2.0 ** 20], [2.0 ** 40, 2.0 ** 20], 3),
    (_SHIFTED[:12], _SHIFTED[12], 3),
], ids=["duplicate-rows", "equidistant", "k-equals-n", "one-dim", "far-query",
        "underflowing-squares", "one-ulp-apart", "one-ulp-apart-far-from-origin",
        "gram-cancellation"])
def test_knn_neighbors_equal_the_full_scan_on_edge_cases(x, query, k):
    _assert_matches_full_scan(_raw_knn(x, k), query)


@st.composite
def _duplicated_knn_case(draw):
    """A few distinct grid rows, each repeated, some zeros negated, labels
    drawn per row (so equal rows can disagree), k up to every row, and a
    query that is a training row, its -0.0 twin, a grid point or non-finite."""
    dims = draw(st.integers(min_value=1, max_value=3))
    cell = st.lists(_GRID, min_size=dims, max_size=dims)
    distinct = np.array(draw(st.lists(cell, min_size=1, max_size=6)), dtype=np.float64)
    n = draw(st.integers(min_value=1, max_value=20))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    x = distinct[picks]
    flips = np.array(draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
    x = np.where(flips.reshape(x.shape) & (x == 0.0), -0.0, x)
    scale = 2.0 ** draw(st.sampled_from([-1074, -540, 0, 500]))
    x *= scale
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["row", "negated-zeros", "grid", "nan", "inf"]))
    if kind in ("row", "negated-zeros"):
        q = x[draw(st.integers(0, n - 1))].copy()
        if kind == "negated-zeros":
            q = np.where(q == 0.0, -q, q)
    else:
        q = np.array(draw(cell), dtype=np.float64) * scale
        if kind != "grid":
            q[draw(st.integers(0, dims - 1))] = np.nan if kind == "nan" else -np.inf
    return x, labels, q, draw(st.integers(min_value=1, max_value=n))


@settings(max_examples=500, deadline=None)
@given(case=_duplicated_knn_case())
def test_knn_over_distinct_rows_equals_the_full_scan(case):
    x, labels, q, k = case
    dims = x.shape[1]
    model = KNNModel(k=k, standardizer=Standardizer(np.zeros(dims), np.ones(dims)), x=x,
                     y=labels, classes=_label_order(set(labels)))
    _assert_matches_full_scan(model, q)


def test_knn_searches_each_distinct_training_row_once_on_first_query(rng):
    x = rng.integers(-2, 3, (24, 3)).astype(np.float64)
    x[::5] = np.where(x[::5] == 0.0, -0.0, x[::5])  # the -0.0 twins of other rows
    x = np.concatenate([x, x[:8]])  # duplicates, some of them of one another
    search = KNNModel._search
    with mock.patch.object(KNNModel, "_search", autospec=True, side_effect=search) as spy:
        model = _raw_knn(x, k=4)
        assert spy.call_count == 0  # construction searches nothing
        assert len(model._distinct) == len(np.unique(x, axis=0))  # unique reads -0.0 as 0.0
        twins = [np.where(row == 0.0, -row, row) for row in x]
        for query in [*twins, *x[::-1]]:
            indices, distances = model.neighbors(query)
            nearest, dist, _ = _full_scan(model, query)
            assert np.array_equal(indices, nearest) and np.array_equal(distances, dist)
            indices[:] = -1  # the caller owns the arrays it is given
            distances[:] = np.nan
            again = model.neighbors(query)
            assert np.array_equal(again[0], nearest) and np.array_equal(again[1], dist)
    # Each distinct row was searched once, by whichever query asked first.
    assert spy.call_count == len(model._distinct)


@settings(max_examples=400, deadline=None)
@given(t=st.floats(min_value=2.0 ** -1022, allow_infinity=False, allow_nan=False))
@example(t=1.0 - 2.0 ** -53)
@example(t=1.0)
@example(t=4.0 - 2.0 ** -50)
@example(t=2.0 ** -1022)
def test_threshold_admits_every_squared_sum_with_the_same_sqrt(t):
    largest = t
    while math.sqrt(math.nextafter(largest, math.inf)) <= math.sqrt(t):
        largest = math.nextafter(largest, math.inf)
    assert largest <= _admit_sqrt_ties(t)


def test_reloaded_knn_scores_bit_equal(tmp_path, rng):
    samples = _blobs(rng, n_per_class=30)
    model = knn_train(samples, k=5)
    path = tmp_path / "knn.json"
    save_classifier(model, path)
    loaded = load_classifier(path)
    for probe in rng.normal(4.0, 6.0, (50, 5)):
        assert knn_neighbor_stats(loaded, probe) == knn_neighbor_stats(model, probe)
        for a, b in zip(loaded.neighbors(probe), model.neighbors(probe)):
            assert np.array_equal(a, b)
        _assert_matches_full_scan(loaded, probe)


# --- decision tree --------------------------------------------------------------


def test_dtree_pure_class_single_leaf():
    samples = [_sample([i], "AttackTgt", f"s{i}") for i in range(5)]
    model = dtree_train(samples)
    assert model.root.is_leaf
    assert dtree_predict(model, np.array([99.0])) == "AttackTgt"


def test_dtree_one_dimensional_separable_depth_one():
    samples = [_sample([x], "Normal", f"n{x}") for x in (-3.0, -2.0, -1.0)]
    samples += [_sample([x], "AttackSrc", f"a{x}") for x in (1.0, 2.0, 3.0)]
    model = dtree_train(samples)
    root = model.root
    assert not root.is_leaf and root.left.is_leaf and root.right.is_leaf
    assert root.dim == 0 and root.threshold == 0.0  # midpoint of -1 and 1
    for s in samples:
        assert dtree_predict(model, s.features) == s.label


def test_dtree_train_accuracy_dominates_test_on_average():
    train_accs, test_accs = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        samples = _blobs(rng, n_per_class=30, spread=2.0)  # overlapping blobs
        train, test = split_dataset(samples, ratio=0.7, seed=seed)
        model = dtree_train(train, max_depth=6)
        train_accs.append(np.mean([dtree_predict(model, s.features) == s.label
                                   for s in train]))
        test_accs.append(np.mean([dtree_predict(model, s.features) == s.label
                                  for s in test]))
    assert np.mean(train_accs) >= np.mean(test_accs)


def test_dtree_deterministic_and_gain_positive(rng):
    samples = _blobs(rng, n_per_class=20, spread=3.0)
    m1 = dtree_train(samples, max_depth=5)
    m2 = dtree_train(samples, max_depth=5)

    def signature(node):
        if node.is_leaf:
            return ("leaf", tuple(node.counts.tolist()))
        return (node.dim, node.threshold, signature(node.left), signature(node.right))

    assert signature(m1.root) == signature(m2.root)

    def gini(counts):
        total = counts.sum()
        p = counts / total
        return 1 - (p * p).sum()

    def check_strict_reduction(node):
        if node.is_leaf:
            return
        parent_impurity = gini(node.counts)
        n = node.counts.sum()
        child = (node.left.counts.sum() * gini(node.left.counts)
                 + node.right.counts.sum() * gini(node.right.counts)) / n
        assert child < parent_impurity
        check_strict_reduction(node.left)
        check_strict_reduction(node.right)

    check_strict_reduction(m1.root)


def test_dtree_invariant_under_monotone_transform(rng):
    samples = _blobs(rng, n_per_class=25, dim=3, spread=3.0)
    train, test = split_dataset(samples, ratio=0.7, seed=3)
    model = dtree_train(train, max_depth=6)
    base = [dtree_predict(model, s.features) for s in test]

    def transform(values):
        out = values.copy()
        out[1] = np.exp(out[1])  # strictly monotone on one feature
        return out

    model2 = dtree_train([LabeledSample(s.tx_hash, transform(s.features), s.label)
                          for s in train], max_depth=6)
    transformed = [dtree_predict(model2, transform(s.features)) for s in test]
    assert transformed == base


def test_dtree_empty_rejected():
    with pytest.raises(EmptyTrainingSet):
        dtree_train([])


@pytest.mark.parametrize("settings", [{"max_depth": 0}, {"max_depth": -3},
                                      {"min_samples_leaf": 0}, {"min_samples_leaf": -2}])
def test_dtree_settings_below_one_rejected(settings):
    samples = [_sample([float(i)], "Normal" if i < 3 else "AttackSrc") for i in range(6)]
    ((key, _),) = settings.items()
    with pytest.raises(InvalidConfig, match=key):
        dtree_train(samples, **settings)


def test_dtree_min_samples_leaf_respected():
    samples = [_sample([float(i)], "Normal" if i < 6 else "AttackSrc", f"s{i}")
               for i in range(8)]
    model = dtree_train(samples, min_samples_leaf=3)

    def check(node, n_total):
        if node.is_leaf:
            assert n_total >= 3 or n_total == node.counts.sum()
            return
        check(node.left, node.left.counts.sum())
        check(node.right, node.right.counts.sum())
        assert node.left.counts.sum() >= 3
        assert node.right.counts.sum() >= 3

    check(model.root, model.root.counts.sum())


# --- evaluation -------------------------------------------------------------------


def test_evaluate_formula_case():
    # One class with TP=8, FP=2, FN=2 -> P=R=F1=0.8.
    labels = ["AttackSrc"] * 10 + ["Normal"] * 10
    predictions = (["AttackSrc"] * 8 + ["Normal"] * 2) + (["AttackSrc"] * 2 + ["Normal"] * 8)
    metrics = evaluate(predictions, labels)
    m = metrics.per_class["AttackSrc"]
    assert (m.precision, m.recall) == (0.8, 0.8)
    assert m.f1 == pytest.approx(0.8, abs=1e-12)
    assert m.support == 10


def test_evaluate_all_correct():
    labels = ["Normal", "AttackSrc", "AttackTgt"] * 4
    metrics = evaluate(labels, labels)
    assert metrics.accuracy == 1.0
    assert all(m.precision == m.recall == m.f1 == 1.0
               for m in metrics.per_class.values())


def test_evaluate_absent_class_zero_by_convention():
    labels = ["Normal", "Normal", "AttackSrc"]
    predictions = ["Normal", "Normal", "Normal"]
    metrics = evaluate(predictions, labels)
    assert metrics.per_class["AttackSrc"].precision == 0.0  # 0/0 -> 0
    assert metrics.per_class["AttackSrc"].recall == 0.0
    assert metrics.per_class["AttackSrc"].f1 == 0.0


def test_evaluate_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate(["Normal"], ["Normal", "Normal"])
    with pytest.raises(LengthMismatch):
        evaluate([], [])


def test_micro_identities_on_random_confusions(rng):
    for _ in range(200):
        n = int(rng.integers(1, 60))
        labels = [str(rng.choice(["Normal", "AttackSrc", "AttackTgt"])) for _ in range(n)]
        predictions = [str(rng.choice(["Normal", "AttackSrc", "AttackTgt"])) for _ in range(n)]
        metrics = evaluate(predictions, labels)
        assert metrics.micro_precision == metrics.micro_recall == metrics.accuracy
        for m in metrics.per_class.values():
            expected = (0.0 if m.precision + m.recall == 0
                        else 2 * m.precision * m.recall / (m.precision + m.recall))
            assert abs(m.f1 - expected) < 1e-12


def test_binary_collapse():
    assert collapse_attack("AttackSrc") == collapse_attack("AttackTgt") == "Attack"
    assert collapse_attack("Normal") == "Normal"
    metrics = evaluate_binary(["AttackSrc", "Normal"], ["AttackTgt", "Normal"])
    assert metrics.per_class["Attack"].recall == 1.0


# --- serialization ----------------------------------------------------------------------


def test_classifier_round_trip(tmp_path, rng):
    samples = _blobs(rng, n_per_class=12)
    knn = knn_train(samples, k=3)
    path = tmp_path / "knn.json"
    save_classifier(knn, path)
    loaded = load_classifier(path)
    probe = rng.normal(2.0, 3.0, 5)
    assert knn_predict(loaded, probe) == knn_predict(knn, probe)

    tree = dtree_train(samples, max_depth=4)
    tree_path = tmp_path / "dtree.json"
    save_classifier(tree, tree_path)
    loaded_tree = load_classifier(tree_path)
    assert dtree_predict(loaded_tree, probe) == dtree_predict(tree, probe)

    with pytest.raises(ModelMissing):
        load_classifier(tmp_path / "missing.json")


# classifier.json as written before scoring-only state was trimmed: the KNN
# and tree hyperparameters carry a seed, and the tree its growth limits.
_OLDER_KNN_DOC = {
    "version": 1, "kind": "knn", "hyperparams": {"k": 3, "seed": 7},
    "standardizer": {"mean": [1.0, 0.0], "std": [2.0, 1.0]},
    "classes": ["Normal", "AttackSrc"],
    "payload": {"x": [[0.0, 0.0], [0.5, 0.0], [0.0, 2.0], [3.0, 3.0]],
                "y": ["Normal", "Normal", "AttackSrc", "AttackSrc"]},
}
_OLDER_DTREE_DOC = {
    "version": 1, "kind": "dtree",
    "hyperparams": {"max_depth": 16, "min_samples_leaf": 1, "seed": 7},
    "classes": ["Normal", "AttackSrc"],
    "payload": {"tree": {"counts": [3.0, 1.0], "dim": 1, "threshold": 0.5,
                         "left": {"counts": [3.0, 0.0]},
                         "right": {"counts": [0.0, 1.0]}}},
}


@pytest.mark.parametrize("doc, query, scores", [
    # Standardized query (0, 0): distances 0, 0.5 and 2 to the first three rows.
    (_OLDER_KNN_DOC, [1.0, 0.0], {"Normal": {"count": 2, "sum_distance": 0.5},
                                  "AttackSrc": {"count": 1, "sum_distance": 2.0}}),
    (_OLDER_DTREE_DOC, [0.0, 0.25], {"Normal": 1.0, "AttackSrc": 0.0}),
    (_OLDER_DTREE_DOC, [0.0, 0.75], {"Normal": 0.0, "AttackSrc": 1.0}),
], ids=["knn", "dtree-left", "dtree-right"])
def test_classifier_file_of_the_older_format_loads(tmp_path, doc, query, scores):
    older = tmp_path / "older.json"
    older.write_text(json.dumps(doc))
    model = load_classifier(older)
    assert model.scores(np.array(query)) == scores
    resaved = tmp_path / "resaved.json"
    save_classifier(model, resaved)
    assert json.loads(resaved.read_text())["hyperparams"] == (
        {"k": 3} if doc["kind"] == "knn" else {})
    assert load_classifier(resaved).scores(np.array(query)) == scores


@pytest.mark.parametrize("content", [
    "[1, 2]", "{broken", '{"version": 1}',
    '{"version": 1, "kind": "dtree", "classes": ["Normal"], "hyperparams": [],'
    ' "payload": {"tree": {"counts": [1]}}}',
])
def test_classifier_file_that_is_not_a_classifier_rejected(tmp_path, content):
    path = tmp_path / "classifier.json"
    path.write_text(content)
    with pytest.raises(ModelVersionMismatch, match="classifier.json"):
        load_classifier(path)


@pytest.mark.parametrize("doc, key", [
    ({"version": 1, "kind": "knn"}, "hyperparams"),
    ({"version": 1, "kind": "knn", "hyperparams": {"k": 3, "seed": 0}}, "standardizer"),
    ({"version": 1, "kind": "dtree", "classes": ["Normal"],
      "hyperparams": {"max_depth": 2, "min_samples_leaf": 1, "seed": 0}}, "payload"),
    ({"version": 1, "kind": "dtree", "classes": ["Normal"],
      "hyperparams": {"max_depth": 2, "min_samples_leaf": 1, "seed": 0},
      "payload": {"tree": {"dim": 0}}}, "counts"),
], ids=["knn-hyperparams", "knn-standardizer", "dtree-payload", "dtree-node-counts"])
def test_classifier_missing_key_rejected_naming_it(tmp_path, doc, key):
    path = tmp_path / "classifier.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelVersionMismatch, match=f"classifier.json: missing key '{key}'"):
        load_classifier(path)


def _saved_knn_doc(tmp_path) -> dict:
    rng = np.random.default_rng(11)
    path = tmp_path / "valid.json"
    save_classifier(knn_train(_blobs(rng, n_per_class=3, dim=2), k=3), path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("section, key, value", [
    ("hyperparams", None, []),
    ("standardizer", None, []),
    ("payload", None, "x"),
    ("payload", "x", [1.0, 2.0]),
    ("payload", "x", [[1.0, 2.0]] * 5 + [[1.0]]),
    ("payload", "x", [[1.0, 2.0, 3.0]] * 6),
    ("payload", "x", [[1.0, 2.0]] * 5),
    ("payload", "x", [[1.0, 2.0]] * 5 + [[1.0, 1e999]]),
    ("payload", "y", ["Normal"] * 5 + ["Unknown"]),
    ("standardizer", "std", [1.0]),
    ("standardizer", "std", [1.0, 0.0]),
    ("hyperparams", "k", 0),
    ("hyperparams", "k", 7),
    ("hyperparams", "k", 2.5),
    ("hyperparams", "k", "3"),
    ("hyperparams", "k", True),
], ids=["hyperparams-list", "standardizer-list", "payload-string", "x-one-dim",
        "x-ragged", "x-wider-than-standardizer", "x-fewer-rows-than-labels",
        "x-not-finite", "y-label-outside-classes", "std-shorter-than-mean",
        "std-zero", "k-zero", "k-above-rows", "k-float", "k-string", "k-bool"])
def test_malformed_knn_file_rejected_naming_it(tmp_path, section, key, value):
    doc = _saved_knn_doc(tmp_path)
    if key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    path = tmp_path / "classifier.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelVersionMismatch, match="classifier.json"):
        load_classifier(path)


_DROPPED = object()


def _saved_dtree_doc(tmp_path) -> dict:
    rng = np.random.default_rng(11)
    path = tmp_path / "valid.json"
    save_classifier(dtree_train(_blobs(rng, n_per_class=3, dim=2)), path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("node, key, value", [
    ("root", "dim", 99),
    ("root", "dim", FEATURE_DIM),
    ("root", "dim", -1),
    ("root", "dim", 1.5),
    ("root", "dim", True),
    ("root", "dim", "0"),
    ("root", "threshold", "x"),
    ("root", "threshold", None),
    ("root", "threshold", True),
    ("root", "threshold", math.nan),
    ("root", "threshold", math.inf),
    ("root", "threshold", 10**400),
    ("root", "counts", [3.0]),
    ("root", "counts", [3.0, 3.0, 0.0]),
    ("root", "counts", [3.0, -1.0]),
    ("root", "counts", [3.0, math.nan]),
    ("root", "counts", ["a", "b"]),
    ("leaf", "counts", [3.0]),
    ("leaf", "dim", 0),
    ("root", "left", _DROPPED),
    ("root", "right", _DROPPED),
], ids=["dim-out-of-range", "dim-equals-feature-dim", "dim-negative", "dim-float",
        "dim-bool", "dim-string", "threshold-string", "threshold-null", "threshold-bool",
        "threshold-nan", "threshold-infinite", "threshold-overflows-a-float",
        "counts-short", "counts-long", "counts-negative", "counts-nan", "counts-strings",
        "leaf-counts-short", "leaf-with-dim-only", "left-child-missing", "right-child-missing"])
def test_malformed_dtree_file_rejected_naming_it(tmp_path, node, key, value):
    doc = _saved_dtree_doc(tmp_path)
    target = doc["payload"]["tree"]
    assert "left" in target  # the root is a split
    while node == "leaf" and "left" in target:
        target = target["left"]
    if value is _DROPPED:
        del target[key]
    else:
        target[key] = value
    path = tmp_path / "classifier.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelVersionMismatch, match="classifier.json"):
        load_classifier(path)
