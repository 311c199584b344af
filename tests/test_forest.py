import dataclasses
import hashlib
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intrarc import forest
from intrarc import simulator as sim
from intrarc.features import FrameFeatures

import reference_tables
from conftest import FIRST_TREE, malform_model, reseal
from reference_forest import grow_tree as reference_grow_tree

CONST_FEATURES = FrameFeatures(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0)


def children(tree):
    """Slot -> (left, right) child slots: the k-th split node's are 1 + 2k, 2 + 2k."""
    return {int(slot): (1 + 2 * k, 2 + 2 * k)
            for k, slot in enumerate(np.flatnonzero(tree.feature >= 0))}


def const_data(qs, bits):
    """(X, y) of rows that share CONST_FEATURES and differ only in QP and bits."""
    return forest.feature_matrix([CONST_FEATURES] * len(qs), qs), np.array(bits, dtype=float)


def q_split_data():
    return const_data([20] * 5 + [40] * 5, [8000.0] * 5 + [1000.0] * 5)


def brute_force_best_split(X, y):
    """Exhaustive (feature, threshold) search maximizing SSE reduction."""
    n = len(y)
    parent_sse = np.sum((y - y.mean()) ** 2)
    best = (-np.inf, None, None)
    for f in range(X.shape[1]):
        vals = np.sort(np.unique(X[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            sse = np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
            gain = parent_sse - sse
            if gain > best[0]:
                best = (gain, f, thr)
    return best


# The trees of a 3-tree, depth-4 forest on 300 simulated rows: per tree,
# every node's feature and its value to 12 significant digits. Any rewrite
# of the grower has to reproduce them.
PINNED_TREES = [
    ([6, 0, 6, 0, 0, 0, 6, 0, -1, 6, 6, 0, 0, 0, 0] + [-1] * 14,
     [23.5, 0.415974727714, 28.5, 0.334173968127, 0.581326412738, 0.392701255588, 36.5,
      0.145108982708, 428191, 18.5, 20.5, 0.176307088922, 0.675074093896, 0.548605672979,
      0.657634997441, 141237, 269712.666667, 712889, 509264.833333, 785518.3, 596014.7,
      66280.2, 154676.5, 242672.352941, 390050.5, 55336.6086957, 153042.473684, 24159.4375,
      59111.6285714]),
    ([6, 0, 6, 0, 4, 0, 0, 2, 0, 4, 2, 0, 6, 6, 6] + [-1] * 16,
     [22.5, 0.511966711906, 29.5, 0.449945515788, 0.45723484662, 0.666709530237,
      0.722549548317, 0.703006922864, 0.50257864026, 0.0794307756359, 0.523310359327,
      0.176307088922, 25.5, 36.5, 37.5, 249138.333333, 341771, 511278.666667, 441084, 701845,
      844943.125, 737745, 618389, 76009.7857143, 195373.177778, 480515.375, 298314.222222,
      61829.7659574, 27197.1485149, 144972.434783, 61974.7]),
    ([6, 0, 6, 0, 6, 0, 0, 0, 2, 3, 0, 0, 0, 6, 6] + [-1] * 16,
     [23.5, 0.511966711906, 29.5, 0.145108982708, 20.5, 0.513479975724, 0.497016789251,
      0.104189558154, 0.520701768873, 0.598860973873, 0.762539234211, 0.176957235466,
      0.940740650401, 35.5, 34.5, 109458, 173016, 247659.6, 351141.6, 845395.857143,
      637255.222222, 509736, 627647, 64083.0909091, 173450.692308, 277793.75, 505814.5,
      51134.85, 20462.0361446, 152339.772727, 62895.2295082]),
]


def test_small_forest_trees_are_pinned():
    X, y = sim.generate_dataset(300, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=7)
    model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=3, max_depth=4))
    assert len(model.trees) == len(PINNED_TREES)
    for tree, (feature, value) in zip(model.trees, PINNED_TREES):
        assert tree.feature.tolist() == feature
        assert tree.value.tolist() == pytest.approx(value, rel=1e-11)


class TestTraining:
    def test_split_rules_are_constants(self):
        fields = [f.name for f in dataclasses.fields(forest.ForestHyperparams)]
        assert fields == ["n_estimators", "max_depth", "seed"]
        hp = forest.ForestHyperparams
        assert (hp.min_samples_leaf, hp.min_samples_split, hp.max_features) == (1, 2, 7)

    def test_constant_targets_single_leaf(self):
        X, y = const_data([10, 20, 30, 40, 50, 15, 25, 35, 45, 55], [1000.0] * 10)
        model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=20))
        for tree in model.trees:
            assert tree.n_nodes == 1
            assert tree.value[0] == 1000.0
        assert forest.predict(model, CONST_FEATURES, 30) == 1000.0

    def test_q_split_example(self):
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(max_depth=1))
        # brute force over the 7 features confirms q is the unique useful split
        X, y = q_split_data()
        gain, f, thr = brute_force_best_split(X, y)
        assert f == 6 and thr == 30.0
        for tree in model.trees:
            assert tree.n_nodes == 3
            assert int(tree.feature[0]) == 6
            assert float(tree.value[0]) == 30.0
        assert forest.predict(model, CONST_FEATURES, 20) == 8000.0
        assert forest.predict(model, CONST_FEATURES, 40) == 1000.0

    def test_training_is_deterministic(self, tmp_path):
        paths = []
        for name in ("a.ircf", "b.ircf"):
            m = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(max_depth=4))
            p = tmp_path / name
            forest.save(m, str(p))
            paths.append(p)
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
        assert digests[0] == digests[1]

    def test_threaded_training_matches_serial(self, tmp_path):
        X, y = sim.generate_dataset(300, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=5)
        hp = forest.ForestHyperparams(n_estimators=8, max_depth=4)
        a = tmp_path / "serial.ircf"
        b = tmp_path / "threaded.ircf"
        forest.save(forest.train_arrays(X, y, hp, threads=1), str(a))
        forest.save(forest.train_arrays(X, y, hp, threads=4), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_rejected(self):
        X = np.ones((10, 7))
        y = np.ones(10)
        X[3, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forest.train_arrays(X, y)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="^1 row to train on; training needs at least 2$"):
            forest.train_arrays(np.ones((1, 7)), np.ones(1))

    def test_nonpositive_bits_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            forest.train_arrays(np.ones((4, 7)), np.array([1.0, 2.0, 0.0, 3.0]))

    @pytest.mark.parametrize("bits", [0.5, 2.0**53 + 2])
    def test_bits_outside_bit_count_range_rejected(self, bits):
        with pytest.raises(ValueError, match=r"positive bit counts in \[1, 2\^53\]"):
            forest.train_arrays(np.ones((4, 7)), np.array([1.0, 2.0, bits, 3.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_thresholds_between_huge_inputs_load(self, tmp_path):
        # The sum of two inputs beyond half the float range overflows.
        X = np.zeros((4, 7))
        X[:, 0] = [1.5e308, 1.6e308, 1.7e308, 1.75e308]
        y = np.array([10.0, 10.0, 20.0, 20.0])
        model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=4))
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        loaded = forest.load(str(path))
        assert all(np.isfinite(tree.value).all() for tree in loaded.trees)
        np.testing.assert_array_equal(forest.predict_batch(loaded, X),
                                      forest.predict_batch(model, X))

    def test_max_depth_respected(self):
        X, y = sim.generate_dataset(500, sim.SimParams(kappa=1.0, noise_sigma=0.3), seed=2)
        for depth in (1, 3):
            model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=4,
                                                                       max_depth=depth))
            for tree in model.trees:
                kids = children(tree)

                # walk every root-to-leaf path
                def walk(node, d):
                    assert d <= depth
                    for child in kids.get(node, ()):
                        walk(child, d + 1)
                walk(0, 0)

    def test_slots_in_level_order(self):
        X, y = sim.generate_dataset(500, sim.SimParams(kappa=1.0, noise_sigma=0.3), seed=2)
        hp = forest.ForestHyperparams(max_depth=6)
        tree, _ = forest._grow_tree(X, forest._ranks(X), y, hp.max_depth)
        kids = children(tree)
        depth = np.zeros(tree.n_nodes, dtype=int)
        for slot, (left, right) in kids.items():
            depth[[left, right]] = depth[slot] + 1
        assert (np.diff(depth) >= 0).all()
        # Routing the training rows by the 1 + 2k rule lands every row in a
        # leaf that holds the mean of exactly the rows routed there.
        node = np.zeros(y.size, dtype=int)
        for _ in range(hp.max_depth):
            for i in range(y.size):
                if node[i] in kids:
                    left, right = kids[node[i]]
                    f = tree.feature[node[i]]
                    node[i] = left if X[i, f] <= tree.value[node[i]] else right
        assert set(node) == set(np.flatnonzero(tree.feature < 0))
        for leaf in set(node):
            assert tree.value[leaf] == pytest.approx(y[node == leaf].mean(), rel=1e-12)


def assert_grown_as_reference(X, y, max_depth, ranks=None):
    """The level-wise grower gives byte for byte the tree and per-input
    gains of the node-by-node reference."""
    want, want_gains = reference_grow_tree(X, y, max_depth)
    got, got_gains = forest._grow_tree(X, forest._ranks(X) if ranks is None else ranks, y,
                                       max_depth)
    assert got.feature.tobytes() == want.feature.tobytes()
    assert got.value.tobytes() == want.value.tobytes()
    assert got_gains.tobytes() == want_gains.tobytes()


@st.composite
def tie_heavy_tables(draw):
    """(X, y, max_depth): inputs of few distinct values, 0.0 mixed with
    -0.0 in some columns, and targets rounded to one decimal."""
    n = draw(st.integers(2, 80))
    values = {"rounded": st.integers(-30, 30).map(lambda v: v / 10),
              "few": st.integers(0, 3).map(float),
              "signed_zero": st.sampled_from([0.0, -0.0])}
    columns = [draw(st.lists(values[draw(st.sampled_from(sorted(values)))],
                             min_size=n, max_size=n)) for _ in range(forest.N_FEATURES)]
    y = draw(st.lists(st.integers(10, 90).map(lambda v: v / 10), min_size=n, max_size=n))
    return np.array(columns).T, np.array(y), draw(st.integers(1, 8))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLevelWiseGrower:
    @pytest.mark.parametrize("data", ["q_split", "constant", "sim300", "sim500", "sim3000"])
    @pytest.mark.parametrize("max_depth", [1, 4, 12])
    def test_unit_datasets(self, data, max_depth):
        X, y = {
            "q_split": q_split_data,
            "constant": lambda: const_data([10, 20, 30, 40, 50], [1000.0] * 5),
            "sim300": lambda: sim.generate_dataset(
                300, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=7),
            "sim500": lambda: sim.generate_dataset(
                500, sim.SimParams(kappa=1.0, noise_sigma=0.3), seed=2),
            "sim3000": lambda: sim.generate_dataset(
                3000, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=11),
        }[data]()
        assert_grown_as_reference(X, y, max_depth)

    def test_acceptance_dataset_bootstraps(self):
        # The acceptance suite's training split, with ranks taken over the
        # whole split as train_arrays takes them.
        X, y = sim.generate_dataset(10_000, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=7,
                                    pixels=3840 * 2160)
        train = np.random.default_rng(0).permutation(10_000)[2_000:]
        X, y = X[train], y[train]
        ranks = forest._ranks(X)
        for t in range(4):
            boot = forest._tree_rng(0, t).integers(0, y.size, size=y.size)
            assert_grown_as_reference(X[boot], y[boot], 12, ranks[:, boot])

    @pytest.mark.parametrize("limit, dtypes", [(2**16, {"int32", "int64"}),
                                               (2**17, {"int32", "int64"}),
                                               (forest._INT32_KEYS, {"int32"})])
    def test_keys_cross_the_int32_bound(self, monkeypatch, limit, dtypes):
        """Levels whose sort keys may pass the bound sort them as int64, the
        others as int32; the trees are the reference's either way."""
        sorted_dtypes = set()
        sort = np.sort

        def spy(a, *args, **kwargs):
            sorted_dtypes.add(a.dtype.name)
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(forest, "_INT32_KEYS", limit)
        monkeypatch.setattr(np, "sort", spy)
        X, y = sim.generate_dataset(500, sim.SimParams(kappa=1.0, noise_sigma=0.3), seed=2)
        ranks = forest._ranks(X)
        for t in range(2):
            boot = forest._tree_rng(0, t).integers(0, y.size, size=y.size)
            assert_grown_as_reference(X[boot], y[boot], 12, ranks[:, boot])
        assert sorted_dtypes == dtypes

    @settings(max_examples=60, deadline=None)
    @given(table=tie_heavy_tables())
    def test_tie_heavy_tables(self, table):
        assert_grown_as_reference(*table)

    def test_segment_means_equal_np_mean(self):
        # np.add.reduceat and np.mean add in different orders; the grower's
        # leaf means must be np.mean's to the bit.
        rng = np.random.default_rng(5)
        for high in (9, 130, 3000, 20_000):
            sizes = rng.integers(1, high, size=rng.integers(1, 12))
            v = rng.uniform(1.0, 1e6, sizes.sum()) * rng.choice([1e-3, 1.0, 1e3], sizes.sum())
            starts = np.cumsum(sizes) - sizes
            want = [np.mean(v[a:a + n]) for a, n in zip(starts, sizes)]
            assert forest._segment_means(v, sizes).tolist() == want


class TestPredict:
    def test_single_leaf_forest(self):
        model = forest.train_arrays(*const_data([20] * 5, [1000.0] * 5),
                                    forest.ForestHyperparams(n_estimators=3))
        assert forest.predict(model, CONST_FEATURES, 63) == 1000.0

    def test_mean_of_trees(self):
        leaf = lambda v: forest.Tree(feature=np.array([-1], np.int8), value=np.array([v]))
        model = forest.ForestModel(trees=[leaf(800.0), leaf(1200.0)])
        assert forest.predict(model, CONST_FEATURES, 30) == 1000.0

    def test_q_out_of_range(self):
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(n_estimators=2))
        with pytest.raises(ValueError):
            forest.predict(model, CONST_FEATURES, 64)
        with pytest.raises(ValueError):
            forest.predict(model, CONST_FEATURES, -1)

    def test_monotone_sanity_on_sim_data(self, rng):
        X, y = sim.generate_dataset(3000, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=11)
        model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=30, max_depth=8))
        feats = sim.random_features(100, rng)
        lo = np.mean([forest.predict(model, f, 24) for f in feats])
        hi = np.mean([forest.predict(model, f, 44) for f in feats])
        assert lo > hi

    def test_batch_memory_does_not_grow_with_trees(self, rng):
        """predict_batch once held every tree's leaf value for every row, a
        (trees, rows) matrix: 32 trees over 40,000 rows peaked at 12.6 MB.
        It keeps a running sum, minimum and maximum per row instead."""
        X, y = sim.generate_dataset(400, sim.SimParams(kappa=1.0, noise_sigma=0.2), seed=7)
        model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=32,
                                                                   max_depth=8))
        rows = 40_000
        Xl = forest.feature_matrix(sim.random_features(rows, rng), rng.integers(0, 64, rows))
        tracemalloc.start()
        try:
            pred = forest.predict_batch(model, Xl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * rows   # 16 float64 values a row, whatever the tree count
        per_tree = [forest.predict_batch(forest.ForestModel(trees=[t]), Xl[:500])
                    for t in model.trees]
        total = np.zeros(500)
        for p in per_tree:
            total += p
        np.testing.assert_array_equal(
            pred[:500], np.clip(total / len(per_tree), np.min(per_tree, axis=0),
                                np.max(per_tree, axis=0)))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(st.tuples(st.floats(min_value=1.0, max_value=1e9),
                            st.integers(min_value=0, max_value=63),
                            st.floats(min_value=0.0, max_value=1.0)),
                  min_size=2, max_size=30),
    probe_q=st.integers(min_value=0, max_value=63),
    probe_e=st.floats(min_value=0.0, max_value=1.0),
)
# the mean of five leaves rounded one ulp above the largest target
@example(rows=[(1.0, 0, 0.0), (858993460.1620765, 0, 1.0), (1.0, 0, 0.0), (1.0, 0, 0.0)],
         probe_q=0, probe_e=1.0)
# the mean of three equal targets rounded one ulp above them
@example(rows=[(357913942.2076322, 0, 0.0)] * 3, probe_q=0, probe_e=0.0)
def test_prediction_bounded_by_targets(rows, probe_q, probe_e):
    bits = [b for b, _, _ in rows]
    X = forest.feature_matrix([FrameFeatures(e, 0.5, 0.2, 0.5, 0.2, 0.5, i)
                               for i, (_, _, e) in enumerate(rows)], [q for _, q, _ in rows])
    model = forest.train_arrays(X, np.array(bits),
                                forest.ForestHyperparams(n_estimators=5, max_depth=6))
    pred = forest.predict(model, FrameFeatures(probe_e, 0.5, 0.2, 0.5, 0.2, 0.5, 0), probe_q)
    assert min(bits) - 1e-9 <= pred <= max(bits) + 1e-9


class TestImportance:
    def test_only_q_splits(self):
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(max_depth=1))
        assert model.importance[6] == 1.0
        assert np.all(model.importance[:6] == 0.0)

    def test_single_leaf_has_no_splits(self):
        model = forest.train_arrays(*const_data([20] * 5, [1000.0] * 5),
                                    forest.ForestHyperparams(n_estimators=4))
        assert np.all(model.importance == 0.0)

    def test_sim_law_concentrates_on_q_and_e_y(self):
        X, y = sim.generate_dataset(4000, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=3)
        model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=20, max_depth=8))
        assert model.importance.sum() == pytest.approx(1.0)
        assert model.importance[0] + model.importance[6] >= 0.95  # e_y and q


class TestSerialization:
    def test_round_trip_predictions_exact(self, tmp_path, rng):
        X, y = sim.generate_dataset(500, sim.SimParams(kappa=1.0, noise_sigma=0.2), seed=9)
        model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=10, max_depth=6))
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        loaded = forest.load(str(path))
        # The file holds what prediction reads; importance exists only after training.
        assert [f.name for f in dataclasses.fields(forest.ForestModel)] == [
            "trees", "importance"]
        assert len(loaded.trees) == len(model.trees)
        for want, got in zip(model.trees, loaded.trees):
            for f in dataclasses.fields(forest.Tree):
                a, b = getattr(want, f.name), getattr(got, f.name)
                assert a.dtype == b.dtype, f.name
                np.testing.assert_array_equal(a, b, err_msg=f.name)
        X = np.column_stack([
            rng.uniform(0, 1, (1000, 6)), rng.integers(0, 64, 1000),
        ])
        np.testing.assert_array_equal(
            forest.predict_batch(model, X), forest.predict_batch(loaded, X)
        )

    def test_load_holds_the_file_bytes_once(self, tmp_path):
        X, y = sim.generate_dataset(2000, sim.SimParams(kappa=1.0, noise_sigma=0.2), seed=5)
        model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=20))
        path = tmp_path / "m.ircf"
        size = forest.save(model, str(path))
        tracemalloc.start()
        try:
            loaded = forest.load(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= size + 128 * 1024
        np.testing.assert_array_equal(forest.predict_batch(loaded, X), model(X))

    def test_save_holds_the_file_bytes_twice_at_most(self, tmp_path):
        """save joins the trees' records once and writes the CRC after them:
        its peak is the records and their join, with no third copy."""
        k = 600   # split nodes a tree, complete in level order: 1,201 nodes
        feature = np.where(np.arange(2 * k + 1) < k, 0, -1).astype(np.int8)
        model = forest.ForestModel([forest.Tree(feature=feature, value=np.ones(2 * k + 1))] * 100)
        path = tmp_path / "m.ircf"
        tracemalloc.start()
        try:
            size = forest.save(model, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == path.stat().st_size >= 1 << 20
        assert peak <= 2.5 * size
        assert len(forest.load(str(path)).trees) == 100

    def test_load_reads_a_pipe(self, tmp_path):
        """A pipe's size is unknown to fstat; load reads it to the end."""
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(n_estimators=3))
        path, pipe = tmp_path / "m.ircf", tmp_path / "pipe"
        forest.save(model, str(path))
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()))
        writer.start()
        try:
            loaded = forest.load(str(pipe))
        finally:
            writer.join()
        X = q_split_data()[0]
        np.testing.assert_array_equal(forest.predict_batch(loaded, X), model(X))

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(n_estimators=3))
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip a byte inside the node region
        path.write_bytes(bytes(blob))
        with pytest.raises(forest.ModelFormatError, match="checksum"):
            forest.load(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ircf"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(forest.ModelFormatError, match="magic"):
            forest.load(str(path))

    def test_truncated_file(self, tmp_path):
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(n_estimators=3))
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(forest.ModelFormatError):
            forest.load(str(path))

    @pytest.mark.parametrize("blob", [b"IRCF", b"IRCF\x06\x00", b"IRCF" + bytes(7)],
                             ids=["magic", "magic-and-half-a-version", "one-short"])
    def test_file_shorter_than_the_header_is_truncated(self, tmp_path, blob):
        path = tmp_path / "short.ircf"
        path.write_bytes(blob)
        with pytest.raises(forest.ModelFormatError, match="truncated model file"):
            forest.load(str(path))

    def test_header_is_checked_before_the_checksum(self, tmp_path):
        """A corrupt version is reported as the version it reads."""
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(n_estimators=2))
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[4] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(forest.ModelFormatError, match="format version 249, expected 6"):
            forest.load(str(path))

    def test_version_mismatch(self, tmp_path):
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(n_estimators=2))
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        body = bytearray(path.read_bytes()[:-4])
        for version in (5, 99):  # the previous format, and one from the future
            body[4:8] = version.to_bytes(4, "little")
            reseal(path, body)
            with pytest.raises(forest.ModelFormatError,
                               match=f"format version {version}, expected 6"):
                forest.load(str(path))

    def test_zero_tree_count_rejected(self, tmp_path):
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(n_estimators=2))
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        body = bytearray(path.read_bytes()[:-4])
        body[8:12] = (0).to_bytes(4, "little")
        reseal(path, body)
        with pytest.raises(forest.ModelFormatError, match="model has no trees") as err:
            forest.load(str(path))
        assert str(path) in str(err.value)

    def test_size_matches_documented_layout(self, tmp_path):
        X, y = sim.generate_dataset(300, sim.SimParams(kappa=1.0, noise_sigma=0.2), seed=6)
        model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=4, max_depth=5))
        path = tmp_path / "m.ircf"
        size = forest.save(model, str(path))
        # per tree: u32 n_nodes, then an i1 feature and an f8 value per node
        trees = sum(4 + 9 * t.n_nodes for t in model.trees)
        assert size == path.stat().st_size == FIRST_TREE + trees + 4

    @pytest.mark.parametrize("field, bad, match", [
        ("threshold", np.nan, "non-finite split threshold"),
        ("threshold", -np.inf, "non-finite split threshold"),
        ("leaf", np.nan, "leaf value that is not a bit count"),
        ("leaf", np.inf, "leaf value that is not a bit count"),
        ("leaf", 0.5, "leaf value that is not a bit count"),
        ("leaf", 2.0**53 + 2, "leaf value that is not a bit count"),
    ])
    def test_value_training_cannot_write_rejected(self, tmp_path, field, bad, match):
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(n_estimators=2,
                                                                         max_depth=1))
        tree = model.trees[1]
        if field == "threshold":
            tree.value[0] = bad
        else:
            tree.value[-1] = bad
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        with pytest.raises(forest.ModelFormatError, match=match) as err:
            forest.load(str(path))
        assert str(path) in str(err.value)

    def test_bit_count_bounds_are_valid_leaves(self, tmp_path):
        leaf = lambda v: forest.Tree(feature=np.array([-1], np.int8), value=np.array([v]))
        model = forest.ForestModel(trees=[leaf(1.0), leaf(2.0**53)])
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        assert [t.value[0] for t in forest.load(str(path)).trees] == [1.0, 2.0**53]

    @pytest.mark.parametrize("case, match", [
        ("feature", "feature outside"),
        ("left_not_later", "children"),
        ("left_plus_one_outside", "children"),
        ("trailing", "trailing bytes"),
    ])
    def test_malformed_tree_rejected(self, tmp_path, case, match):
        model = forest.train_arrays(*q_split_data(), forest.ForestHyperparams(n_estimators=2,
                                                                         max_depth=1))
        path = tmp_path / "m.ircf"
        forest.save(model, str(path))
        malform_model(path, case)
        with pytest.raises(forest.ModelFormatError, match=match):
            forest.load(str(path))

    def test_deeper_model_is_larger(self, tmp_path):
        X, y = sim.generate_dataset(2000, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=4)
        sizes = {}
        for depth in (4, 12):
            model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=10,
                                                                       max_depth=depth))
            sizes[depth] = forest.save(model, str(tmp_path / f"d{depth}.ircf"))
        assert sizes[4] < sizes[12]


@pytest.fixture(scope="module")
def small_model_body(tmp_path_factory):
    X, y = sim.generate_dataset(200, sim.SimParams(kappa=1.0, noise_sigma=0.2), seed=8)
    model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=2, max_depth=3))
    path = tmp_path_factory.mktemp("model") / "m.ircf"
    forest.save(model, str(path))
    return path, path.read_bytes()[:-4]


def tree_layout(body):
    """(offset of the u32 n_nodes, offsets of the i1 feature bytes) of each tree."""
    pos, layout = FIRST_TREE, []
    while pos < len(body):
        n_nodes = int.from_bytes(body[pos:pos + 4], "little")
        layout.append((pos, range(pos + 4, pos + 4 + n_nodes)))
        pos += 4 + 9 * n_nodes
    return layout


@st.composite
def structural_edits(draw, body):
    """(offset, bytes) edits of the fields the tree checks guard, each in
    one tree: its node count moved by a few; one node turned from split to
    leaf or back; or one split moved to a leaf's slot, which keeps the node
    count right but can put a split's children before it."""
    edits = []
    for count_at, features_at in draw(st.lists(st.sampled_from(tree_layout(body)), max_size=3)):
        splits = [p for p in features_at if body[p] != 0xFF]
        leaves = [p for p in features_at if body[p] == 0xFF]
        kind = draw(st.sampled_from(["count", "flip", "move"]))
        if kind == "count":
            n_nodes = max(0, len(features_at) + draw(st.integers(-3, 3)))
            edits.append((count_at, n_nodes.to_bytes(4, "little")))
            continue
        feature = draw(st.integers(0, forest.N_FEATURES - 1)).to_bytes(1, "little")
        if kind == "flip":
            pos = draw(st.sampled_from(features_at))
            edits.append((pos, feature if pos in leaves else b"\xff"))
        elif splits and leaves:
            edits += [(draw(st.sampled_from(splits)), b"\xff"),
                      (draw(st.sampled_from(leaves)), feature)]
    return edits


def assert_rejected_or_usable(valid, body):
    """The resealed `body` either fails to load or loads into a model whose
    children are later slots inside their tree, and that predicts without
    an exception."""
    path = valid.with_name("mutated.ircf")
    reseal(path, body)
    try:
        model = forest.load(str(path))
    except forest.ModelFormatError:
        return
    for tree in model.trees:
        for slot, (left, right) in children(tree).items():
            assert slot < left and right < tree.n_nodes
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.uniform(0, 1, (16, 6)), rng.integers(0, 64, 16)])
    assert forest.predict_batch(model, X).shape == (16,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                      min_size=1, max_size=6),
       resize=st.integers(-6, 6))
def test_mutated_model_is_rejected_or_usable(small_model_body, edits, resize):
    """Any checksum-valid mutation is rejected or usable."""
    valid, body = small_model_body
    body = bytearray(body)
    for pos, byte in edits:
        body[pos % len(body)] = byte
    body = body[:len(body) + resize] if resize < 0 else body + bytes(resize)
    assert_rejected_or_usable(valid, body)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_structurally_mutated_model_is_rejected_or_usable(small_model_body, data):
    """Edits of node counts and feature bytes, which random byte edits
    rarely hit, are rejected or usable."""
    valid, body = small_model_body
    edits = data.draw(structural_edits(body))
    body = bytearray(body)
    for pos, chunk in edits:
        body[pos:pos + len(chunk)] = chunk
    assert_rejected_or_usable(valid, body)


class TestTrainingCsv:
    def test_round_trip(self, tmp_path):
        Xd, yd = sim.generate_dataset(50, sim.SimParams(kappa=1.0), seed=1)
        path = tmp_path / "t.csv"
        forest.write_training_csv(str(path), Xd, yd)
        X, y = forest.read_training_csv(str(path))
        np.testing.assert_allclose(X, Xd, rtol=1e-8)
        np.testing.assert_allclose(y, yd, rtol=1e-8)

    def test_reading_peaks_below_the_row_reader(self, tmp_path):
        """Reading 10,000 rows column-wise in blocks peaks no higher than the
        row reader did, with its rows of values and their array."""
        X, y = sim.generate_dataset(10_000, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=3)
        path = str(tmp_path / "t.csv")
        forest.write_training_csv(path, X, y)

        def row_reader():
            rows = reference_tables.read(path, forest.TRAINING_COLUMNS)
            data = np.array([v for _, v in rows], dtype=np.float64)
            return data[:, 1:8], data[:, 8]

        peaks, got = {}, {}
        for name, read in (("rows", row_reader),
                           ("blocks", lambda: forest.read_training_csv(path))):
            tracemalloc.start()
            try:
                got[name] = read()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["blocks"] <= peaks["rows"], peaks
        for want, have in zip(got["rows"], got["blocks"]):
            assert want.tobytes() == np.ascontiguousarray(have).tobytes()

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame_index,e_y,l_y,e_u,l_u,e_v,l_v,q\n0,1,1,1,1,1,1,30\n")
        with pytest.raises(ValueError, match="bits"):
            forest.read_training_csv(str(path))
