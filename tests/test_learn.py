"""Learner tests: exact split oracles for the tree, the second-order leaf
identity for boosting, finite-difference gradients for the MLP, and the
serialization contract for all of them."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import rng
from helpers import (
    exhaustive_tree_sse,
    finite_difference_worst_rel,
    gbt_leaf_identity_errors,
    reference_grow_tree,
    reference_predict,
    tree_bytes,
    tree_sse,
)
from vlp.learn import (
    Forest,
    GbtModel,
    Mlp,
    PositionModel,
    Tree,
    fit_forest,
    fit_gbt,
    fit_mlp,
    fit_position_model,
    fit_tree,
    load_model,
    loss_and_grads,
    save_model,
)
from vlp.errors import BadFeatures, MalformedModel
from vlp.geometry import CameraIntrinsics, LedPanel
from vlp.harness import GridSpec, SweepSpec, generate_sweep
from vlp.learn import tree as tree_mod
from vlp.learn.tree import grow_tree


# ---------------------------------------------------------------- trees


def test_tree_splits_at_midpoint():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_tree(x, y)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5
    np.testing.assert_allclose(tree.predict(x), y)
    assert np.count_nonzero(tree.feature < 0) == 2 and tree.n_nodes == 3


def test_tree_matches_exhaustive_search():
    g = rng(101)
    for _ in range(30):
        n = int(g.integers(4, 13))
        d = int(g.integers(1, 3))
        x = np.round(g.uniform(0.0, 4.0, size=(n, d)), 1)
        y = np.round(g.normal(size=n), 2)
        for depth in (1, 2):
            tree = fit_tree(x, y, max_depth=depth)
            got = tree_sse(tree, x, y)
            want = exhaustive_tree_sse(x, y, depth)
            assert got == pytest.approx(want, abs=1e-9)


def test_tree_constant_target_is_single_leaf():
    x = np.arange(8.0).reshape(-1, 1)
    tree = fit_tree(x, np.full(8, 3.25))
    assert tree.n_nodes == 1
    np.testing.assert_allclose(tree.predict(x), 3.25)


def test_tree_depth_zero_predicts_mean():
    x = np.arange(6.0).reshape(-1, 1)
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 11.0])
    tree = fit_tree(x, y, max_depth=0)
    assert tree.n_nodes == 1
    np.testing.assert_allclose(tree.predict(x), y.mean())


def test_tree_memorizes_unique_rows():
    g = rng(5)
    x = g.normal(size=(40, 3))
    y = g.normal(size=40)
    tree = fit_tree(x, y)
    np.testing.assert_allclose(tree.predict(x), y, atol=1e-12)


def test_tree_tie_breaks_to_lowest_feature():
    base = np.array([[0.0], [1.0], [2.0], [3.0]])
    x = np.hstack([base, base])  # identical columns, identical gains
    tree = fit_tree(x, np.array([0.0, 0.0, 1.0, 1.0]))
    assert tree.feature[0] == 0


def test_tree_splits_values_one_ulp_apart():
    # the midpoint of a and its successor rounds onto the successor, so a
    # midpoint threshold would send both rows left
    a = 1.0 + 2.0**-52
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    tree = fit_tree([[a], [b]], [0.0, 1.0])
    np.testing.assert_array_equal(tree.predict(np.array([[a], [b]])), [0.0, 1.0])


def test_tree_validation():
    x = np.zeros((4, 2))
    y = np.zeros(4)
    with pytest.raises(ValueError):
        fit_tree(x, y[:3])
    with pytest.raises(ValueError):
        fit_tree(x * np.nan, y)
    with pytest.raises(ValueError):
        fit_tree(x, y, max_depth=-1)
    with pytest.raises(ValueError):
        Tree([], [], [], [], [])


def _ulp_steps(g, n: int, d: int) -> np.ndarray:
    """An (n, d) matrix whose columns each take a few values one ULP
    apart, where a split's midpoint rounds onto the upper value."""
    base = np.repeat(g.normal(size=(1, d)), n, axis=0)
    steps = g.integers(0, 4, size=(n, d))
    for s in range(1, 4):
        base = np.where(steps >= s, np.nextafter(base, np.inf), base)
    return base


def _train_sweep():
    """The 1168-row lattice sweep the `train` benchmark fits: Euler-aliased
    poses give rows that differ by a few ULP."""
    ds = generate_sweep(SweepSpec((1.3, 1.66), grid=GridSpec(1.2, 0.2)),
                        CameraIntrinsics(), LedPanel())
    return ds.features, ds.targets


def _grower_cases(g):
    """(x, g) cases for the grower: continuous, rounded (tie-heavy),
    signed zeros, values one ULP apart, and duplicated rows."""
    for k in range(300):
        n = int(g.integers(1, 50))
        d = int(g.integers(1, 9))
        x = g.normal(size=(n, d))
        grad = g.normal(size=n)
        if k % 2:
            x = np.round(x, 1)
            grad = np.round(grad, 1)
        yield x, grad
    for k in range(240):
        n = int(g.integers(2, 40))
        d = int(g.integers(1, 5))
        grad = np.round(g.normal(size=n), int(g.integers(0, 3)))
        if k % 3 == 0:
            x = g.choice([0.0, -0.0, 1.0, -1.0], size=(n, d))
        elif k % 3 == 1:
            x = _ulp_steps(g, n, d)
        else:
            x = g.normal(size=(int(g.integers(1, n)), d))
            x = x[g.integers(0, x.shape[0], size=n)]
        yield x, grad


def test_grow_tree_matches_reference_grower():
    # the all-features-at-once grower against the per-feature loop, on
    # continuous, rounded (tie-heavy), signed-zero, one-ULP and
    # duplicated-row data, gbt and CART settings, and on the 1168-row
    # `train` sweep, byte for byte
    g = rng(102)
    cases = [(x, grad, {"max_depth": (None, 1, 3, 8)[k % 4],
                        "reg_lambda": (0.0, 0.3, 1.0)[k % 3]})
             for k, (x, grad) in enumerate(_grower_cases(g))]
    x, y = _train_sweep()
    cases.append((x, -y[:, 0], {"max_depth": None, "reg_lambda": 0.0}))
    cases.append((x, y[:, 2] - y[:, 2].mean(), {"max_depth": 8, "reg_lambda": 1.0}))
    for k, (x, grad, params) in enumerate(cases):
        want = reference_grow_tree(x, grad, **params)
        assert tree_bytes(grow_tree(x, grad, **params)) == tree_bytes(want), (k, params)


# --------------------------------------------------------------- forest


def test_forest_trees_are_trees_on_seeded_resamples():
    # each tree takes its resample's ranks from the full matrix's: on
    # continuous and on tied (rounded, signed-zero) columns alike
    g = rng(7)
    x = g.normal(size=(30, 2))
    y = g.normal(size=30)
    for xs in (x, np.round(x, 0)):
        forest = fit_forest(xs, y, n_trees=3, seed=1)
        for tree, child in zip(forest.trees, np.random.SeedSequence(1).spawn(3)):
            rows = np.random.default_rng(child).integers(0, 30, size=30)
            assert tree_bytes(tree) == tree_bytes(fit_tree(xs[rows], y[rows]))


def test_forest_predict_is_member_mean():
    g = rng(8)
    x = g.normal(size=(40, 3))
    y = g.normal(size=40)
    forest = fit_forest(x, y, n_trees=5, seed=3)
    member = np.mean([t.predict(x) for t in forest.trees], axis=0)
    np.testing.assert_allclose(forest.predict(x), member, atol=1e-12)


def test_forest_seeding_is_reproducible():
    g = rng(9)
    x = g.normal(size=(50, 2))
    y = g.normal(size=50)
    a = fit_forest(x, y, n_trees=4, seed=11)
    b = fit_forest(x, y, n_trees=4, seed=11)
    c = fit_forest(x, y, n_trees=4, seed=12)
    np.testing.assert_array_equal(a.predict(x), b.predict(x))
    assert not np.array_equal(a.predict(x), c.predict(x))


def test_forest_averages_down_noise():
    # bagging should beat a fully grown single tree on held-out noisy data
    g = rng(10)
    x = g.uniform(-2.0, 2.0, size=(160, 2))
    y = np.sin(x[:, 0]) + 0.3 * x[:, 1] + g.normal(0.0, 0.4, size=160)
    xt = g.uniform(-2.0, 2.0, size=(400, 2))
    yt = np.sin(xt[:, 0]) + 0.3 * xt[:, 1]
    tree = fit_tree(x, y)
    forest = fit_forest(x, y, n_trees=25, seed=0)
    sse_tree = float(np.sum((tree.predict(xt) - yt) ** 2))
    sse_forest = float(np.sum((forest.predict(xt) - yt) ** 2))
    assert sse_forest < sse_tree


def test_forest_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        fit_forest(x, np.zeros(4), n_trees=0)
    with pytest.raises(ValueError):
        fit_forest(x[:1], np.zeros(1))


# ------------------------------------------------------------------ gbt


def test_gbt_zero_rounds_returns_base_score():
    x = np.arange(5.0).reshape(-1, 1)
    y = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    model = fit_gbt(x, y, rounds=0)
    assert model.trees == []
    np.testing.assert_allclose(model.predict(x), y.mean())


def test_gbt_leaf_weights_by_hand():
    # base = mean = 1; residual gradients (-1,-1,-1,-1,4); the split puts
    # four rows left: w_left = 4/(4+1) = 0.8, w_right = -4/(1+1) = -2
    x = np.array([[0.0], [0.0], [0.0], [0.0], [1.0]])
    y = np.array([2.0, 2.0, 2.0, 2.0, -3.0])
    model = fit_gbt(x, y, rounds=1, learning_rate=0.3)
    assert model.base_score == pytest.approx(1.0)
    tree = model.trees[0]
    leaves = sorted(float(tree.value[i]) for i in range(tree.n_nodes)
                    if tree.feature[i] < 0)
    assert leaves == pytest.approx([-2.0, 0.8])
    np.testing.assert_allclose(model.predict(np.array([[0.0]])), 1.0 + 0.3 * 0.8)


def test_gbt_leaf_identity_on_random_data():
    g = rng(21)
    x = g.normal(size=(60, 3))
    y = g.normal(size=60)
    model = fit_gbt(x, y, rounds=10, learning_rate=0.3, max_depth=3)
    errs = [e for e, _, _ in gbt_leaf_identity_errors(model, x, y, reg_lambda=1.0)]
    assert max(errs) < 1e-10


def test_gbt_interpolates_without_regularization():
    g = rng(22)
    x = g.normal(size=(25, 2))
    y = g.normal(size=25)
    model = fit_gbt(x, y, rounds=1, learning_rate=1.0, reg_lambda=0.0,
                    max_depth=None)
    np.testing.assert_allclose(model.predict(x), y, atol=1e-10)


def test_gbt_unregularized_round_is_the_cart_tree():
    # one grower: the first boosting round on residuals y - base with
    # lambda = gamma = 0 is the CART tree on those residuals
    g = rng(26)
    x = g.normal(size=(200, 4))
    y = g.normal(size=200)
    model = fit_gbt(x, y, rounds=1, learning_rate=1.0, reg_lambda=0.0,
                    max_depth=None)
    assert tree_bytes(model.trees[0]) == tree_bytes(fit_tree(x, y - model.base_score))


def test_gbt_leaf_residuals_equal_the_walk():
    """fit_gbt moves each training row's prediction by the leaf the grower
    partitioned it into; that leaf is the one Tree.predict walks it to, so
    the model equals the one whose residuals come from walking every tree,
    byte for byte, also where thresholds sit one ULP below a value."""
    g = rng(27)
    x_sweep, y_sweep = _train_sweep()
    cases = [(x_sweep, y_sweep[:, 0], 8), (x_sweep[::3], y_sweep[::3, 2], None)]
    for _ in range(12):
        x = _ulp_steps(g, 40, 3)
        cases.append((x, g.normal(size=40), (None, 2, 5)[len(cases) % 3]))
    ulp_rule = 0  # splits whose midpoint rounded onto the upper value
    for x, y, depth in cases:
        model = fit_gbt(x, y, rounds=6, max_depth=depth)
        pred = np.full(y.size, model.base_score)
        for tree in model.trees:
            want = grow_tree(x, pred - y, max_depth=depth, reg_lambda=1.0)
            assert tree_bytes(tree) == tree_bytes(want)
            pred += model.learning_rate * tree.predict(x)
            split = tree.feature >= 0
            for f, t in zip(tree.feature[split], tree.threshold[split]):
                up = np.nextafter(t, np.inf)
                ulp_rule += bool((t + up) / 2.0 == up and (x[:, f] == t).any()
                                 and (x[:, f] == up).any())
        np.testing.assert_array_equal(model.predict(x), pred)
        # the grower's own leaf assignment against the walk
        tree, leaf = tree_mod._grow(tree_mod._ranks(x), x, y - y.mean(), depth, 1.0)
        assert tree.value[leaf].tobytes() == tree.predict(x).tobytes()
    assert ulp_rule > 0


def test_gbt_training_error_is_monotone():
    g = rng(23)
    x = g.normal(size=(80, 4))
    y = g.normal(size=80)
    model = fit_gbt(x, y, rounds=40)
    pred = np.full(80, model.base_score)
    last = float(np.sum((pred - y) ** 2))
    for tree in model.trees:
        pred = pred + model.learning_rate * tree.predict(x)
        sse = float(np.sum((pred - y) ** 2))
        assert sse <= last + 1e-9
        last = sse


def test_gbt_large_lambda_freezes_predictions():
    g = rng(24)
    x = g.normal(size=(30, 2))
    y = g.normal(size=30)
    model = fit_gbt(x, y, rounds=3, reg_lambda=1e9)
    np.testing.assert_allclose(model.predict(x), y.mean(), atol=1e-6)


def test_gbt_validation():
    x = np.zeros((4, 1))
    y = np.zeros(4)
    with pytest.raises(ValueError):
        fit_gbt(x, y, rounds=-1)
    with pytest.raises(ValueError):
        fit_gbt(x, y, reg_lambda=-0.1)
    with pytest.raises(ValueError):
        fit_gbt(x, y, max_depth=-1)
    for rate in (0.0, -0.3):
        with pytest.raises(ValueError):
            fit_gbt(x, y, learning_rate=rate)


# ----------------------------------------------------------- the walk


def _walk_models(x, y):
    """(name, model) cases for the lockstep walk: unlimited-depth trees and
    forests, depth-0 single-leaf trees, gbts with and without a depth
    limit, and a 0-round gbt, whose tree list is empty."""
    yield "tree", fit_tree(x, y)
    yield "tree depth 0", fit_tree(x, y, max_depth=0)
    yield "forest", fit_forest(x, y, n_trees=12, seed=5)
    yield "forest of one", fit_forest(x, y, n_trees=1, seed=6)
    yield "forest of leaves", Forest([fit_tree(x, y, max_depth=0)] * 3)
    yield "gbt", fit_gbt(x, y, rounds=9, max_depth=4)
    yield "gbt unlimited", fit_gbt(x, y, rounds=3, max_depth=None)
    yield "gbt depth 0", fit_gbt(x, y, rounds=4, max_depth=0)
    yield "gbt 0 rounds", fit_gbt(x, y, rounds=0)


@pytest.mark.parametrize("block_bytes", [None, 8 * 12 * 7, 1])
def test_walk_matches_per_tree_walk(monkeypatch, block_bytes):
    """Tree, Forest and GbtModel predictions equal the per-tree walk's,
    summed tree by tree, bit for bit: on training rows, fresh rows, rows
    that sit on split thresholds, one row and zero rows; at the default block and
    at blocks of 7 rows (for 12 trees) and of one row, so a batch spans
    many walk blocks."""
    if block_bytes is not None:
        monkeypatch.setattr(tree_mod, "WALK_BLOCK_BYTES", block_bytes)
    g = rng(31)
    x = np.round(g.normal(size=(90, 3)), 1)
    y = np.sin(x[:, 0]) + x[:, 1] * x[:, 2] + g.normal(0.0, 0.1, size=90)
    fresh = np.round(g.normal(size=(61, 3)), 1)
    split = fit_tree(x, y)
    cuts = split.threshold[split.feature >= 0]
    on_cuts = np.column_stack([cuts, cuts[::-1], np.roll(cuts, 5)])
    for name, model in _walk_models(x, y):
        for rows in (x, fresh, on_cuts, fresh[:1], fresh[:0]):
            got = model.predict(rows)
            assert got.shape == (rows.shape[0],), name
            np.testing.assert_array_equal(got, reference_predict(model, rows), err_msg=name)


def test_walk_spans_blocks_of_a_large_forest():
    """A 150-tree forest walks a batch in blocks of WALK_BLOCK_BYTES /
    (8 * 150) rows; a batch of more rows than one block predicts as the
    per-tree walk does."""
    g = rng(32)
    x = g.normal(size=(40, 8))
    y = g.normal(size=40)
    forest = fit_forest(x, y, n_trees=150, seed=2)
    block = tree_mod.WALK_BLOCK_BYTES // (8 * 150)
    rows = g.normal(size=(block + 37, 8))
    np.testing.assert_array_equal(forest.predict(rows), reference_predict(forest, rows))


# ------------------------------------------------------------------ mlp


def test_mlp_gradients_match_finite_differences():
    assert finite_difference_worst_rel([3, 5, 1], n=7, seed=31) < 1e-6
    assert finite_difference_worst_rel([2, 4, 3, 1], n=5, seed=32) < 1e-6


def test_mlp_zero_epochs_predicts_mean():
    g = rng(33)
    x = g.normal(size=(20, 8))
    y = g.normal(size=20) + 5.0
    model = fit_mlp(x, y, hidden=(6,), epochs=0)
    np.testing.assert_allclose(model.predict(x), y.mean(), atol=1e-12)


def test_mlp_learns_a_linear_map():
    g = rng(34)
    x = g.uniform(-1.0, 1.0, size=(64, 2))
    y = 2.0 * x[:, 0] - x[:, 1]
    model = fit_mlp(x, y, hidden=(16,), epochs=120, batch_size=16,
                    learning_rate=3e-3, seed=0)
    sse = float(np.sum((model.predict(x) - y) ** 2))
    baseline = float(np.sum((y - y.mean()) ** 2))
    assert sse < 0.1 * baseline


def test_mlp_reproducible_by_seed():
    g = rng(35)
    x = g.normal(size=(32, 3))
    y = g.normal(size=32)
    a = fit_mlp(x, y, hidden=(8,), epochs=3, seed=7)
    b = fit_mlp(x, y, hidden=(8,), epochs=3, seed=7)
    c = fit_mlp(x, y, hidden=(8,), epochs=3, seed=8)
    np.testing.assert_array_equal(a.predict(x), b.predict(x))
    assert not np.array_equal(a.predict(x), c.predict(x))


def test_mlp_is_float32_with_float64_scaling():
    """Weights, biases and gradients are float32; the initial weights are
    the float64 normal draws rounded, and the standardization and the
    predictions stay float64."""
    g = rng(37)
    x = g.normal(size=(24, 4))
    y = g.normal(size=24)
    untrained = fit_mlp(x, y, hidden=(5, 3), epochs=0, seed=9)
    draws = np.random.default_rng(9)
    for w, (a, b) in zip(untrained.weights[:-1], [(4, 5), (5, 3)]):
        np.testing.assert_array_equal(
            w, draws.normal(0.0, np.sqrt(2.0 / a), size=(a, b)).astype(np.float32))
    model = fit_mlp(x, y, hidden=(5, 3), epochs=2, batch_size=8, seed=9)
    assert {a.dtype for a in model.weights + model.biases} == {np.dtype(np.float32)}
    assert model.x_mean.dtype == model.x_std.dtype == np.float64
    assert model.predict(x).dtype == np.float64
    _, gw, gb = loss_and_grads(model.weights, model.biases,
                               x.astype(np.float32), y.astype(np.float32))
    assert {a.dtype for a in gw + gb} == {np.dtype(np.float32)}


def test_mlp_widths_and_validation():
    g = rng(36)
    x = g.normal(size=(10, 4))
    y = g.normal(size=10)
    model = fit_mlp(x, y, hidden=(5, 3), epochs=0)
    assert [w.shape for w in model.weights] == [(4, 5), (5, 3), (3, 1)]
    with pytest.raises(ValueError):
        fit_mlp(x, y, hidden=(0,))
    with pytest.raises(ValueError):
        fit_mlp(x, y, epochs=-1)
    with pytest.raises(ValueError):
        fit_mlp(x, y, batch_size=0)
    with pytest.raises(ValueError):
        fit_mlp(x, y, learning_rate=0.0)


# -------------------------------------------------------- position model


_KIND_PARAMS = {
    "tree": {},
    "forest": {"n_trees": 3},
    "gbt": {"rounds": 4},
    "mlp": {"hidden": (6,), "epochs": 2},
}


def _toy_xy(seed=50, n=30):
    g = rng(seed)
    x = g.uniform(0.0, 100.0, size=(n, 8))
    w = g.normal(size=(8, 3))
    return x, x @ w / 50.0


@pytest.mark.parametrize("kind", sorted(_KIND_PARAMS))
def test_position_model_fit_predict(kind):
    x, y = _toy_xy()
    model = fit_position_model(x, y, kind, seed=2, **_KIND_PARAMS[kind])
    pred = model.predict(x)
    assert pred.shape == (30, 3)
    assert model.kind == kind and model.seed == 2


@pytest.mark.parametrize("kind", sorted(_KIND_PARAMS))
def test_position_model_save_load_bit_exact(kind, tmp_path):
    x, y = _toy_xy(seed=51)
    model = fit_position_model(x, y, kind, seed=3, **_KIND_PARAMS[kind])
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == kind and back.seed == 3
    np.testing.assert_array_equal(back.predict(x), model.predict(x))
    if kind == "mlp":  # float32 values written as float64 reprs read back exactly
        for a, b in zip(model.submodels, back.submodels):
            for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
                assert wb.dtype == np.float32 and wb.tobytes() == wa.tobytes()
    # the file is its own canonical encoding: sorted keys, compact, one newline
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_save_and_load_hold_about_one_document_at_a_time(tmp_path):
    """A default-width mlp (a 10 MB document) is written one array's lists
    at a time, and read one learner's lists at a time: the traced peak
    stays under the file's size on save and 2.2 times it on load, where
    the bytes read and the text decoded from them already take twice."""
    x, y = _toy_xy(seed=55)
    model = fit_position_model(x, y, "mlp", seed=5, epochs=0)
    path = tmp_path / "mlp.json"
    save_model(model, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        save_model(model, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_model(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == size > 5e6
    assert save_peak <= 1.0 * size, save_peak / size
    assert load_peak <= 2.2 * size, load_peak / size
    np.testing.assert_array_equal(back.predict(x), model.predict(x))


_TREE = Tree([0, -1, -1], [1.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.25, -1.0, 2.5])
_TREE_DOC = ('{"feature":[0,-1,-1],"left":[1,-1,-1],"right":[2,-1,-1],'
             '"threshold":[1.5,0.0,0.0],"value":[0.25,-1.0,2.5]}')
# kind -> (a literal submodel, its expected vlp-model/1 axis document)
_GOLDEN = {
    "tree": (_TREE, _TREE_DOC),
    "forest": (Forest([_TREE, Tree([-1], [0.0], [-1], [-1], [0.75])]),
               '{"trees":[' + _TREE_DOC + ',{"feature":[-1],"left":[-1],"right":[-1],'
               '"threshold":[0.0],"value":[0.75]}]}'),
    "gbt": (GbtModel(0.5, 0.1, [_TREE]),
            '{"base_score":0.5,"learning_rate":0.1,"trees":[' + _TREE_DOC + ']}'),
    "mlp": (Mlp([[[0.5]] * 8, [[2.0]]], [[0.0], [-1.0]], [0.0] * 8, [1.0] * 8, 1.25, 0.5),
            '{"biases":[[0.0],[-1.0]],'
            '"weights":[[[0.5],[0.5],[0.5],[0.5],[0.5],[0.5],[0.5],[0.5]],[[2.0]]],'
            '"x_mean":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],'
            '"x_std":[1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0],"y_mean":1.25,"y_std":0.5}'),
}


@pytest.mark.parametrize("kind", sorted(_GOLDEN))
def test_save_model_golden_bytes(kind, tmp_path):
    sub, axis = _GOLDEN[kind]
    path = tmp_path / "model.json"
    save_model(PositionModel(kind, [sub] * 3, 7, {"k": 1}), path)
    want = ('{"axes":{"x":' + axis + ',"y":' + axis + ',"z":' + axis + '},'
            '"format":"vlp-model/1","hyperparameters":{"k":1},"kind":"' + kind
            + '","seed":7}\n')
    assert path.read_text() == want
    save_model(load_model(path), path)
    assert path.read_text() == want


@pytest.mark.parametrize("kind", sorted(_KIND_PARAMS))
def test_position_model_rejects_bad_features(kind):
    x, y = _toy_xy(seed=54)
    nan_row = x.copy()
    nan_row[3, 5] = np.nan
    for bad in (x[:, :7], nan_row, x[0, :7]):
        with pytest.raises(BadFeatures):
            fit_position_model(bad, y, kind, seed=4, **_KIND_PARAMS[kind])
    model = fit_position_model(x, y, kind, seed=4, **_KIND_PARAMS[kind])
    for bad in (x[:, :7], nan_row, x[0, :7], np.append(x[0], 1.0)):
        with pytest.raises(BadFeatures):
            model.predict(bad)
    # one 8-vector is one row: PositionModel is the only place that promotes it
    np.testing.assert_array_equal(model.predict(x[0]), model.predict(x[:1]))


def test_position_model_same_seed_same_predictions():
    x, y = _toy_xy(seed=52)
    a = fit_position_model(x, y, "forest", seed=9, n_trees=3)
    b = fit_position_model(x, y, "forest", seed=9, n_trees=3)
    np.testing.assert_array_equal(a.predict(x), b.predict(x))


def test_position_model_validation(tmp_path):
    x, y = _toy_xy(seed=53)
    with pytest.raises(ValueError, match="unknown model kind"):
        fit_position_model(x, y, "svm")
    with pytest.raises(ValueError, match="'forest' takes no rounds"):
        fit_position_model(x, y, "forest", n_trees=2, rounds=3)
    with pytest.raises(ValueError):
        fit_position_model(x, y[:, :2], "tree")
    bad = tmp_path / "bad.json"
    bad.write_text('{"format":"something-else"}\n')
    with pytest.raises(ValueError, match="not a"):
        load_model(bad)


@pytest.mark.parametrize("text, match", [
    ('{"format":"vlp-model/1","kind":"bogus","axes":{}}', "unknown model kind"),
    ('{"format":"vlp-model/1","kind":"gbt","axes":{"x":{}}}', "bad gbt model"),
    ('{"format":"vlp-model/1","kind":"tree","ax', "not JSON"),
    ('[1, 2]', "not a vlp-model/1"),
])
def test_load_model_malformed(tmp_path, text, match):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(MalformedModel, match=match):
        load_model(bad)


@pytest.mark.parametrize("kind", ["tree", "forest", "gbt"])
@pytest.mark.parametrize("edit", [
    {"left": [0, -1, -1], "right": [0, -1, -1]},
    {"right": [3, -1, -1]},
    {"feature": [8, -1, -1]},
    {"feature": [0, -1, -2]},
], ids=["self-loop", "child-past-end", "feature-8", "leaf-feature-minus-2"])
def test_load_model_rejects_malformed_tree(tmp_path, kind, edit):
    """A node whose children point back at it would loop predict forever,
    and a split on feature 8 or a child past the end would index out of
    bounds: load_model rejects the document instead."""
    path = tmp_path / "model.json"
    save_model(PositionModel(kind, [_GOLDEN[kind][0]] * 3, 7, {}), path)
    doc = json.loads(path.read_text())
    axis = doc["axes"]["y"]
    (axis if kind == "tree" else axis["trees"][0]).update(edit)
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedModel, match="tree node"):
        load_model(path)


_MLP_AXIS = json.loads(_GOLDEN["mlp"][1])
_TREE_AXIS = json.loads(_TREE_DOC)
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind, axis, match", [
    ("gbt", _MLP_AXIS, "axis x is not a GbtModel"),
    ("mlp", json.loads(_GOLDEN["tree"][1]), "axis x is not a Mlp"),
    ("forest", {"trees": [dict(_TREE_AXIS, value={"v": 1})]}, "could not convert object"),
    ("gbt", {"base_score": 0.5, "learning_rate": 0.1,
             "trees": [{k: v for k, v in _TREE_AXIS.items() if k != "value"}]},
     "not a tree document"),
    ("forest", {"trees": [_TREE_AXIS, 3]}, "not a tree document"),
    ("forest", {"trees": 3}, "not iterable"),
    ("forest", {"trees": []}, "at least one tree"),
    ("mlp", dict(_MLP_AXIS, x_mean="abc"), "could not convert"),
    ("forest", {"trees": [dict(_TREE_AXIS, threshold="abc")]}, "could not convert"),
    ("tree", dict(_TREE_AXIS, left=[2**70, -1, -1]), "could not convert object"),
    ("tree", {"feature": [-1], "left": [-1], "right": [-1], "threshold": [0.0],
              "value": 7}, "one-dimensional"),
    ("tree", dict(_TREE_AXIS, value=[0.25, NAN, 2.5]), "non-finite"),
    ("forest", {"trees": [dict(_TREE_AXIS, threshold=[INF, 0.0, 0.0])]}, "non-finite"),
    ("tree", dict(_TREE_AXIS, left=[-INF, -1, -1]), "non-finite"),
    ("gbt", {"base_score": NAN, "learning_rate": 0.1, "trees": [_TREE_AXIS]},
     "non-finite"),
    ("gbt", {"base_score": 0.5, "learning_rate": -INF, "trees": [_TREE_AXIS]},
     "non-finite"),
    ("mlp", dict(_MLP_AXIS, y_mean=NAN), "non-finite"),
    ("mlp", dict(_MLP_AXIS, y_std=INF), "non-finite"),
    ("mlp", dict(_MLP_AXIS, x_std=[1.0] * 7 + [NAN]), "non-finite"),
    ("mlp", dict(_MLP_AXIS, biases=[[-INF], [-1.0]]), "non-finite"),
    ("mlp", dict(_MLP_AXIS, weights=[[[0.5]] * 7 + [[1e39]], [[2.0]]]),
     "beyond the range of float32"),
    ("tree", dict(_TREE_AXIS, feature=[0.5, -1, -1]), "not int64 numbers"),
    ("tree", dict(_TREE_AXIS, left=[1.5, -1, -1]), "not int64 numbers"),
    ("forest", {"trees": [dict(_TREE_AXIS, right=[1e30, -1, -1])]}, "not int64 numbers"),
], ids=["mlp-under-gbt", "tree-under-mlp", "forest-tree-object-value",
        "gbt-tree-missing-field", "forest-tree-a-number", "forest-trees-a-number",
        "forest-no-trees", "mlp-string-array", "forest-tree-string-array",
        "tree-index-past-int64", "tree-scalar-value", "tree-value-nan",
        "forest-tree-threshold-inf", "tree-index-minus-inf", "gbt-base-score-nan",
        "gbt-learning-rate-minus-inf", "mlp-y-mean-nan", "mlp-y-std-inf",
        "mlp-x-std-nan", "mlp-bias-minus-inf", "mlp-weight-past-float32",
        "tree-feature-half", "tree-left-one-and-a-half", "forest-tree-float-index-past-int64"])
def test_load_model_keeps_typed_errors(tmp_path, kind, axis, match):
    """Every learner is built as the decoder closes it; whatever its class
    refuses, or an axis of another kind, is a MalformedModel naming the
    kind, never a raw TypeError, AttributeError or OverflowError, nor the
    RuntimeWarning numpy's casts give on a value the dtype cannot hold.
    Python's json reads NaN and Infinity, and a document holding one would
    predict NaN or inf; a fractional node index would be truncated."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "vlp-model/1", "kind": kind,
                                "axes": {a: axis for a in "xyz"}}))
    with pytest.raises(MalformedModel, match=f"bad {kind} model.*{match}"):
        load_model(path)


def _mlp_edit(**fields):
    return dict(_MLP_AXIS, **fields)


@pytest.mark.parametrize("axis, match", [
    (_mlp_edit(weights=[[[0.5]] * 7, [[2.0]]]), r"layer 0: weights \(7, 1\)"),
    (_mlp_edit(weights=[[[0.5, 0.5]] * 8, [[2.0]]]), r"layer 0: weights \(8, 2\)"),
    (_mlp_edit(weights=[[[0.5]] * 8, [[2.0], [2.0]]]), r"layer 1: weights \(2, 1\)"),
    (_mlp_edit(biases=[[0.0], [-1.0, 1.0]]), r"layer 1: .* biases \(2,\)"),
    (_mlp_edit(biases=[[0.0]]), "1 bias vectors"),
    (_mlp_edit(weights=[[[0.5, 0.5]] * 8], biases=[[0.0, 0.0]]), "output layer has width 2"),
    (_mlp_edit(x_std=[1.0] * 7), r"x_std \(7,\)"),
    (_mlp_edit(x_mean=[[0.0] * 8]), r"x_mean \(1, 8\)"),
], ids=["first-matrix-7-rows", "hidden-width-2-bias-1", "second-matrix-2-rows",
        "bias-wider-than-layer", "bias-missing", "output-width-2", "x-std-7",
        "x-mean-2d"])
def test_load_model_refuses_mlp_layers_that_do_not_chain(tmp_path, axis, match):
    """An mlp document whose layers do not chain from the input width to one
    output is refused at load, not left for predict's raw matmul error."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "vlp-model/1", "kind": "mlp",
                                "axes": {a: axis for a in "xyz"}}))
    with pytest.raises(MalformedModel, match=f"bad mlp model.*{match}"):
        load_model(path)


@pytest.mark.parametrize("kind, axis", [
    ("tree", dict(_TREE_AXIS, threshold=["1.5", "0", "0"])),
    ("tree", dict(_TREE_AXIS, feature=["0", "-1", "-1"])),
    ("forest", {"trees": [dict(_TREE_AXIS, value=[0.25, "-1", 2.5])]}),
    ("mlp", _mlp_edit(x_mean=[0.0] * 7 + ["0.0"])),
    ("mlp", _mlp_edit(weights=[[[0.5]] * 8, [["2.0"]]])),
    ("mlp", _mlp_edit(x_std=[1.0] * 7 + [None])),
], ids=["tree-threshold-strings", "tree-feature-strings", "forest-value-one-string",
        "mlp-x-mean-one-string", "mlp-weight-string", "mlp-x-std-null"])
def test_load_model_refuses_numbers_written_as_strings(tmp_path, kind, axis):
    """Learner arrays hold numbers: a numeric string is refused, not parsed,
    and so is a null, which numpy would read as NaN."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "vlp-model/1", "kind": kind,
                                "axes": {a: axis for a in "xyz"}}))
    with pytest.raises(MalformedModel, match=f"bad {kind} model.*could not convert"):
        load_model(path)


def test_learner_arrays_read_booleans_as_numbers():
    """numpy promotes a boolean among numbers to a number, so booleans read
    as 0 and 1 alone too, not refused in one case and read in the other."""
    t = Tree([0, -1, -1], [True, False, False], [1, -1, -1], [2, -1, -1],
             [1, True, False])
    assert t.threshold.tolist() == [1.0, 0.0, 0.0] and t.value.dtype == np.float64
    np.testing.assert_array_equal(t.predict([[1.0] * 8, [2.0] * 8]), [1.0, 0.0])


def test_learner_integer_fields_read_whole_floats():
    """1.0 in a node index reads as 1: a whole float is an integer."""
    t = Tree([0.0, -1.0, -1.0], [1.5, 0.0, 0.0], [1.0, -1, -1], [2.0, -1, -1],
             [0.25, -1.0, 2.5])
    assert t.feature.dtype == t.left.dtype == np.int64
    assert t.left.tolist() == _TREE.left.tolist() and t.right.tolist() == [2, -1, -1]
    rows = [[1.0] * 8, [2.0] * 8]
    np.testing.assert_array_equal(t.predict(rows), _TREE.predict(rows))


def test_load_model_rejects_hyperparameters_that_are_no_mapping(tmp_path):
    path = tmp_path / "model.json"
    save_model(PositionModel("tree", [_TREE] * 3, 7, {}), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(doc, hyperparameters=3)))
    with pytest.raises(MalformedModel, match="hyperparameters is not a mapping"):
        load_model(path)


def test_load_model_keeps_learner_shaped_hyperparameters_plain(tmp_path):
    """A hyperparameters mapping keyed like a learner's fields is no learner:
    it loads as the plain mapping it was, and saves back to the same bytes."""
    hyper = {"trees": 3, "list": [{"trees": []}, {"trees": [_TREE_AXIS]}]}
    path = tmp_path / "model.json"
    save_model(PositionModel("tree", [_TREE] * 3, {"trees": [1]}, hyper), path)
    text = path.read_text()
    back = load_model(path)
    assert back.hyperparameters == hyper and back.seed == {"trees": [1]}
    assert json.loads(json.dumps(back.hyperparameters)) == hyper
    save_model(back, path)
    assert path.read_text() == text
