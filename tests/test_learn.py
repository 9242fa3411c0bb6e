"""Learner tests: exact split oracles for the tree, the second-order leaf
identity for boosting, finite-difference gradients for the MLP, and the
serialization contract for all of them."""

import numpy as np
import pytest

from conftest import rng
from helpers import (
    exhaustive_tree_sse,
    finite_difference_worst_rel,
    gbt_leaf_identity_errors,
    reference_grow_tree,
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
    save_model,
)
from vlp.errors import BadFeatures, MalformedModel
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


def test_grow_tree_matches_reference_grower():
    # the all-features-at-once grower against the per-feature loop, on
    # continuous and rounded (tie-heavy) data, gbt and CART settings
    g = rng(102)
    for k in range(300):
        n = int(g.integers(1, 50))
        d = int(g.integers(1, 9))
        x = g.normal(size=(n, d))
        grad = g.normal(size=n)
        if k % 2:
            x = np.round(x, 1)
            grad = np.round(grad, 1)
        params = {"max_depth": (None, 1, 3, 8)[k % 4],
                  "reg_lambda": (0.0, 0.3, 1.0)[k % 3]}
        want = reference_grow_tree(x, grad, **params)
        assert grow_tree(x, grad, **params) == want, (k, params)


# --------------------------------------------------------------- forest


def test_forest_trees_are_trees_on_seeded_resamples():
    g = rng(7)
    x = g.normal(size=(30, 2))
    y = g.normal(size=30)
    forest = fit_forest(x, y, n_trees=3, seed=1)
    for tree, child in zip(forest.trees, np.random.SeedSequence(1).spawn(3)):
        rows = np.random.default_rng(child).integers(0, 30, size=30)
        assert tree == fit_tree(x[rows], y[rows])


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
    assert model.trees[0] == fit_tree(x, y - model.base_score)


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
