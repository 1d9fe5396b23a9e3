import json

import numpy as np
import pytest

from subsage.cond_expect import cond_exp_batch
from subsage.dataset import Dataset, FeatureKind, empirical_prob_below, resample, ResampleIndex
from subsage.errors import InputError
from subsage.estimator import LossKind, SubSageEngine, subsage_stumps
from subsage.shap_erfc import shap_exact
from subsage.tree_model import (
    Ensemble,
    Tree,
    annotate_probabilities,
    branch,
    import_xgb_dump,
    leaf,
    load_model,
    predict_margin,
    trees_containing,
    write_model,
)

from conftest import make_depth2, make_stump, random_dataset, random_ensemble


def single_leaf_ensemble(value=2.0, base=0.5):
    return Ensemble(trees=(Tree([leaf(1, value)]),), n_features=1, base_score=base)


class TestTreeStructure:
    def test_depth_and_leaves(self):
        tree = make_depth2(0, 1.0, 1, 2.0, 1, 3.0, (1, 2, 3, 4))
        assert tree.depth == 2
        assert tree.n_leaves == 4
        assert tree.feature_set == (0, 1)

    def test_ragged_tree_allowed(self):
        tree = Tree(
            [
                branch(1, 0, 5.0, 2, 3),
                leaf(2, 1.0),
                branch(3, 1, 2.0, 4, 5),
                leaf(4, -1.0),
                leaf(5, 3.0),
            ]
        )
        assert tree.depth == 2
        assert tree.n_leaves == 3

    def test_dangling_child(self):
        with pytest.raises(InputError, match="dangling child"):
            Tree([branch(1, 0, 1.0, 2, 3), leaf(2, 0.0)])

    def test_identical_children_rejected(self):
        with pytest.raises(InputError, match="children must differ"):
            Tree([branch(1, 0, 1.0, 2, 2), leaf(2, 0.0)])

    def test_nan_threshold_rejected(self):
        with pytest.raises(InputError, match="threshold is NaN"):
            Tree([branch(1, 0, float("nan"), 2, 3), leaf(2, 0.0), leaf(3, 1.0)])

    def test_missing_root(self):
        with pytest.raises(InputError, match="no root"):
            Tree([leaf(2, 0.0)])

    def test_unreachable_node(self):
        with pytest.raises(InputError, match="unreachable"):
            Tree([leaf(1, 0.0), leaf(7, 1.0)])

    def test_feature_out_of_range(self):
        with pytest.raises(InputError, match="out of range"):
            Ensemble(trees=(make_stump(3, 1.0, 0.0, 1.0),), n_features=2)


class TestPredict:
    def test_single_leaf_plus_base(self):
        assert predict_margin(single_leaf_ensemble(), [0.0]) == 2.5

    def test_two_feature_tree_routing(self):
        # Root on feature 0 at 20; right child splits feature 1 at 5.
        tree = Tree(
            [
                branch(1, 0, 20.0, 2, 3),
                leaf(2, 10.0),
                branch(3, 1, 5.0, 4, 5),
                leaf(4, 20.0),
                leaf(5, 30.0),
            ]
        )
        ens = Ensemble(trees=(tree,), n_features=2)
        # x0 = 25 routes right (not below 20), x1 = 3 routes left there.
        assert predict_margin(ens, [25.0, 3.0]) == 20.0
        assert predict_margin(ens, [19.0, 3.0]) == 10.0
        assert predict_margin(ens, [25.0, 5.0]) == 30.0

    def test_threshold_tie_routes_right(self):
        ens = Ensemble(trees=(make_stump(0, 2.0, -1.0, 1.0),), n_features=1)
        assert predict_margin(ens, [2.0]) == 1.0
        assert predict_margin(ens, [np.nextafter(2.0, -np.inf)]) == -1.0


class TestTreesContaining:
    def test_unused_feature_empty(self, rng):
        data = random_dataset(rng, 20, 4)
        ens = Ensemble(trees=(make_stump(0, 0.0, -1, 1),), n_features=4)
        inside, outside = trees_containing(ens, 3)
        assert inside == ()
        assert outside == (0,)

    def test_stump_ensemble(self):
        trees = (make_stump(0, 0.0, -1, 1), make_stump(1, 0.0, -1, 1), make_stump(0, 1.0, -1, 1))
        ens = Ensemble(trees=trees, n_features=2)
        inside, outside = trees_containing(ens, 0)
        assert inside == (0, 2)
        assert outside == (1,)

    def test_partition_sizes(self, rng):
        data = random_dataset(rng, 30, 5)
        ens = random_ensemble(rng, data, n_trees=12, depth=2)
        for k in range(5):
            inside, outside = trees_containing(ens, k)
            assert len(inside) + len(outside) == ens.n_trees
            assert set(inside).isdisjoint(outside)

    def test_out_of_range(self, rng):
        ens = single_leaf_ensemble()
        with pytest.raises(InputError):
            trees_containing(ens, 5)


class TestAnnotate:
    def test_direct_count(self):
        data = Dataset(
            ("x0",),
            np.array([[1.0, 2.0, 3.0, 4.0]]),
            (FeatureKind.CONTINUOUS,),
            np.zeros(4),
        )
        ens = annotate_probabilities(
            Ensemble(trees=(make_stump(0, 3.0, 0.0, 1.0),), n_features=1), data
        )
        root = ens.trees[0].root
        assert root.prob_left == 0.5

    def test_threshold_below_min_gives_zero(self):
        data = Dataset(
            ("x0",), np.array([[1.0, 2.0]]), (FeatureKind.CONTINUOUS,), np.zeros(2)
        )
        ens = annotate_probabilities(
            Ensemble(trees=(make_stump(0, 0.5, 5.0, 7.0),), n_features=1), data
        )
        assert ens.trees[0].root.prob_left == 0.0

    def test_original_untouched_and_idempotent(self, rng):
        data = random_dataset(rng, 50, 3)
        ens = random_ensemble(rng, data, n_trees=5, depth=2)
        assert not ens.annotated
        once = annotate_probabilities(ens, data)
        twice = annotate_probabilities(once, data)
        assert not ens.annotated
        for a, b in zip(once.trees, twice.trees):
            for na, nb in zip(a.nodes_sorted(), b.nodes_sorted()):
                assert na.prob_left == nb.prob_left

    def test_complement_sums_to_one_exactly(self, rng):
        data = random_dataset(rng, 33, 3)
        ens = annotate_probabilities(random_ensemble(rng, data, 6, 2), data)
        for tree in ens.trees:
            for node in tree.branch_nodes():
                assert node.prob_left + (1.0 - node.prob_left) == 1.0

    def test_replicate_annotation_matches_empirical_fractions(self, rng):
        data = random_dataset(rng, 40, 3)
        ens = random_ensemble(rng, data, 6, 2)
        rep = resample(data, ResampleIndex.draw(40, seed=11, iteration=2))
        annotated = annotate_probabilities(ens, rep)
        for tree in annotated.trees:
            for node in tree.branch_nodes():
                expect = empirical_prob_below(rep.column(node.feature), node.threshold)
                assert node.prob_left == expect

    def test_shape_mismatch(self, rng):
        data = random_dataset(rng, 10, 3)
        ens = single_leaf_ensemble()
        with pytest.raises(InputError, match="features"):
            annotate_probabilities(ens, data)


class TestSharedMessages:
    """Each check has one home; every caller raises its exact message."""

    @pytest.mark.parametrize("call", [
        annotate_probabilities,
        lambda ens, data: cond_exp_batch(ens, (), data),
        shap_exact,
        lambda ens, data: SubSageEngine(ens, data, 0, LossKind.SQUARED_ERROR),
    ], ids=["annotate", "cond_exp_batch", "shap_exact", "engine"])
    def test_narrow_dataset(self, rng, call):
        data = random_dataset(rng, 20, 4)
        ens = annotate_probabilities(random_ensemble(rng, data, 3, 2), data)
        narrow = Dataset(data.feature_names[:3], data.columns[:3], data.kinds[:3], data.response)
        with pytest.raises(InputError) as exc:
            call(ens, narrow)
        assert str(exc.value) == "dataset has 3 features, model expects 4"

    @pytest.mark.parametrize("call", [
        lambda ens, data, k: SubSageEngine(ens, data, k, LossKind.SQUARED_ERROR),
        lambda ens, data, k: subsage_stumps(ens, k, data),
        lambda ens, data, k: trees_containing(ens, k),
    ], ids=["engine", "subsage_stumps", "trees_containing"])
    @pytest.mark.parametrize("k", [-1, 4])
    def test_feature_out_of_range(self, rng, call, k):
        data = random_dataset(rng, 20, 4)
        ens = annotate_probabilities(random_ensemble(rng, data, 3, 1), data)
        with pytest.raises(InputError) as exc:
            call(ens, data, k)
        assert str(exc.value) == f"feature index {k} out of range"


class TestModelIO:
    def test_round_trip_values(self, tmp_path, rng):
        data = random_dataset(rng, 30, 4)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 7, 2, base_score=0.25), data
        )
        path = tmp_path / "model.json"
        write_model(ens, path)
        back = load_model(path)
        assert back.n_features == ens.n_features
        assert back.base_score == ens.base_score
        for x in (rng.normal(size=4) for _ in range(20)):
            assert predict_margin(back, x) == predict_margin(ens, x)

    def test_canonical_round_trip_bytes(self, tmp_path, rng):
        data = random_dataset(rng, 30, 4)
        ens = random_ensemble(rng, data, 5, 2)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_model(ens, first)
        write_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_single_leaf_file(self, tmp_path):
        path = tmp_path / "leaf.json"
        write_model(single_leaf_ensemble(), path)
        back = load_model(path)
        assert back.n_trees == 1
        assert predict_margin(back, [0.0]) == 2.5

    def test_dangling_child_in_file(self, tmp_path):
        doc = {
            "version": 1,
            "n_features": 1,
            "objective": "regression",
            "base_score": 0.0,
            "trees": [
                {
                    "nodes": [
                        {"id": 1, "feature": 0, "threshold": 1.0, "left": 2,
                         "right": 3, "prob_left": None},
                        {"id": 2, "leaf": 0.0},
                    ]
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="dangling child"):
            load_model(path)

    def test_unsupported_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(InputError, match="unsupported model schema"):
            load_model(path)

    def test_empty_trees_rejected(self, tmp_path):
        path = tmp_path / "none.json"
        path.write_text(
            json.dumps(
                {"version": 1, "n_features": 1, "objective": "regression",
                 "base_score": 0.0, "trees": []}
            )
        )
        with pytest.raises(InputError, match="no trees"):
            load_model(path)


def _set_node(i, **fields):
    return lambda doc: doc["trees"][0]["nodes"][i].update(fields)


class TestModelValidation:
    """Values that used to load silently are rejected, naming the file and,
    for a node, the tree and the node id."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_set_node(0, prob_left=5.0), "tree 0: node 1: prob_left 5.0 outside [0, 1]"),
            (_set_node(0, threshold=float("inf")), "tree 0: node 1: threshold is infinite"),
            (_set_node(1, leaf=float("inf")), "tree 0: node 2: leaf value inf is not finite"),
            (lambda doc: doc.update(n_features=0), "n_features must be at least 1, got 0"),
            (lambda doc: doc.update(base_score=float("nan")), "base_score nan is not finite"),
        ],
        ids=["prob_left", "inf_threshold", "inf_leaf", "zero_features", "nan_base_score"],
    )
    def test_rejected_on_load(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        write_model(Ensemble(trees=(make_stump(0, 1.0, -1.0, 1.0),), n_features=1), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: {message}"


def dump_xgb_json(ensemble: Ensemble) -> list:
    """Serialize an ensemble in the external dump layout for import tests."""

    def node_doc(tree, nid, remap):
        node = tree.node(nid)
        if node.is_leaf:
            return {"nodeid": remap[nid], "leaf": node.leaf_value}
        return {
            "nodeid": remap[nid],
            "split": f"f{node.feature}",
            "split_condition": node.threshold,
            "yes": remap[node.left],
            "no": remap[node.right],
            "missing": remap[node.left],
            "children": [
                node_doc(tree, node.left, remap),
                node_doc(tree, node.right, remap),
            ],
        }

    docs = []
    for tree in ensemble.trees:
        ids = [n.id for n in tree.nodes_sorted()]
        remap = {nid: i for i, nid in enumerate(ids)}
        docs.append(node_doc(tree, 1, remap))
    return docs


class TestXgbImport:
    def test_depth_one_fixture(self, tmp_path):
        doc = [
            {
                "nodeid": 0,
                "split": "f0",
                "split_condition": 0.5,
                "yes": 1,
                "no": 2,
                "missing": 1,
                "children": [
                    {"nodeid": 1, "leaf": -1.0},
                    {"nodeid": 2, "leaf": 1.0},
                ],
            }
        ]
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(doc))
        ens = import_xgb_dump(path)
        assert ens.n_trees == 1
        root = ens.trees[0].root
        assert root.threshold == 0.5
        # "yes" branch (x < t) maps to left.
        assert ens.trees[0].node(root.left).leaf_value == -1.0
        assert ens.trees[0].node(root.right).leaf_value == 1.0

    def test_round_trip_predictions(self, tmp_path, rng):
        data = random_dataset(rng, 50, 6)
        ens = random_ensemble(rng, data, 9, 2)
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump_xgb_json(ens)))
        back = import_xgb_dump(path, n_features=6)
        for i in range(20):
            x = data.columns[:, i]
            assert predict_margin(back, x) == predict_margin(ens, x)

    def test_trainer_scale_fixture(self, tmp_path, rng):
        # Shape-matched import: 230 trees, depth <= 2, produced in-repo.
        from subsage.trainer import TrainConfig, train

        data = random_dataset(rng, 400, 8)
        valid = random_dataset(rng, 100, 8)
        cfg = TrainConfig(max_rounds=230, max_depth=2, learning_rate=0.3, seed=4)
        model = train(data, valid, cfg)
        assert model.n_trees == 230
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump_xgb_json(model)))
        back = import_xgb_dump(path, n_features=8)
        assert back.n_trees == 230
        assert back.max_depth <= 2
        x = data.columns[:, 0]
        assert predict_margin(back, x) + model.base_score == pytest.approx(
            predict_margin(model, x), abs=1e-12
        )

    def test_empty_dump(self, tmp_path):
        path = tmp_path / "dump.json"
        path.write_text("[]")
        with pytest.raises(InputError, match="no trees"):
            import_xgb_dump(path)

    def test_divergent_missing_branch_rejected(self, tmp_path):
        doc = [
            {
                "nodeid": 0,
                "split": "f0",
                "split_condition": 0.5,
                "yes": 1,
                "no": 2,
                "missing": 2,
                "children": [
                    {"nodeid": 1, "leaf": -1.0},
                    {"nodeid": 2, "leaf": 1.0},
                ],
            }
        ]
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="missing"):
            import_xgb_dump(path)

    def test_malformed_node(self, tmp_path):
        path = tmp_path / "dump.json"
        path.write_text(json.dumps([{"bogus": 1}]))
        with pytest.raises(InputError, match="malformed node"):
            import_xgb_dump(path)
