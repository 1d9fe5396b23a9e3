"""Additive tree-ensemble representation, model file I/O, and per-dataset
probability annotation.

Split convention, used everywhere in this package: ``x < threshold`` goes
left, values equal to the threshold go right. Probability annotation uses
the same strict comparison, so traversal and annotated branch probabilities
are always consistent. This matters for integer-valued features, where ties
with a threshold actually occur.

Node probabilities are marginal: the left probability of a branch node is
the unconditional fraction of annotation-data values below its threshold,
not a path-conditional fraction. Together with the feature-independence
assumption this is exactly what the recursive conditional expectation
consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset, empirical_prob_below
from .errors import InputError

ROOT_ID = 1

OBJECTIVES = ("regression", "binary-logistic")


@dataclass(frozen=True)
class Node:
    """One arena entry: either a branch (feature/threshold/children) or a
    leaf (value). ``prob_left`` is filled by annotation."""

    id: int
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    leaf_value: float = 0.0
    is_leaf: bool = False
    prob_left: float | None = None


def leaf(node_id: int, value: float) -> Node:
    return Node(id=node_id, leaf_value=float(value), is_leaf=True)


def branch(
    node_id: int,
    feature: int,
    threshold: float,
    left: int,
    right: int,
    prob_left: float | None = None,
) -> Node:
    return Node(
        id=node_id,
        feature=feature,
        threshold=float(threshold),
        left=left,
        right=right,
        prob_left=prob_left,
    )


class Tree:
    """A single regression tree stored as an id-indexed node arena.

    Trees may be ragged (leaves at different depths); the only structural
    requirements are a root with id 1, existing and distinct children, and
    acyclicity.
    """

    def __init__(self, nodes: Iterable[Node]):
        arena: dict[int, Node] = {}
        for node in nodes:
            if node.id in arena:
                raise InputError(f"duplicate node id {node.id}")
            arena[node.id] = node
        if ROOT_ID not in arena:
            raise InputError(f"tree has no root node (id {ROOT_ID})")
        self._nodes = arena
        self._validate()
        feats = sorted({n.feature for n in arena.values() if not n.is_leaf})
        self.feature_set: tuple[int, ...] = tuple(feats)
        self.depth = self._depth_of(ROOT_ID)
        self.n_leaves = sum(1 for n in arena.values() if n.is_leaf)

    def _validate(self) -> None:
        seen: set[int] = set()
        stack = [ROOT_ID]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise InputError(f"cycle through node id {nid}")
            seen.add(nid)
            node = self._nodes[nid]
            if node.is_leaf:
                continue
            if np.isnan(node.threshold):
                raise InputError(f"node {nid}: threshold is NaN")
            if node.left == node.right:
                raise InputError(f"node {nid}: children must differ")
            for child in (node.left, node.right):
                if child not in self._nodes:
                    raise InputError(f"node {nid}: dangling child id {child}")
                stack.append(child)
        unreachable = set(self._nodes) - seen
        if unreachable:
            raise InputError(f"unreachable node ids {sorted(unreachable)}")

    def _depth_of(self, nid: int) -> int:
        node = self._nodes[nid]
        if node.is_leaf:
            return 0
        return 1 + max(self._depth_of(node.left), self._depth_of(node.right))

    def node(self, nid: int) -> Node:
        return self._nodes[nid]

    @property
    def root(self) -> Node:
        return self._nodes[ROOT_ID]

    def nodes_sorted(self) -> list[Node]:
        return [self._nodes[i] for i in sorted(self._nodes)]

    def branch_nodes(self) -> list[Node]:
        return [n for n in self.nodes_sorted() if not n.is_leaf]

    @property
    def annotated(self) -> bool:
        return all(n.prob_left is not None for n in self._nodes.values() if not n.is_leaf)

    def predict(self, x: Sequence[float]) -> float:
        node = self.root
        while not node.is_leaf:
            node = self._nodes[node.left if x[node.feature] < node.threshold else node.right]
        return node.leaf_value

    def with_probs(self, probs: dict[int, float]) -> "Tree":
        new_nodes = [
            replace(n, prob_left=probs[n.id]) if not n.is_leaf else n
            for n in self.nodes_sorted()
        ]
        return Tree(new_nodes)


@dataclass(frozen=True)
class Ensemble:
    """Additive ensemble: prediction = base_score + sum of tree outputs,
    in margin space for the binary-logistic objective."""

    trees: tuple[Tree, ...]
    n_features: int
    objective: str = "regression"
    base_score: float = 0.0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise InputError(f"unknown objective {self.objective!r}")
        if not self.trees:
            raise InputError("no trees")
        object.__setattr__(self, "trees", tuple(self.trees))
        for t, tree in enumerate(self.trees):
            for f in tree.feature_set:
                if f < 0 or f >= self.n_features:
                    raise InputError(
                        f"tree {t}: split feature {f} out of range "
                        f"(n_features={self.n_features})"
                    )

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def annotated(self) -> bool:
        return all(t.annotated for t in self.trees)

    @property
    def max_depth(self) -> int:
        return max(t.depth for t in self.trees)


def predict_margin(ensemble: Ensemble, x: Sequence[float]) -> float:
    """Raw additive output for one feature row."""
    total = ensemble.base_score
    for tree in ensemble.trees:
        total += tree.predict(x)
    return total


def predict_margin_batch(ensemble: Ensemble, data: Dataset) -> np.ndarray:
    out = np.full(data.n_rows, ensemble.base_score)
    cols = data.columns
    for tree in ensemble.trees:
        out += _tree_predict_batch(tree, cols)
    return out


def _tree_predict_batch(tree: Tree, cols: np.ndarray) -> np.ndarray:
    def rec(nid: int) -> np.ndarray | float:
        node = tree.node(nid)
        if node.is_leaf:
            return node.leaf_value
        go_left = cols[node.feature] < node.threshold
        return np.where(go_left, rec(node.left), rec(node.right))

    result = rec(ROOT_ID)
    if np.isscalar(result):
        return np.full(cols.shape[1], result)
    return result


def trees_containing(ensemble: Ensemble, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of trees that split on feature ``k`` and the complement."""
    if k < 0 or k >= ensemble.n_features:
        raise InputError(f"feature index {k} out of range")
    inside = tuple(t for t, tree in enumerate(ensemble.trees) if k in tree.feature_set)
    outside = tuple(t for t in range(ensemble.n_trees) if t not in set(inside))
    return inside, outside


def annotate_probabilities(ensemble: Ensemble, data: Dataset) -> Ensemble:
    """Return a new ensemble whose branch nodes carry empirical left
    probabilities estimated from ``data``.

    The estimate is marginal per node: the unconditional fraction of the
    split feature's column strictly below the threshold. Annotation is a
    pure function of (structure, data); annotating twice with the same data
    yields identical probabilities.
    """
    if data.n_cols != ensemble.n_features:
        raise InputError(
            f"dataset has {data.n_cols} features, model expects {ensemble.n_features}"
        )
    annotated = []
    for tree in ensemble.trees:
        probs = {
            n.id: empirical_prob_below(data.column(n.feature), n.threshold)
            for n in tree.branch_nodes()
        }
        annotated.append(tree.with_probs(probs))
    return replace(ensemble, trees=tuple(annotated))


# ---------------------------------------------------------------------------
# Native model file format (version 1)
#
# { "version": 1, "n_features": M, "objective": ..., "base_score": f,
#   "trees": [ { "nodes": [ {"id": i, "leaf": v}
#                         | {"id": i, "feature": k, "threshold": t,
#                            "left": l, "right": r, "prob_left": p|null} ] } ] }
#
# Canonical form: nodes sorted by id, floats as shortest round-trip decimals.
# ---------------------------------------------------------------------------


def _node_to_dict(node: Node) -> dict:
    if node.is_leaf:
        return {"id": node.id, "leaf": node.leaf_value}
    return {
        "id": node.id,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": node.left,
        "right": node.right,
        "prob_left": node.prob_left,
    }


def _node_from_dict(rec: dict) -> Node:
    if not isinstance(rec, dict) or "id" not in rec:
        raise InputError(f"malformed node record: {rec!r}")
    if "leaf" in rec:
        return leaf(int(rec["id"]), float(rec["leaf"]))
    try:
        prob = rec.get("prob_left")
        return branch(
            int(rec["id"]),
            int(rec["feature"]),
            float(rec["threshold"]),
            int(rec["left"]),
            int(rec["right"]),
            None if prob is None else float(prob),
        )
    except KeyError as exc:
        raise InputError(f"node record missing field {exc}") from None


def write_model(ensemble: Ensemble, path: str | Path) -> None:
    doc = {
        "version": 1,
        "n_features": ensemble.n_features,
        "objective": ensemble.objective,
        "base_score": ensemble.base_score,
        "trees": [
            {"nodes": [_node_to_dict(n) for n in tree.nodes_sorted()]}
            for tree in ensemble.trees
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_model(path: str | Path) -> Ensemble:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise InputError(f"{path}: unsupported model schema")
    for key in ("n_features", "objective", "base_score", "trees"):
        if key not in doc:
            raise InputError(f"{path}: missing field {key!r}")
    trees = []
    for t, tree_doc in enumerate(doc["trees"]):
        if "nodes" not in tree_doc:
            raise InputError(f"{path}: tree {t} missing 'nodes'")
        try:
            trees.append(Tree(_node_from_dict(r) for r in tree_doc["nodes"]))
        except InputError as exc:
            raise InputError(f"{path}: tree {t}: {exc}") from None
    return Ensemble(
        trees=tuple(trees),
        n_features=int(doc["n_features"]),
        objective=str(doc["objective"]),
        base_score=float(doc["base_score"]),
    )


# ---------------------------------------------------------------------------
# Import of the common boosted-tree JSON dump
# (nodeid / split / split_condition / yes / no / children / leaf records)
# ---------------------------------------------------------------------------


def _dump_feature_index(token, feature_names: Sequence[str] | None) -> int:
    if isinstance(token, int):
        return token
    if isinstance(token, str):
        if feature_names is not None and token in feature_names:
            return list(feature_names).index(token)
        if token.startswith("f") and token[1:].isdigit():
            return int(token[1:])
        if token.isdigit():
            return int(token)
    raise InputError(f"cannot map split feature {token!r} to an index")


def import_xgb_dump(
    path: str | Path,
    objective: str = "regression",
    base_score: float = 0.0,
    n_features: int | None = None,
    feature_names: Sequence[str] | None = None,
) -> Ensemble:
    """Convert a boosted-tree JSON dump into the native representation.

    The dump's "yes" branch (taken when ``x < split_condition``) maps to
    left, preserving the native traversal convention. A "missing" branch
    that differs from "yes" has no counterpart here and is rejected.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, list):
        raise InputError(f"{path}: expected a JSON array of trees")
    if not doc:
        raise InputError(f"{path}: no trees")

    max_feature = -1
    trees = []
    for t, root in enumerate(doc):
        nodes: list[Node] = []

        def walk(rec: dict) -> None:
            nonlocal max_feature
            if not isinstance(rec, dict) or "nodeid" not in rec:
                raise InputError(f"{path}: tree {t}: malformed node record {rec!r}")
            nid = int(rec["nodeid"]) + 1  # dump ids are 0-based
            if "leaf" in rec:
                nodes.append(leaf(nid, float(rec["leaf"])))
                return
            for key in ("split", "split_condition", "yes", "no"):
                if key not in rec:
                    raise InputError(
                        f"{path}: tree {t}: node {rec['nodeid']} missing {key!r}"
                    )
            if "missing" in rec and rec["missing"] != rec["yes"]:
                raise InputError(
                    f"{path}: tree {t}: node {rec['nodeid']} routes missing "
                    "values away from the 'yes' branch; unsupported"
                )
            f = _dump_feature_index(rec["split"], feature_names)
            max_feature = max(max_feature, f)
            nodes.append(
                branch(nid, f, float(rec["split_condition"]),
                       int(rec["yes"]) + 1, int(rec["no"]) + 1)
            )
            for child in rec.get("children", []):
                walk(child)

        walk(root)
        trees.append(Tree(nodes))

    if n_features is None:
        n_features = len(feature_names) if feature_names else max_feature + 1
    return Ensemble(
        trees=tuple(trees),
        n_features=n_features,
        objective=objective,
        base_score=base_score,
    )
