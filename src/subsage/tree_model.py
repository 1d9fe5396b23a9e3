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
assumption this is exactly what the conditional-expectation sweep
(``Tree.sweep``) consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Container, Iterable

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
    """A single regression tree: an id-indexed node arena for construction
    and I/O, and a flat layout that every evaluator reads. The layout numbers
    the nodes parents first, left subtrees first, and holds per position
    ``feature``, ``left`` and ``right`` (-1 at leaves), ``threshold``,
    ``value`` and ``prob_left`` (NaN where not annotated).

    Trees may be ragged (leaves at different depths); the structural
    requirements are a root with id 1, existing and distinct children, and
    acyclicity. Thresholds and leaf values must be finite and probabilities
    must lie in [0, 1].
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

        # One walk validates the tree and lays it out: a node's position is
        # the order in which it leaves the stack.
        walked: list[tuple[Node, int, int]] = []  # node, parent position, level
        pos_of: dict[int, int] = {}
        stack = [(ROOT_ID, -1, 0)]
        while stack:
            nid, up, lvl = stack.pop()
            if nid in pos_of:
                raise InputError(f"cycle through node id {nid}")
            pos_of[nid] = len(walked)
            node = arena[nid]
            walked.append((node, up, lvl))
            if node.is_leaf:
                if not math.isfinite(node.leaf_value):
                    raise InputError(f"node {nid}: leaf value {node.leaf_value} is not finite")
                continue
            if not math.isfinite(node.threshold):
                kind = "NaN" if math.isnan(node.threshold) else "infinite"
                raise InputError(f"node {nid}: threshold is {kind}")
            if node.prob_left is not None and not 0.0 <= node.prob_left <= 1.0:
                raise InputError(f"node {nid}: prob_left {node.prob_left} outside [0, 1]")
            if node.left == node.right:
                raise InputError(f"node {nid}: children must differ")
            for child in (node.left, node.right):
                if child not in arena:
                    raise InputError(f"node {nid}: dangling child id {child}")
            stack += [(node.right, pos_of[nid], lvl + 1), (node.left, pos_of[nid], lvl + 1)]
        unreachable = set(arena) - set(pos_of)
        if unreachable:
            raise InputError(f"unreachable node ids {sorted(unreachable)}")

        order, parent, level = zip(*walked)
        self.feature = np.array([-1 if n.is_leaf else n.feature for n in order])
        self.threshold = np.array([n.threshold for n in order])
        self.left = np.array([-1 if n.is_leaf else pos_of[n.left] for n in order])
        self.right = np.array([-1 if n.is_leaf else pos_of[n.right] for n in order])
        self.value = np.array([n.leaf_value for n in order])
        self.prob_left = np.array([np.nan if n.prob_left is None else n.prob_left for n in order])
        self._parent, self._level = parent, level
        feats = sorted({n.feature for n in order if not n.is_leaf})
        self.feature_set: tuple[int, ...] = tuple(feats)
        self.depth = max(level)

    def node(self, nid: int) -> Node:
        return self._nodes[nid]

    def nodes_sorted(self) -> list[Node]:
        return [self._nodes[i] for i in sorted(self._nodes)]

    def branch_nodes(self) -> list[Node]:
        return [n for n in self.nodes_sorted() if not n.is_leaf]

    @property
    def annotated(self) -> bool:
        return not np.isnan(self.prob_left[self.left >= 0]).any()

    def sweep(self, cols: np.ndarray, known: Container[int]) -> np.ndarray | float:
        """Evaluate the tree bottom-up on the (M, N) column matrix ``cols``: a
        branch on a feature in ``known`` takes each row's side, any other
        mixes its children by ``prob_left``. With every feature known this
        is the prediction. A scalar when no branch is known, else N values.
        """
        vals: list = self.value.tolist()
        at = np.flatnonzero(self.left >= 0)[::-1]
        fields = (self.feature, self.threshold, self.left, self.right, self.prob_left)
        for pos, f, t, l, r, p in zip(at.tolist(), *(a[at].tolist() for a in fields)):
            lo, hi = vals[l], vals[r]
            vals[l] = vals[r] = None
            vals[pos] = np.where(cols[f] < t, lo, hi) if f in known else lo * p + hi * (1.0 - p)
        return vals[0]

    @cached_property
    def leaf_steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Leaf positions in left-first order, the number of root-to-leaf
        branch steps of each, and flat, leaf after leaf and root first, the
        position of each step's branch and whether the step goes left."""
        parent, level_of = np.array(self._parent), np.array(self._level)
        leaves = np.flatnonzero(self.left < 0)
        n_steps = level_of[leaves]
        steps = np.empty(n_steps.sum(), np.intp)
        went_left = np.empty(len(steps), bool)
        below = n_steps > 0
        first, cur = (np.cumsum(n_steps) - n_steps)[below], leaves[below]
        while len(cur):
            up = parent[cur]
            at = first + level_of[up]
            steps[at] = up
            went_left[at] = self.left[up] == cur
            below = level_of[up] > 0
            first, cur = first[below], up[below]
        return leaves, n_steps, steps, went_left


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
        if self.n_features < 1:
            raise InputError(f"n_features must be at least 1, got {self.n_features}")
        if not math.isfinite(self.base_score):
            raise InputError(f"base_score {self.base_score} is not finite")
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

    def check_width(self, data: Dataset) -> None:
        """Reject ``data`` unless it has one column per model feature."""
        if data.n_cols != self.n_features:
            raise InputError(
                f"dataset has {data.n_cols} features, model expects {self.n_features}"
            )


def predict_margin_batch(ensemble: Ensemble, data: Dataset) -> np.ndarray:
    out = np.full(data.n_rows, ensemble.base_score)
    cols = data.columns
    for tree in ensemble.trees:
        out += tree.sweep(cols, tree.feature_set)
    return out


def trees_containing(ensemble: Ensemble, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of trees that split on feature ``k`` and the complement."""
    if k < 0 or k >= ensemble.n_features:
        raise InputError(f"feature index {k} out of range")
    inside = tuple(t for t, tree in enumerate(ensemble.trees) if k in tree.feature_set)
    skip = set(inside)
    return inside, tuple(t for t in range(ensemble.n_trees) if t not in skip)


def annotate_probabilities(ensemble: Ensemble, data: Dataset) -> Ensemble:
    """Return a new ensemble whose branch nodes carry empirical left
    probabilities estimated from ``data``.

    The estimate is marginal per node: the unconditional fraction of the
    split feature's column strictly below the threshold. Annotation is a
    pure function of (structure, data); annotating twice with the same data
    yields identical probabilities.
    """
    ensemble.check_width(data)
    return replace(ensemble, trees=tuple(
        Tree(n if n.is_leaf
             else replace(n, prob_left=empirical_prob_below(data.column(n.feature), n.threshold))
             for n in tree.nodes_sorted())
        for tree in ensemble.trees
    ))


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


def _typed(rec: dict, key: str, kind: type):
    """``rec[key]`` as ``kind``, int or float. A float field also takes a
    JSON integer; booleans, strings and other JSON types are rejected."""
    value = rec[key]
    allowed = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, allowed):
        noun = "a number" if kind is float else "an integer"
        raise InputError(f"{key} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise InputError(f"{key} {value} is out of range") from None


def _node_from_dict(rec: dict) -> Node:
    if not isinstance(rec, dict) or "id" not in rec:
        raise InputError(f"malformed node record: {rec!r}")
    nid = _typed(rec, "id", int)
    try:
        if "leaf" in rec:
            return leaf(nid, _typed(rec, "leaf", float))
        prob = rec.get("prob_left")
        return branch(
            nid,
            _typed(rec, "feature", int),
            _typed(rec, "threshold", float),
            _typed(rec, "left", int),
            _typed(rec, "right", int),
            None if prob is None else _typed(rec, "prob_left", float),
        )
    except KeyError as exc:
        raise InputError(f"node {nid}: missing field {exc}") from None
    except InputError as exc:
        raise InputError(f"node {nid}: {exc}") from None


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


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or text, or an integer too long
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None


def _ensemble(path: Path, node_lists, **fields) -> Ensemble:
    """The ensemble of one tree per node list; errors name ``path``."""
    trees = []
    for t, nodes in enumerate(node_lists):
        try:
            trees.append(Tree(nodes))
        except InputError as exc:
            raise InputError(f"{path}: tree {t}: {exc}") from None
    try:
        return Ensemble(trees=tuple(trees), **fields)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_model(path: str | Path) -> Ensemble:
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise InputError(f"{path}: unsupported model schema")
    for key in ("n_features", "objective", "base_score", "trees"):
        if key not in doc:
            raise InputError(f"{path}: missing field {key!r}")
    if not isinstance(doc["trees"], list):
        raise InputError(f"{path}: trees must be a list")
    for t, tree_doc in enumerate(doc["trees"]):
        if not isinstance(tree_doc, dict) or "nodes" not in tree_doc:
            raise InputError(f"{path}: tree {t} missing 'nodes'")
        if not isinstance(tree_doc["nodes"], list):
            raise InputError(f"{path}: tree {t}: nodes must be a list")
    try:
        n_features = _typed(doc, "n_features", int)
        base_score = _typed(doc, "base_score", float)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return _ensemble(
        path,
        [(_node_from_dict(r) for r in tree_doc["nodes"]) for tree_doc in doc["trees"]],
        n_features=n_features,
        objective=str(doc["objective"]),
        base_score=base_score,
    )


# ---------------------------------------------------------------------------
# Import of the common boosted-tree JSON dump
# (nodeid / split / split_condition / yes / no / children / leaf records)
# ---------------------------------------------------------------------------


def _dump_feature_index(token) -> int:
    if isinstance(token, int) and not isinstance(token, bool):
        return token
    if isinstance(token, str):
        if token.startswith("f") and token[1:].isdigit():
            return int(token[1:])
        if token.isdigit():
            return int(token)
    raise InputError(f"cannot map split feature {token!r} to an index")


def _dump_node(rec: dict) -> tuple[Node, list]:
    """The native node of one dump record, and the record's children."""
    nid = _typed(rec, "nodeid", int)
    try:
        if "leaf" in rec:
            return leaf(nid + 1, _typed(rec, "leaf", float)), []  # dump ids are 0-based
        for key in ("split", "split_condition", "yes", "no"):
            if key not in rec:
                raise InputError(f"missing {key!r}")
        if "missing" in rec and rec["missing"] != rec["yes"]:
            raise InputError(
                "routes missing values away from the 'yes' branch; unsupported"
            )
        children = rec.get("children", [])
        if not isinstance(children, list):
            raise InputError(f"children must be a list, got {children!r}")
        node = branch(
            nid + 1,
            _dump_feature_index(rec["split"]),
            _typed(rec, "split_condition", float),
            _typed(rec, "yes", int) + 1,
            _typed(rec, "no", int) + 1,
        )
        return node, children
    except InputError as exc:
        raise InputError(f"node {nid}: {exc}") from None


def import_xgb_dump(
    path: str | Path,
    objective: str = "regression",
    base_score: float = 0.0,
    n_features: int | None = None,
) -> Ensemble:
    """Convert a boosted-tree JSON dump into the native representation.

    The dump's "yes" branch (taken when ``x < split_condition``) maps to
    left, preserving the native traversal convention. A "missing" branch
    that differs from "yes" has no counterpart here and is rejected.
    """
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise InputError(f"{path}: expected a JSON array of trees")
    if not doc:
        raise InputError(f"{path}: no trees")

    max_feature = -1
    node_lists = []
    for t, root in enumerate(doc):
        nodes: list[Node] = []
        stack = [root]
        while stack:
            rec = stack.pop()
            if not isinstance(rec, dict) or "nodeid" not in rec:
                raise InputError(f"{path}: tree {t}: malformed node record {rec!r}")
            try:
                node, children = _dump_node(rec)
            except InputError as exc:
                raise InputError(f"{path}: tree {t}: {exc}") from None
            nodes.append(node)
            max_feature = max(max_feature, node.feature)
            stack += reversed(children)
        node_lists.append(nodes)

    if n_features is None:
        n_features = max_feature + 1
    return _ensemble(
        path, node_lists, n_features=n_features, objective=objective, base_score=base_score
    )
