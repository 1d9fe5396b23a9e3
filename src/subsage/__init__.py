"""Sub-SAGE feature importance with bootstrap confidence intervals for
tree-ensemble models, exact interventional SHAP/ERFC ranking, a seeded
synthetic benchmark, and a minimal boosted-tree trainer."""

from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    bca_interval,
    paired_bootstrap,
    percentile_interval,
)
from .cond_expect import cond_exp_batch
from .dataset import (
    Dataset,
    FeatureKind,
    ResampleIndex,
    concat_rows,
    empirical_prob_below,
    load_csv,
    resample,
    split,
    write_csv,
)
from .errors import InputError, NumericalError, SubsageError
from .estimator import (
    LossKind,
    SubsetFamily,
    SubSageEstimate,
    build_subset_family,
    subsage_estimate,
)
from .shap_erfc import ShapMatrix, erfc, rank_features, shap_exact
from .synthetic import SyntheticConfig, generate_synthetic
from .trainer import TrainConfig, train
from .tree_model import (
    Ensemble,
    Node,
    Tree,
    annotate_probabilities,
    branch,
    import_xgb_dump,
    leaf,
    load_model,
    trees_containing,
    write_model,
)

__version__ = "0.1.0"
