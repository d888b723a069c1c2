"""Multi-label ensemble classification via variable pairwise constraint
projection: weighted must-link / cannot-link pair sampling, scatter-based
eigenprojection, MLKNN base classifiers, boosting-like reweighting, and
majority-vote prediction, plus an evaluation harness."""

__version__ = "0.1.0"

from .constraints import (
    ConstraintConfig,
    PairConstraintSets,
    label_overlap_ratio,
    sample_constraints,
)
from .dataset import (
    DatasetStats,
    FoldAssignment,
    MultiLabelDataset,
    compute_stats,
    kfold_split,
    load_csv,
    load_features,
    open_output,
    save_csv,
    synthetic_dataset,
)
from .ensemble import (
    VpcmeConfig,
    VpcmeModel,
    load_model,
    majority_vote,
    member_scores,
    predict_ensemble,
    save_model,
    train_single_mlknn,
    train_vpcme,
)
from .errors import (
    ConfigError,
    CsvFormatError,
    UndefinedMetricError,
    ValidationError,
    VpcmeError,
)
from .harness import (
    EvaluationReport,
    ExperimentConfig,
    SweepSpec,
    compare_methods,
    cross_validate,
    paired_t_test,
    run_sweep,
    train_method,
)
from .metrics import (
    average_precision,
    coverage,
    evaluate_all,
    f1_metric,
    hamming_loss,
    one_error,
    rank_from_scores,
    ranking_loss,
    recall,
)
from .mlknn import MlknnModel, fit_mlknn, posterior_scores
from .projection import (
    ProjectionModel,
    ScatterPair,
    fit_projection,
    scatter_matrices,
    symmetric_eigen,
    transform,
)
