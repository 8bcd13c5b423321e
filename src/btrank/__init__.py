"""Rank objects from paired comparisons, even when the data are sparse.

The plain Bradley-Terry maximum likelihood estimate exists only when the
win digraph is strongly connected, which real tournament data routinely
violate. This package fits Bradley-Terry and four extensions (ties, home
advantage, both) after perturbing the win counts just enough to restore
existence, diagnoses the underlying connectivity structure with explicit
witnesses when an estimate cannot exist, and ships ranking, seeding,
robustness-sweep, and simulation tools on top.

Quick start::

    import btrank

    data = btrank.datasets.load_four_teams()
    spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(0.1))
    result = btrank.fit(spec, data)
    print(btrank.extract_ranking(result).describe())
"""

from . import datasets
from .connectivity import (
    check_condition_a,
    check_condition_b,
    check_condition_c,
    witness_is_valid,
)
from .errors import (
    BtrankError,
    ConfigError,
    DimensionError,
    EmptyInputError,
    ExistenceError,
    NegativeCountError,
    NonConvergenceError,
    NonPositiveEpsilonError,
    NoTiesError,
    ParseError,
    SelfPlayError,
    ShapeError,
    ThetaDomainError,
    VenuelessDataError,
)
from .ingestion import (
    GameRecord,
    GameTable,
    Outcome,
    aggregate,
    parse_matrix,
    parse_records,
    serialize_records,
)
from .likelihood import (
    Objective,
    PosteriorObjective,
    gradient,
    log_likelihood,
)
from .perturbation import auto_epsilon, perturb, resolve_epsilon
from .ranking import (
    MonotoneRatioReport,
    RatioTrend,
    SeedEntry,
    SeedTable,
    SweepEntry,
    SweepResult,
    extract_ranking,
    kendall_distance,
    merit_table,
    monotone_ratio_check,
    pct_table,
    score_ranking,
    select_seeds,
    sweep_epsilon,
)
from .simulation import (
    ConsistencyConfig,
    ConsistencyReport,
    expected_counts_dataset,
    max_relative_error,
    run_consistency,
)
from .solver import (
    MapPriorSpec,
    SolverConfig,
    fit,
    fit_map_em,
    maximize_concave,
    minimize,
)
from .types import (
    AUTO_EPSILON,
    ConnerGrant,
    CountMatrices,
    Dataset,
    FitResult,
    Improved,
    MatrixShift,
    Model,
    ModelSpec,
    Normalization,
    ParameterPoint,
    PartitionWitness,
    PerturbationSpec,
    PerturbedCounts,
    Ranking,
    venue_dataset,
    venue_free_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AUTO_EPSILON",
    "BtrankError",
    "ConfigError",
    "ConnerGrant",
    "ConsistencyConfig",
    "ConsistencyReport",
    "CountMatrices",
    "Dataset",
    "DimensionError",
    "EmptyInputError",
    "ExistenceError",
    "FitResult",
    "GameRecord",
    "GameTable",
    "Improved",
    "MapPriorSpec",
    "MatrixShift",
    "Model",
    "ModelSpec",
    "MonotoneRatioReport",
    "NegativeCountError",
    "NonConvergenceError",
    "NonPositiveEpsilonError",
    "Normalization",
    "NoTiesError",
    "Objective",
    "PosteriorObjective",
    "Outcome",
    "ParameterPoint",
    "ParseError",
    "PartitionWitness",
    "PerturbationSpec",
    "PerturbedCounts",
    "Ranking",
    "RatioTrend",
    "SeedEntry",
    "SeedTable",
    "SelfPlayError",
    "ShapeError",
    "SolverConfig",
    "SweepEntry",
    "SweepResult",
    "ThetaDomainError",
    "VenuelessDataError",
    "aggregate",
    "auto_epsilon",
    "check_condition_a",
    "check_condition_b",
    "check_condition_c",
    "datasets",
    "expected_counts_dataset",
    "extract_ranking",
    "fit",
    "fit_map_em",
    "gradient",
    "kendall_distance",
    "log_likelihood",
    "max_relative_error",
    "maximize_concave",
    "merit_table",
    "minimize",
    "monotone_ratio_check",
    "parse_matrix",
    "parse_records",
    "pct_table",
    "perturb",
    "resolve_epsilon",
    "run_consistency",
    "score_ranking",
    "select_seeds",
    "serialize_records",
    "sweep_epsilon",
    "venue_dataset",
    "venue_free_dataset",
    "witness_is_valid",
]
