"""didlab: a simulation laboratory for two-period difference-in-differences
under forward-looking treatment choice.

The package is organized bottom-up:

- core: shared value types (potential outcomes, joints, panels, cell tables)
  and scenario validation.
- scenarios: seven behavioral designs mapping latent states to treatment
  paths, each with an exact joint-distribution builder and a panel sampler.
- oracle: exact population quantities computed from a joint (cell tables,
  parallel-trends deviation, the true switcher ATT) and per-scenario
  condition checks that predict whether parallel trends holds.
- diagnostics: the same checks computed from simulated panels, the dual
  trend-route and level-route decompositions of partial parallel trends,
  and the trend-accounting identity for the entering cell.
- estimators: DiD and stationarity point estimators plus monotone-selection
  bounds, all formulas over one table of observed cell moments built from
  either an exact joint or a sampled panel.
- harness: experiment configs, replication loops, summary/CSV outputs.
- corpus: shipped scenario configs and seeded config randomizers.
"""

from .core import (
    BoundsInterval,
    CellStats,
    CellTable,
    CostTable,
    JointDistribution,
    LatentState,
    Panel,
    PotentialOutcomes,
    TreatmentPair,
    ValidationReport,
    Violation,
    validate_scenario,
)
from .corpus import (
    random_config,
    random_control_learning,
    random_known_means,
    random_learner_bounds,
    random_roy,
    random_selection_on_past,
    random_stopping,
    random_treated_learning,
    seed_corpus,
    shipped_config,
    shipped_names,
    shipped_text,
)
from .diagnostics import (
    PartialPtReport,
    SelectionStationarityReport,
    TrendDecomposition,
    empirical_cell_table,
    observable_pt_probe,
    partial_pt,
    selection_stationarity,
    trend_decomposition,
)
from .errors import LabError
from .estimators import (
    ALL_ESTIMATORS,
    EstimateReport,
    ObservedCells,
    att_forward_stationary,
    att_stationary,
    did_sharp,
    did_switchers,
    mts_bounds,
    run_estimator,
)
from .harness import (
    ExperimentConfig,
    SummaryReport,
    parse_config,
    run_experiment,
    write_outputs,
)
from .oracle import (
    ConditionReport,
    LearnerClassification,
    cell_table,
    check_conditions,
    classify_learners,
    conditional_mean,
    pt_deviation,
    stopping_residual,
    true_att_switchers,
)
from .scenarios import (
    ControlArmLearning,
    ControlLearningType,
    DecisionTrace,
    NoLearning,
    NoLearningType,
    OptimalStopping,
    PastOutcomeSelection,
    RoyIrreversible,
    RoyRepeated,
    StoppingType,
    TreatedArmLearning,
    TreatedLearningType,
    build_joint,
    decide,
    draw_panel,
    scenario_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LabError",
    # core
    "BoundsInterval",
    "CellStats",
    "CellTable",
    "CostTable",
    "JointDistribution",
    "LatentState",
    "Panel",
    "PotentialOutcomes",
    "TreatmentPair",
    "ValidationReport",
    "Violation",
    "validate_scenario",
    # scenarios
    "ControlArmLearning",
    "ControlLearningType",
    "DecisionTrace",
    "NoLearning",
    "NoLearningType",
    "OptimalStopping",
    "PastOutcomeSelection",
    "RoyIrreversible",
    "RoyRepeated",
    "StoppingType",
    "TreatedArmLearning",
    "TreatedLearningType",
    "build_joint",
    "decide",
    "draw_panel",
    "scenario_from_json",
    # oracle
    "ConditionReport",
    "LearnerClassification",
    "cell_table",
    "check_conditions",
    "classify_learners",
    "conditional_mean",
    "pt_deviation",
    "stopping_residual",
    "true_att_switchers",
    # diagnostics
    "PartialPtReport",
    "SelectionStationarityReport",
    "TrendDecomposition",
    "empirical_cell_table",
    "observable_pt_probe",
    "partial_pt",
    "selection_stationarity",
    "trend_decomposition",
    # estimators
    "ALL_ESTIMATORS",
    "EstimateReport",
    "ObservedCells",
    "att_forward_stationary",
    "att_stationary",
    "did_sharp",
    "did_switchers",
    "mts_bounds",
    "run_estimator",
    # harness
    "ExperimentConfig",
    "SummaryReport",
    "parse_config",
    "run_experiment",
    "write_outputs",
    # corpus
    "random_config",
    "random_control_learning",
    "random_known_means",
    "random_learner_bounds",
    "random_roy",
    "random_selection_on_past",
    "random_stopping",
    "random_treated_learning",
    "seed_corpus",
    "shipped_config",
    "shipped_names",
    "shipped_text",
]
