"""Proxy-based evolutionary cell search toolkit.

Core pieces: cell-DAG genotypes (:mod:`econas.genotype`), reduced-setting
modeling (:mod:`econas.proxy`), rank-consistency metrics
(:mod:`econas.metrics`), the hierarchical-proxy search engine
(:mod:`econas.search`), a deterministic synthetic evaluator
(:mod:`econas.surrogate`), and the CLI / wire-protocol harness
(:mod:`econas.harness`, :mod:`econas.bridge`, :mod:`econas.cli`).
"""

from .genotype import (
    BUILTIN_OP_SETS,
    CellSpec,
    Genotype,
    GenotypeError,
    InputRef,
    NetworkConfig,
    NodeSpec,
    NoAlternativeError,
    OperationKind,
    OperationSet,
    OutputRule,
    ParseError,
    SEARCH8,
    ZOO13,
    decode,
    encode,
    mutate,
    random_cell,
    random_genotype,
)
from .proxy import (
    BUILTIN_TABLES,
    CIFAR10_TABLE,
    GROUND_TRUTH_EPOCHS,
    IMAGENET_TABLE,
    ReducedSetting,
    ReductionTable,
    SettingError,
    derive_level,
    flops_estimate,
    format_label,
    load_table,
    nominal_speedup,
    parse_label,
)
from .metrics import (
    ConsistencyRow,
    MetricError,
    RankVector,
    Recommendation,
    entropy,
    fractional_ranks,
    hard_rank_error,
    recommend_settings,
    retained_top,
    rho_f_subsample,
    spearman,
    spearman_accuracies,
    spearman_values,
    tolerant_spearman,
)
from .documents import UserError
from .records import EvaluationRecord, LogError, read_log, write_log
from .evaluator import EvalResult, Evaluator, EvaluatorFailure, ContractViolation
from .search import (
    BudgetLedger,
    Candidate,
    EcoNasConfig,
    FlatConfig,
    HistoryEntry,
    SearchEngine,
    SearchError,
    SearchResult,
    econas_search,
    flat_baseline_search,
    remove_dead,
    sample_parent,
)
from .surrogate import (
    SurrogateEvaluator,
    SurrogateParams,
    ToySpace,
    enumerate_space,
    space_size,
    surrogate_evaluate,
    true_quality,
)

__version__ = "0.1.0"
