"""Exact computation toolkit for weighted voting games: probabilistic
Penrose-Banzhaf indices, control by deleting players, and hardness-gadget
compilation with structural verification."""

from .bands import (
    BandSystem,
    BlockKind,
    DeletionCounter,
    Decomposition,
    LightBlock,
    count_block,
    decompose_target,
    pivot_count_layered,
)
from .control import (
    EvaluationResult,
    Exhaustive,
    Restricted,
    Sampled,
    SearchReport,
    banzhaf,
    evaluate_deletion,
    solve_control,
)
from .engines import DEFAULT_BUDGET, EngineBudget, pivot_count_enum, pivot_count_mitm, pivot_count_weight_dp
from .errors import (
    BandStructureError,
    BudgetExceededError,
    FileFormatError,
    FormulaError,
    GadgetParameterError,
    InputError,
    InvalidCoalitionError,
    WvgError,
)
from .formulas import CnfFormula, count_sat, count_subset_sum, e_exact_sat, e_minority_sat, parse_dimacs
from .game import (
    Coalition,
    ExactIndex,
    Game,
    WeightClassPartition,
    characteristic,
    delete_players,
    is_pivotal,
    weight_class_partition,
)
from .gadgets import (
    CaseCounts,
    ControlInstance,
    DeltaDecomposition,
    Goal,
    PrereductionWeights,
    build_decrease,
    build_maintain,
    build_nonincrease,
    build_prereduction,
    exactify,
    expected_case_counts,
    expected_index,
    layered_case_counts,
    witness_deletion,
)
from .serialize import dump_game, dump_instance, load_game, load_instance

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
