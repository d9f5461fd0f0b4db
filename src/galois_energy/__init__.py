"""Energy games over vectors of extended naturals.

Solves the known and unknown initial credit problems by computing, per
position, the Pareto front of minimal attacker winning budgets.
"""

from .errors import (
    DimensionMismatch,
    GameFileError,
    InvalidGameError,
    IterationCapExceeded,
    MagnitudeOverflow,
    OracleCapacityError,
    StrategyError,
)
from .game import (
    AuxiliaryInsertion,
    Edge,
    GameGraph,
    Owner,
    Position,
    Verdict,
    energy_level,
    split_parallel_edges,
    winner_of_finite_play,
)
from .instances import (
    MultiReachabilityGame,
    Vass,
    WeightedGraph,
    add_generalized_reachability,
    add_weak_upper_bound,
    from_multi_reachability,
    from_shortest_path,
    from_vass_coverability,
    generalized_query_energy,
)
from .lattice import INF, Energy, ParetoFront, leq, sup2
from .oracle import OracleVerdict, attractor_decide, stable_decide, stable_decide_many
from .solver import (
    AttackerStrategy,
    SolverResult,
    compute_new_win,
    compute_winning_budgets,
    extract_strategy,
    iterate_once,
    known_initial_credit,
    unknown_initial_credit,
)
from .updates import Add, MinOf, Mul, Update, UpdateAtom

__all__ = [
    "INF",
    "Add",
    "AttackerStrategy",
    "AuxiliaryInsertion",
    "DimensionMismatch",
    "Edge",
    "Energy",
    "GameFileError",
    "GameGraph",
    "InvalidGameError",
    "IterationCapExceeded",
    "MagnitudeOverflow",
    "MinOf",
    "Mul",
    "MultiReachabilityGame",
    "OracleCapacityError",
    "OracleVerdict",
    "Owner",
    "ParetoFront",
    "Position",
    "SolverResult",
    "StrategyError",
    "Update",
    "UpdateAtom",
    "Vass",
    "Verdict",
    "WeightedGraph",
    "add_generalized_reachability",
    "add_weak_upper_bound",
    "attractor_decide",
    "compute_new_win",
    "compute_winning_budgets",
    "energy_level",
    "extract_strategy",
    "from_multi_reachability",
    "from_shortest_path",
    "from_vass_coverability",
    "generalized_query_energy",
    "iterate_once",
    "known_initial_credit",
    "leq",
    "split_parallel_edges",
    "stable_decide",
    "stable_decide_many",
    "sup2",
    "unknown_initial_credit",
    "winner_of_finite_play",
]

__version__ = "0.1.0"
