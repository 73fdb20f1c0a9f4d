"""Workbench for a two-player, one-round, two-action sealed-bid poker game.

Exact expected payoffs, best responses and exploitability, a certified
binned equilibrium search, and seeded Monte Carlo / exact finite-deck
verification.
"""

from .analytic import (
    ConditionalEV,
    EquilibriumPoint,
    PayoffValue,
    PiecewiseLinear,
    closed_form_equilibrium,
    conditional_evs,
    expected_payoff,
    indifference_bluff,
    indifference_threshold,
    taxonomy_table,
)
from .engine import (
    BetAction,
    Card,
    ConfigError,
    GameConfig,
    Settlement,
    settle,
    validate_config,
)
from .montecarlo import (
    ExactDiscreteValue,
    MCEstimate,
    brute_force_discrete,
    convergence_report,
    simulate,
)
from .solver import (
    BestResponse,
    EquilibriumResult,
    RatioSweepRow,
    best_response,
    exploitability,
    fictitious_play,
    ratio_sweep,
)
from .strategy import (
    Strategy,
    StrategyError,
    a_type,
    b_type,
    m_deterministic,
    refine,
    threshold_mix,
)

__all__ = [
    "BetAction",
    "BestResponse",
    "Card",
    "ConditionalEV",
    "ConfigError",
    "EquilibriumPoint",
    "EquilibriumResult",
    "ExactDiscreteValue",
    "GameConfig",
    "MCEstimate",
    "PayoffValue",
    "PiecewiseLinear",
    "RatioSweepRow",
    "Settlement",
    "Strategy",
    "StrategyError",
    "a_type",
    "b_type",
    "best_response",
    "brute_force_discrete",
    "closed_form_equilibrium",
    "conditional_evs",
    "convergence_report",
    "expected_payoff",
    "exploitability",
    "fictitious_play",
    "indifference_bluff",
    "indifference_threshold",
    "m_deterministic",
    "ratio_sweep",
    "refine",
    "settle",
    "simulate",
    "taxonomy_table",
    "threshold_mix",
    "validate_config",
]
