"""Exact solver for multi-player reachability/safety games on digraphs.

Players steer a shared token through a finite graph, each trying to reach
or to avoid their own target set, and payoffs discount the first hitting
time. This package models such games, computes their deterministic
memoryless Nash equilibria exactly, and verifies them along two
independent routes (deviation search and local value-table optimality).
"""

from .classic import (
    CrossCheckReport,
    Mismatch,
    TwoPlayerArena,
    attractor,
    cross_check_two_player,
    make_reachability,
    make_safety,
)
from .equilibrium import (
    Deviation,
    NEReport,
    all_profiles,
    check_certificate,
    enumerate_ne,
    is_nash,
    is_nash_qualitative,
    profile_space,
    solve_br_dynamics,
)
from .game import (
    Game,
    GameSpec,
    InvalidGameError,
    Role,
    Violation,
    ViolationKind,
    turn_payoff,
    validate_game,
)
from .gamefile import (
    GameDocument,
    ParseError,
    emit_game,
    export_dot,
    parse_document,
    profile_to_json,
)
from .generator import GeneratorParams, InfeasibleError, random_game
from .limits import DEFAULT_ENUM_GUARD, ENUM_GUARD_ENV, TooLargeError
from .valuation import (
    NEVER,
    ZERO,
    Outcome,
    PayoffValue,
    Play,
    Profile,
    ProfileError,
    Strategy,
    best_response,
    best_response_enum,
    check_profile,
    outcome,
    play,
    qualitative_payoff,
    total_payoff,
    value_table,
)

__version__ = "0.1.0"

__all__ = [
    "CrossCheckReport",
    "DEFAULT_ENUM_GUARD",
    "Deviation",
    "ENUM_GUARD_ENV",
    "Game",
    "GameDocument",
    "GameSpec",
    "GeneratorParams",
    "InfeasibleError",
    "InvalidGameError",
    "Mismatch",
    "NEReport",
    "NEVER",
    "Outcome",
    "ParseError",
    "PayoffValue",
    "Play",
    "Profile",
    "ProfileError",
    "Role",
    "Strategy",
    "TooLargeError",
    "TwoPlayerArena",
    "Violation",
    "ViolationKind",
    "all_profiles",
    "attractor",
    "best_response",
    "best_response_enum",
    "check_certificate",
    "check_profile",
    "cross_check_two_player",
    "emit_game",
    "enumerate_ne",
    "export_dot",
    "is_nash",
    "is_nash_qualitative",
    "make_reachability",
    "make_safety",
    "outcome",
    "parse_document",
    "play",
    "profile_space",
    "profile_to_json",
    "qualitative_payoff",
    "random_game",
    "solve_br_dynamics",
    "total_payoff",
    "turn_payoff",
    "validate_game",
    "value_table",
]
