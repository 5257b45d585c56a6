"""Seeded random game instances, for tests and the `gen` command.

Generation is a pure function of the parameters: the same seed always
yields the same game. Edge sets are resampled wholesale until no
non-target vertex is left without an outgoing edge, so every generated
game passes validation.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from fractions import Fraction

from .game import Game, GameSpec, Role, validate_game
from .limits import _is_int

__all__ = ["GeneratorParams", "InfeasibleError", "random_game"]

_MAX_RESAMPLES = 10_000


class InfeasibleError(ValueError):
    """The parameters cannot produce a valid game."""


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for `random_game`.

    `roles` fixes each player's objective in id order; leaving it None
    draws a role per player from the seed. `edge_density` is the
    probability of each ordered vertex pair (self-loops included) being an
    edge.
    """

    num_players: int
    num_vertices: int
    edge_density: float = 0.5
    roles: tuple[Role, ...] | None = None
    targets_per_player: int = 1
    seed: int = 0
    gamma: Fraction = Fraction(1, 2)


def random_game(params: GeneratorParams) -> Game:
    """Draw a validated game from `params`, deterministically in the seed.

    Raises:
        InfeasibleError: when the parameters are out of range, or when no
            dead-end-free edge set turns up after many resamples (only
            plausible at extreme densities).
    """
    for name in ("num_players", "num_vertices", "targets_per_player"):
        count = getattr(params, name)
        if not _is_int(count):
            raise InfeasibleError(f"{name} must be an int, got {count!r}")
    density = params.edge_density
    if isinstance(density, bool) or not isinstance(density, numbers.Real):
        raise InfeasibleError(f"edge_density must be a real number, got {density!r}")
    if params.num_players < 1:
        raise InfeasibleError("need at least one player")
    if params.num_vertices < 1:
        raise InfeasibleError("need at least one vertex")
    if not 0 < params.edge_density <= 1:
        raise InfeasibleError("edge density must be in (0, 1]")
    if not 1 <= params.targets_per_player <= params.num_vertices:
        raise InfeasibleError("targets per player must fit in the vertex count")
    if params.roles is not None and len(params.roles) != params.num_players:
        raise InfeasibleError("one role per player when roles are fixed")

    rng = random.Random(params.seed)
    width = len(str(params.num_vertices))
    names = [f"v{i:0{width}d}" for i in range(1, params.num_vertices + 1)]
    players = range(1, params.num_players + 1)

    owner = {v: rng.randint(1, params.num_players) for v in names}
    if params.roles is not None:
        roles = {n: params.roles[n - 1] for n in players}
    else:
        roles = {n: rng.choice((Role.REACHER, Role.AVOIDER)) for n in players}
    targets = {n: tuple(rng.sample(names, params.targets_per_player)) for n in players}
    union_target = {v for tset in targets.values() for v in tset}

    for _ in range(_MAX_RESAMPLES):
        edges = [
            (u, w) for u in names for w in names if rng.random() < params.edge_density
        ]
        sources = {u for u, _ in edges}
        if all(v in sources or v in union_target for v in names):
            return validate_game(
                GameSpec(names, edges, owner, roles, targets, params.gamma)
            )
    raise InfeasibleError(
        f"no dead-end-free edge set found after {_MAX_RESAMPLES} resamples"
    )
