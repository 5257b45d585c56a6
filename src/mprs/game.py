"""Core model of multi-player reachability/safety (MPRS) games.

A game is played on a finite digraph by players who take turns steering a
shared token: whoever owns the current vertex picks its successor along an
outgoing edge. Every player is either a reacher, who wants the token to
enter their own target set, or an avoider, who wants to keep it out
forever. One step after the token lands on any player's target vertex the
game falls into an absorbing terminal state and nothing further happens.
That state is worth 0 to every player under every profile, so no value
map in this package keeps an entry for it: every payoff is keyed by the
vertex id it is taken from.

`validate_game` checks a raw `GameSpec` and returns the immutable `Game`
handle consumed by every other module; `Game.successors` lists the moves
open to a vertex's owner. `turn_payoff` gives what each visited vertex is
worth to each player.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping


class Role(Enum):
    """Objective of a player: enter the target set, or keep out of it."""

    REACHER = "reacher"
    AVOIDER = "avoider"


@dataclass
class GameSpec:
    """Raw, unchecked description of a game; feed it to `validate_game`.

    Attributes:
        vertices: vertex ids (opaque strings, compared lexicographically).
        edges: directed edges as (source, destination) pairs.
        owner: vertex id to the id of the player who moves there.
        roles: player id (consecutive integers from 1) to objective.
        targets: player id to that player's nonempty target set.
        gamma: discount factor, an exact rational strictly between 0 and 1.
    """

    vertices: Iterable[str]
    edges: Iterable[tuple[str, str]]
    owner: Mapping[str, int]
    roles: Mapping[int, Role]
    targets: Mapping[int, Iterable[str]]
    gamma: Fraction | int | float | str = Fraction(1, 2)


class ViolationKind(Enum):
    BAD_EDGE = "bad_edge"
    DANGLING_EDGE = "dangling_edge"
    UNOWNED_VERTEX = "unowned_vertex"
    UNKNOWN_VERTEX = "unknown_vertex"
    MULTIPLY_OWNED = "multiply_owned"
    UNKNOWN_PLAYER = "unknown_player"
    BAD_PLAYERS = "bad_players"
    BAD_ROLE = "bad_role"
    EMPTY_TARGET_SET = "empty_target_set"
    TARGET_OUTSIDE_GRAPH = "target_outside_graph"
    DEAD_END = "dead_end"
    BAD_GAMMA = "bad_gamma"


@dataclass(frozen=True)
class Violation:
    """One reason a `GameSpec` is not a playable game."""

    kind: ViolationKind
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.detail}"


class InvalidGameError(ValueError):
    """Raised by `validate_game`; carries the complete list of violations."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Game:
    """A validated, immutable game. Build instances via `validate_game`."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    owner: Mapping[str, int]
    roles: Mapping[int, Role]
    targets: Mapping[int, frozenset[str]]
    gamma: Fraction
    players: tuple[int, ...] = field(repr=False)
    total_target: frozenset[str] = field(repr=False)
    choice_vertices: tuple[str, ...] = field(repr=False)
    _succ: Mapping[str, tuple[str, ...]] = field(repr=False)

    def successors(self, v: str) -> tuple[str, ...]:
        """Out-neighbours of `v` in lexicographic order."""
        return self._succ[v]

    @cached_property
    def _core(self):
        # The solvers' int-indexed form (`valuation._Core`), built on first use
        # into the instance dict, where equality, repr and documents miss it.
        from .valuation import _Core

        return _Core(self)


def validate_game(spec: GameSpec) -> Game:
    """Check every game invariant and return the immutable handle.

    All violations are collected before failing, so a rejected spec
    reports everything wrong with it at once.

    Raises:
        InvalidGameError: with the full violation list, if any check fails.
    """
    violations: list[Violation] = []

    vertices = sorted({str(v) for v in spec.vertices})
    vset = frozenset(vertices)

    players = sorted(
        n for n in spec.roles if isinstance(n, int) and not isinstance(n, bool)
    )
    count = len(players)
    if count < len(spec.roles):
        violations.append(
            Violation(
                ViolationKind.BAD_PLAYERS,
                f"player ids must be integers, got {list(spec.roles)}",
            )
        )
    elif count == 0:
        violations.append(
            Violation(ViolationKind.BAD_PLAYERS, "at least one player is required")
        )
    elif players != list(range(1, count + 1)):
        violations.append(
            Violation(
                ViolationKind.BAD_PLAYERS,
                f"player ids must be 1..N, got {players}",
            )
        )
    roles: dict[int, Role] = {}
    for n in players:
        try:
            roles[n] = Role(spec.roles[n])
        except ValueError:
            violations.append(
                Violation(ViolationKind.BAD_ROLE, f"player {n} has unknown role {spec.roles[n]!r}")
            )

    edges = set()
    for edge in spec.edges:
        try:
            u, w = edge
        except (TypeError, ValueError):
            violations.append(
                Violation(ViolationKind.BAD_EDGE, f"edge {edge!r} is not a pair of vertices")
            )
            continue
        u, w = str(u), str(w)
        edges.add((u, w))
        for end in (u, w):
            if end not in vset:
                violations.append(
                    Violation(
                        ViolationKind.DANGLING_EDGE,
                        f"edge ({u}, {w}) mentions undeclared vertex {end!r}",
                    )
                )

    owner: dict[str, int] = {}
    for v, n in spec.owner.items():
        v = str(v)
        if v not in vset:
            violations.append(
                Violation(
                    ViolationKind.UNKNOWN_VERTEX,
                    f"owner map mentions undeclared vertex {v!r}",
                )
            )
            continue
        if n not in spec.roles:
            violations.append(
                Violation(
                    ViolationKind.UNKNOWN_PLAYER,
                    f"vertex {v!r} is owned by undeclared player {n!r}",
                )
            )
            continue
        owner[v] = n
    for v in vertices:
        if v not in owner:
            violations.append(
                Violation(ViolationKind.UNOWNED_VERTEX, f"vertex {v!r} has no owner")
            )

    targets: dict[int, frozenset[str]] = {}
    for n in spec.targets:
        if n not in spec.roles:
            violations.append(
                Violation(
                    ViolationKind.UNKNOWN_PLAYER,
                    f"target set declared for undeclared player {n!r}",
                )
            )
    for n in players:
        tset = frozenset(str(v) for v in spec.targets.get(n, ()))
        for v in sorted(tset - vset):
            violations.append(
                Violation(
                    ViolationKind.TARGET_OUTSIDE_GRAPH,
                    f"target vertex {v!r} of player {n} is not in the graph",
                )
            )
        if not tset:
            violations.append(
                Violation(
                    ViolationKind.EMPTY_TARGET_SET,
                    f"player {n} has an empty target set",
                )
            )
        targets[n] = tset & vset

    total_target = frozenset().union(*targets.values()) if targets else frozenset()

    succ: dict[str, list[str]] = {v: [] for v in vertices}
    for u, w in edges:
        if u in vset and w in vset:
            succ[u].append(w)
    for v in vertices:
        if v not in total_target and not succ[v]:
            violations.append(
                Violation(
                    ViolationKind.DEAD_END,
                    f"non-target vertex {v!r} has no outgoing edge",
                )
            )

    try:
        gamma = Fraction(spec.gamma)
    except (ValueError, TypeError, ZeroDivisionError):
        gamma = None
    if gamma is None or not (0 < gamma < 1):
        violations.append(
            Violation(
                ViolationKind.BAD_GAMMA,
                f"discount factor must be a rational strictly between 0 and 1,"
                f" got {spec.gamma!r}",
            )
        )
        gamma = Fraction(1, 2)

    if violations:
        raise InvalidGameError(sorted(violations, key=lambda x: (x.kind.value, x.detail)))

    return Game(
        vertices=tuple(vertices),
        edges=tuple(sorted(edges)),
        owner=owner,
        roles=roles,
        targets=targets,
        gamma=gamma,
        players=tuple(players),
        total_target=total_target,
        choice_vertices=tuple(v for v in vertices if v not in total_target),
        _succ={v: tuple(sorted(ws)) for v, ws in succ.items()},
    )


def turn_payoff(game: Game, n: int, v: str) -> int:
    """Per-turn reward of player `n` for the token visiting vertex `v`.

    Reachers collect +1 on their own target vertices, avoiders collect -1
    there; every other vertex is worth 0, and so is the terminal state.
    """
    if v not in game.targets[n]:
        return 0
    return 1 if game.roles[n] is Role.REACHER else -1
