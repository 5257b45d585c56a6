"""Classic two-player and single-role games as instances of the general model.

`TwoPlayerArena` captures the usual board of a two-player reachability or
safety game: a digraph, a partition of the vertices between the two
players (named after their roles in the reachability reading), and one
common target set. `make_reachability` and `make_safety` turn an arena
into validated games. The all-avoider (stay-in-a-set) and all-reacher
(reach-a-set) variants need no helper: they are `GameSpec`s whose roles
are all `Role.AVOIDER` or all `Role.REACHER`.

`attractor` computes, by the standard worklist fixpoint, the vertices from
which the controller of the reacher-owned set can force the token into the
target. `cross_check_two_player` replays the same question through the
equilibrium machinery and reports any disagreement, which would signal an
implementation bug in one of the two routes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from .equilibrium import enumerate_ne
from .game import (
    Game,
    GameSpec,
    InvalidGameError,
    Role,
    Violation,
    ViolationKind,
    _vertex_ids,
    validate_game,
)
from .valuation import Profile, value_table

__all__ = [
    "CrossCheckReport",
    "Mismatch",
    "TwoPlayerArena",
    "attractor",
    "cross_check_two_player",
    "make_reachability",
    "make_safety",
]


@dataclass(frozen=True)
class TwoPlayerArena:
    """Board of a two-player game with one shared target set.

    The partition names say who controls what in the reachability reading;
    `make_safety` keeps the same control and swaps the objectives. Vertex
    ids are stored as strings, as `validate_game` reads them, and what it
    refuses as a vertex set or an edge list is an `InvalidGameError` here.
    """

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]
    reacher_owned: frozenset[str]
    avoider_owned: frozenset[str]
    target: frozenset[str]

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]],
        reacher_owned: Iterable[str],
        avoider_owned: Iterable[str],
        target: Iterable[str],
    ):
        pairs, problems = set(), []
        if not isinstance(edges, Iterable):
            detail = f"the edge list must be a collection of pairs, got {edges!r}"
            problems.append(Violation(ViolationKind.BAD_EDGE, detail))
            edges = ()
        for edge in edges:
            try:
                u, w = edge
            except (TypeError, ValueError):
                problems.append(
                    Violation(ViolationKind.BAD_EDGE, f"edge {edge!r} is not a pair of vertices")
                )
                continue
            pairs.add((str(u), str(w)))
        object.__setattr__(self, "edges", frozenset(pairs))
        names = ("vertices", "reacher_owned", "avoider_owned", "target")
        for name, raw in zip(names, (vertices, reacher_owned, avoider_owned, target)):
            ids = _vertex_ids(raw, f"the arena's {name}", problems) or ()
            object.__setattr__(self, name, frozenset(ids))
        if problems:
            raise InvalidGameError(problems)


def _check_arena(arena: object) -> None:
    """The one check of the arena that every public function taking one makes."""
    if not isinstance(arena, TwoPlayerArena):
        raise TypeError(f"expected a TwoPlayerArena, got {type(arena).__name__}")


def _two_player(arena: TwoPlayerArena, first: Role, second: Role) -> Game:
    _check_arena(arena)
    overlap = arena.reacher_owned & arena.avoider_owned
    if overlap:
        raise InvalidGameError(
            [
                Violation(
                    ViolationKind.MULTIPLY_OWNED,
                    f"vertex {v!r} appears on both sides of the partition",
                )
                for v in sorted(overlap)
            ]
        )
    owner = {v: 1 for v in arena.reacher_owned}
    owner.update({v: 2 for v in arena.avoider_owned})
    return validate_game(
        GameSpec(
            vertices=arena.vertices,
            edges=arena.edges,
            owner=owner,
            roles={1: first, 2: second},
            targets={1: arena.target, 2: arena.target},
        )
    )


def make_reachability(arena: TwoPlayerArena) -> Game:
    """Two-player game: player 1 reaches, player 2 avoids, shared target."""
    return _two_player(arena, Role.REACHER, Role.AVOIDER)


def make_safety(arena: TwoPlayerArena) -> Game:
    """The same board with the objectives interchanged: player 1 avoids."""
    return _two_player(arena, Role.AVOIDER, Role.REACHER)


def attractor(arena: TwoPlayerArena) -> frozenset[str]:
    """Vertices from which the reacher side forces the token into the target.

    Least set containing the target and closed under two rules: a
    reacher-owned vertex joins when some successor is in, an avoider-owned
    vertex joins when all of its successors are in. Computed by a worklist
    fixpoint over predecessors with out-degree counting.

    Raises:
        InvalidGameError: when an edge or a target vertex lies outside the
            arena's vertex set.
    """
    _check_arena(arena)
    problems = [
        Violation(
            ViolationKind.DANGLING_EDGE, f"edge ({u}, {w}) mentions undeclared vertex {end!r}"
        )
        for u, w in sorted(arena.edges)
        for end in (u, w)
        if end not in arena.vertices
    ]
    problems += [
        Violation(ViolationKind.TARGET_OUTSIDE_GRAPH, f"target vertex {v!r} is not in the graph")
        for v in sorted(arena.target - arena.vertices)
    ]
    if problems:
        raise InvalidGameError(problems)
    pred: dict[str, list[str]] = {v: [] for v in arena.vertices}
    outdeg: dict[str, int] = {v: 0 for v in arena.vertices}
    for u, w in sorted(arena.edges):
        pred[w].append(u)
        outdeg[u] += 1

    inside = set(arena.target)
    remaining = dict(outdeg)
    queue = deque(sorted(inside))
    while queue:
        w = queue.popleft()
        for v in pred[w]:
            if v in inside:
                continue
            if v in arena.reacher_owned:
                inside.add(v)
                queue.append(v)
            else:
                remaining[v] -= 1
                if remaining[v] == 0:
                    inside.add(v)
                    queue.append(v)
    return frozenset(inside)


@dataclass(frozen=True)
class Mismatch:
    profile: Profile
    vertex: str
    reacher_wins: bool
    in_attractor: bool


@dataclass(frozen=True)
class CrossCheckReport:
    ok: bool
    attractor: frozenset[str]
    equilibria: tuple[Profile, ...]
    mismatches: tuple[Mismatch, ...]


def cross_check_two_player(arena: TwoPlayerArena, guard: int | None = None) -> CrossCheckReport:
    """Compare the attractor against equilibrium outcomes on the same arena.

    Builds the reachability game, enumerates its equilibria, and demands
    that under every one of them player 1 wins from a vertex exactly when
    that vertex lies in the attractor. Any mismatch signals a bug in one
    of the two computations, never a property of the instance.
    """
    game = make_reachability(arena)
    region = attractor(arena)
    equilibria = tuple(enumerate_ne(game, guard=guard))
    mismatches = []
    for profile in equilibria:
        table = value_table(game, profile)[1]
        for v in game.vertices:
            wins = table[v].sign == 1
            if wins != (v in region):
                mismatches.append(Mismatch(profile, v, wins, v in region))
    return CrossCheckReport(not mismatches, region, equilibria, tuple(mismatches))
