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
open to a vertex's owner. `turn_payoff`, the one home of the role-to-sign
rule, gives what each visited vertex is worth to each player.

Validation's one loop over the edges builds the game's one int adjacency:
vertex i is the i-th id in lexicographic order and keeps the sorted
indices of its successors, sorted only where the input order needs it.
From that adjacency and the vertex index it builds the solvers' int form
(`valuation._Core`), which every `Game` carries. Whole-map tests settle a
well-formed owner map; the per-entry loop runs only to name a fault.
"""

from __future__ import annotations

import gc
import itertools
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, wraps
from typing import Any

from .limits import _is_int

__all__ = [
    "Game",
    "GameSpec",
    "InvalidGameError",
    "Role",
    "Violation",
    "ViolationKind",
    "turn_payoff",
    "validate_game",
]


def _gc_paused(build: Callable) -> Callable:
    """Run `build` with CPython's cyclic GC paused, then restore the caller's
    setting. Building a game makes many fresh containers and no reference
    cycle, so rescanning them mid-build would find nothing; the survivors
    are scanned once, after the pause. Nested pauses are safe."""

    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


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

    # Called with the edge list at each edge that is not a pair of str: a
    # document's spec raises there, and any other spec reads on.
    _malformed = staticmethod(lambda edges: None)

    def _edges_read(self) -> None:
        """Called once validation's edge loop has read `edges`: a document's
        spec lets go of its list there, and a caller's spec keeps it."""


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
    BAD_VERTEX_SET = "bad_vertex_set"


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


@dataclass(frozen=True, repr=False)
class Game:
    """A validated, immutable game. Build instances via `validate_game`."""

    vertices: tuple[str, ...]
    owner: Mapping[str, int]
    roles: Mapping[int, Role]
    targets: Mapping[int, frozenset[str]]
    gamma: Fraction
    players: tuple[int, ...]
    total_target: frozenset[str]
    choice_vertices: tuple[str, ...]
    # The int adjacency: vertex i is ``vertices[i]`` and `_isucc[i]` holds
    # the successors' indices in increasing order. Equality compares it, as
    # it carries the edges, and misses `_core`, which `validate_game` sets.
    _isucc: tuple[tuple[int, ...], ...]
    _core: Any = field(init=False, compare=False)

    def successors(self, v: str) -> tuple[str, ...]:
        """Out-neighbours of `v` in lexicographic order; an unknown `v` is a ValueError."""
        if not isinstance(v, str) or v not in self.owner:
            raise ValueError(f"unknown vertex {v!r}")
        return tuple(map(self.vertices.__getitem__, self._isucc[self._core.index[v]]))

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every edge (u, w), sorted by u and then by w."""
        return tuple((u, self.vertices[w]) for u, ws in zip(self.vertices, self._isucc) for w in ws)

    def __repr__(self) -> str:
        return (
            f"Game(vertices={self.vertices!r}, edges={self.edges!r}, owner={self.owner!r},"
            f" roles={self.roles!r}, targets={self.targets!r}, gamma={self.gamma!r})"
        )


def _discount(raw: object) -> Fraction | None:
    """`raw` as an exact rational strictly between 0 and 1, or None."""
    try:
        gamma = Fraction(raw)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        return None
    return gamma if 0 < gamma < 1 else None


def _unencodable(ids: list[str]) -> str | None:
    """The first of `ids` that no UTF-8 output can hold, or None. Python
    and JSON strings may spell a lone surrogate half, such as "\\ud800"."""
    try:
        "".join(ids).encode("utf-8")
    except UnicodeEncodeError:
        return next(v for v in ids if v != v.encode("utf-8", "ignore").decode("utf-8"))
    return None


def _vertex_ids(raw: Iterable[str], what: str, violations: list[Violation]) -> list[str] | None:
    # A bare string would be read one character at a time, so it is refused.
    if not isinstance(raw, str):
        try:
            ids = list(map(str, raw))
        except TypeError:
            pass
        else:
            vid = _unencodable(ids)
            if vid is not None:
                detail = f"vertex id in {what} must be Unicode text, got {vid!r}"
                violations.append(Violation(ViolationKind.BAD_VERTEX_SET, detail))
            return ids
    detail = f"{what} must be a collection of vertex ids, got {raw!r}"
    violations.append(Violation(ViolationKind.BAD_VERTEX_SET, detail))
    return None


@_gc_paused
def validate_game(spec: GameSpec) -> Game:
    """Check every game invariant and return the immutable handle.

    All violations are collected before failing, so a rejected spec
    reports everything wrong with it at once.

    Raises:
        InvalidGameError: with the full violation list, if any check fails.
        TypeError: when `spec` is no `GameSpec`.
    """
    if not isinstance(spec, GameSpec):
        raise TypeError(f"expected a GameSpec, got {type(spec).__name__}")
    violations: list[Violation] = []

    def bad(kind: ViolationKind, detail: str) -> None:
        violations.append(Violation(kind, detail))

    # Sorted before deduplicated: a sort is linear on ids that come in order.
    vertices = sorted(_vertex_ids(spec.vertices, "the vertex list", violations) or ())
    vset = frozenset(vertices)
    if len(vset) < len(vertices):
        vertices = sorted(vset)
    index = dict(zip(vertices, range(len(vertices))))

    # An unusable role map, edge list, owner map or target map is reported,
    # then read as empty.
    role_map, edges, owners, target_sets = spec.roles, spec.edges, spec.owner, spec.targets
    if not isinstance(role_map, Mapping):
        bad(ViolationKind.BAD_PLAYERS, f"the role map must be a mapping, got {role_map!r}")
        role_map = {}
    if not isinstance(edges, Iterable):
        bad(ViolationKind.BAD_EDGE, f"the edge list must be a collection of pairs, got {edges!r}")
        edges = ()
    if not isinstance(owners, Mapping):
        bad(ViolationKind.BAD_VERTEX_SET, f"the owner map must be a mapping, got {owners!r}")
        owners = {}
    if not isinstance(target_sets, Mapping):
        bad(ViolationKind.BAD_VERTEX_SET, f"the target sets must be a mapping, got {target_sets!r}")
        target_sets = {}

    players = sorted(filter(_is_int, role_map))
    count = len(players)
    if count < len(role_map):
        bad(ViolationKind.BAD_PLAYERS, f"player ids must be integers, got {list(role_map)}")
    elif count == 0:
        bad(ViolationKind.BAD_PLAYERS, "at least one player is required")
    elif players != list(range(1, count + 1)):
        bad(ViolationKind.BAD_PLAYERS, f"player ids must be 1..N, got {players}")
    roles: dict[int, Role] = {}
    for n in players:
        try:
            roles[n] = Role(role_map[n])
        except ValueError:
            bad(ViolationKind.BAD_ROLE, f"player {n} has unknown role {role_map[n]!r}")

    # The int adjacency: out[i] lists vertex i's successor indices in input
    # order. A list whose indices do not arrive strictly increasing, through
    # a repeat or an out-of-order edge, is marked and repaired afterwards.
    out: list[list[int]] = [[] for _ in vertices]
    unsorted = set()
    for edge in edges:
        try:
            u, w = edge
        except (TypeError, ValueError):
            spec._malformed(edges)
            bad(ViolationKind.BAD_EDGE, f"edge {edge!r} is not a pair of vertices")
            continue
        if type(u) is not str or type(w) is not str:
            spec._malformed(edges)
            u, w = str(u), str(w)
        try:
            i, j = index[u], index[w]
        except KeyError:
            for end in (u, w):
                if end not in vset:
                    bad(
                        ViolationKind.DANGLING_EDGE,
                        f"edge ({u}, {w}) mentions undeclared vertex {end!r}",
                    )
            continue
        ws = out[i]
        if ws and ws[-1] >= j:
            unsorted.add(i)
        ws.append(j)
    for i in unsorted:
        out[i] = sorted(set(out[i]))
    isucc = tuple(map(tuple, out))
    del out, edges  # let go before the solvers' core is built
    spec._edges_read()

    # Whole-map tests settle a well-formed map; the loop names each fault.
    owner: dict[str, int] = {}
    kinds = set(map(type, owners.values()))
    if (
        set(map(type, owners)) <= {str}
        and owners.keys() == vset
        and all(issubclass(k, int) and k is not bool for k in kinds)
        and set(owners.values()) <= role_map.keys()
    ):
        owner = dict(owners)
    else:
        for v, n in owners.items():
            v = str(v)
            if v not in vset:
                bad(ViolationKind.UNKNOWN_VERTEX, f"owner map mentions undeclared vertex {v!r}")
                continue
            if not (_is_int(n) and n in role_map):
                detail = f"vertex {v!r} is owned by undeclared player {n!r}"
                bad(ViolationKind.UNKNOWN_PLAYER, detail)
                continue
            # Two keys may spell one vertex id, such as 1 and "1".
            if owner.setdefault(v, n) != n:
                detail = f"vertex {v!r} is owned by players {owner[v]} and {n}"
                bad(ViolationKind.MULTIPLY_OWNED, detail)
        for v in vset.difference(owner):
            bad(ViolationKind.UNOWNED_VERTEX, f"vertex {v!r} has no owner")

    targets: dict[int, frozenset[str]] = {}
    declared = set(players)
    for n in target_sets:
        # `True` or `1.0` is no player id; a bad role key is reported above.
        if n not in role_map or _is_int(n) != (n in declared):
            bad(ViolationKind.UNKNOWN_PLAYER, f"target set declared for undeclared player {n!r}")
    for n in players:
        tset = _vertex_ids(target_sets.get(n, ()), f"target set of player {n}", violations)
        if tset is None:
            continue
        for v in sorted(set(tset).difference(vset)):
            bad(
                ViolationKind.TARGET_OUTSIDE_GRAPH,
                f"target vertex {v!r} of player {n} is not in the graph",
            )
        if not tset:
            bad(ViolationKind.EMPTY_TARGET_SET, f"player {n} has an empty target set")
        targets[n] = vset.intersection(tset)

    total_target = frozenset().union(*targets.values()) if targets else frozenset()
    for v, ws in zip(vertices, isucc):
        if not ws and v not in total_target:
            bad(ViolationKind.DEAD_END, f"non-target vertex {v!r} has no outgoing edge")

    gamma = _discount(spec.gamma)
    if gamma is None:
        bad(
            ViolationKind.BAD_GAMMA,
            f"discount factor must be a rational strictly between 0 and 1, got {spec.gamma!r}",
        )

    if violations:
        raise InvalidGameError(sorted(violations, key=lambda x: (x.kind.value, x.detail)))

    game = Game(
        vertices=tuple(vertices),
        owner=owner,
        roles=roles,
        targets=targets,
        gamma=gamma,
        players=tuple(players),
        total_target=total_target,
        choice_vertices=tuple(itertools.filterfalse(total_target.__contains__, vertices)),
        _isucc=isucc,
    )
    from .valuation import _Core  # which imports this module

    object.__setattr__(game, "_core", _Core(game, index))
    return game


def _check_game(game: object) -> Game:
    """`game` itself, once it is known to be a `Game`: the one check of the
    game that every public function taking one makes."""
    if not isinstance(game, Game):
        raise TypeError(f"expected a Game, got {type(game).__name__}")
    return game


def _check_player(game: Game, n: object) -> None:
    _check_game(game)
    if not (_is_int(n) and n in game.roles):
        raise ValueError(f"unknown player {n!r}")


def turn_payoff(game: Game, n: int, v: str | None) -> int:
    """Per-turn reward of player `n` for the token visiting vertex `v`.

    Reachers collect +1 on their own target vertices, avoiders collect -1
    there; every other vertex is worth 0, and so is the terminal state,
    which `v` None stands for. An `n` that is not a player of `game`, or a
    `v` that is neither None nor a vertex id, is a ValueError.
    """
    _check_player(game, n)
    if v is None:
        return 0
    if not isinstance(v, str) or v not in game.owner:
        raise ValueError(f"unknown vertex {v!r}")
    if v not in game.targets[n]:
        return 0
    return 1 if game.roles[n] is Role.REACHER else -1
