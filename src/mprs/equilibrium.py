"""Finding and verifying deterministic memoryless Nash equilibria.

A profile is an equilibrium when no player can improve their exact
discounted payoff from any start vertex by switching to another memoryless
strategy while everyone else stays put. `is_nash` checks this directly
against `best_response`; `check_certificate` checks the equivalent local
condition instead, namely that at every vertex the owner's chosen move
maximizes the one-step discounted continuation read off the profile's own
value table. The two routes are implemented independently and must agree
on every game.

`enumerate_ne` walks the whole profile space (small games only, see the
enumeration guard) and `solve_br_dynamics` iterates rounds of best
responses, which converges on many instances but may cycle, in which case
callers fall back to enumeration. Every game of this class has at least
one equilibrium, so enumeration never comes back empty.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .game import Game, turn_payoff
from .limits import check_guard
from .valuation import (
    PayoffValue,
    Profile,
    _codes,
    _Core,
    _decode,
    _discount,
    _encode,
    _hits,
    _moves,
    _payoffs,
    best_response,
    check_profile,
    value_table,
)


@dataclass(frozen=True)
class Deviation:
    """One way a player can improve on the profile under scrutiny.

    `achieved` is the player's value from `vertex` under the checked
    profile; `available` is what the deviation reaches from there. For
    qualitative checks both fields hold bare signs instead of symbolic
    payoffs. `better_action` is the improving successor when the player
    chooses at `vertex`, and is None otherwise. The terminal state never
    appears: it is worth zero under every profile.
    """

    player: int
    vertex: str
    better_action: str | None
    achieved: PayoffValue | int
    available: PayoffValue | int


@dataclass(frozen=True)
class NEReport:
    is_ne: bool
    violations: tuple[Deviation, ...]


def _assert_consistent(
    game: Game, core: _Core, nxt: list[int], codes: dict[int, list[int]]
) -> None:
    # Internal self-check: the payoff codes must satisfy the one-step
    # recursion value(v) = turn payoff + discounted value of the successor
    # at every vertex, for every player.
    for m, mine in codes.items():
        for v, (name, w) in enumerate(zip(core.names, nxt)):
            if w < 0:
                expected = _encode(PayoffValue(turn_payoff(game, m, name)), core.base)
            else:
                expected = _discount(mine[w])
            if mine[v] != expected:
                raise AssertionError(
                    f"value table breaks the one-step recursion at {name!r} for player {m}"
                )


def check_certificate(game: Game, profile: Profile) -> NEReport:
    """Local optimality check of `profile` against its own value table.

    At every vertex the owner's move is scored by the discounted value of
    its destination; the profile passes iff no alternative edge scores
    strictly higher for the owner. For a flagged vertex the report states
    what the owner's value is there now and what switching that single
    move permanently would make it.
    """
    check_profile(game, profile)
    core = game._core
    nxt = _moves(core, profile)
    hits = _hits(core, nxt)
    codes = {m: _codes(core, m, hits) for m in game.players}
    _assert_consistent(game, core, nxt, codes)

    violations = []
    names, base = core.names, core.base
    for v in core.choice:
        n = core.owner[v]
        mine = codes[n]
        # Discounting is strictly monotone on codes, so the destinations'
        # own codes rank the moves exactly as their discounted values do.
        best_score = mine[nxt[v]]
        best_move = -1
        for w in core.succ[v]:
            if mine[w] > best_score:
                best_score = mine[w]
                best_move = w
        if best_move >= 0:
            switched = list(nxt)
            switched[v] = best_move
            available = _codes(core, n, _hits(core, switched))[v]
            violations.append(
                Deviation(
                    player=n,
                    vertex=names[v],
                    better_action=names[best_move],
                    achieved=_decode(mine[v], base),
                    available=_decode(available, base),
                )
            )
    return NEReport(not violations, tuple(violations))


def _deviation_scan(
    game: Game, profile: Profile, qualitative: bool
) -> tuple[Deviation, ...]:
    values = value_table(game, profile)
    violations = []
    for n in game.players:
        strategy, br_values = best_response(game, profile, n)
        mine = values[n]
        if br_values == mine:  # cheap: the two maps share their payoff objects
            continue
        for v in game.vertices:
            achieved = mine[v]
            available = br_values[v]
            if qualitative:
                achieved, available = achieved.sign, available.sign
            if available > achieved:
                # `strategy` moves exactly at the player's own choice
                # vertices; a gain anywhere else names no move.
                violations.append(Deviation(n, v, strategy.get(v), achieved, available))
    return tuple(violations)


def is_nash(game: Game, profile: Profile) -> NEReport:
    """Deviation search: is any player's best response strictly better anywhere?

    Improvement is demanded from every start vertex at once, so a profile
    fails as soon as one player gains from one vertex.
    """
    check_profile(game, profile)
    violations = _deviation_scan(game, profile, qualitative=False)
    return NEReport(not violations, violations)


def is_nash_qualitative(game: Game, profile: Profile) -> NEReport:
    """Deviation search on win/lose/draw signs instead of exact payoffs.

    Every exact equilibrium also passes this coarser check, since taking
    signs preserves the payoff order; the converse does not hold.
    """
    check_profile(game, profile)
    violations = _deviation_scan(game, profile, qualitative=True)
    return NEReport(not violations, violations)


def profile_space(game: Game) -> int:
    """Number of deterministic memoryless profiles of `game`."""
    return math.prod(len(game.successors(v)) for v in game.choice_vertices)


def all_profiles(game: Game, guard: int | None = None) -> Iterator[Profile]:
    """Every profile, in lexicographic order of per-vertex choices.

    Vertices are taken in lexicographic order and each runs through its
    successors in lexicographic order, the last vertex varying fastest.

    Raises:
        TooLargeError: when the profile space exceeds the guard.
    """
    check_guard(profile_space(game), guard)
    vertices = game.choice_vertices
    owners = [game.owner[v] for v in vertices]
    for choice in itertools.product(*(game.successors(v) for v in vertices)):
        strategies: dict[int, dict[str, str]] = {}
        for n, v, w in zip(owners, vertices, choice):
            strategies.setdefault(n, {})[v] = w
        yield Profile(strategies)


def enumerate_ne(
    game: Game, limit: int | None = None, guard: int | None = None
) -> list[Profile]:
    """All equilibria of `game` in lexicographic profile order.

    Stops after `limit` hits when given. The result is never empty when
    the whole space is scanned: a memoryless equilibrium always exists.

    Raises:
        TooLargeError: when the profile space exceeds the guard.
        ValueError: when `limit` is below 1.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    found = []
    for profile in all_profiles(game, guard):
        if is_nash(game, profile).is_ne:
            found.append(profile)
            if limit is not None and len(found) >= limit:
                break
    return found


def solve_br_dynamics(
    game: Game, seed: Profile, max_rounds: int = 100
) -> Profile | None:
    """Iterate best-response rounds from `seed` until stable.

    Each round lets every player in turn replace their strategy with a
    best response, but only when it is a strict improvement somewhere. A
    full round without any replacement means no player can improve, so the
    result passes `is_nash`. Returns None when a previously visited
    profile comes around again or `max_rounds` runs out; callers then fall
    back to `enumerate_ne`. A `max_rounds` below 1 is a ValueError.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    check_profile(game, seed)
    core = game._core
    current = seed
    visited = {current}
    hits = None  # of `current`, rebuilt after every switch
    for _ in range(max_rounds):
        changed = False
        for n in game.players:
            strategy, br_values = best_response(game, current, n)
            if hits is None:
                hits = _hits(core, _moves(core, current))
            values = _payoffs(core, _codes(core, n, hits))
            if br_values != values and any(br_values[v] > values[v] for v in game.vertices):
                current = current.replace(n, strategy)
                if current in visited:
                    return None
                visited.add(current)
                hits = None
                changed = True
        if not changed:
            return current
    return None


__all__ = [
    "Deviation",
    "NEReport",
    "all_profiles",
    "check_certificate",
    "enumerate_ne",
    "is_nash",
    "is_nash_qualitative",
    "profile_space",
    "solve_br_dynamics",
]
