"""Finding and verifying deterministic memoryless Nash equilibria.

A profile is an equilibrium when no player can improve their exact
discounted payoff from any start state by switching to another memoryless
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

from .game import TERMINAL, Game, State, turn_payoff
from .limits import check_guard
from .valuation import (
    PayoffValue,
    Profile,
    ValueTable,
    ZERO,
    best_response,
    check_profile,
    value_table,
)


@dataclass(frozen=True)
class Deviation:
    """One way a player can improve on the profile under scrutiny.

    `achieved` is the player's value at `state` under the checked profile;
    `available` is what the deviation reaches from there. For qualitative
    checks both fields hold bare signs instead of symbolic payoffs.
    `better_action` is the improving successor when `state` is a vertex
    where the player chooses, and is None otherwise.
    """

    player: int
    state: State
    better_action: str | None
    achieved: PayoffValue | int
    available: PayoffValue | int


@dataclass(frozen=True)
class NEReport:
    is_ne: bool
    violations: tuple[Deviation, ...]


def _assert_consistent(game: Game, profile: Profile, values: ValueTable) -> None:
    # Internal self-check: the value table must satisfy the one-step
    # recursion value(s) = turn payoff + discounted value of the successor
    # at every state, for every player.
    for m in game.players:
        for v in game.vertices:
            s = State.at(v)
            if v in game.total_target:
                expected = PayoffValue(turn_payoff(game, m, s))
            else:
                chosen = State.at(profile.choice(game.owner[v], v))
                expected = values[(m, chosen)].discounted()
            if values[(m, s)] != expected:
                raise AssertionError(
                    f"value table breaks the one-step recursion at {s!r} for player {m}"
                )
        if values[(m, TERMINAL)] != ZERO:
            raise AssertionError("terminal state must be worth zero")


def check_certificate(game: Game, profile: Profile) -> NEReport:
    """Local optimality check of `profile` against its own value table.

    At every vertex the owner's move is scored by the discounted value of
    its destination; the profile passes iff no alternative edge scores
    strictly higher for the owner. For a flagged vertex the report states
    what the owner's value is there now and what switching that single
    move permanently would make it.
    """
    check_profile(game, profile)
    values = value_table(game, profile)
    _assert_consistent(game, profile, values)

    violations = []
    for v in game.choice_vertices:
        n = game.owner[v]
        chosen = profile.choice(n, v)
        here = values[(n, State.at(chosen))].discounted()
        best_score = here
        best_move: str | None = None
        for w in game.successors(v):
            score = values[(n, State.at(w))].discounted()
            if score > best_score:
                best_score = score
                best_move = w
        if best_move is not None:
            switched = profile.replace(n, {**profile.strategy(n), v: best_move})
            available = value_table(game, switched)[(n, State.at(v))]
            violations.append(
                Deviation(
                    player=n,
                    state=State.at(v),
                    better_action=best_move,
                    achieved=values[(n, State.at(v))],
                    available=available,
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
        for s in game.states:
            achieved = values[(n, s)]
            available = br_values[s]
            if qualitative:
                achieved, available = achieved.sign, available.sign
            if available > achieved:
                better = None
                v = s.vertex
                if v is not None and v not in game.total_target and game.owner[v] == n:
                    better = strategy[v]
                violations.append(Deviation(n, s, better, achieved, available))
    return tuple(violations)


def is_nash(game: Game, profile: Profile) -> NEReport:
    """Deviation search: is any player's best response strictly better anywhere?

    Improvement is demanded from every start state at once, so a profile
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
    """
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
    back to `enumerate_ne`.
    """
    check_profile(game, seed)
    current = seed
    visited = {current}
    for _ in range(max_rounds):
        changed = False
        for n in game.players:
            strategy, br_values = best_response(game, current, n)
            values = value_table(game, current)
            if any(br_values[s] > values[(n, s)] for s in game.states):
                current = current.replace(n, strategy)
                if current in visited:
                    return None
                visited.add(current)
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
