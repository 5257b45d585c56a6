"""Finding and verifying deterministic memoryless Nash equilibria.

A profile is an equilibrium when no player can improve their exact
discounted payoff from any start vertex by switching to another memoryless
strategy while everyone else stays put. `is_nash` checks this directly
against `best_response`; `check_certificate` checks the equivalent local
condition instead, namely that at every vertex the owner's chosen move
maximizes the one-step discounted continuation read off the profile's own
value table, which also yields its report. The two routes are
independent and must agree on every game.

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

from .game import Game
from .limits import _is_int, check_guard
from .valuation import (
    PayoffValue,
    Profile,
    _Core,
    _decode,
    _judged,
    _moves,
    _profile,
    _respond,
    best_response,
    value_table,
)

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


def _assert_consistent(core: _Core, nxt: tuple, codes: dict[int, tuple]) -> None:
    # Internal self-check: every player's payoff codes satisfy the one-step
    # recursion: code(v) is the successor's code moved one toward 0, and a
    # target (no successor: -1 reads the appended 0) is worth 0, except m's
    # own targets, worth m's `sign` times base (see `_decode`).
    names, base = core.names, core.base
    for m, mine in codes.items():
        ahead = map((*mine, 0).__getitem__, nxt)
        expected = [c - 1 if c > 0 else c + 1 if c else 0 for c in ahead]
        for v in core.own[m]:
            expected[v] = core.sign[m] * base
        if tuple(expected) != mine:
            name = next(name for name, e, c in zip(names, expected, mine) if e != c)
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

    Both are read off the profile's own codes. Switching v to its best
    move w leaves w's play as it was unless it runs through v: then v's
    play cycles and is worth 0, else v's code is w's one step nearer 0.
    w's play through v goes on through v's current move, and codes only
    move toward 0 along a play, so there w beats that move only with a
    negative code: only then is w's play walked, and it hits a target.
    """
    core = game._core
    _, nxt, codes, _, _ = _judged(core, profile)
    _assert_consistent(core, nxt, codes)

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
            u = best_move
            while best_score < 0 and u >= 0 and u != v:
                u = nxt[u]
            available = 0 if u == v else best_score - (best_score > 0) + (best_score < 0)
            achieved, available = _decode(mine[v], base), _decode(available, base)
            violations.append(Deviation(n, names[v], names[best_move], achieved, available))
    return NEReport(not violations, tuple(violations))


def _deviation_scan(
    game: Game, profile: Profile, qualitative: bool
) -> tuple[Deviation, ...]:
    values = value_table(game, profile)  # raises ProfileError first
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
    violations = _deviation_scan(game, profile, qualitative=False)
    return NEReport(not violations, violations)


def is_nash_qualitative(game: Game, profile: Profile) -> NEReport:
    """Deviation search on win/lose/draw signs instead of exact payoffs.

    Every exact equilibrium also passes this coarser check, since taking
    signs preserves the payoff order; the converse does not hold.
    """
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


def _check_count(name: str, value: object) -> None:
    if not (_is_int(value) and value >= 1):
        raise ValueError(f"{name} must be at least 1 and an int, got {value!r}")


def enumerate_ne(
    game: Game, limit: int | None = None, guard: int | None = None
) -> list[Profile]:
    """All equilibria of `game` in lexicographic profile order.

    Stops after `limit` hits when given. The result is never empty when
    the whole space is scanned: a memoryless equilibrium always exists.

    Raises:
        TooLargeError: when the profile space exceeds the guard.
        ValueError: when `limit` is not an int of at least 1.
    """
    if limit is not None:
        _check_count("limit", limit)
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
    back to `enumerate_ne`. A `max_rounds` that is not an int of at least 1
    is a ValueError.

    The dynamics run on the game's move array: each response comes from
    the same pass and tie-break as `best_response`, and a `Profile`
    is built only for the result. The profile itself is never evaluated.
    A player gains somewhere exactly when a current move of theirs leads
    lower, by their response codes, than the response's move: if none
    does, those codes solve the one-step recursion along the profile and
    so are its payoffs; if one does, the player gains there, because no
    code is 1 or -1 and so one discount step keeps distinct codes apart.

    A response that cannot change is skipped. `_respond` never reads the
    responder's own moves, so a response depends on the opponents' moves
    alone: while nobody else has switched since, a player who did not
    switch would not switch now, and one who switched would get back the
    moves just taken. `current` holds such players; a switch resets it to
    the switcher. Every switch, visited profile and round, and so the
    result for every `max_rounds`, stays as if everyone always responded.

    At convergence every player is current, so each player's last
    response is their response to the result. `responses` keeps them,
    and the result is recorded with them in the game's judged profile
    (see `valuation._Core`): `best_response`, and with it `is_nash` and
    `is_nash_qualitative`, on that profile object run no pass of their own.
    """
    _check_count("max_rounds", max_rounds)
    core = game._core
    nxt = _moves(core, seed)
    visited = {tuple(nxt)}
    current: set[int] = set()
    responses: dict[int, tuple] = {}
    for _ in range(max_rounds):
        changed = False
        for n in game.players:
            if n in current:
                continue
            moves, code = responses[n] = _respond(core, nxt, n)
            if any(code[nxt[v]] != code[w] for v, w in moves.items()):
                for v, w in moves.items():
                    nxt[v] = w
                key = tuple(nxt)
                if key in visited:
                    return None
                visited.add(key)
                changed = True
                current = {n}
            else:
                current.add(n)
        if not changed:
            return _profile(core, nxt, responses)  # the verdicts on it skip the check
    return None
