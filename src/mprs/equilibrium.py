"""Finding and verifying deterministic memoryless Nash equilibria.

A profile is an equilibrium when no player can improve their exact
discounted payoff from any start vertex by switching to another memoryless
strategy while everyone else stays put. `is_nash` checks this directly
against every player's best response, on payoff codes: a best response
is never below the profile, so a player gains nowhere exactly when their
response's codes equal their codes along the profile. Only a failing
profile's report is built from `value_table` and `best_response`.
`is_nash_qualitative` is the sign view of that report, not a search of
its own: it keeps the gains that change the sign. `check_certificate`
checks the equivalent local condition instead, namely that at every
vertex the owner's chosen move maximizes the one-step discounted
continuation read off the profile's own value table, which also yields
its report. The two routes are independent and must agree on every game.

`enumerate_ne` walks the move arrays of the whole profile space in
`all_profiles` order (small games only, see the enumeration guard),
settles each with the same code test, which stops at the first player who
gains, and names only the equilibria: exactly the profiles `is_nash`
passes. In that order the owner of the last choice vertex moves alone in
each trailing block of arrays, and one response of theirs serves a block.
`solve_br_dynamics` iterates rounds of best responses until a round
changes nothing or its round budget runs out, in which case callers fall
back to enumeration. Every game of this class has an equilibrium, so
enumeration never comes back empty.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import gt
from typing import Iterator

from .game import Game, _check_game
from .limits import _is_int, check_guard
from .valuation import (
    PayoffValue,
    Profile,
    _Core,
    _codes,
    _decode,
    _judged,
    _moves,
    _name,
    _profile,
    _respond,
    _rewrite,
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
    core = _check_game(game)._core
    nxt, codes, _ = _judged(core, profile)
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


def is_nash(game: Game, profile: Profile) -> NEReport:
    """Deviation search: is any player's best response strictly better anywhere?

    Improvement is demanded from every start vertex at once, so a profile
    fails as soon as one player gains from one vertex. The report lists
    every gain, in player and then vertex order.
    """
    core = _check_game(game)._core
    _, codes, responses = _judged(core, profile, respond=True)
    gains = []
    for n, mine in codes.items():
        theirs = responses[n][1]
        if theirs == mine:  # no gain anywhere, as at every equilibrium
            continue
        gains += zip(itertools.repeat(n), itertools.compress(core.names, map(gt, theirs, mine)))
    if not gains:
        return NEReport(True, ())
    values = value_table(game, profile)
    best = {n: best_response(game, profile, n) for n in game.players}
    violations = []
    for n, v in gains:
        strategy, br_values = best[n]
        # `strategy` moves exactly at the player's own choice vertices; a
        # gain anywhere else names no move.
        violations.append(Deviation(n, v, strategy.get(v), values[n][v], br_values[v]))
    return NEReport(False, tuple(violations))


def is_nash_qualitative(game: Game, profile: Profile) -> NEReport:
    """Deviation search on win/lose/draw signs instead of exact payoffs.

    The report is `is_nash`'s, cut to the gains that change the sign, with
    both payoffs read as signs: a sign gain is always an exact gain, so
    every exact equilibrium passes this coarser check; the converse does
    not hold.
    """
    violations = tuple(
        Deviation(d.player, d.vertex, d.better_action, d.achieved.sign, d.available.sign)
        for d in is_nash(game, profile).violations
        if d.available.sign > d.achieved.sign
    )
    return NEReport(not violations, violations)


def profile_space(game: Game) -> int:
    """Number of deterministic memoryless profiles of `game`."""
    core = _check_game(game)._core
    return math.prod(map(len, map(core.succ.__getitem__, core.choice)))


def all_profiles(game: Game, guard: int | None = None) -> Iterator[Profile]:
    """Every profile, in lexicographic order of per-vertex choices.

    Vertices are taken in lexicographic order and each runs through its
    successors in lexicographic order, the last vertex varying fastest.
    All of them share each player's vertex tuple (see `valuation._name`).

    Raises:
        TooLargeError: when the profile space exceeds the guard. This
            and every other error of the arguments is raised by the call
            itself, before any profile is drawn.
    """
    check_guard(profile_space(game), guard)
    core = game._core
    return (_name(core, nxt) for nxt in _rewrite(core, [-1] * len(core.names), core.choice))


def _check_count(name: str, value: object) -> None:
    if not (_is_int(value) and value >= 1):
        raise ValueError(f"{name} must be at least 1 and an int, got {value!r}")


def enumerate_ne(
    game: Game, limit: int | None = None, guard: int | None = None
) -> list[Profile]:
    """All equilibria of `game` in lexicographic profile order.

    The list is exactly the profiles of `all_profiles` that `is_nash`
    passes, in that order, cut after `limit` of them when given. It is
    never empty when the whole space is scanned: a memoryless equilibrium
    always exists.

    Raises:
        TooLargeError: when the profile space exceeds the guard.
        ValueError: when `limit` is not an int of at least 1.
    """
    core = _check_game(game)._core
    if limit is not None:
        _check_count("limit", limit)
    check_guard(profile_space(game), guard)
    return list(itertools.islice(_equilibria(core), limit))


def _equilibria(core: _Core) -> Iterator[Profile]:
    # Player p owns the last choice vertex (player 1 when nobody chooses),
    # and the tail is the trailing block, the longest run of p's vertices
    # at the end of `core.choice`. The tail walk nests inside the head
    # walk, so within it only p's moves change. A response never reads the
    # responder's own moves, so p's response, solved once per head
    # assignment, serves the whole block. Every player is tested by equal
    # codes, p first and then the others in player order up to the first
    # who gains: an array passes whatever the order, so the list is
    # exactly `is_nash`'s. Equal strategy triples of the equilibria are
    # one object (`shared`), so a long list holds each distinct one once.
    choice, owner = core.choice, core.owner
    p = owner[choice[-1]] if choice else 1
    k = len(choice)
    while k and owner[choice[k - 1]] == p:
        k -= 1
    head, tail = choice[:k], choice[k:]
    shared: dict[tuple, tuple] = {}
    for nxt in _rewrite(core, [-1] * len(core.names), head):
        best = _respond(core, nxt, p)[1]
        for nxt in _rewrite(core, nxt, tail):
            codes = _codes(core, nxt)
            if codes[p] == best and all(
                n == p or _respond(core, nxt, n)[1] == mine for n, mine in codes.items()
            ):
                items = _name(core, nxt)._items
                yield Profile._canonical(tuple(map(shared.setdefault, items, items)))


def solve_br_dynamics(
    game: Game, seed: Profile, max_rounds: int = 100
) -> Profile | None:
    """Iterate best-response rounds from `seed` until stable.

    Each round lets every player in turn replace their strategy with a
    best response, but only when it is a strict improvement somewhere. A
    full round without any replacement means no player can improve, so the
    result passes `is_nash`. Returns None exactly when `max_rounds` rounds
    have not settled; callers then fall back to `enumerate_ne`. The state
    of the dynamics is the move array together with the next mover, and
    whether they can cycle is open for this class of games: a cycle, if
    one exists, returns None once the budget is spent. A `max_rounds` that
    is not an int of at least 1 is a ValueError.

    The dynamics run on a move array, with the pass and tie-break of
    `best_response`, and name a `Profile` only for the result. A player
    gains somewhere exactly when a current move of theirs leads lower, by
    their response codes, than the response's move: if none does, those
    codes solve the one-step recursion along the profile and so are its
    payoffs; if one does, the player gains there, because no code is 1 or
    -1 and so one discount step keeps distinct codes apart.

    A response that cannot change is skipped. `_respond` never reads the
    responder's own moves, so a response depends on the opponents' moves
    alone: while nobody else has switched since, a player who did not
    switch would not switch now, and one who switched would get back the
    moves just taken. `current` holds such players; a switch resets it to
    the switcher. Every switch and round, and so the result for every
    `max_rounds`, stays as if everyone always responded.

    At convergence every player is current, so each player's last
    response is their response to the result. The result is recorded with
    them (`valuation._profile`), and no verdict on it solves them again.
    """
    core = _check_game(game)._core
    _check_count("max_rounds", max_rounds)
    nxt = _moves(core, seed)
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
                changed = True
                current = {n}
            else:
                current.add(n)
        if not changed:
            return _profile(core, nxt, responses)  # the verdicts on it skip the check
    return None
