"""Plays, outcomes and exact payoffs under fixed memoryless strategies.

With deterministic transitions and memoryless strategies every play either
never touches the union target set or hits it exactly once, at a first
hitting time bounded by the number of vertices. A player's payoff is
therefore always 0 or +/- gamma**t for that hitting time t, so payoffs are
kept symbolically as a sign and an exponent (`PayoffValue`) and compared
without ever evaluating the discount factor: the induced order is the same
for every discount strictly between 0 and 1. Inside the package the
solvers run on an int-indexed form of each game (`_Core`) and on integer
payoff codes (see `_decode`); `PayoffValue` maps appear only at the API.

A `Profile` holds each player's strategy as two parallel tuples, the
sorted vertex ids and the chosen successors, and no (vertex, move) pair.
The solvers work on move arrays, one successor index per vertex. A
profile from outside gets its array from `_moves`, a pure check; the
profile scan and the dynamics make their own arrays and name a `Profile`
only for what they return (`_name`). Each game remembers the last
profile that `value_table`, a verdict or the dynamics judged
(`_Core.judged`), and adds its codes and responses on first read:
`value_table` and `check_certificate` solve no response, `is_nash`
each player's once per profile object, and none on a dynamics result
again. `is_nash` decides on codes alone; only a failing profile's report
comes through `value_table` and `best_response`. Value maps are never
recorded: each call decodes fresh ones from the codes, into a copy of
the game's one all-`ZERO` map.

`best_response` computes a payoff-maximizing memoryless strategy for one
player against fixed opponents by one backward pass from the player's own
targets (earliest arrival for reachers, longest forced delay for
avoiders), and `best_response_enum` recomputes the same values by brute
force over the whole strategy space; the two must agree exactly and serve
as independent checks of one another. The pass and the tie-break toward
the smallest successor live in `_respond`, which works on a move array and
returns the response's payoff codes; `best_response` wraps it for a
`Profile`, and best-response dynamics (`equilibrium.solve_br_dynamics`)
call it directly on their own move array and compare codes.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce, total_ordering
from typing import Iterator, Mapping, Sequence

from .game import Game, _check_game, _check_player, turn_payoff
from .limits import _is_int, check_guard

__all__ = [
    "NEVER",
    "ZERO",
    "Outcome",
    "PayoffValue",
    "Play",
    "Profile",
    "ProfileError",
    "Strategy",
    "best_response",
    "best_response_enum",
    "check_profile",
    "outcome",
    "play",
    "total_payoff",
    "value_table",
]

# A memoryless strategy: each of the player's non-target vertices to the
# chosen successor.
Strategy = dict[str, str]

# The vertices a play visits, with None for the absorbing terminal state.
Play = tuple[str | None, ...]


class ProfileError(ValueError):
    """A strategy profile does not fit the game it is used with."""


class Profile:
    """One memoryless strategy per player.

    Players without any vertex to move at may be omitted; empty strategies
    are dropped from the canonical form, so ``Profile({1: m, 2: {}})``
    equals ``Profile({1: m})``. Ids are checked here once: a player key
    that is no int, a strategy that is no mapping (an empty one included),
    or a vertex id or move that is no str is a `ProfileError`. Profiles
    are immutable, hashable and compare by content.

    The canonical form holds one ``(n, vertices, moves)`` triple per
    player, in player order: `vertices` is the sorted tuple of the vertex
    ids player n moves at, and `moves` the parallel tuple of the chosen
    successors. The profiles of `all_profiles`, `enumerate_ne` and the
    dynamics share each player's vertex tuple; only move tuples are new,
    and `enumerate_ne`'s equal triples are one object.
    """

    __slots__ = ("_items",)

    def __init__(self, strategies: Mapping[int, Mapping[str, str]]):
        if not isinstance(strategies, Mapping):
            raise ProfileError(f"a profile maps player ids to strategies, got {strategies!r}")
        items = []
        for n in sorted(map(_player_id, strategies)):
            strategy = strategies[n]
            _require_strategy(n, strategy)
            if strategy:
                vertices = tuple(sorted(strategy))
                items.append((n, vertices, tuple(map(strategy.__getitem__, vertices))))
        self._items = tuple(items)

    @classmethod
    def _canonical(cls, items: tuple[tuple[int, tuple, tuple], ...]) -> "Profile":
        """The profile whose canonical form is `items`, taken as it is."""
        profile = object.__new__(cls)
        profile._items = items
        return profile

    def choice(self, n: int, v: str) -> str:
        _player_id(n)
        for m, vertices, moves in self._items:
            if m == n:
                try:
                    k = bisect_left(vertices, v)
                except TypeError:  # `v` orders with no vertex id here
                    k = len(vertices)
                if k < len(vertices) and vertices[k] == v:
                    return moves[k]
        raise ProfileError(f"profile fixes no move for player {n} at {v!r}")

    def replace(self, n: int, strategy: Mapping[str, str]) -> "Profile":
        """A new profile with player `n`'s strategy swapped out."""
        return Profile({**self.as_dict(), _player_id(n): strategy})

    def as_dict(self) -> dict[int, Strategy]:
        return {n: dict(zip(vertices, moves)) for n, vertices, moves in self._items}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Profile) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"Profile({self.as_dict()!r})"


def _player_id(n: object) -> int:
    if not _is_int(n):
        raise ProfileError(f"a player id must be an int, got {n!r}")
    return n


def _require_strategy(n: int, strategy: object) -> None:
    if not isinstance(strategy, Mapping):
        raise ProfileError(
            f"the strategy of player {n} must map vertices to moves, got {strategy!r}"
        )
    for v, w in strategy.items():
        if not (isinstance(v, str) and isinstance(w, str)):
            raise ProfileError(f"player {n} moves {v!r} -> {w!r}, yet vertex ids are strs")


def check_profile(game: Game, profile: Profile) -> None:
    """Verify that `profile` fixes exactly one legal move per choice vertex.

    Raises:
        ProfileError: listing every way the profile fails to fit `game`.
    """
    _check_game(game)
    _moves(game._core, profile)


@dataclass(frozen=True)
class Outcome:
    """First visit of the union target set along a play, if any."""

    time: int | None = None
    vertex: str | None = None

    @property
    def is_hit(self) -> bool:
        return self.time is not None

    def __repr__(self) -> str:
        if self.time is None:
            return "Never"
        return f"Hit(t={self.time}, {self.vertex!r})"


NEVER = Outcome(None, None)


@total_ordering
@dataclass(frozen=True)
class PayoffValue:
    """Exact total payoff of a play: 0, or +/- gamma**exponent.

    The order ignores the discount factor because it is the same for every
    gamma in (0, 1): all negative values sit below zero and grow toward it
    as the exponent rises, all positive values sit above zero and shrink
    toward it.
    """

    sign: int
    exponent: int = 0

    def __post_init__(self) -> None:
        if not (_is_int(self.sign) and self.sign in (-1, 0, 1)):
            raise ValueError(f"sign must be the int -1, 0 or 1, got {self.sign!r}")
        if not (_is_int(self.exponent) and self.exponent >= 0):
            raise ValueError(f"exponent must be a nonnegative int, got {self.exponent!r}")
        if self.sign == 0 and self.exponent != 0:
            raise ValueError("the zero payoff carries no exponent")

    def discounted(self) -> "PayoffValue":
        """The value one discount step later; zero is a fixed point."""
        if self.sign == 0:
            return self
        return PayoffValue(self.sign, self.exponent + 1)

    def numeric(self, gamma: Fraction) -> Fraction:
        """Evaluate at a concrete discount factor, any finite number `Fraction` reads."""
        try:
            return self.sign * Fraction(gamma) ** self.exponent
        except TypeError:
            raise TypeError(f"expected a Fraction, got {type(gamma).__name__}") from None
        except (ValueError, ArithmeticError):
            raise ValueError(f"gamma must be a finite number, got {gamma!r}") from None

    # `total_ordering` derives the other three, and refuses along with it
    # anything but a payoff. Between equal signs s, the larger
    # s * -exponent wins.
    def __gt__(self, other: object) -> bool:
        if not isinstance(other, PayoffValue):
            return NotImplemented
        if self.sign != other.sign:
            return self.sign > other.sign
        return self.sign * (other.exponent - self.exponent) > 0

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        mark = "+" if self.sign > 0 else "-"
        return f"{mark}1" if self.exponent == 0 else f"{mark}γ^{self.exponent}"


ZERO = PayoffValue(0)


def play(game: Game, profile: Profile, start: str) -> Play:
    """Unroll the token path from vertex `start` under `profile`.

    The play stops at the terminal state (None), one step after the first
    target vertex, or at the first repeated vertex (after which it would
    cycle forever), so it always has at most ``len(game.vertices) + 1``
    entries.
    """
    core = _check_game(game)._core
    nxt = _moves(core, profile)
    if not isinstance(start, str) or start not in core.index:
        raise ValueError(f"unknown start vertex {start!r}")
    v = core.index[start]
    steps, seen = [v], {v}
    while nxt[v] >= 0:
        v = nxt[v]
        steps.append(v)
        if v in seen:
            return tuple(map(core.names.__getitem__, steps))
        seen.add(v)
    return (*map(core.names.__getitem__, steps), None)


def outcome(game: Game, profile: Profile, start: str) -> Outcome:
    """First hit of the union target set on the play from vertex `start`."""
    for t, v in enumerate(play(game, profile, start)):
        if v in game.total_target:
            return Outcome(t, v)
    return NEVER


def total_payoff(game: Game, n: int, o: Outcome) -> PayoffValue:
    """Discounted total payoff of player `n` for outcome `o`: the hit
    vertex's `turn_payoff` times gamma**time, or zero without a hit.
    Any `o` but `NEVER` or a hit at an int time of at least 0 (not a
    bool) on a target of `game` is a ValueError."""
    _check_player(game, n)
    if not isinstance(o, Outcome):
        raise TypeError(f"expected an Outcome, got {type(o).__name__}")
    hit = _is_int(o.time) and o.time >= 0 and isinstance(o.vertex, str)
    if not (o == NEVER or hit and o.vertex in game.total_target):
        raise ValueError(f"not an outcome of this game: time {o.time!r}, vertex {o.vertex!r}")
    sign = turn_payoff(game, n, o.vertex)  # 0 at vertex None, with no hit
    return PayoffValue(sign, o.time) if sign else ZERO


# Stands in for the judged profile of a game that has judged none yet.
_UNJUDGED = object()


class _Core:
    """Int-indexed form of a game, which every solver here runs on.

    Vertex i is ``game.vertices[i]``, so index order is lexicographic
    order. `validate_game` builds one for every game it returns, from its
    own pass: the vertex `index` and the game's successor lists. Target
    vertices are absorbing: they have no successors and are nobody's
    predecessor. `own[n]` lists player n's target vertices and `mine[n]`
    player n's choice vertices, both in index order; `named` holds each
    mover's ``(n, vertex ids, mine[n])``, whose id tuples `_name` shares.
    `sign[n]` is the sign of player n's payoff at each of n's own targets,
    n's `turn_payoff` there. Payoffs are integer codes (see `_decode`).

    `judged` holds ``(profile, move array, codes, responses)`` for the
    last profile judged here, and starts with `_UNJUDGED`, which no caller
    can pass as a profile. Only `_judged` and `_profile` store it, so a
    mere check, play or scan never evicts it. Both are None until `_judged`
    adds codes for the first verdict or `value_table` that reads them, and
    responses for the first `is_nash`; the dynamics record theirs, which
    `best_response` then returns. Each update stores one new tuple, never
    mutated.

    `zeros` maps every vertex id to `ZERO`. Every value map starts as a
    copy of it, and it is never handed out itself.
    """

    __slots__ = (
        "names", "index", "base", "owner", "succ", "pred", "choice", "mine", "own", "sign",
        "named", "judged", "zeros",
    )

    def __init__(self, game: Game, index: dict[str, int]):
        names = game.vertices
        self.own = {n: tuple(sorted(map(index.__getitem__, game.targets[n]))) for n in game.players}
        succ = list(game._isucc)
        for own in self.own.values():
            for v in own:
                succ[v] = ()
        pred: list[list[int]] = [[] for _ in names]
        for v, ws in enumerate(succ):
            for w in ws:
                pred[w].append(v)
        self.names = names
        self.index = index
        self.base = len(names) + 1
        self.owner = owner = tuple(map(game.owner.__getitem__, names))
        self.succ = tuple(succ)
        self.pred = tuple(map(tuple, pred))
        self.choice = tuple(itertools.compress(range(len(succ)), succ))
        mine: dict[int, list[int]] = {n: [] for n in game.players}
        for v in self.choice:
            mine[owner[v]].append(v)
        self.mine = {n: tuple(vs) for n, vs in mine.items()}
        name = names.__getitem__
        self.named = tuple((n, tuple(map(name, vs)), vs) for n, vs in self.mine.items() if vs)
        self.sign = {n: turn_payoff(game, n, names[own[0]]) for n, own in self.own.items()}
        self.judged = (_UNJUDGED, (), None, None)
        self.zeros = dict.fromkeys(names, ZERO)


def _rewrite(core: _Core, nxt: list[int], vertices: tuple) -> Iterator[list[int]]:
    """`nxt` itself, once per assignment of successors to `vertices`, in
    product order (the last vertex varies fastest), rewritten in place at
    `vertices` alone: the package's one walk over move choices."""
    for picks in itertools.product(*map(core.succ.__getitem__, vertices)):
        for v, w in zip(vertices, picks):
            nxt[v] = w
        yield nxt


# A payoff 0 or sign * gamma**t with t <= len(vertices) is kept inside the
# package as the integer code sign * (base - t), base = len(vertices) + 1,
# and 0 for the zero payoff. Codes compare exactly like `PayoffValue`s, for
# every gamma in (0, 1), and one discount step moves a code one toward 0.
# Decoding is cached, so the value maps of one game share their payoff
# objects and mostly compare by identity.


@lru_cache(maxsize=256)
def _decode(code: int, base: int) -> PayoffValue:
    if code == 0:
        return ZERO
    return PayoffValue(1, base - code) if code > 0 else PayoffValue(-1, base + code)


def _payoffs(core: _Core, codes: Sequence[int]) -> dict[str, PayoffValue]:
    """Vertex id to payoff: a copy of the game's all-`ZERO` map with the
    nonzero codes decoded into it. A player is paid only on plays into
    their own targets, so often most codes are 0."""
    values = core.zeros.copy()
    paid = map(_decode, filter(None, codes), itertools.repeat(core.base))
    values.update(zip(itertools.compress(core.names, codes), paid))
    return values


def _strategies(profile: Profile) -> tuple[tuple[int, tuple, tuple], ...]:
    """The canonical form of `profile`; anything but a `Profile` is refused."""
    if not isinstance(profile, Profile):
        raise ProfileError(f"expected a Profile, got {type(profile).__name__}")
    return profile._items


def _moves(core: _Core, profile: Profile, skip: int | None = None) -> list[int]:
    """The move array of `profile`, checked in the same pass: the successor
    it picks at every choice vertex not owned by `skip`, and -1 elsewhere.
    Player `skip`'s entries, and their missing moves, are ignored. It
    neither reads nor writes `core.judged`.

    Raises:
        ProfileError: when `profile` is no `Profile`, or listing every way
            it fails to fit the game, entry by entry and then each choice
            vertex left open.
    """
    size = len(core.names)
    nxt = [-1] * size
    index, owner, succ = core.index, core.owner, core.succ
    problems = []
    legal = 0
    for n, vertices, moves in _strategies(profile):
        if n not in core.mine:
            problems.append(f"strategy given for undeclared player {n}")
            continue
        if n == skip:
            continue
        for v, w in zip(vertices, moves):
            i = index.get(v)
            if i is None:
                problems.append(f"player {n} moves at unknown vertex {v!r}")
            elif owner[i] != n:
                problems.append(f"player {n} moves at {v!r}, owned by player {owner[i]}")
            elif not succ[i]:
                problems.append(f"player {n} moves at target vertex {v!r}")
            else:
                nxt[i] = j = index.get(w, size)
                if j in succ[i]:
                    legal += 1
                else:
                    problems.append(f"chosen move {v!r} -> {w!r} is not an edge")
    # Legal moves sit at distinct choice vertices, so as many legal moves
    # as choice vertices to fill leave none of them open.
    if legal < len(core.choice) - len(core.mine.get(skip, ())):
        for i in core.choice:
            if nxt[i] < 0 and owner[i] != skip:
                problems.append(f"no move fixed at {core.names[i]!r} for player {owner[i]}")
    if problems:
        raise ProfileError("; ".join(problems))
    return nxt


def _codes(core: _Core, nxt: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Every player's payoff code from every start vertex when each vertex
    moves to `nxt` (see `_decode`): nonzero only on the plays that hit one
    of the player's own targets.

    The movers onto each vertex w form a chain through two int arrays:
    `first[w]`, then `then[v]` from each mover v, with -1 ending it. Each
    player's pass runs backward from their own targets, at ``sign * base``,
    in layers, each one step nearer 0: a layer's movers form the next.
    Every choice vertex has one move, and targets none, so no vertex joins
    twice, and one that never joins (its play cycles, stops or first hits
    another player's target) keeps code 0. Each pass costs linear time in
    the vertices that join it.
    """
    size = len(core.names)
    first, then = [-1] * size, [-1] * size
    for v in core.choice:
        w = nxt[v]
        then[v] = first[w]
        first[w] = v
    codes = {}
    for n, s in core.sign.items():
        code = [0] * size
        c = s * core.base
        layer = core.own[n]
        while layer:
            movers = []
            for w in layer:
                code[w] = c
                v = first[w]
                while v >= 0:
                    movers.append(v)
                    v = then[v]
            layer, c = movers, c - s
        codes[n] = tuple(code)
    return codes


def _judged(core: _Core, profile: Profile, respond: bool = False) -> tuple:
    """The move array of `profile`, every player's codes and, if `respond`
    or recorded, `_respond` results: each part is computed once per profile
    object, on first request, and recorded in `core.judged`."""
    last, nxt, codes, responses = core.judged
    if last is not profile:
        nxt, codes, responses = tuple(_moves(core, profile)), None, None
    if codes is None:
        codes = _codes(core, nxt)
    if respond and responses is None:
        responses = {n: _respond(core, nxt, n) for n in core.sign}
    core.judged = (profile, nxt, codes, responses)
    return nxt, codes, responses


def _name(core: _Core, nxt: Sequence[int]) -> Profile:
    """The `Profile` of the checked move array `nxt`. Each player's vertex
    tuple is the one `core.named` holds, so only the move tuples are new."""
    names, moves = core.names.__getitem__, nxt.__getitem__
    return Profile._canonical(
        tuple([(n, vs, tuple(map(names, map(moves, mine)))) for n, vs, mine in core.named])
    )


def _profile(core: _Core, nxt: list[int], responses: dict[int, tuple]) -> Profile:
    """`_name(core, nxt)`, recorded with `responses`, every player's
    `_respond` result on `nxt`."""
    profile = _name(core, nxt)
    core.judged = (profile, tuple(nxt), None, responses)
    return profile


def value_table(game: Game, profile: Profile) -> dict[int, dict[str, PayoffValue]]:
    """Exact payoff of `profile` for every player and every start vertex.

    The result maps player to vertex to payoff, so ``value_table(g, p)[n]``
    has the shape of the value map `best_response` returns. Every call
    returns fresh maps, which the caller may change.
    """
    core = _check_game(game)._core
    _, codes, _ = _judged(core, profile)
    return {n: _payoffs(core, codes[n]) for n in game.players}


def _respond(core: _Core, nxt: Sequence[int], n: int) -> tuple[dict[int, int], tuple[int, ...]]:
    """Player `n`'s best response to the opponents' moves in `nxt`, which
    is never read at n's own choice vertices: the chosen successor at each
    of them, and n's payoff code from every start vertex (see `_decode`).

    One pass runs backward from n's own targets, at ``sign * base``, in
    layers, each one step nearer 0. An opponent's vertex joins after the
    successor it moves to. n's own vertex joins after its first successor
    when n reaches, for the earliest arrival, and after its last when n
    avoids: only then is every way out doomed, and the last join is the
    longest delay n can force. A vertex that never joins never hits n's
    targets and keeps code 0. Ties break toward the smallest successor
    index, which is the lexicographically smallest successor.
    """
    succ, pred, owner, own = core.succ, core.pred, core.owner, core.own[n]
    s = core.sign[n]
    code = [0] * len(core.names)
    c = s * core.base
    for v in own:
        code[v] = c
    left: dict[int, int] = {}  # an avoider's vertex: successors yet to join
    frontier = own
    while frontier:
        c -= s
        layer = []
        for w in frontier:
            for v in pred[w]:
                if code[v]:
                    continue
                if owner[v] != n:
                    if nxt[v] != w:
                        continue
                elif s < 0:
                    left[v] = k = left.get(v, len(succ[v])) - 1
                    if k:
                        continue
                code[v] = c
                layer.append(v)
        frontier = layer
    # Each own vertex moves one layer down, or from code 0 to code 0,
    # which a vertex of n's that never joined always can.
    moves = {}
    for v in core.mine[n]:
        want = code[v] + s if code[v] else 0
        for w in succ[v]:
            if code[w] == want:
                moves[v] = w
                break
    return moves, tuple(code)


def _decoded(core: _Core, moves: dict[int, int], codes: Sequence[int]) -> tuple:
    """A response as the API returns it: named moves and a value map."""
    names = core.names
    return {names[v]: names[w] for v, w in moves.items()}, _payoffs(core, codes)


def best_response(
    game: Game, opponents: Profile, n: int
) -> tuple[Strategy, dict[str, PayoffValue]]:
    """Payoff-maximizing memoryless strategy of player `n` against `opponents`.

    `opponents` must fix a legal move at every non-target vertex not owned
    by `n` and hold no illegal entry, as `check_profile` demands of a full
    profile; `n`'s own entries are ignored, so a full profile can be passed
    directly. Returns the strategy together with the value it guarantees
    from every start vertex. The result is deterministic (ties break
    toward the lexicographically smallest successor) and never depends on
    the discount factor.

    Raises:
        ValueError: when `n` is not a player of `game`.
        ProfileError: when `opponents` do not fit `game`, with the message
            `check_profile` gives once `n`'s entries are legal and complete.
    """
    _check_player(game, n)
    core = game._core
    judged = core.judged  # read once: the test and the read see one record
    if judged[0] is opponents and judged[3] is not None:
        return _decoded(core, *judged[3][n])
    return _decoded(core, *_respond(core, _moves(core, opponents, n), n))


def best_response_enum(
    game: Game, opponents: Profile, n: int, guard: int | None = None
) -> tuple[Strategy, dict[str, PayoffValue]]:
    """Brute-force twin of `best_response`.

    Enumerates every strategy of player `n`, evaluates each from every
    start vertex, and keeps the per-vertex maximum. Used as an independent
    oracle: the strategy returned may differ from `best_response` when
    ties exist, but the values must agree exactly.

    Raises:
        TooLargeError: when the strategy space exceeds the guard.
    """
    _check_player(game, n)
    core = game._core
    nxt = _moves(core, opponents, n)
    mine = core.mine[n]
    check_guard(math.prod(len(core.succ[v]) for v in mine), guard)

    # The per-vertex maximum over every strategy's codes. The empty product
    # still yields one strategy, so `reduce` always has a first one.
    scores = (_codes(core, nxt)[n] for _ in _rewrite(core, nxt, mine))
    best = reduce(lambda a, b: tuple(map(max, a, b)), scores)
    for _ in _rewrite(core, nxt, mine):
        if _codes(core, nxt)[n] == best:
            return _decoded(core, {v: nxt[v] for v in mine}, best)
    raise AssertionError("no single strategy achieves the per-vertex maxima")
