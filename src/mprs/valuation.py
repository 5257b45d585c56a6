"""Plays, outcomes and exact payoffs under fixed memoryless strategies.

With deterministic transitions and memoryless strategies every play either
never touches the union target set or hits it exactly once, at a first
hitting time bounded by the number of vertices. A player's payoff is
therefore always 0 or +/- gamma**t for that hitting time t, so payoffs are
kept symbolically as a sign and an exponent (`PayoffValue`) and compared
without ever evaluating the discount factor: the induced order is the same
for every discount strictly between 0 and 1. Inside the package the
solvers run on an int-indexed form of each game (`_Core`) and on integer
payoff codes (`_encode`); `PayoffValue` maps appear only at the API.

`best_response` computes a payoff-maximizing memoryless strategy for one
player against fixed opponents by graph fixpoints (earliest arrival for
reachers, escape sets plus forced longest delay for avoiders), and
`best_response_enum` recomputes the same values by brute force over the
whole strategy space; the two must agree exactly and serve as independent
checks of one another.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .game import Game, Role
from .limits import check_guard

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
    equals ``Profile({1: m})``. Profiles are immutable, hashable and
    compare by content.
    """

    __slots__ = ("_items", "_lookup")

    def __init__(self, strategies: Mapping[int, Mapping[str, str]]):
        self._items = tuple(
            (n, tuple(sorted(strategies[n].items())))
            for n in sorted(strategies)
            if strategies[n]
        )
        self._lookup = {n: dict(moves) for n, moves in self._items}

    @property
    def players(self) -> tuple[int, ...]:
        """Players with a nonempty strategy."""
        return tuple(n for n, _ in self._items)

    def strategy(self, n: int) -> Strategy:
        return dict(self._lookup.get(n, {}))

    def choice(self, n: int, v: str) -> str:
        try:
            return self._lookup[n][v]
        except KeyError:
            raise ProfileError(f"profile fixes no move for player {n} at {v!r}") from None

    def replace(self, n: int, strategy: Mapping[str, str]) -> "Profile":
        """A new profile with player `n`'s strategy swapped out."""
        merged = {m: dict(moves) for m, moves in self._items}
        merged[n] = dict(strategy)
        return Profile(merged)

    def without(self, n: int) -> "Profile":
        return Profile({m: dict(moves) for m, moves in self._items if m != n})

    def as_dict(self) -> dict[int, Strategy]:
        return {n: dict(moves) for n, moves in self._items}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Profile) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"Profile({self.as_dict()!r})"


def check_profile(game: Game, profile: Profile) -> None:
    """Verify that `profile` fixes exactly one legal move per choice vertex.

    Raises:
        ProfileError: listing every way the profile fails to fit `game`.
    """
    problems = []
    legal = 0
    owner, targets = game.owner, game.total_target
    for n, moves in profile._items:
        if n not in game.roles:
            problems.append(f"strategy given for undeclared player {n}")
            continue
        for v, w in moves:
            m = owner.get(v)
            if m is None:
                problems.append(f"player {n} moves at unknown vertex {v!r}")
            elif m != n:
                problems.append(f"player {n} moves at {v!r}, owned by player {m}")
            elif v in targets:
                problems.append(f"player {n} moves at target vertex {v!r}")
            elif w not in game.successors(v):
                problems.append(f"chosen move {v!r} -> {w!r} is not an edge")
            else:
                legal += 1
    # Legal moves sit at distinct choice vertices, so as many legal moves
    # as choice vertices leave none of them open.
    if legal < len(game.choice_vertices):
        for v in game.choice_vertices:
            n = game.owner[v]
            if v not in profile._lookup.get(n, {}):
                problems.append(f"no move fixed at {v!r} for player {n}")
    if problems:
        raise ProfileError("; ".join(problems))


@dataclass(frozen=True)
class Outcome:
    """First visit of the union target set along a play, if any."""

    time: int | None = None
    vertex: str | None = None

    @classmethod
    def hit(cls, time: int, vertex: str) -> "Outcome":
        return cls(time, vertex)

    @property
    def is_hit(self) -> bool:
        return self.time is not None

    def __repr__(self) -> str:
        if self.time is None:
            return "Never"
        return f"Hit(t={self.time}, {self.vertex!r})"


NEVER = Outcome(None, None)


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
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign!r}")
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if self.sign == 0 and self.exponent != 0:
            raise ValueError("the zero payoff carries no exponent")

    @classmethod
    def pos(cls, exponent: int) -> "PayoffValue":
        return cls(1, exponent)

    @classmethod
    def neg(cls, exponent: int) -> "PayoffValue":
        return cls(-1, exponent)

    def discounted(self) -> "PayoffValue":
        """The value one discount step later; zero is a fixed point."""
        if self.sign == 0:
            return self
        return PayoffValue(self.sign, self.exponent + 1)

    def numeric(self, gamma: Fraction) -> Fraction:
        """Evaluate at a concrete discount factor."""
        return self.sign * Fraction(gamma) ** self.exponent

    # Written out rather than derived, because they sit on the verdicts'
    # hot path. Between equal signs s, the larger s * -exponent wins.
    def __lt__(self, other: "PayoffValue") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        return self.sign * (other.exponent - self.exponent) < 0

    def __le__(self, other: "PayoffValue") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        return self.sign * (other.exponent - self.exponent) <= 0

    def __gt__(self, other: "PayoffValue") -> bool:
        if self.sign != other.sign:
            return self.sign > other.sign
        return self.sign * (other.exponent - self.exponent) > 0

    def __ge__(self, other: "PayoffValue") -> bool:
        if self.sign != other.sign:
            return self.sign > other.sign
        return self.sign * (other.exponent - self.exponent) >= 0

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
    check_profile(game, profile)
    if start not in game.owner:
        raise ValueError(f"unknown start vertex {start!r}")
    steps: list[str | None] = [start]
    seen = {start}
    v = start
    while v not in game.total_target:
        v = profile.choice(game.owner[v], v)
        steps.append(v)
        if v in seen:
            return tuple(steps)
        seen.add(v)
    steps.append(None)
    return tuple(steps)


def outcome(game: Game, profile: Profile, start: str) -> Outcome:
    """First hit of the union target set on the play from vertex `start`."""
    for t, v in enumerate(play(game, profile, start)):
        if v in game.total_target:
            return Outcome.hit(t, v)
    return NEVER


def _payoff(game: Game, n: int, hit: tuple[int, str] | None) -> PayoffValue:
    """Payoff of player `n` for a first hit (time, vertex), or for no hit.

    Hitting the player's own target set at time t is worth gamma**t to a
    reacher and -gamma**t to an avoider; hitting only other players'
    targets, or never hitting at all, is worth zero.
    """
    if hit is None or hit[1] not in game.targets[n]:
        return ZERO
    return PayoffValue(1 if game.roles[n] is Role.REACHER else -1, hit[0])


def total_payoff(game: Game, n: int, o: Outcome) -> PayoffValue:
    """Discounted total payoff of player `n` for outcome `o`."""
    return _payoff(game, n, (o.time, o.vertex) if o.is_hit else None)


def qualitative_payoff(game: Game, n: int, o: Outcome) -> int:
    """Sign of the total payoff: 1 for a win, -1 for a loss, 0 otherwise."""
    return total_payoff(game, n, o).sign


class _Core:
    """Int-indexed form of a game, which every solver here runs on.

    Vertex i is ``game.vertices[i]``, so index order is lexicographic
    order. Target vertices are absorbing: they have no successors and are
    nobody's predecessor. `signs[n][i]` is the sign of player n's payoff
    when a play first hits vertex i, with a trailing 0 at index
    ``len(vertices)`` that stands for "no hit". Payoffs are integer codes
    (see `_encode`). Built once per game, on first use, by `Game._core`.
    """

    __slots__ = ("names", "index", "base", "owner", "succ", "pred", "choice", "signs")

    def __init__(self, game: Game):
        names, targets = game.vertices, game.total_target
        index = {v: i for i, v in enumerate(names)}
        succ = tuple(
            () if v in targets else tuple(map(index.__getitem__, game.successors(v)))
            for v in names
        )
        pred: list[list[int]] = [[] for _ in names]
        for v, ws in enumerate(succ):
            for w in ws:
                pred[w].append(v)
        self.names = names
        self.index = index
        self.base = len(names) + 1
        self.owner = tuple(map(game.owner.__getitem__, names))
        self.succ = succ
        self.pred = tuple(map(tuple, pred))
        self.choice = tuple(v for v, ws in enumerate(succ) if ws)
        self.signs = {
            n: tuple(_payoff(game, n, (0, v)).sign if v in targets else 0 for v in names) + (0,)
            for n in game.players
        }


# A payoff 0 or sign * gamma**t with t <= len(vertices) is kept inside the
# package as the integer code sign * (base - t), base = len(vertices) + 1,
# and 0 for the zero payoff. Codes compare exactly like `PayoffValue`s, for
# every gamma in (0, 1), and one discount step moves a code one toward 0.
# Decoding is cached, so the value maps of one game share their payoff
# objects and mostly compare by identity.


def _encode(p: PayoffValue, base: int) -> int:
    return p.sign * (base - p.exponent)


@lru_cache(maxsize=256)
def _decode(code: int, base: int) -> PayoffValue:
    if code == 0:
        return ZERO
    return PayoffValue(1, base - code) if code > 0 else PayoffValue(-1, base + code)


def _discount(code: int) -> int:
    return code - 1 if code > 0 else code + 1 if code < 0 else 0


def _payoffs(core: _Core, codes: list[int]) -> dict[str, PayoffValue]:
    """Vertex id to payoff, decoding each distinct code once."""
    decoded = {c: _decode(c, core.base) for c in set(codes)}
    return dict(zip(core.names, map(decoded.__getitem__, codes)))


def _moves(core: _Core, profile: Profile, skip: int | None = None) -> list[int]:
    """The successor `profile` picks at every choice vertex not owned by
    `skip`, and -1 at every other vertex.

    Raises:
        ProfileError: when a move is missing or is not an edge.
    """
    size = len(core.names)
    nxt = [-1] * size
    index, owner, succ = core.index, core.owner, core.succ
    for m, moves in profile._items:
        if m == skip:
            continue
        for v, w in moves:
            v = index.get(v)
            if v is not None and owner[v] == m and succ[v]:
                nxt[v] = index.get(w, size)  # `size` is never an edge
    for v in core.choice:
        if nxt[v] not in succ[v] and owner[v] != skip:
            w = profile.choice(owner[v], core.names[v])  # raises if missing
            raise ProfileError(f"opponent move {core.names[v]!r} -> {w!r} is not an edge")
    return nxt


def _hits(core: _Core, nxt: list[int]) -> tuple[list[int], list[int]]:
    """First hit from every start vertex when each vertex moves to `nxt`.

    Returns the hitting time and the target vertex hit, per vertex; the
    target is ``len(vertices)``, and the time meaningless, when the play
    never hits. Walks each
    unresolved vertex forward with memoization, so the whole table costs
    linear time in the number of vertices.
    """
    size = len(core.names)
    when = [-1 if ws else 0 for ws in core.succ]  # -1 unresolved, -2 on the walk
    where = list(range(size))
    for start in core.choice:
        if when[start] != -1:
            continue
        path = []
        v = start
        while when[v] == -1:
            when[v] = -2
            path.append(v)
            v = nxt[v]
        if when[v] == -2:  # walked into a fresh cycle: nobody on it hits
            t, w = 0, size
        else:
            t, w = when[v], where[v]
        for u in reversed(path):
            t += 1
            when[u] = t
            where[u] = w
    return when, where


def _codes(core: _Core, n: int, hits: tuple[list[int], list[int]]) -> list[int]:
    """Player `n`'s payoff code from every start vertex (see `_encode`)."""
    sign, base = core.signs[n], core.base
    when, where = hits
    return [sign[w] * (base - t) for t, w in zip(when, where)]


def value_table(game: Game, profile: Profile) -> dict[int, dict[str, PayoffValue]]:
    """Exact payoff of `profile` for every player and every start vertex.

    The result maps player to vertex to payoff, so ``value_table(g, p)[n]``
    has the shape of the value map `best_response` returns.
    """
    check_profile(game, profile)
    core = game._core
    hits = _hits(core, _moves(core, profile))
    return {n: _payoffs(core, _codes(core, n, hits)) for n in game.players}


def _reach(core: _Core, nxt: list[int], own: list[int]) -> list[int]:
    # Earliest-arrival layering toward the player's own targets. Paths may
    # not cross other target vertices: those stop the play with payoff 0,
    # and being nobody's predecessor they are never reached.
    pred = core.pred
    dist = [-1] * len(core.names)  # -1: the own targets are out of reach
    for v in own:
        dist[v] = 0
    frontier, d = own, 0
    while frontier:
        d += 1
        layer = []
        for w in frontier:
            for v in pred[w]:
                if dist[v] < 0 and (nxt[v] < 0 or nxt[v] == w):
                    dist[v] = d
                    layer.append(v)
        frontier = layer
    return dist


def _avoid(core: _Core, nxt: list[int], own: list[int]) -> list[int]:
    # A vertex is doomed when every available continuation leads into the
    # player's own target set. Vertices are doomed in an order where all of
    # a vertex's continuations come first, so the longest delay it can
    # force is known the moment it is doomed.
    succ, pred = core.succ, core.pred
    delay = [-1] * len(core.names)  # -1 outside the doomed region
    for v in own:
        delay[v] = 0
    queue = list(own)
    need: dict[int, int] = {}
    for w in queue:  # grows while it is walked
        for v in pred[w]:
            forced = nxt[v]
            if delay[v] >= 0 or forced not in (-1, w):
                continue
            need[v] = need.get(v, 1 if forced >= 0 else len(succ[v])) - 1
            if need[v] == 0:
                delay[v] = 1 + (delay[w] if forced >= 0 else max(delay[x] for x in succ[v]))
                queue.append(v)
    return delay


def best_response(
    game: Game, opponents: Profile, n: int
) -> tuple[Strategy, dict[str, PayoffValue]]:
    """Payoff-maximizing memoryless strategy of player `n` against `opponents`.

    `opponents` must fix a move at every non-target vertex not owned by
    `n`; an entry for `n` itself is ignored, so a full profile can be
    passed directly. Returns the strategy together with the value it
    guarantees from every start vertex. The result is deterministic (ties
    break toward the lexicographically smallest successor) and never
    depends on the discount factor.
    """
    if n not in game.roles:
        raise ValueError(f"unknown player {n!r}")
    core = game._core
    sign, succ, names = core.signs[n], core.succ, core.names
    own = [v for v in range(len(names)) if sign[v]]
    nxt = _moves(core, opponents, skip=n)
    respond = _reach if game.roles[n] is Role.REACHER else _avoid
    time = respond(core, nxt, own)  # until an own target is hit, or -1
    # Each own vertex moves one layer down: to a successor with time - 1,
    # or, where it has no time, to a successor without one. Such a move
    # exists: a reacher's vertex out of reach has only successors out of
    # reach, and an avoider's vertex outside the doomed region has a way
    # to stay outside.
    strategy = {}
    for v in core.choice:
        if nxt[v] < 0:
            want = max(time[v] - 1, -1)
            for w in succ[v]:
                if time[w] == want:
                    strategy[names[v]] = names[w]
                    break
    # Every own target carries the same sign: the one of the player's role.
    s, base = sign[own[0]], core.base
    return strategy, _payoffs(core, [s * (base - t) if t >= 0 else 0 for t in time])


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
    if n not in game.roles:
        raise ValueError(f"unknown player {n!r}")
    core = game._core
    nxt = _moves(core, opponents, skip=n)
    mine = [v for v in core.choice if core.owner[v] == n]
    check_guard(math.prod(len(core.succ[v]) for v in mine), guard)

    def evaluate(choice: tuple[int, ...]) -> list[int]:
        for v, w in zip(mine, choice):
            nxt[v] = w
        return _codes(core, n, _hits(core, nxt))

    best: list[int] | None = None
    for choice in itertools.product(*(core.succ[v] for v in mine)):
        codes = evaluate(choice)
        best = codes if best is None else list(map(max, best, codes))
    assert best is not None  # the empty product still yields one candidate

    for choice in itertools.product(*(core.succ[v] for v in mine)):
        if evaluate(choice) == best:
            names = core.names
            return {names[v]: names[w] for v, w in zip(mine, choice)}, _payoffs(core, best)
    raise AssertionError("no single strategy achieves the per-vertex maxima")
