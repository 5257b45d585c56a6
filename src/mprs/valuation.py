"""Plays, outcomes and exact payoffs under fixed memoryless strategies.

With deterministic transitions and memoryless strategies every play either
never touches the union target set or hits it exactly once, at a first
hitting time bounded by the number of vertices. A player's payoff is
therefore always 0 or +/- gamma**t for that hitting time t, so payoffs are
kept symbolically as a sign and an exponent (`PayoffValue`) and compared
without ever evaluating the discount factor: the induced order is the same
for every discount strictly between 0 and 1.

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
from functools import total_ordering
from typing import Mapping

from .game import TERMINAL, Game, Role, State
from .limits import check_guard

# A memoryless strategy: each of the player's non-target vertices to the
# chosen successor.
Strategy = dict[str, str]

Play = tuple[State, ...]


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
    for n in profile.players:
        if n not in game.roles:
            problems.append(f"strategy given for undeclared player {n}")
            continue
        for v, w in sorted(profile.strategy(n).items()):
            if v not in game.owner:
                problems.append(f"player {n} moves at unknown vertex {v!r}")
            elif game.owner[v] != n:
                problems.append(f"player {n} moves at {v!r}, owned by player {game.owner[v]}")
            elif v in game.total_target:
                problems.append(f"player {n} moves at target vertex {v!r}")
            elif w not in game.successors(v):
                problems.append(f"chosen move {v!r} -> {w!r} is not an edge")
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

    def _key(self) -> tuple[int, int]:
        return (self.sign, -self.sign * self.exponent)

    def __lt__(self, other: "PayoffValue") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        mark = "+" if self.sign > 0 else "-"
        return f"{mark}1" if self.exponent == 0 else f"{mark}γ^{self.exponent}"


ZERO = PayoffValue(0)


class ValueTable:
    """Exact payoff of a fixed profile, per player and start state."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[tuple[int, State], PayoffValue]):
        self._values = dict(values)

    def __getitem__(self, key: tuple[int, State]) -> PayoffValue:
        return self._values[key]

    def value(self, n: int, s: State) -> PayoffValue:
        return self._values[(n, s)]

    def restrict(self, n: int) -> dict[State, PayoffValue]:
        return {s: pv for (m, s), pv in self._values.items() if m == n}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ValueTable) and self._values == other._values

    def __repr__(self) -> str:
        return f"ValueTable({self._values!r})"


def play(game: Game, profile: Profile, start: State) -> Play:
    """Unroll the token path from `start` under `profile`.

    The play stops at the terminal state or at the first repeated state
    (after which it would cycle forever), so it always has at most
    ``len(game.vertices) + 2`` entries.
    """
    check_profile(game, profile)
    if not start.is_terminal and start.vertex not in game.owner:
        raise ValueError(f"unknown start vertex {start.vertex!r}")
    states = [start]
    seen = {start}
    current = start
    while not current.is_terminal:
        v = current.vertex
        if v in game.total_target:
            nxt = TERMINAL
        else:
            nxt = State.at(profile.choice(game.owner[v], v))
        states.append(nxt)
        if nxt in seen:
            break
        seen.add(nxt)
        current = nxt
    return tuple(states)


def outcome(game: Game, profile: Profile, start: State) -> Outcome:
    """First hit of the union target set on the play from `start`."""
    for t, s in enumerate(play(game, profile, start)):
        if not s.is_terminal and s.vertex in game.total_target:
            return Outcome.hit(t, s.vertex)
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


def _profile_successor(game: Game, profile: Profile) -> dict[str, str]:
    """The single successor the owner picks at every non-target vertex."""
    return {v: profile.choice(game.owner[v], v) for v in game.choice_vertices}


def _first_hits(game: Game, succ: Mapping[str, str]) -> dict[str, tuple[int, str] | None]:
    """First-hit time and vertex from every start, for a successor map.

    Walks each unresolved vertex forward with memoization, so the whole
    table costs linear time in the number of vertices.
    """
    memo: dict[str, tuple[int, str] | None] = {}
    targets = game.total_target
    for start in game.vertices:
        if start in memo:
            continue
        path: list[str] = []
        seen_at: dict[str, int] = {}
        current = start
        while True:
            if current in memo:
                base = memo[current]
                break
            if current in targets:
                base = (0, current)
                memo[current] = base
                break
            if current in seen_at:
                base = None  # walked into a fresh cycle: nobody on it hits
                break
            seen_at[current] = len(path)
            path.append(current)
            current = succ[current]
        for i in range(len(path) - 1, -1, -1):
            if base is None:
                memo[path[i]] = None
            else:
                dist, vertex = base
                memo[path[i]] = (dist + len(path) - i, vertex)
    return memo


def value_table(game: Game, profile: Profile) -> ValueTable:
    """Exact payoff of `profile` for every player and every start state."""
    check_profile(game, profile)
    hits = _first_hits(game, _profile_successor(game, profile))
    values: dict[tuple[int, State], PayoffValue] = {}
    for n in game.players:
        for v in game.vertices:
            values[(n, State.at(v))] = _payoff(game, n, hits[v])
        values[(n, TERMINAL)] = ZERO
    return ValueTable(values)


def _forced_moves(game: Game, opponents: Profile, n: int) -> dict[str, str]:
    """Moves fixed by the other players; entries for `n` itself are ignored."""
    forced = {}
    for v in game.choice_vertices:
        m = game.owner[v]
        if m == n:
            continue
        w = opponents.choice(m, v)
        if w not in game.successors(v):
            raise ProfileError(f"opponent move {v!r} -> {w!r} is not an edge")
        forced[v] = w
    return forced


def _effective_successors(game: Game, forced: Mapping[str, str], n: int) -> dict[str, tuple[str, ...]]:
    """Successor choices at each non-target vertex once opponents are fixed."""
    return {
        v: game.successors(v) if game.owner[v] == n else (forced[v],)
        for v in game.choice_vertices
    }


def _reverse(succ: Mapping[str, tuple[str, ...]]) -> dict[str, list[str]]:
    rev: dict[str, list[str]] = {}
    for v in sorted(succ):
        for w in succ[v]:
            rev.setdefault(w, []).append(v)
    return rev


def _reacher_response(
    game: Game, succ: Mapping[str, tuple[str, ...]], n: int
) -> tuple[Strategy, dict[str, PayoffValue]]:
    # Earliest-arrival layering toward the player's own targets. Paths may
    # not cross other target vertices: those stop the play with payoff 0,
    # and the layering never assigns them.
    own = game.targets[n]
    rev = _reverse(succ)
    dist: dict[str, int] = {v: 0 for v in own}
    frontier = sorted(own)
    while frontier:
        nxt = []
        for w in frontier:
            for v in rev.get(w, ()):
                if v not in dist:
                    dist[v] = dist[w] + 1
                    nxt.append(v)
        frontier = sorted(nxt)

    strategy: Strategy = {}
    for v in game.choice_vertices:
        if game.owner[v] != n:
            continue
        here = dist.get(v)
        if here is None:
            strategy[v] = game.successors(v)[0]
            continue
        for w in game.successors(v):
            if dist.get(w) == here - 1:
                strategy[v] = w
                break

    values = {
        v: PayoffValue(1, dist[v]) if v in dist else ZERO for v in game.vertices
    }
    return strategy, values


def _avoider_response(
    game: Game, succ: Mapping[str, tuple[str, ...]], n: int
) -> tuple[Strategy, dict[str, PayoffValue]]:
    # A vertex is doomed when every available continuation leads into the
    # player's own target set; on the doomed region the induced graph is
    # acyclic, and the best the avoider can do is stretch the hitting time.
    own = game.targets[n]
    rev = _reverse(succ)
    need = {v: len(succ[v]) for v in succ}
    doomed = set(own)
    queue = sorted(own)
    while queue:
        nxt = []
        for w in queue:
            for v in rev.get(w, ()):
                if v in doomed:
                    continue
                need[v] -= 1
                if need[v] == 0:
                    doomed.add(v)
                    nxt.append(v)
        queue = sorted(nxt)

    delay: dict[str, int] = {v: 0 for v in own}
    on_stack: set[str] = set()
    for root in sorted(doomed):
        if root in delay:
            continue
        stack = [(root, iter(succ[root]))]
        on_stack.add(root)
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                on_stack.discard(v)
                delay[v] = 1 + max(delay[x] for x in succ[v])
            elif w not in delay:
                if w in on_stack:
                    raise AssertionError("cycle inside the doomed region")
                stack.append((w, iter(succ[w])))
                on_stack.add(w)

    strategy: Strategy = {}
    for v in game.choice_vertices:
        if game.owner[v] != n:
            continue
        if v not in doomed:
            for w in game.successors(v):
                if w not in doomed:
                    strategy[v] = w
                    break
        else:
            for w in game.successors(v):
                if delay.get(w) == delay[v] - 1:
                    strategy[v] = w
                    break

    values = {
        v: PayoffValue(-1, delay[v]) if v in doomed else ZERO for v in game.vertices
    }
    return strategy, values


def best_response(
    game: Game, opponents: Profile, n: int
) -> tuple[Strategy, dict[State, PayoffValue]]:
    """Payoff-maximizing memoryless strategy of player `n` against `opponents`.

    `opponents` must fix a move at every non-target vertex not owned by
    `n`; an entry for `n` itself is ignored, so a full profile can be
    passed directly. Returns the strategy together with the value it
    guarantees from every start state. The result is deterministic (ties
    break toward the lexicographically smallest successor) and never
    depends on the discount factor.
    """
    if n not in game.roles:
        raise ValueError(f"unknown player {n!r}")
    forced = _forced_moves(game, opponents, n)
    succ = _effective_successors(game, forced, n)
    if game.roles[n] is Role.REACHER:
        strategy, by_vertex = _reacher_response(game, succ, n)
    else:
        strategy, by_vertex = _avoider_response(game, succ, n)
    values = {State.at(v): pv for v, pv in by_vertex.items()}
    values[TERMINAL] = ZERO
    return strategy, values


def best_response_enum(
    game: Game, opponents: Profile, n: int, guard: int | None = None
) -> tuple[Strategy, dict[State, PayoffValue]]:
    """Brute-force twin of `best_response`.

    Enumerates every strategy of player `n`, evaluates each from every
    start state, and keeps the per-state maximum. Used as an independent
    oracle: the strategy returned may differ from `best_response` when
    ties exist, but the values must agree exactly.

    Raises:
        TooLargeError: when the strategy space exceeds the guard.
    """
    if n not in game.roles:
        raise ValueError(f"unknown player {n!r}")
    forced = _forced_moves(game, opponents, n)
    mine = [v for v in game.choice_vertices if game.owner[v] == n]
    space = math.prod(len(game.successors(v)) for v in mine)
    check_guard(space, guard)

    def evaluate(choice: tuple[str, ...]) -> dict[str, PayoffValue]:
        succ = dict(forced)
        succ.update(zip(mine, choice))
        hits = _first_hits(game, succ)
        return {v: _payoff(game, n, hits[v]) for v in game.vertices}

    best: dict[str, PayoffValue] | None = None
    for choice in itertools.product(*(game.successors(v) for v in mine)):
        vals = evaluate(choice)
        if best is None:
            best = vals
        else:
            for v in game.vertices:
                if vals[v] > best[v]:
                    best[v] = vals[v]
    assert best is not None  # the empty product still yields one candidate

    strategy: Strategy | None = None
    for choice in itertools.product(*(game.successors(v) for v in mine)):
        if evaluate(choice) == best:
            strategy = dict(zip(mine, choice))
            break
    if strategy is None:
        raise AssertionError("no single strategy achieves the per-state maxima")

    values = {State.at(v): pv for v, pv in best.items()}
    values[TERMINAL] = ZERO
    return strategy, values
