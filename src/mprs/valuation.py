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

Every profile goes through one routine, `_moves`, a pure check that
builds its move array (one successor index per vertex) in the same pass.
Each game remembers the last profile that `value_table`, a verdict or the
dynamics judged (`_Core.judged`), so the verdicts on one profile check it
and build its hit table once, and on a dynamics result they reuse its
last responses instead of solving them again. The value maps of that
profile are decoded once and handed out as copies, also as the values
of a best response whose codes equal the profile's own.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Mapping, Sequence

from .game import Game, _check_player, turn_payoff
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
    equals ``Profile({1: m})``. Profiles are immutable, hashable and
    compare by content.
    """

    __slots__ = ("_items",)

    def __init__(self, strategies: Mapping[int, Mapping[str, str]]):
        if not isinstance(strategies, Mapping):
            raise ProfileError(f"a profile maps player ids to strategies, got {strategies!r}")
        try:
            self._items = tuple(
                (n, tuple(sorted(strategies[n].items())))
                for n in sorted(strategies)
                if strategies[n]
            )
        except TypeError as exc:
            raise ProfileError(f"profile keys of mixed types cannot be ordered: {exc}") from None
        except AttributeError:
            for n in sorted(strategies):
                if strategies[n] and not hasattr(strategies[n], "items"):
                    raise ProfileError(
                        f"the strategy of player {n} must map vertices to moves,"
                        f" got {strategies[n]!r}"
                    ) from None
            raise

    def choice(self, n: int, v: str) -> str:
        try:
            return dict(dict(self._items)[n])[v]
        except (KeyError, TypeError):
            raise ProfileError(f"profile fixes no move for player {n} at {v!r}") from None

    def replace(self, n: int, strategy: Mapping[str, str]) -> "Profile":
        """A new profile with player `n`'s strategy swapped out."""
        merged = {m: dict(moves) for m, moves in self._items}
        merged[n] = dict(strategy)
        return Profile(merged)

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
        """Evaluate at a concrete discount factor."""
        return self.sign * Fraction(gamma) ** self.exponent

    # Written out, because `is_nash` compares with it; `total_ordering`
    # derives the other three. Between equal signs s, the larger
    # s * -exponent wins.
    def __gt__(self, other: "PayoffValue") -> bool:
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
    core = game._core
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
    vertex's `turn_payoff` times gamma**time, or zero without a hit."""
    sign = turn_payoff(game, n, o.vertex)  # 0 at vertex None, with no hit
    return PayoffValue(sign, o.time) if sign else ZERO


class _Core:
    """Int-indexed form of a game, which every solver here runs on.

    Vertex i is ``game.vertices[i]``, so index order is lexicographic
    order. Target vertices are absorbing: they have no successors and are
    nobody's predecessor. `own[n]` lists player n's target vertices and
    `mine[n]` player n's choice vertices, both in index order.
    `sign[n]` is the sign of player n's payoff at each of n's own targets,
    n's `turn_payoff` there. Payoffs are integer codes (see `_decode`).
    Built once per game, on first use, by `Game._core`.

    `judged` holds ``(profile, move array, codes, responses, values)``
    for the last profile judged here. Only `_judged`, `value_table` and
    `_profile` store it, so a mere check or play never evicts it. `codes`
    are every player's payoff codes, or None until `_judged` adds them to
    a dynamics result. `responses` map every player to `_respond`'s result
    on the move array when the profile came out of best-response
    dynamics, which hold them all at convergence, and are None otherwise;
    `best_response` on that profile object returns them. `values` are
    every player's value map, or None until `value_table` decodes them;
    only copies of them leave this module. Each update stores one new
    tuple, and nothing in it is ever mutated.

    `zeros` maps every vertex id to `ZERO`. It is None until the first
    value map of the game is decoded, and is never handed out itself.
    """

    __slots__ = (
        "names", "index", "base", "owner", "succ", "pred", "choice", "mine", "own", "sign",
        "judged", "zeros",
    )

    def __init__(self, game: Game):
        names, index = game.vertices, game._index
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
        self.sign = {n: turn_payoff(game, n, names[own[0]]) for n, own in self.own.items()}
        self.judged = (None, (), None, None, None)
        self.zeros = None


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
    zeros = core.zeros
    if zeros is None:
        zeros = core.zeros = dict.fromkeys(core.index, ZERO)
    values = zeros.copy()
    paid = map(_decode, filter(None, codes), itertools.repeat(core.base))
    values.update(zip(itertools.compress(core.names, codes), paid))
    return values


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
    if not isinstance(profile, Profile):
        raise ProfileError(f"expected a Profile, got {type(profile).__name__}")
    size = len(core.names)
    nxt = [-1] * size
    index, owner, succ = core.index, core.owner, core.succ
    problems = []
    legal = 0
    for n, moves in profile._items:
        if n == skip:
            continue
        if n not in core.mine:
            problems.append(f"strategy given for undeclared player {n}")
            continue
        for v, w in moves:
            i = index.get(v)
            if i is None:
                problems.append(f"player {n} moves at unknown vertex {v!r}")
            elif owner[i] != n:
                problems.append(f"player {n} moves at {v!r}, owned by player {owner[i]}")
            elif not succ[i]:
                problems.append(f"player {n} moves at target vertex {v!r}")
            else:
                try:
                    j = index[w]
                except (KeyError, TypeError):  # no vertex id, so no edge
                    j = size
                nxt[i] = j
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


def _hits(core: _Core, nxt: list[int]) -> tuple[list[int], dict[int, list[int]]]:
    """First hit from every start vertex when each vertex moves to `nxt`.

    Returns the hitting time per vertex, meaningless when the play never
    hits, and per target vertex the vertices whose plays hit it first,
    itself included. Walks each unresolved vertex forward with
    memoization, so the whole table costs linear time in the number of
    vertices.
    """
    size = len(core.names)
    when = [-1 if ws else 0 for ws in core.succ]  # -1 unresolved, -2 on the walk
    where = list(range(size))  # the target hit, or `size` for none
    reached = {w: [w] for own in core.own.values() for w in own}
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
        if w < size:
            reached[w] += path
    return when, reached


def _codes(core: _Core, n: int, hits: tuple[list[int], dict[int, list[int]]]) -> list[int]:
    """Player `n`'s payoff code from every start vertex (see `_decode`):
    nonzero only on the plays that hit one of n's own targets."""
    s, base = core.sign[n], core.base
    when, reached = hits
    code = [0] * len(when)
    for w in core.own[n]:
        for v in reached[w]:
            code[v] = s * (base - when[v])
    return code


def _judged(core: _Core, profile: Profile) -> tuple:
    """`core.judged` for `profile`, with every player's payoff codes filled
    in, and the responses and value maps it already held for `profile` kept."""
    judged = core.judged
    if judged[0] is not profile:
        judged = (profile, tuple(_moves(core, profile)), None, None, None)
    if judged[2] is None:
        hits = _hits(core, judged[1])
        codes = {n: tuple(_codes(core, n, hits)) for n in core.sign}
        judged = core.judged = (*judged[:2], codes, judged[3], None)
    return judged


def _profile(core: _Core, nxt: list[int], responses: dict[int, tuple]) -> Profile:
    """The `Profile` of the checked move array `nxt`, recorded in `core.judged`
    with `responses`, every player's `_respond` result on `nxt`."""
    names = core.names
    profile = Profile({n: {names[v]: names[nxt[v]] for v in mine} for n, mine in core.mine.items()})
    core.judged = (profile, tuple(nxt), None, responses, None)
    return profile


def value_table(game: Game, profile: Profile) -> dict[int, dict[str, PayoffValue]]:
    """Exact payoff of `profile` for every player and every start vertex.

    The result maps player to vertex to payoff, so ``value_table(g, p)[n]``
    has the shape of the value map `best_response` returns. Every call
    returns fresh maps, which the caller may change.
    """
    core = game._core
    judged = _judged(core, profile)
    values = judged[4]
    if values is None:
        codes = judged[2]
        values = {n: _payoffs(core, codes[n]) for n in game.players}
        core.judged = (*judged[:4], values)
    return {n: values[n].copy() for n in game.players}


def _respond(core: _Core, nxt: list[int], n: int) -> tuple[dict[int, int], list[int]]:
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
    return moves, code


def _best(game: Game, opponents: Profile, n: int, solve) -> tuple[Strategy, dict[str, PayoffValue]]:
    # Both best responses: check `n` and `opponents`, then name the moves
    # and decode the codes that `solve(core, nxt, n)` returns. The judged
    # profile object lends its checked move array, and `_respond`'s result
    # when the dynamics recorded it. Codes equal to n's codes under it are
    # not decoded again once `value_table` decoded them: n's recorded map
    # is copied instead.
    _check_player(game, n)
    core = game._core
    judged = core.judged
    recorded = judged[0] is opponents
    if solve is _respond and recorded and judged[3] is not None:
        moves, codes = judged[3][n]
    else:
        moves, codes = solve(core, list(judged[1]) if recorded else _moves(core, opponents, n), n)
    names = core.names
    strategy = {names[v]: names[w] for v, w in moves.items()}
    if recorded and judged[4] is not None and judged[2][n] == tuple(codes):
        return strategy, judged[4][n].copy()
    return strategy, _payoffs(core, codes)


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
    return _best(game, opponents, n, _respond)


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

    def search(core: _Core, nxt: list[int], n: int) -> tuple[dict[int, int], list[int]]:
        mine = core.mine[n]
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
                return dict(zip(mine, choice)), best
        raise AssertionError("no single strategy achieves the per-vertex maxima")

    return _best(game, opponents, n, search)
