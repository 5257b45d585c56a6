"""Seeded inputs of the three workloads.

Each workload runs a fixed set of games whose outputs were recorded once
(see `record_refs.py`), so that every run, whatever its seed, is checked
against those references. The seed orders the games and picks the
per-game variations that do not change how much work a game is: the
profile and start vertex shipped with each small game, and the profiles
judged one by one on each medium game. A seed-drawn set of games would
make the tails and medians depend on which heavy games a draw happens to
include.

The large-game recipe lives here rather than in `mprs.generator`:
`random_game` resamples the whole O(V^2) edge set and gives up on sparse
games of 1k vertices, and keeping the recipe in the benchmark means no
change to the generator can change these inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mprs import classic, gamefile, generator
from mprs import game as mgame
from mprs.equilibrium import profile_space
from mprs.valuation import Profile

CLI_GAMES = 500
CLI_VARIANTS = 4  # recorded (profile, start vertex) choices per small game

ENUM_GAMES = 8
ENUM_MIN_SPACE = 10_000
ENUM_MAX_SPACE = 13_000
ENUM_SAMPLED_PROFILES = 30
ENUM_BRD_STARTS = 24  # recorded start profiles of the dynamics per medium game

# Vertex count -> number of large games of that size.
LARGE_GAMES = {1000: 4, 3000: 3, 10000: 2}
LARGE_DEGREE = 3
LARGE_TARGETS = 2
# Two avoiders then one reacher. With these roles best-response dynamics
# from the first-successor profile settles in two rounds on every large
# game, so the BRD timings measure speed rather than how many rounds a
# particular draw happens to need.
LARGE_ROLES = (mgame.Role.AVOIDER, mgame.Role.AVOIDER, mgame.Role.REACHER)


# ---------------------------------------------------------------- recipes


def small_params(i: int) -> generator.GeneratorParams:
    """The acceptance-ensemble recipe for game `i` (2-3 players, 3-6 vertices)."""
    return generator.GeneratorParams(
        num_players=2 + i % 2,
        num_vertices=3 + i % 4,
        edge_density=(0.3, 0.45, 0.6, 0.75)[i % 4],
        targets_per_player=1 + i % 2,
        seed=i,
    )


def random_profile(game: mgame.Game, rng: random.Random) -> Profile:
    """A uniformly drawn legal profile."""
    strategies: dict[int, dict[str, str]] = {}
    for v in game.choice_vertices:
        strategies.setdefault(game.owner[v], {})[v] = rng.choice(game.successors(v))
    return Profile(strategies)


def first_successor_profile(game: mgame.Game) -> Profile:
    """The profile `mprs solve --method brd` starts from."""
    strategies: dict[int, dict[str, str]] = {}
    for v in game.choice_vertices:
        strategies.setdefault(game.owner[v], {})[v] = game.successors(v)[0]
    return Profile(strategies)


def random_arena(i: int) -> classic.TwoPlayerArena:
    """A small dead-end-free two-player arena with a shared target."""
    rng = random.Random(i)
    count = rng.randint(3, 6)
    names = [f"v{k}" for k in range(1, count + 1)]
    target = set(rng.sample(names, rng.randint(1, 2)))
    density = rng.choice((0.3, 0.5, 0.7))
    while True:
        edges = {(u, w) for u in names for w in names if rng.random() < density}
        sources = {u for u, _ in edges}
        if all(v in sources or v in target for v in names):
            break
    reacher_owned = {v for v in names if rng.random() < 0.5}
    return classic.TwoPlayerArena(
        vertices=names,
        edges=edges,
        reacher_owned=reacher_owned,
        avoider_owned=set(names) - reacher_owned,
        target=target,
    )


def medium_params(s: int) -> generator.GeneratorParams:
    """Candidate `s` of the medium recipe: 2-3 players, 11-12 vertices."""
    return generator.GeneratorParams(
        num_players=2 + s % 2,
        num_vertices=11 + (s // 2) % 2,
        edge_density=0.3,
        targets_per_player=1 + (s // 4) % 2,
        seed=s,
    )


def large_game(vertices: int, seed: int) -> mgame.Game:
    """Out-degree-3 game with three players and two targets each, in O(V*d)."""
    rng = random.Random(f"large-{vertices}-{seed}")
    width = len(str(vertices))
    names = [f"v{k:0{width}d}" for k in range(1, vertices + 1)]
    players = range(1, len(LARGE_ROLES) + 1)
    owner = {v: rng.randint(1, len(LARGE_ROLES)) for v in names}
    targets = {n: rng.sample(names, LARGE_TARGETS) for n in players}
    edges = [(u, w) for u in names for w in rng.sample(names, LARGE_DEGREE)]
    roles = dict(zip(players, LARGE_ROLES))
    return mgame.validate_game(
        mgame.GameSpec(names, edges, owner, roles, targets, Fraction(1, 2))
    )


# ------------------------------------------------------------ rank coding


def profile_rank(game: mgame.Game, profile: Profile) -> int:
    """Position of `profile` in the lexicographic order `all_profiles` uses."""
    rank = 0
    for v in game.choice_vertices:
        succ = game.successors(v)
        rank = rank * len(succ) + succ.index(profile.choice(game.owner[v], v))
    return rank


def profile_at(game: mgame.Game, rank: int) -> Profile:
    """Inverse of `profile_rank`."""
    picks = []
    for v in reversed(game.choice_vertices):
        succ = game.successors(v)
        rank, k = divmod(rank, len(succ))
        picks.append((v, succ[k]))
    strategies: dict[int, dict[str, str]] = {}
    for v, w in reversed(picks):
        strategies.setdefault(game.owner[v], {})[v] = w
    return Profile(strategies)


# ------------------------------------------------------------ workloads


@dataclass
class CliCase:
    """One small game of `cli-small` and the two documents it is read from."""

    documents: dict[Path, str]
    game_path: str
    arena_path: str
    start: str
    vertices: int
    space: int
    gen_args: list[str]


def cli_variants(seed: int) -> list[tuple[int, int]]:
    """(game id, variant) of every small game, in the seed's order."""
    rng = random.Random(f"cli-small-{seed}")
    cases = [(i, rng.randrange(CLI_VARIANTS)) for i in range(CLI_GAMES)]
    rng.shuffle(cases)
    return cases


def cli_case(i: int, variant: int, workdir: Path) -> CliCase:
    """Build small game `i` with its profile `variant`, and its documents'
    text; writing them is left to the caller."""
    params = small_params(i)
    game = generator.random_game(params)
    rng = random.Random(f"cli-profile-{i}-{variant}")
    profile = random_profile(game, rng)
    start = rng.choice(game.vertices)
    game_path = workdir / f"game-{i}.json"
    arena_path = workdir / f"arena-{i}.json"
    documents = {
        game_path: gamefile.emit_game(game, {"p": profile}),
        arena_path: gamefile.emit_game(classic.make_reachability(random_arena(i))),
    }
    gen_args = [
        "gen",
        "--seed", str(params.seed),
        "--vertices", str(params.num_vertices),
        "--players", str(params.num_players),
        "--density", str(params.edge_density),
        "--targets-per-player", str(params.targets_per_player),
    ]
    return CliCase(
        documents, str(game_path), str(arena_path), start, len(game.vertices),
        profile_space(game), gen_args,
    )


def enum_set() -> list[int]:
    """Generator seeds of the medium set: the first `ENUM_GAMES` candidates
    whose profile space lies within the bounds."""
    seeds: list[int] = []
    s = 0
    while len(seeds) < ENUM_GAMES:
        try:
            game = generator.random_game(medium_params(s))
        except generator.InfeasibleError:
            game = None
        if game is not None and ENUM_MIN_SPACE <= profile_space(game) <= ENUM_MAX_SPACE:
            seeds.append(s)
        s += 1
    return seeds


def brd_starts(game: mgame.Game, s: int) -> list[Profile]:
    """The fixed start profiles of the dynamics on medium game `s`."""
    rng = random.Random(f"brd-start-{s}")
    return [random_profile(game, rng) for _ in range(ENUM_BRD_STARTS)]


def large_set() -> list[tuple[int, int]]:
    """(vertices, recipe seed) of every large game."""
    return [(n, k) for n, count in LARGE_GAMES.items() for k in range(count)]
