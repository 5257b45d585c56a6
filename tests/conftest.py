"""Shared fixtures: the two worked micro-games, arenas, ensemble helpers."""

from __future__ import annotations

import gc
import json
import os
import random
from pathlib import Path

import pytest

import mprs
from mprs import (
    GameSpec,
    GeneratorParams,
    Profile,
    Role,
    TwoPlayerArena,
    random_game,
    validate_game,
)


@pytest.fixture(autouse=True)
def gc_stays_enabled():
    """The package pauses the cyclic GC only while it builds a game, so
    every test must find it on and leave it on."""
    assert gc.isenabled()
    yield
    assert gc.isenabled()


@pytest.fixture
def g1():
    """Three vertices; P1 reaches v3, P2 avoids it; P2 is forced at v2."""
    return validate_game(
        GameSpec(
            vertices=["v1", "v2", "v3"],
            edges=[("v1", "v2"), ("v1", "v3"), ("v2", "v1")],
            owner={"v1": 1, "v2": 2, "v3": 2},
            roles={1: Role.REACHER, 2: Role.AVOIDER},
            targets={1: ["v3"], 2: ["v3"]},
        )
    )


@pytest.fixture
def g1_hat():
    return Profile({1: {"v1": "v3"}, 2: {"v2": "v1"}})


@pytest.fixture
def g2():
    """Self-loop escape: P1 avoids w2 and can circle on w1 forever."""
    return validate_game(
        GameSpec(
            vertices=["w1", "w2"],
            edges=[("w1", "w1"), ("w1", "w2")],
            owner={"w1": 1, "w2": 2},
            roles={1: Role.AVOIDER, 2: Role.REACHER},
            targets={1: ["w2"], 2: ["w2"]},
        )
    )


@pytest.fixture
def g3_arena():
    """Chain v1 -> v2 -> v3 with the back edge v2 -> v1."""
    return TwoPlayerArena(
        vertices=["v1", "v2", "v3"],
        edges=[("v1", "v2"), ("v2", "v3"), ("v2", "v1")],
        reacher_owned=["v1"],
        avoider_owned=["v2", "v3"],
        target=["v3"],
    )


@pytest.fixture
def g3_arena_plus():
    """The same chain with the shortcut v1 -> v3 added."""
    return TwoPlayerArena(
        vertices=["v1", "v2", "v3"],
        edges=[("v1", "v2"), ("v2", "v3"), ("v2", "v1"), ("v1", "v3")],
        reacher_owned=["v1"],
        avoider_owned=["v2", "v3"],
        target=["v3"],
    )


def small_game(seed: int):
    """One deterministic small game per seed, in the acceptance envelope."""
    return random_game(
        GeneratorParams(
            num_players=2 + seed % 2,
            num_vertices=3 + seed % 4,
            edge_density=(0.3, 0.45, 0.6, 0.75)[seed % 4],
            targets_per_player=1 + seed % 2,
            seed=seed,
        )
    )


def documented_text(game, profiles=None) -> str:
    """The canonical text of a game's document, as `json.dumps` writes the
    shape the `gamefile` docstring documents; `emit_game` must match it."""
    doc = {
        "gamma": str(game.gamma),
        "players": [
            {"id": n, "role": game.roles[n].value, "targets": sorted(game.targets[n])}
            for n in game.players
        ],
        "vertices": [{"id": v, "owner": game.owner[v]} for v in game.vertices],
        "edges": [[u, w] for u in game.vertices for w in game.successors(u)],
    }
    if profiles:
        doc["profiles"] = {
            # Keys spelled as json spells an int, whatever the id's own `str`.
            name: {int.__repr__(n): moves for n, moves in profile.as_dict().items()}
            for name, profile in profiles.items()
        }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def random_profile(game, rng: random.Random) -> Profile:
    """A uniformly drawn legal profile."""
    strategies: dict[int, dict[str, str]] = {}
    for v in game.choice_vertices:
        strategies.setdefault(game.owner[v], {})[v] = rng.choice(game.successors(v))
    return Profile(strategies)


def random_arena(seed: int) -> TwoPlayerArena:
    """A small dead-end-free arena with a shared target."""
    rng = random.Random(seed)
    count = rng.randint(3, 6)
    names = [f"v{i}" for i in range(1, count + 1)]
    target = set(rng.sample(names, rng.randint(1, 2)))
    density = rng.choice((0.3, 0.5, 0.7))
    while True:
        edges = {(u, w) for u in names for w in names if rng.random() < density}
        sources = {u for u, _ in edges}
        if all(v in sources or v in target for v in names):
            break
    reacher_owned = {v for v in names if rng.random() < 0.5}
    return TwoPlayerArena(
        vertices=names,
        edges=edges,
        reacher_owned=reacher_owned,
        avoider_owned=set(names) - reacher_owned,
        target=target,
    )


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a `python -m mprs` child process that imports the
    same package as the test run, whether or not it is installed."""
    src = str(Path(mprs.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)
