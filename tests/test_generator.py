"""Seeded generation: determinism, validity, parameter checking."""

from __future__ import annotations

from fractions import Fraction

import pytest

from mprs import GeneratorParams, InfeasibleError, Role, emit_game, random_game


def test_same_seed_same_game():
    a = random_game(GeneratorParams(num_players=3, num_vertices=8, seed=42))
    b = random_game(GeneratorParams(num_players=3, num_vertices=8, seed=42))
    assert a == b


def test_different_seeds_usually_differ():
    texts = {
        emit_game(random_game(GeneratorParams(num_players=2, num_vertices=6, seed=s)))
        for s in range(12)
    }
    assert len(texts) > 1


def test_everything_generated_is_valid():
    # random_game validates internally, so surviving the call is the point;
    # spot-check shape on top of it
    for seed in range(50):
        params = GeneratorParams(
            num_players=1 + seed % 3,
            num_vertices=3 + seed % 5,
            edge_density=(0.2, 0.5, 0.8)[seed % 3],
            targets_per_player=1 + seed % 2,
            seed=seed,
        )
        game = random_game(params)
        assert len(game.vertices) == params.num_vertices
        assert game.players == tuple(range(1, params.num_players + 1))
        for n in game.players:
            assert len(game.targets[n]) == params.targets_per_player


def test_vertex_names_are_zero_padded():
    game = random_game(GeneratorParams(num_players=1, num_vertices=12, seed=0))
    assert "v01" in game.vertices and "v12" in game.vertices
    assert sorted(game.vertices) == list(game.vertices)


def test_fixed_roles_are_respected():
    params = GeneratorParams(
        num_players=2,
        num_vertices=5,
        roles=(Role.AVOIDER, Role.AVOIDER),
        seed=7,
    )
    assert random_game(params).roles == {1: Role.AVOIDER, 2: Role.AVOIDER}


def test_gamma_is_passed_through():
    params = GeneratorParams(num_players=1, num_vertices=4, gamma=Fraction(3, 10), seed=1)
    assert random_game(params).gamma == Fraction(3, 10)


@pytest.mark.parametrize(
    "params",
    [
        GeneratorParams(num_players=0, num_vertices=3),
        GeneratorParams(num_players=1, num_vertices=0),
        GeneratorParams(num_players=1, num_vertices=3, edge_density=0.0),
        GeneratorParams(num_players=1, num_vertices=3, edge_density=1.5),
        GeneratorParams(num_players=1, num_vertices=3, targets_per_player=4),
        GeneratorParams(num_players=1, num_vertices=3, targets_per_player=0),
        GeneratorParams(num_players=2, num_vertices=3, roles=(Role.REACHER,)),
    ],
    ids=[
        "no-players",
        "no-vertices",
        "zero-density",
        "overfull-density",
        "too-many-targets",
        "no-targets",
        "role-count-mismatch",
    ],
)
def test_out_of_range_parameters(params):
    with pytest.raises(InfeasibleError):
        random_game(params)


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_players", True),
        ("num_players", 2.0),
        ("num_vertices", 2.5),
        ("targets_per_player", 1.0),
        ("edge_density", "0.5"),
        ("edge_density", True),
        ("edge_density", None),
    ],
)
def test_parameters_of_the_wrong_type(field, value):
    params = {"num_players": 2, "num_vertices": 4, "edge_density": 0.5, "targets_per_player": 1}
    params[field] = value
    with pytest.raises(InfeasibleError, match=field):
        random_game(GeneratorParams(**params))


def test_exact_densities_are_accepted():
    for density in (1, Fraction(1, 2)):
        assert random_game(GeneratorParams(num_players=1, num_vertices=3, edge_density=density))


def test_hopeless_density_gives_up():
    # density this thin cannot cover every vertex within the resample budget
    params = GeneratorParams(num_players=1, num_vertices=6, edge_density=1e-9, seed=3)
    with pytest.raises(InfeasibleError, match="resamples"):
        random_game(params)
