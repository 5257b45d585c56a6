"""Property tests of the value maps and solvers on drawn games and profiles.

Games are drawn directly as `GameSpec`s (1-5 vertices, 1-3 players,
self-loops allowed, targets possibly shared between players), so a
counterexample shrinks to a minimal game instead of staying a seed of the
fixed ensembles.
"""

from __future__ import annotations

import pytest

from mprs import (
    GameSpec,
    Profile,
    Role,
    best_response,
    best_response_enum,
    check_certificate,
    emit_game,
    is_nash,
    outcome,
    parse_document,
    solve_br_dynamics,
    total_payoff,
    validate_game,
    value_table,
)

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402


@st.composite
def games_and_profiles(draw):
    vertices = [f"v{i}" for i in range(1, draw(st.integers(1, 5)) + 1)]
    players = range(1, draw(st.integers(1, 3)) + 1)
    pick = st.sampled_from(vertices)
    roles = {n: draw(st.sampled_from(Role)) for n in players}
    targets = {n: draw(st.sets(pick, min_size=1)) for n in players}
    total = set().union(*targets.values())
    owner = {v: draw(st.sampled_from(players)) for v in vertices}
    # Only non-target vertices need a way out.
    edges = [
        (v, w)
        for v in vertices
        for w in draw(st.sets(pick, min_size=0 if v in total else 1))
    ]
    game = validate_game(GameSpec(vertices, edges, owner, roles, targets))
    strategies: dict[int, dict[str, str]] = {}
    for v in game.choice_vertices:
        strategies.setdefault(game.owner[v], {})[v] = draw(st.sampled_from(game.successors(v)))
    return game, Profile(strategies)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(games_and_profiles())
def test_value_maps_agree(drawn):
    game, profile = drawn
    table = value_table(game, profile)
    for n in game.players:
        strategy, fast = best_response(game, profile, n)
        _, slow = best_response_enum(game, profile, n)
        assert fast == slow
        assert value_table(game, profile.replace(n, strategy))[n] == fast
        for v in game.vertices:
            assert table[n][v] == total_payoff(game, n, outcome(game, profile, v))
    assert is_nash(game, profile).is_ne == check_certificate(game, profile).is_ne


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(games_and_profiles())
def test_dynamics_stop_only_at_equilibria(drawn):
    game, profile = drawn
    found = solve_br_dynamics(game, profile)
    if found is not None:
        assert is_nash(game, found).is_ne
        assert check_certificate(game, found).is_ne


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(games_and_profiles())
def test_document_round_trip_after_evaluation(drawn):
    """The int-indexed form cached on an evaluated game shows up in
    neither its equality nor its document."""
    game, profile = drawn
    value_table(game, profile)
    assert "_core" in vars(game)
    text = emit_game(game)
    again = parse_document(text).game
    assert again == game
    assert emit_game(again) == text
