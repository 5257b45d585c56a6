"""Property tests of validation, the value maps and the solvers on drawn
games and profiles.

Games are drawn directly as `GameSpec`s (3-7 vertices, 1-3 players, one to
three targets each, possibly shared, and edge sets about as dense as the
acceptance ensemble's densest games, self-loops included), so a
counterexample shrinks to a minimal game instead of staying a seed of the
fixed ensembles. At this density best-response dynamics often need a
second round.
"""

from __future__ import annotations

import random

import pytest

from mprs import (
    Deviation,
    GameSpec,
    InvalidGameError,
    Profile,
    Role,
    Violation,
    ViolationKind,
    best_response,
    best_response_enum,
    check_certificate,
    emit_game,
    is_nash,
    is_nash_qualitative,
    outcome,
    parse_document,
    solve_br_dynamics,
    total_payoff,
    validate_game,
    value_table,
)
from mprs import valuation

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402

from conftest import documented_text  # noqa: E402


@st.composite
def specs(draw):
    count = draw(st.integers(3, 7))
    vertices = [f"v{i}" for i in range(1, count + 1)]
    players = range(1, draw(st.integers(1, 3)) + 1)
    pick = st.sampled_from(vertices)
    roles = {n: draw(st.sampled_from(Role)) for n in players}
    targets = {n: draw(st.sets(pick, min_size=1, max_size=3)) for n in players}
    total = set().union(*targets.values())
    owner = {v: draw(st.sampled_from(players)) for v in vertices}
    # Only non-target vertices need a way out. Each vertex draws its
    # successors as one bitmask, bit i for the i-th vertex, so every
    # successor set is open to it, about half the vertices on average.
    edges = []
    for v in vertices:
        bits = draw(st.integers(0 if v in total else 1, 2**count - 1))
        edges += [(v, w) for i, w in enumerate(vertices) if bits >> i & 1]
    return GameSpec(vertices, edges, owner, roles, targets)


@st.composite
def games_and_profiles(draw):
    game = validate_game(draw(specs()))
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
def test_certificate_deviations_match_a_switched_valuation(drawn):
    """Each certificate deviation holds what valuing the whole game again,
    with that one move switched, gives at its vertex."""
    game, profile = drawn
    core = game._core
    nxt = valuation._moves(core, profile)
    table = value_table(game, profile)
    for dev in check_certificate(game, profile).violations:
        v = core.index[dev.vertex]
        switched = list(nxt)
        switched[v] = core.index[dev.better_action]
        code = valuation._codes(core, dev.player, valuation._hits(core, switched))[v]
        available = valuation._decode(code, core.base)
        achieved = table[dev.player][dev.vertex]
        assert dev == Deviation(dev.player, dev.vertex, dev.better_action, achieved, available)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(games_and_profiles())
def test_dynamics_stop_only_at_equilibria(drawn):
    game, profile = drawn
    found = solve_br_dynamics(game, profile)
    if found is not None:
        assert is_nash(game, found).is_ne
        assert check_certificate(game, found).is_ne
    # A round with a switch is never the last one, so a single round ends
    # the dynamics only where they started at an equilibrium.
    start_is_ne = is_nash(game, profile).is_ne
    assert solve_br_dynamics(game, profile, max_rounds=1) == (profile if start_is_ne else None)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(games_and_profiles(), st.data())
def test_a_reused_profile_is_judged_like_fresh_copies(drawn, data):
    """A game remembers the last profile object it checked in full; calls
    on that object, in any order, give what fresh equal copies give."""
    game, profile = drawn
    calls = {
        "value_table": value_table,
        "is_nash": is_nash,
        "is_nash_qualitative": is_nash_qualitative,
        "check_certificate": check_certificate,
    }
    for n in game.players:
        calls[f"best_response {n}"] = lambda g, p, n=n: best_response(g, p, n)
    expected = {name: call(game, Profile(profile.as_dict())) for name, call in calls.items()}
    for name in data.draw(st.lists(st.sampled_from(sorted(calls)), min_size=1, max_size=12)):
        assert calls[name](game, profile) == expected[name], name


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(games_and_profiles())
def test_a_dynamics_result_is_judged_like_a_fresh_copy(drawn):
    """The dynamics hand their result over with each player's last
    response; best responses and deviation reports on it, which read
    those, are what a fresh equal copy gives."""
    game, profile = drawn
    found = solve_br_dynamics(game, profile)
    if found is None:
        return
    recorded = [best_response(game, found, n) for n in game.players]
    reports = [is_nash(game, found), is_nash_qualitative(game, found)]
    fresh = Profile(found.as_dict())
    assert recorded == [best_response(game, fresh, n) for n in game.players]
    assert reports == [is_nash(game, fresh), is_nash_qualitative(game, fresh)]


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


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(specs(), st.data())
def test_emitted_text_is_json_dumps_of_the_document(spec, data):
    """`emit_game` writes the bytes `json.dumps` writes for the documented
    shape, here with drawn vertex ids (any text) and drawn named profiles."""
    count = len(spec.vertices)
    names = data.draw(st.lists(st.text(), min_size=count, max_size=count, unique=True))
    rename = dict(zip(spec.vertices, names)).__getitem__
    game = validate_game(
        GameSpec(
            names,
            [(rename(u), rename(w)) for u, w in spec.edges],
            {rename(v): n for v, n in spec.owner.items()},
            spec.roles,
            {n: list(map(rename, t)) for n, t in spec.targets.items()},
        )
    )
    profiles = {}
    for name in data.draw(st.lists(st.text(), max_size=2, unique=True)):
        strategies: dict[int, dict[str, str]] = {}
        for v in game.choice_vertices:
            move = data.draw(st.sampled_from(game.successors(v)))
            strategies.setdefault(game.owner[v], {})[v] = move
        profiles[name] = Profile(strategies)
    assert emit_game(game, profiles) == documented_text(game, profiles)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(games_and_profiles())
def test_core_matches_the_public_graph(drawn):
    """The solvers' int form, built from validation's adjacency, is the
    public graph with targets made absorbing, with each player's choice
    vertices in order, and neither it nor solving shows up in equality or
    in the document."""
    game, profile = drawn
    core = game._core
    assert core.names == game.vertices
    assert core.index == {v: i for i, v in enumerate(core.names)}
    for i, v in enumerate(core.names):
        successors = () if v in game.total_target else game.successors(v)
        assert tuple(core.names[j] for j in core.succ[i]) == successors
        assert core.pred[i] == tuple(u for u, ws in enumerate(core.succ) if i in ws)
    for n in game.players:
        owned = [v for v in game.choice_vertices if game.owner[v] == n]
        assert tuple(core.names[i] for i in core.mine[n]) == tuple(owned)
    text = emit_game(game)
    again = parse_document(text).game
    solve_br_dynamics(game, profile)
    solve_br_dynamics(again, profile)
    assert again == game
    assert emit_game(again) == emit_game(game) == text


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(specs(), st.data())
def test_validation_ignores_edge_order_and_repeats(spec, data):
    def validate(edges):
        return validate_game(GameSpec(spec.vertices, edges, spec.owner, spec.roles, spec.targets))

    # One drawn seed drives every shuffle, which is cheaper than drawing
    # each shuffle step through hypothesis.
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))

    def shuffled(edges):
        edges = edges + edges[: data.draw(st.integers(0, len(edges)))]
        rng.shuffle(edges)
        return edges

    game = validate(spec.edges)
    again = validate(shuffled(spec.edges))
    assert again == game
    assert emit_game(again) == emit_game(game)
    assert game.edges == tuple(sorted(set(spec.edges)))
    for v in game.vertices:
        assert game.successors(v) == tuple(sorted(w for u, w in game.edges if u == v))

    # Edges to or from undeclared vertices, and entries that are no pair,
    # are each reported, once per occurrence, in the sorted violation list.
    ends = st.sampled_from(list(spec.vertices) + ["x1", "x2"])
    undeclared = st.sampled_from(["x1", "x2"])
    bad = (
        st.tuples(ends, undeclared)
        | st.tuples(undeclared, ends)
        | st.tuples(ends)
        | st.tuples(ends, ends, ends)
        | st.none()
    )
    edges = shuffled(spec.edges + data.draw(st.lists(bad, min_size=1, max_size=6)))
    with pytest.raises(InvalidGameError) as caught:
        validate(edges)
    found = caught.value.violations
    expected = []
    for edge in edges:
        if edge is None or len(edge) != 2:
            expected.append(Violation(ViolationKind.BAD_EDGE, f"edge {edge!r} is not a pair of vertices"))
            continue
        u, w = edge
        for end in edge:
            if end not in spec.vertices:
                expected.append(
                    Violation(
                        ViolationKind.DANGLING_EDGE,
                        f"edge ({u}, {w}) mentions undeclared vertex {end!r}",
                    )
                )

    def in_report_order(violations):
        return sorted(violations, key=lambda x: (x.kind.value, x.detail))

    kinds = (ViolationKind.BAD_EDGE, ViolationKind.DANGLING_EDGE)
    assert [v for v in found if v.kind in kinds] == in_report_order(expected)
    assert list(found) == in_report_order(found)
    with pytest.raises(InvalidGameError) as again:
        validate(rng.sample(edges, len(edges)))
    assert again.value.violations == found
