"""Two-player arenas, attractor computation and the equilibrium cross-check."""

from __future__ import annotations

from collections import Counter

import pytest

from mprs import (
    ZERO,
    GameSpec,
    InvalidGameError,
    PayoffValue,
    Profile,
    Role,
    TooLargeError,
    TwoPlayerArena,
    ViolationKind,
    attractor,
    cross_check_two_player,
    enumerate_ne,
    make_reachability,
    make_safety,
    outcome,
    validate_game,
    value_table,
)
from mprs import classic, valuation

from conftest import random_arena


def swap_control(arena: TwoPlayerArena) -> TwoPlayerArena:
    """The same board with every vertex handed to the other side."""
    return TwoPlayerArena(
        vertices=arena.vertices,
        edges=arena.edges,
        reacher_owned=arena.avoider_owned,
        avoider_owned=arena.reacher_owned,
        target=arena.target,
    )


class TestArenaConstruction:
    def test_reachability_view_recovers_the_micro_game(self, g1):
        arena = TwoPlayerArena(
            vertices=["v1", "v2", "v3"],
            edges=[("v1", "v2"), ("v1", "v3"), ("v2", "v1")],
            reacher_owned=["v1"],
            avoider_owned=["v2", "v3"],
            target=["v3"],
        )
        assert make_reachability(arena) == g1

    def test_safety_keeps_control_and_swaps_objectives(self, g3_arena):
        reach = make_reachability(g3_arena)
        safe = make_safety(g3_arena)
        assert safe.owner == reach.owner
        assert safe.vertices == reach.vertices
        assert safe.edges == reach.edges
        assert safe.targets == reach.targets
        assert reach.roles == {1: Role.REACHER, 2: Role.AVOIDER}
        assert safe.roles == {1: Role.AVOIDER, 2: Role.REACHER}

    def test_overlapping_ownership_is_rejected(self):
        arena = TwoPlayerArena(
            vertices=["a", "b"],
            edges=[("a", "b"), ("b", "a")],
            reacher_owned=["a", "b"],
            avoider_owned=["b"],
            target=["b"],
        )
        with pytest.raises(InvalidGameError) as err:
            make_reachability(arena)
        assert any(v.kind is ViolationKind.MULTIPLY_OWNED for v in err.value.violations)

    @pytest.mark.parametrize("edge", [("v1",), ("v1", "v2", "v3"), 7, None])
    def test_an_edge_that_is_no_pair_is_rejected(self, edge):
        with pytest.raises(InvalidGameError) as raised:
            TwoPlayerArena(
                vertices=["v1", "v2", "v3"],
                edges=[("v1", "v2"), edge, ("v2", "v3")],
                reacher_owned=["v1"],
                avoider_owned=["v2", "v3"],
                target=["v3"],
            )
        (violation,) = raised.value.violations
        assert violation.kind is ViolationKind.BAD_EDGE
        assert repr(edge) in violation.detail

    def test_unassigned_vertex_is_rejected(self):
        arena = TwoPlayerArena(
            vertices=["a", "b", "c"],
            edges=[("a", "b"), ("b", "c")],
            reacher_owned=["a"],
            avoider_owned=["b"],
            target=["c"],
        )
        with pytest.raises(InvalidGameError) as err:
            make_reachability(arena)
        assert any(v.kind is ViolationKind.UNOWNED_VERTEX for v in err.value.violations)


class TestSpecialShapes:
    def test_single_avoider_circles_forever(self):
        game = validate_game(
            GameSpec(
                vertices=["a", "b"],
                edges=[("a", "a"), ("a", "b")],
                owner={"a": 1, "b": 1},
                roles={1: Role.AVOIDER},
                targets={1: ["b"]},
            )
        )
        assert game.roles == {1: Role.AVOIDER}
        (sigma,) = enumerate_ne(game)
        assert sigma == Profile({1: {"a": "a"}})
        assert value_table(game, sigma)[1]["a"] == ZERO

    def test_all_reachers_on_the_first_board(self):
        game = validate_game(
            GameSpec(
                vertices=["v1", "v2", "v3"],
                edges=[("v1", "v2"), ("v1", "v3"), ("v2", "v1")],
                owner={"v1": 1, "v2": 2, "v3": 2},
                roles={1: Role.REACHER, 2: Role.REACHER},
                targets={1: ["v3"], 2: ["v1"]},
            )
        )
        assert game.roles == {1: Role.REACHER, 2: Role.REACHER}
        # v1 and v3 are both targets now, so only v2 is a choice vertex
        assert game.choice_vertices == ("v2",)
        (sigma,) = enumerate_ne(game)
        table = value_table(game, sigma)
        assert table[2] == {
            "v1": PayoffValue(1, 0),
            "v2": PayoffValue(1, 1),
            "v3": ZERO,
        }
        # the hit happens on the other player's target, worth nothing to 1
        assert table[1]["v2"] == ZERO


class TestAttractor:
    def test_chain_with_back_edge(self, g3_arena):
        assert attractor(g3_arena) == {"v3"}

    def test_added_shortcut_flips_the_whole_board(self, g3_arena_plus):
        # with v1 -> v3 available the avoider has no refuge anywhere
        assert attractor(g3_arena_plus) == {"v1", "v2", "v3"}

    def test_target_is_always_inside(self):
        for seed in range(30):
            arena = random_arena(seed)
            assert arena.target <= attractor(arena)

    def test_everything_is_its_own_attractor(self):
        arena = TwoPlayerArena(
            vertices=["a", "b"],
            edges=[("a", "b"), ("b", "a")],
            reacher_owned=["a"],
            avoider_owned=["b"],
            target=["a", "b"],
        )
        assert attractor(arena) == {"a", "b"}

    @pytest.mark.parametrize(
        "edges, target, kinds",
        [
            ([("v1", "v4"), ("v2", "v1")], ["v3"], [ViolationKind.DANGLING_EDGE]),
            ([("v0", "v1"), ("v2", "v1")], ["v3"], [ViolationKind.DANGLING_EDGE]),
            ([("v1", "v2"), ("v2", "v1")], ["v3", "v9"], [ViolationKind.TARGET_OUTSIDE_GRAPH]),
            (
                [("v1", "v2"), ("v2", "x")],
                ["y"],
                [ViolationKind.DANGLING_EDGE, ViolationKind.TARGET_OUTSIDE_GRAPH],
            ),
        ],
        ids=["edge-head", "edge-tail", "target", "both"],
    )
    def test_undeclared_vertices_are_an_invalid_game(self, edges, target, kinds):
        arena = TwoPlayerArena(
            vertices=["v1", "v2", "v3"],
            edges=edges,
            reacher_owned=["v1"],
            avoider_owned=["v2", "v3"],
            target=target,
        )
        with pytest.raises(InvalidGameError) as raised:
            attractor(arena)
        assert [v.kind for v in raised.value.violations] == kinds
        # The game built on the same board is refused for the same reasons.
        with pytest.raises(InvalidGameError) as built:
            make_reachability(arena)
        assert set(kinds) <= {v.kind for v in built.value.violations}

    def test_vertex_ids_are_read_as_strings(self):
        numbered = TwoPlayerArena(
            vertices=[1, 2, 3],
            edges=[(1, 2), (2, 3), (2, 1)],
            reacher_owned=[1],
            avoider_owned=[2, 3],
            target=[3],
        )
        assert numbered.vertices == {"1", "2", "3"} and numbered.target == {"3"}
        assert attractor(numbered) == {"3"}
        assert make_reachability(numbered).vertices == ("1", "2", "3")
        assert cross_check_two_player(numbered).ok

    def test_fixpoint_stability(self):
        """Inside vertices satisfy the join rules, outside vertices refute them."""
        for seed in range(40):
            arena = random_arena(seed)
            region = attractor(arena)
            succ = {v: {w for u, w in arena.edges if u == v} for v in arena.vertices}
            for v in arena.vertices - arena.target:
                if v in region:
                    if v in arena.reacher_owned:
                        assert succ[v] & region, (seed, v)
                    else:
                        assert succ[v] <= region, (seed, v)
                else:
                    if v in arena.reacher_owned:
                        assert not (succ[v] & region), (seed, v)
                    else:
                        assert succ[v] - region, (seed, v)


class TestCrossCheck:
    def test_chain(self, g3_arena):
        report = cross_check_two_player(g3_arena)
        assert report.ok
        assert report.attractor == {"v3"}
        assert report.equilibria
        assert report.mismatches == ()

    def test_chain_with_shortcut(self, g3_arena_plus):
        report = cross_check_two_player(g3_arena_plus)
        assert report.ok
        assert report.attractor == {"v1", "v2", "v3"}

    def test_random_arenas_never_mismatch(self):
        for seed in range(30):
            report = cross_check_two_player(random_arena(seed), guard=10**5)
            assert report.ok, (seed, report.mismatches)

    def test_guard_applies(self, g3_arena):
        with pytest.raises(TooLargeError):
            cross_check_two_player(g3_arena, guard=1)

    def test_each_equilibrium_is_read_off_one_value_table(self, g3_arena_plus, monkeypatch):
        calls = Counter()

        def counted(name, call):
            def wrapper(*args):
                calls[name] += 1
                return call(*args)

            return wrapper

        monkeypatch.setattr(valuation, "play", counted("play", valuation.play))
        table = counted("value_table", valuation.value_table)
        monkeypatch.setattr(classic, "value_table", table, raising=False)
        for arena in (g3_arena_plus, random_arena(5)):
            calls.clear()
            report = cross_check_two_player(arena)
            assert report.ok and report.equilibria
            assert calls == {"value_table": len(report.equilibria)}


class TestSafetyDuality:
    def test_worked_example(self, g3_arena):
        # handing both boards' control to the other side, the reacher in the
        # safety view drags the token in from everywhere
        assert attractor(swap_control(g3_arena)) == {"v1", "v2", "v3"}
        safe = make_safety(g3_arena)
        (sigma,) = enumerate_ne(safe)
        for v in safe.vertices:
            assert outcome(safe, sigma, v).is_hit

    def test_avoider_escapes_exactly_outside_the_swapped_attractor(self):
        """Safety winning region = complement of the attractor after a control swap."""
        for seed in range(25):
            arena = random_arena(seed)
            region = attractor(swap_control(arena))
            safe = make_safety(arena)
            for sigma in enumerate_ne(safe, guard=10**5):
                for v in safe.vertices:
                    hit = outcome(safe, sigma, v).is_hit
                    assert hit == (v in region), (seed, v)
