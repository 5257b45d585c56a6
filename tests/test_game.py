"""Model layer: validation, ownership, moves, turn payoffs."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mprs import (
    GameSpec,
    InvalidGameError,
    Profile,
    ProfileError,
    Role,
    ViolationKind,
    check_profile,
    play,
    turn_payoff,
    validate_game,
)
from conftest import random_profile, small_game


def kinds(excinfo) -> set[ViolationKind]:
    return {v.kind for v in excinfo.value.violations}


class TestValidation:
    def test_worked_game_passes(self, g1):
        assert g1.vertices == ("v1", "v2", "v3")
        assert g1.players == (1, 2)
        assert g1.total_target == {"v3"}
        assert g1.choice_vertices == ("v1", "v2")

    def test_successors_and_edges_are_in_name_order(self):
        # Each vertex's edges arrive in decreasing order, so every successor
        # list must be repaired before it is in name order.
        names = [f"v{i:02d}" for i in range(12)]
        edges = [(u, w) for k, u in enumerate(names) for w in names[k % 3 :: 3][::-1]]
        game = validate_game(
            GameSpec(names, edges, dict.fromkeys(names, 1), {1: Role.REACHER}, {1: ["v00"]})
        )
        assert game.edges == tuple(sorted(set(edges)))
        for u in names:
            assert game.successors(u) == tuple(sorted(w for v, w in edges if v == u))

    def test_dangling_edge(self):
        spec = GameSpec(
            vertices=["v1", "v2", "v3"],
            edges=[("v1", "v2"), ("v1", "v9"), ("v2", "v1"), ("v1", "v3")],
            owner={"v1": 1, "v2": 2, "v3": 2},
            roles={1: Role.REACHER, 2: Role.AVOIDER},
            targets={1: ["v3"], 2: ["v3"]},
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert kinds(e) == {ViolationKind.DANGLING_EDGE}

    def test_empty_target_set(self):
        spec = GameSpec(
            vertices=["v1", "v2", "v3"],
            edges=[("v1", "v2"), ("v1", "v3"), ("v2", "v1")],
            owner={"v1": 1, "v2": 2, "v3": 2},
            roles={1: Role.REACHER, 2: Role.AVOIDER},
            targets={1: [], 2: ["v3"]},
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert ViolationKind.EMPTY_TARGET_SET in kinds(e)

    def test_dead_end(self):
        # v2 loses its only outgoing edge and is not a target
        spec = GameSpec(
            vertices=["v1", "v2", "v3"],
            edges=[("v1", "v2"), ("v1", "v3")],
            owner={"v1": 1, "v2": 2, "v3": 2},
            roles={1: Role.REACHER, 2: Role.AVOIDER},
            targets={1: ["v3"], 2: ["v3"]},
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert kinds(e) == {ViolationKind.DEAD_END}

    def test_target_with_no_out_edges_is_fine(self, g1):
        # v3 has out-degree 0 but is a target, so the game is playable
        assert g1.successors("v3") == ()

    def test_unowned_vertex(self):
        spec = GameSpec(
            vertices=["v1", "v2", "v3"],
            edges=[("v1", "v2"), ("v1", "v3"), ("v2", "v1")],
            owner={"v1": 1, "v3": 2},
            roles={1: Role.REACHER, 2: Role.AVOIDER},
            targets={1: ["v3"], 2: ["v3"]},
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert kinds(e) == {ViolationKind.UNOWNED_VERTEX}

    def test_two_spellings_of_one_vertex_with_different_owners(self):
        # 1 and "1" both name vertex "1"; neither owner may silently win.
        spec = GameSpec(
            ["1", "2"],
            [("1", "2"), ("2", "1")],
            {1: 1, "1": 2, "2": 1},
            {1: Role.REACHER, 2: Role.AVOIDER},
            {1: ["2"], 2: ["2"]},
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert str(e.value) == "multiply_owned: vertex '1' is owned by players 1 and 2"

    def test_owner_keys_are_read_as_their_text(self):
        # A str subclass key names the vertex its text spells, as any
        # other key does, and the game keeps the plain text.
        class Tag(str):
            def __repr__(self) -> str:
                return "Tag"

        spec = GameSpec(
            ["a", "b"],
            [("a", "b"), ("b", "a")],
            {Tag("a"): 1, Tag("b"): 1},
            {1: Role.REACHER},
            {1: ["b"]},
        )
        game = validate_game(spec)
        assert {type(v) for v in game.owner} == {str}
        assert "Tag" not in repr(game)

    def test_a_lone_surrogate_vertex_id_is_refused(self):
        # No UTF-8 document could hold the id, so `emit_game` could not
        # write the game for `parse_document` to read back.
        spec = GameSpec(
            ["\ud800", "b"],
            [("b", "\ud800")],
            {"\ud800": 1, "b": 1},
            {1: Role.REACHER},
            {1: ["\ud800"]},
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert {(v.kind, v.detail) for v in e.value.violations} == {
            (ViolationKind.BAD_VERTEX_SET, f"vertex id in {what} must be Unicode text, got '\\ud800'")
            for what in ("the vertex list", "target set of player 1")
        }

    @pytest.mark.parametrize(
        "gamma", [0, 1, Fraction(3, 2), -1, "junk", None, float("inf"), float("nan")]
    )
    def test_bad_gamma(self, gamma):
        spec = GameSpec(
            vertices=["v1"],
            edges=[],
            owner={"v1": 1},
            roles={1: Role.REACHER},
            targets={1: ["v1"]},
            gamma=gamma,
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert kinds(e) == {ViolationKind.BAD_GAMMA}

    def test_all_violations_reported_at_once(self):
        spec = GameSpec(
            vertices=["v1", "v2"],
            edges=[("v1", "v9")],
            owner={"v1": 1},
            roles={1: Role.REACHER, 2: Role.AVOIDER},
            targets={1: [], 2: ["zz"]},
            gamma=2,
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        got = kinds(e)
        for expected in (
            ViolationKind.DANGLING_EDGE,
            ViolationKind.UNOWNED_VERTEX,
            ViolationKind.EMPTY_TARGET_SET,
            ViolationKind.TARGET_OUTSIDE_GRAPH,
            ViolationKind.BAD_GAMMA,
        ):
            assert expected in got

    def test_malformed_roles_and_edges_are_collected(self):
        spec = GameSpec(
            vertices=["a", "b"],
            edges=[("a", "b"), ("a",), ("b", "ghost")],
            owner={"a": 1, "b": 2},
            roles={1: Role.REACHER, 2: "bogus"},
            targets={1: ["b"], 2: ["b"]},
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert kinds(e) == {
            ViolationKind.BAD_ROLE,
            ViolationKind.BAD_EDGE,
            ViolationKind.DANGLING_EDGE,
        }

    def test_player_ids_must_be_consecutive(self):
        spec = GameSpec(
            vertices=["v1"],
            edges=[],
            owner={"v1": 1},
            roles={1: Role.REACHER, 3: Role.AVOIDER},
            targets={1: ["v1"], 3: ["v1"]},
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert ViolationKind.BAD_PLAYERS in kinds(e)

    @pytest.mark.parametrize(
        "first", [pytest.param(True, id="bool"), pytest.param("1", id="str")]
    )
    def test_player_ids_must_be_integers(self, first):
        spec = GameSpec(
            vertices=["v1"],
            edges=[],
            owner={"v1": 2},
            roles={first: Role.REACHER, 2: Role.AVOIDER},
            targets={first: ["v1"], 2: ["v1"]},
        )
        with pytest.raises(InvalidGameError) as e:
            validate_game(spec)
        assert kinds(e) == {ViolationKind.BAD_PLAYERS}
        assert "must be integers" in str(e.value)

    def test_target_set_for_an_undeclared_player(self):
        with pytest.raises(InvalidGameError) as e:
            validate_game(self.two_cycle(targets={1: ["b"], 3: ["a"]}))
        assert str(e.value) == "unknown_player: target set declared for undeclared player 3"

    def test_owner_that_is_no_player(self):
        with pytest.raises(InvalidGameError) as e:
            validate_game(self.two_cycle(owner={"a": 2, "b": 1}))
        assert [str(v) for v in e.value.violations] == [
            "unknown_player: vertex 'a' is owned by undeclared player 2",
            "unowned_vertex: vertex 'a' has no owner",
        ]

    @pytest.mark.parametrize("key", [pytest.param(True, id="bool"), pytest.param(1.0, id="float")])
    def test_target_set_keys_are_player_ids(self, key):
        # Both keys equal 1 and hash like it, but neither is a player id.
        with pytest.raises(InvalidGameError) as e:
            validate_game(self.two_cycle(targets={key: ["b"]}))
        assert str(e.value) == f"unknown_player: target set declared for undeclared player {key!r}"

    def test_int_target_set_key(self):
        assert validate_game(self.two_cycle()).targets == {1: frozenset({"b"})}

    def test_target_set_keys_cost_one_lookup_each(self):
        # Ids that count their equality tests show the work without timing
        # it: a scan of the player list per key would make about n²/2.
        calls = 0

        class CountedId(int):
            def __eq__(self, other: object) -> bool:
                nonlocal calls
                calls += 1
                return int.__eq__(self, other)

            __hash__ = int.__hash__

        ids = [CountedId(n) for n in range(1, 2001)]
        roles, targets = dict.fromkeys(ids, Role.REACHER), dict.fromkeys(ids, ["b"])
        spec = GameSpec(["a", "b"], [("a", "b")], {"a": ids[0], "b": ids[0]}, roles, targets)
        calls = 0
        assert validate_game(spec).players == tuple(ids)
        assert calls <= 2 * len(ids)

    @staticmethod
    def two_cycle(**changes) -> GameSpec:
        spec = GameSpec(
            ["a", "b"], [("a", "b"), ("b", "a")], {"a": 1, "b": 1}, {1: Role.REACHER}, {1: ["b"]}
        )
        return GameSpec(**{**vars(spec), **changes})

    @pytest.mark.parametrize(
        "changes, expected",
        [
            ({"targets": {1: "ab"}}, {ViolationKind.BAD_VERTEX_SET}),
            ({"targets": {1: None}}, {ViolationKind.BAD_VERTEX_SET}),
            ({"vertices": "ab"}, {ViolationKind.BAD_VERTEX_SET}),
            ({"vertices": 2}, {ViolationKind.BAD_VERTEX_SET}),
            ({"owner": {"a": [1], "b": 1}}, {ViolationKind.UNKNOWN_PLAYER}),
            # A player id is an int that is not a bool, as in a document.
            ({"owner": {"a": True, "b": 1}}, {ViolationKind.UNKNOWN_PLAYER}),
            ({"owner": {"a": 1.0, "b": 1}}, {ViolationKind.UNKNOWN_PLAYER}),
            # An unusable edge list, owner map or target map is read as empty,
            # which leaves a dead end, unowned vertices or an empty target set.
            ({"edges": None}, {ViolationKind.BAD_EDGE, ViolationKind.DEAD_END}),
            ({"edges": 5}, {ViolationKind.BAD_EDGE, ViolationKind.DEAD_END}),
            ({"owner": [("a", 1)]}, {ViolationKind.BAD_VERTEX_SET}),
            (
                {"targets": [["b"]]},
                {ViolationKind.BAD_VERTEX_SET, ViolationKind.EMPTY_TARGET_SET},
            ),
            # An unusable role map declares no player, so every owner and
            # target set names an undeclared one.
            ({"roles": None}, {ViolationKind.BAD_PLAYERS, ViolationKind.UNKNOWN_PLAYER}),
            ({"roles": 5}, {ViolationKind.BAD_PLAYERS, ViolationKind.UNKNOWN_PLAYER}),
            (
                {"roles": [(1, "reacher")]},
                {ViolationKind.BAD_PLAYERS, ViolationKind.UNKNOWN_PLAYER},
            ),
        ],
        ids=[
            "str-targets",
            "none-targets",
            "str-vertices",
            "int-vertices",
            "unhashable-owner",
            "bool-owner",
            "float-owner",
            "none-edges",
            "int-edges",
            "list-owner",
            "list-targets",
            "none-roles",
            "int-roles",
            "list-roles",
        ],
    )
    def test_malformed_collections_are_violations(self, changes, expected):
        with pytest.raises(InvalidGameError) as e:
            validate_game(self.two_cycle(**changes))
        assert expected <= kinds(e)
        # An unusable vertex list also leaves every edge and owner dangling;
        # otherwise only a refused owner adds its unowned vertex.
        if "vertices" not in changes:
            assert kinds(e) - expected <= {ViolationKind.UNOWNED_VERTEX}


class TestEquality:
    @pytest.mark.parametrize(
        "raw, clean",
        [
            (TestValidation.two_cycle(vertices=["a", "b", "a"]), TestValidation.two_cycle()),
            (
                GameSpec([1, 2], [(1, 2), (2, 1)], {1: 1, 2: 1}, {1: Role.REACHER}, {1: [2]}),
                GameSpec(
                    ["1", "2"],
                    [("1", "2"), ("2", "1")],
                    {"1": 1, "2": 1},
                    {1: Role.REACHER},
                    {1: ["2"]},
                ),
            ),
        ],
        ids=["repeated-vertex", "int-ids"],
    )
    def test_vertex_ids_are_read_as_distinct_strings(self, raw, clean):
        assert validate_game(raw) == validate_game(clean)

    def test_games_that_differ_in_one_edge_differ(self):
        names = ["a", "b", "c"]
        owner = dict.fromkeys(names, 1)

        def game(last: str):
            edges = [("a", "b"), ("b", "c"), ("c", last)]
            return validate_game(GameSpec(names, edges, owner, {1: Role.REACHER}, {1: ["a"]}))

        one, other = game("a"), game("b")
        assert one.vertices == other.vertices and one.owner == other.owner
        assert one != other

    def test_input_edge_order_and_repeats_do_not_matter(self):
        names = [f"v{i:02d}" for i in range(10)]
        canonical = [(u, w) for k, u in enumerate(names) for w in names[k + 1 :] or names[:1]]
        spec = GameSpec(names, canonical, dict.fromkeys(names, 1), {1: Role.AVOIDER}, {1: ["v00"]})
        jumbled = GameSpec(**{**vars(spec), "edges": canonical[::-1] + canonical[::3]})
        one, other = validate_game(spec), validate_game(jumbled)
        assert one == other
        assert one.edges == other.edges == tuple(canonical)
        assert all(one.successors(v) == other.successors(v) for v in names)
        assert repr(one) == repr(other)


class TestActionsAndMoves:
    """Only the owner of a non-target vertex moves, along one of its out-edges."""

    def test_owner_chooses_among_out_edges(self, g1):
        assert g1.owner["v1"] == 1
        assert g1.successors("v1") == ("v2", "v3")
        with pytest.raises(ValueError, match="unknown vertex 'v9'"):
            g1.successors("v9")

    def test_everyone_else_gets_the_trivial_action(self, g1):
        assert g1.choice_vertices == ("v1", "v2")  # the target v3 offers no move
        with pytest.raises(ProfileError, match="owned by player 1"):
            check_profile(g1, Profile({1: {"v1": "v3"}, 2: {"v1": "v2", "v2": "v1"}}))
        with pytest.raises(ProfileError, match="target vertex"):
            check_profile(g1, Profile({1: {"v1": "v3"}, 2: {"v2": "v1", "v3": "v1"}}))

    def test_turn_payoffs(self, g1, g2):
        assert turn_payoff(g1, 1, "v3") == 1
        assert turn_payoff(g1, 2, "v3") == -1
        assert turn_payoff(g1, 1, "v1") == 0
        assert turn_payoff(g2, 1, "w2") == -1
        assert turn_payoff(g2, 2, "w2") == 1
        assert turn_payoff(g1, 1, None) == 0  # the terminal state

    @pytest.mark.parametrize("v", ["nope", "", [], 3, ("v3",)])
    def test_a_turn_payoff_at_no_vertex_is_a_value_error(self, g1, v):
        with pytest.raises(ValueError) as err:
            turn_payoff(g1, 1, v)
        assert str(err.value) == f"unknown vertex {v!r}"


class TestStructuralInvariants:
    def test_exactly_one_player_can_move_anywhere(self):
        rng = random.Random(5)
        for seed in range(40):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            strategies = sigma.as_dict()
            for v in game.vertices:
                move = (game.successors(v) or (v,))[0]
                movers = []
                for n in game.players:
                    try:
                        check_profile(game, sigma.replace(n, {**strategies.get(n, {}), v: move}))
                    except ProfileError:
                        continue
                    movers.append(n)
                assert movers == ([] if v in game.total_target else [game.owner[v]])

    def test_every_available_action_has_a_transition(self):
        rng = random.Random(6)
        for seed in range(40):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            strategies = sigma.as_dict()
            for v in game.choice_vertices:
                n = game.owner[v]
                for w in game.successors(v):
                    moved = sigma.replace(n, {**strategies.get(n, {}), v: w})
                    assert play(game, moved, v)[1] == w

    def test_action_sets_are_never_empty(self):
        for seed in range(40):
            game = small_game(seed)
            for v in game.choice_vertices:
                assert game.successors(v)
