"""JSON document parsing, canonical emission and DOT export."""

from __future__ import annotations

import gc
import json
import textwrap
from enum import IntEnum
from fractions import Fraction

import pytest

from mprs import (
    GameSpec,
    InvalidGameError,
    ParseError,
    Profile,
    ProfileError,
    Role,
    ViolationKind,
    emit_game,
    export_dot,
    parse_document,
    profile_to_json,
    solve_br_dynamics,
    validate_game,
    value_table,
)

from conftest import documented_text, small_game

G1_TEXT = """
{
  "gamma": "1/2",
  "players": [
    {"id": 1, "role": "reacher", "targets": ["v3"]},
    {"id": 2, "role": "avoider", "targets": ["v3"]}
  ],
  "vertices": [
    {"id": "v1", "owner": 1},
    {"id": "v2", "owner": 2},
    {"id": "v3", "owner": 2}
  ],
  "edges": [["v1", "v2"], ["v1", "v3"], ["v2", "v1"]],
  "profiles": {"hat": {"1": {"v1": "v3"}, "2": {"v2": "v1"}}}
}
"""


class TestParse:
    def test_worked_document(self, g1, g1_hat):
        doc = parse_document(G1_TEXT)
        assert doc.game == g1
        assert doc.profiles == {"hat": g1_hat}

    def test_gamma_written_as_number_is_read_exactly(self):
        text = G1_TEXT.replace('"gamma": "1/2"', '"gamma": 0.3')
        assert parse_document(text).game.gamma == Fraction(3, 10)

    def test_gamma_defaults_to_one_half(self):
        text = G1_TEXT.replace('"gamma": "1/2",', "")
        assert parse_document(text).game.gamma == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ['"7/3"', '"1"', "1.0", "0"])
    def test_gamma_outside_the_open_interval(self, bad):
        text = G1_TEXT.replace('"gamma": "1/2"', f'"gamma": {bad}')
        with pytest.raises(InvalidGameError) as err:
            parse_document(text).game
        assert any(v.kind is ViolationKind.BAD_GAMMA for v in err.value.violations)

    @pytest.mark.parametrize("bad", ['"fast"', "true", "[1, 2]", "NaN", "Infinity", "-Infinity"])
    def test_unreadable_gamma(self, bad):
        text = G1_TEXT.replace('"gamma": "1/2"', f'"gamma": {bad}')
        with pytest.raises(ParseError):
            parse_document(text).game

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_document('{\n  "gamma": }\n')
        assert err.value.line == 2
        assert err.value.column is not None
        assert "line 2" in str(err.value)

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ParseError, match="extras"):
            parse_document(G1_TEXT.replace('"edges"', '"extras": 1, "edges"'))
        with pytest.raises(ParseError, match="color"):
            parse_document(G1_TEXT.replace('"owner": 1', '"owner": 1, "color": "red"'))
        with pytest.raises(ParseError, match="rank"):
            parse_document(G1_TEXT.replace('"role": "reacher"', '"rank": 3, "role": "reacher"'))

    def test_omitted_targets_fail_validation(self):
        text = G1_TEXT.replace(', "targets": ["v3"]}', "}", 1)
        with pytest.raises(InvalidGameError) as err:
            parse_document(text)
        assert any(v.kind is ViolationKind.EMPTY_TARGET_SET for v in err.value.violations)

    def test_empty_document_is_not_a_game(self):
        with pytest.raises(InvalidGameError) as err:
            parse_document("{}")
        assert any(v.kind is ViolationKind.BAD_PLAYERS for v in err.value.violations)

    def test_document_must_be_an_object(self):
        with pytest.raises(ParseError):
            parse_document("[1, 2, 3]")

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda t: t.replace('{"id": 2, "role": "avoider"', '{"id": 1, "role": "avoider"'),
            lambda t: t.replace('{"id": "v2", "owner": 2}', '{"id": "v1", "owner": 2}'),
            lambda t: t.replace('["v2", "v1"]', '["v2"]'),
            lambda t: t.replace('"role": "avoider"', '"role": "spectator"'),
            lambda t: t.replace('{"id": 1, "role": "reacher"', '{"id": true, "role": "reacher"'),
        ],
        ids=["dup-player", "dup-vertex", "short-edge", "bad-role", "bool-id"],
    )
    def test_shape_problems(self, mangle):
        with pytest.raises(ParseError):
            parse_document(mangle(G1_TEXT))

    @pytest.mark.parametrize("key", ["01", "+1", "1_0", " 1", "1.0", "one"])
    def test_profile_keys_must_be_canonical_player_ids(self, key):
        text = G1_TEXT.replace('{"1": {"v1": "v3"}', f'{{"{key}": {{"v1": "v3"}}')
        with pytest.raises(ParseError, match="keys must be player ids"):
            parse_document(text)

    def test_aliased_player_keys_are_rejected(self):
        # Read through int(), "01" would silently overwrite player 1's move.
        text = G1_TEXT.replace('"2": {"v2": "v1"}', '"2": {"v2": "v1"}, "01": {"v1": "v2"}')
        with pytest.raises(ParseError, match="'01'"):
            parse_document(text)

    @pytest.mark.parametrize(
        "text", ['{"gamma": ' + "1" * 5000 + "}", "[" * 100000], ids=["long-int", "deep-nesting"]
    )
    def test_oversized_documents_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_document(text)

    def test_profile_that_does_not_fit_the_game(self):
        text = G1_TEXT.replace('"v1": "v3"', '"v1": "v9"')
        with pytest.raises(ProfileError):
            parse_document(text)

    V2 = '{"id": "v2", "owner": 2}'
    E21 = '["v2", "v1"]'
    EDGES = '[["v1", "v2"], ["v1", "v3"], ["v2", "v1"]]'
    PAIR = "each edge must be a pair of vertex ids, got "
    P1 = '{"id": 1, "role": "reacher", "targets": ["v3"]}'
    HAT2 = '"2": {"v2": "v1"}'
    STRATEGY = "strategy of player 2 in 'hat' must map vertices to vertices"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (V2, "7", "each vertex must be an object"),
            (V2, '{"owner": 2}', "each vertex needs 'id' and 'owner'"),
            (V2, '{"id": "v2"}', "each vertex needs 'id' and 'owner'"),
            (V2, '{"id": "v2", "z": 0, "owner": 2, "color": 1}', "unknown key 'color' in vertex"),
            (V2, '{"id": 2, "owner": 2}', "vertex id must be a string, got 2"),
            (V2, '{"id": "v1", "owner": 2}', "duplicate vertex id 'v1'"),
            (V2, '{"id": "v2", "owner": true}', "owner of 'v2' must be an integer player id"),
            (EDGES, '{"v2": "v1"}', "'edges' must be a list"),
            (E21, '{"v2": "v1"}', PAIR + "{'v2': 'v1'}"),
            (E21, '"v2"', PAIR + "'v2'"),
            (E21, "21", PAIR + "21"),
            (E21, '["v2"]', PAIR + "['v2']"),
            (E21, '["v2", "v1", "v3"]', PAIR + "['v2', 'v1', 'v3']"),
            (E21, '["v2", 1]', PAIR + "['v2', 1]"),
            (E21, '["v2", null]', PAIR + "['v2', None]"),
            (E21, '[true, "v1"]', PAIR + "[True, 'v1']"),
            (EDGES, '[["v1"], ["v1", "v3"], [3]]', PAIR + "['v1']"),
            (P1, P1.replace('["v3"]', '"v3"'), "targets of player 1 must be a list of vertex ids"),
            (HAT2, '"2": [["v2", "v1"]]', STRATEGY),
            (HAT2, '"2": {"v2": 1}', STRATEGY),
        ],
        ids=[
            "vertex-not-object", "vertex-no-id", "vertex-no-owner", "vertex-unknown-keys",
            "vertex-int-id", "vertex-dup-id", "vertex-bool-owner", "edges-not-list",
            "edge-object", "edge-string", "edge-number", "edge-one-item", "edge-three-items",
            "edge-number-end", "edge-null-end", "edge-bool-end", "edge-first-bad-entry",
            "targets-string", "strategy-list", "strategy-number-move",
        ],
    )
    def test_entry_messages(self, old, new, message):
        """Each malformed vertex, edge, target or strategy entry has its
        exact message, and the first bad entry is the one named."""
        text = G1_TEXT.replace(old, new)
        assert text != G1_TEXT
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert str(err.value) == message


class TestEmit:
    def test_roundtrip_preserves_the_game(self):
        for seed in range(30):
            game = small_game(seed)
            text = emit_game(game)
            assert parse_document(text).game == game
            assert emit_game(parse_document(text).game) == text

    def test_canonical_form_forgets_input_order(self):
        """Reordering every list in the source must not change the emitted bytes."""
        doc = parse_document(G1_TEXT)
        canonical = emit_game(doc.game, doc.profiles)
        raw = json.loads(G1_TEXT)
        raw["players"].reverse()
        raw["vertices"].reverse()
        raw["edges"].reverse()
        doc = parse_document(json.dumps(raw))
        shuffled = emit_game(doc.game, doc.profiles)
        assert shuffled == canonical

    def test_profiles_survive_the_roundtrip(self, g1, g1_hat):
        text = emit_game(g1, {"hat": g1_hat})
        doc = parse_document(text)
        assert doc.profiles == {"hat": g1_hat}
        assert emit_game(doc.game, doc.profiles) == text

    def test_a_profile_that_does_not_fit_is_refused_before_writing(self, g1, g1_hat):
        """`emit_game` writes no document that `parse_document` would refuse."""
        with pytest.raises(ProfileError) as err:
            emit_game(g1, {"x": Profile({9: {"zz": "yy"}})})
        assert str(err.value).startswith("strategy given for undeclared player 9")
        for profile in (g1_hat.replace(2, {}), g1_hat.as_dict()):
            with pytest.raises(ProfileError):
                emit_game(g1, {"hat": g1_hat, "x": profile})

    def test_profile_json_shape(self, g1_hat):
        assert profile_to_json(g1_hat) == {"1": {"v1": "v3"}, "2": {"v2": "v1"}}

    def test_emitted_gamma_is_a_fraction_string(self, g2):
        assert '"gamma": "1/2"' in emit_game(g2)

    def test_output_ends_with_a_newline(self, g1):
        assert emit_game(g1).endswith("}\n")

    @staticmethod
    def emitted(spec, profiles=None):
        """The emitted text, checked against `json.dumps` and a round trip."""
        game = validate_game(spec)
        text = emit_game(game, profiles)
        assert text == documented_text(game, profiles)
        doc = parse_document(text)
        assert doc.game == game and doc.profiles == (profiles or {})
        return text

    def test_edgeless_game(self):
        """Every vertex a target, so there is no edge at all."""
        roles = {1: Role.REACHER, 2: Role.AVOIDER}
        text = self.emitted(GameSpec(["a", "b"], [], {"a": 1, "b": 2}, roles, {1: ["a"], 2: ["b"]}))
        assert '\n  "edges": [],\n' in text

    def test_ids_that_need_escaping(self):
        """Quotes, backslashes and control characters are escaped; non-ASCII
        text and U+2028 are written as they are."""
        ids = ['q"', "b\\", "n\n", "c\x01", "é", "ls\u2028"]
        edges = [(u, w) for u in ids for w in ids]
        spec = GameSpec(ids, edges, dict.fromkeys(ids, 1), {1: Role.REACHER}, {1: ids[:2]})
        text = self.emitted(spec)
        for escaped in ['"q\\""', '"b\\\\"', '"n\\n"', '"c\\u0001"', '"é"', '"ls\u2028"']:
            assert f'"id": {escaped}' in text

    def test_profile_keys_sort_as_strings(self):
        """Player 10's strategy comes before player 2's, as "10" < "2"."""
        players = range(1, 11)
        owner = {"a": 2, "b": 10, "t": 1}
        edges = [("a", "t"), ("a", "b"), ("b", "t"), ("b", "a")]
        roles = dict.fromkeys(players, Role.REACHER)
        spec = GameSpec(owner, edges, owner, roles, dict.fromkeys(players, ["t"]))
        profile = Profile({2: {"a": "t"}, 10: {"b": "a"}})
        text = self.emitted(spec, {"p": profile})
        assert 0 < text.index('"10": {') < text.index('"2": {')

    def test_int_enum_owner_is_a_number(self):
        class Seat(IntEnum):
            FIRST = 1

        spec = GameSpec(["a"], [], {"a": Seat.FIRST}, {1: Role.REACHER}, {1: ["a"]})
        assert '"owner": 1\n' in self.emitted(spec)


class TestDot:
    def test_g2_golden(self, g2):
        expected = "\n".join(
            [
                "digraph game {",
                "  rankdir=LR;",
                '  "w1" [label="w1\\nP1 avoider", shape=ellipse];',
                '  "w2" [label="w2\\nP2 reacher", shape=box, peripheries=2];',
                '  "w1" -> "w1";',
                '  "w1" -> "w2";',
                "}",
                "",
            ]
        )
        assert export_dot(g2) == expected

    def test_profile_highlights_chosen_edges(self, g1, g1_hat):
        text = export_dot(g1, profile=g1_hat)
        assert '"v1" -> "v3" [penwidth=2.5, color="royalblue"];' in text
        assert '"v2" -> "v1" [penwidth=2.5, color="royalblue"];' in text
        assert '"v1" -> "v2";' in text

    def test_values_are_printed_per_player(self, g1, g1_hat):
        text = export_dot(g1, profile=g1_hat, values=value_table(g1, g1_hat))
        assert "u1=+γ^1 u2=-γ^1" in text  # start vertex v1
        assert "u1=+1 u2=-1" in text  # the target itself

    def test_double_border_only_on_targets(self, g1):
        lines = export_dot(g1).splitlines()
        bordered = [ln for ln in lines if "peripheries=2" in ln]
        assert len(bordered) == 1 and '"v3"' in bordered[0]

    def test_quoting_of_hostile_names(self):
        from mprs import GameSpec, Role, validate_game

        game = validate_game(
            GameSpec(
                vertices=['a"b', "c\\d"],
                edges=[('a"b', "c\\d")],
                owner={'a"b': 1, "c\\d": 1},
                roles={1: Role.REACHER},
                targets={1: ["c\\d"]},
            )
        )
        # The whole text, so the labels' escaping is pinned too.
        assert export_dot(game) == textwrap.dedent(
            r"""
            digraph game {
              rankdir=LR;
              "a\"b" [label="a\"b\nP1 reacher", shape=box];
              "c\\d" [label="c\\d\nP1 reacher", shape=box, peripheries=2];
              "a\"b" -> "c\\d";
            }
            """
        ).lstrip("\n")
        profile = Profile({1: {'a"b': "c\\d"}})
        assert export_dot(game, profile, value_table(game, profile)) == textwrap.dedent(
            r"""
            digraph game {
              rankdir=LR;
              "a\"b" [label="a\"b\nP1 reacher\nu1=+γ^1", shape=box];
              "c\\d" [label="c\\d\nP1 reacher\nu1=+1", shape=box, peripheries=2];
              "a\"b" -> "c\\d" [penwidth=2.5, color="royalblue"];
            }
            """
        ).lstrip("\n")


class TestGcPause:
    """Loading a game and its first solver call pause the cyclic GC, and
    restore the caller's setting on success and on every typed error."""

    @pytest.fixture
    def steps(self, g1, g1_hat):
        doc = json.loads(emit_game(g1, {"hat": g1_hat}))
        dangling = {**doc, "edges": [*doc["edges"], ["v2", "v9"]]}
        unfit = {**doc, "profiles": {"hat": {"1": {"v1": "v9"}, "2": {"v2": "v1"}}}}
        spec = GameSpec(g1.vertices, g1.edges, g1.owner, g1.roles, g1.targets)
        dead_ends = GameSpec(g1.vertices, [], g1.owner, g1.roles, g1.targets)
        return [
            (lambda: parse_document(json.dumps(doc)), None),
            (lambda: parse_document(json.dumps(doc)[:-1]), ParseError),
            (lambda: parse_document(json.dumps(dangling)), InvalidGameError),
            (lambda: parse_document(json.dumps(unfit)), ProfileError),
            (lambda: validate_game(spec), None),
            (lambda: validate_game(dead_ends), InvalidGameError),
            # A fresh game builds the solvers' core on its first solver call.
            (lambda: solve_br_dynamics(validate_game(spec), g1_hat), None),
        ]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled-by-caller"])
    def test_the_callers_setting_is_restored(self, steps, enabled):
        for k, (step, error) in enumerate(steps):
            if not enabled:
                gc.disable()
            try:
                if error is None:
                    step()
                else:
                    with pytest.raises(error):
                        step()
                assert gc.isenabled() is enabled, k
            finally:
                gc.enable()
