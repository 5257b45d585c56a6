"""Plays, exact payoffs, value tables and best responses.

The expected numbers in here were derived by hand on the two micro-games
and are frozen; the property tests then pin the fast implementations to
slow per-play recomputation and to brute-force enumeration.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from mprs import (
    NEVER,
    ZERO,
    GameSpec,
    Outcome,
    PayoffValue,
    Profile,
    ProfileError,
    Role,
    TooLargeError,
    best_response,
    best_response_enum,
    check_certificate,
    check_profile,
    emit_game,
    export_dot,
    is_nash,
    is_nash_qualitative,
    outcome,
    parse_document,
    play,
    solve_br_dynamics,
    total_payoff,
    turn_payoff,
    validate_game,
    value_table,
)
from mprs import valuation
from mprs.valuation import _decode

from conftest import random_profile, small_game

POS = functools.partial(PayoffValue, 1)
NEG = functools.partial(PayoffValue, -1)

# Enough gammas to rule out a lucky coincidence, none of them 1/2.
GAMMAS = [Fraction(1, 10), Fraction(3, 10), Fraction(2, 3), Fraction(9, 10), Fraction(99, 100)]


def all_payoffs(max_exponent: int = 6) -> list[PayoffValue]:
    out = [ZERO]
    for e in range(max_exponent + 1):
        out.append(POS(e))
        out.append(NEG(e))
    return out


class TestPayoffValue:
    def test_constructor_rejects_garbage(self):
        with pytest.raises(ValueError):
            PayoffValue(2)
        with pytest.raises(ValueError):
            PayoffValue(1, -1)
        with pytest.raises(ValueError):
            PayoffValue(0, 3)

    @pytest.mark.parametrize(
        "sign, exponent",
        [(True, 2), (1.0, 2), (-1, 1.5), (1, False), (1, "3")],
        ids=["bool-sign", "float-sign", "float-exponent", "bool-exponent", "str-exponent"],
    )
    def test_sign_and_exponent_are_ints(self, sign, exponent):
        with pytest.raises(ValueError, match="int"):
            PayoffValue(sign, exponent)

    def test_frozen_chain(self):
        # -1 < -g < -g^2 < 0 < g^2 < g < 1
        chain = [NEG(0), NEG(1), NEG(2), ZERO, POS(2), POS(1), POS(0)]
        assert chain == sorted(chain)
        assert len(set(chain)) == len(chain)

    def test_order_matches_numeric_order_for_every_gamma(self):
        """The symbolic order must agree with the numeric one on all of (0, 1),
        through each of the four comparison operators."""
        values = all_payoffs()
        for a in values:
            for b in values:
                symbolic = (a < b, a <= b, a > b, a >= b)
                for gamma in GAMMAS:
                    x, y = a.numeric(gamma), b.numeric(gamma)
                    assert symbolic == (x < y, x <= y, x > y, x >= y), (a, b, gamma)

    def test_comparing_with_a_non_payoff_is_a_type_error(self):
        """Payoffs order only among themselves: against anything else every
        comparison refuses, as it does between unrelated types."""
        compares = (
            lambda a, b: a > b,
            lambda a, b: a < b,
            lambda a, b: a >= b,
            lambda a, b: a <= b,
            lambda a, b: b < a,
        )
        for other in (0, 1, None, Fraction(1, 2), "0"):
            for compare in compares:
                with pytest.raises(TypeError, match="not supported"):
                    compare(POS(1), other)
            with pytest.raises(TypeError, match="not supported"):
                sorted([POS(1), other])
        assert POS(1) != 1 and ZERO != 0

    @pytest.mark.parametrize("size", range(1, 7))
    def test_payoff_codes(self, size):
        """Integer codes of every payoff a game of `size` vertices can produce:
        0 and +/- gamma**t for a first hitting time t < size."""
        base = size + 1
        values = [ZERO] + [PayoffValue(s, t) for t in range(size) for s in (1, -1)]
        def encode(p: PayoffValue) -> int:  # the payoff code `_decode` inverts
            return p.sign * (base - p.exponent)

        for a in values:
            code = encode(a)
            assert _decode(code, base) == a
            assert _decode(code - (code > 0) + (code < 0), base) == a.discounted()
            for b in values:
                assert (code < encode(b)) == (a < b), (a, b)
                assert (code == encode(b)) == (a == b), (a, b)

    def test_discounted_is_multiplication_by_gamma(self):
        for a in all_payoffs():
            for gamma in GAMMAS:
                assert a.discounted().numeric(gamma) == gamma * a.numeric(gamma)

    def test_discounted_zero_is_zero(self):
        assert ZERO.discounted() is ZERO

    def test_numeric_examples(self):
        assert POS(0).numeric(Fraction(1, 2)) == 1
        assert POS(2).numeric(Fraction(1, 2)) == Fraction(1, 4)
        assert NEG(1).numeric(Fraction(3, 10)) == Fraction(-3, 10)
        assert ZERO.numeric(Fraction(9, 10)) == 0

    def test_str_forms(self):
        assert str(ZERO) == "0"
        assert str(POS(0)) == "+1"
        assert str(NEG(0)) == "-1"
        assert str(POS(3)) == "+γ^3"
        assert str(NEG(1)) == "-γ^1"


class TestProfile:
    def test_canonical_equality_and_hash(self):
        a = Profile({1: {"v1": "v3"}, 2: {"v2": "v1"}})
        b = Profile({2: {"v2": "v1"}, 1: {"v1": "v3"}})
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_strategies_are_dropped(self):
        assert Profile({1: {"w1": "w1"}, 2: {}}) == Profile({1: {"w1": "w1"}})
        assert tuple(Profile({1: {"w1": "w1"}, 2: {}}).as_dict()) == (1,)

    def test_choice_and_replace(self):
        sigma = Profile({1: {"v1": "v3"}})
        assert sigma.choice(1, "v1") == "v3"
        with pytest.raises(ProfileError):
            sigma.choice(1, "v9")
        with pytest.raises(ProfileError):
            sigma.choice(2, "v1")
        with pytest.raises(ProfileError, match=r"no move for player 1 at \[\]"):
            sigma.choice(1, [])
        tweaked = sigma.replace(1, {"v1": "v2"})
        assert tweaked.choice(1, "v1") == "v2"
        assert sigma.choice(1, "v1") == "v3"  # original untouched

    @pytest.mark.parametrize(
        ("strategies", "message"),
        [
            ({1: {"a": "b"}, "2": {"c": "d"}}, "a player id must be an int, got '2'"),
            ({1: {"a": "b", 2: "c"}}, "player 1 moves 2 -> 'c', yet vertex ids are strs"),
        ],
        ids=["player-ids", "vertex-ids"],
    )
    def test_keys_of_mixed_types_are_a_profile_error(self, strategies, message):
        # The first key that is no id is named before any sort could fail.
        with pytest.raises(ProfileError) as err:
            Profile(strategies)
        assert str(err.value) == message

    @pytest.mark.parametrize("strategies", [None, 5, "ab", [1]], ids=["none", "int", "str", "seq"])
    def test_a_profile_that_is_no_mapping_is_a_profile_error(self, strategies):
        message = f"a profile maps player ids to strategies, got {strategies!r}"
        with pytest.raises(ProfileError) as err:
            Profile(strategies)
        assert str(err.value) == message

    @pytest.mark.parametrize("strategy", [[("a", "b")], "ab", 7], ids=["pairs", "string", "int"])
    def test_a_strategy_that_is_no_mapping_is_a_profile_error(self, strategy):
        with pytest.raises(ProfileError, match="strategy of player 2 must map vertices"):
            Profile({0: {}, 1: {"a": "b"}, 2: strategy})

    @pytest.mark.parametrize("strategy", [None, 0, "", []], ids=["none", "zero", "str", "list"])
    def test_a_falsy_strategy_that_is_no_mapping_is_a_profile_error(self, strategy):
        """Only an empty mapping is dropped as an empty strategy."""
        message = f"the strategy of player 1 must map vertices to moves, got {strategy!r}"
        with pytest.raises(ProfileError) as err:
            Profile({1: strategy})
        assert str(err.value) == message

    @pytest.mark.parametrize("strategy", [5, None, [("v1", "v2")]], ids=["int", "none", "pairs"])
    def test_replacing_with_no_mapping_is_a_profile_error(self, strategy):
        message = f"the strategy of player 1 must map vertices to moves, got {strategy!r}"
        with pytest.raises(ProfileError) as err:
            Profile({1: {"v1": "v3"}}).replace(1, strategy)
        assert str(err.value) == message

    def test_without(self, g1_hat):
        rest = g1_hat.replace(1, {})
        assert tuple(rest.as_dict()) == (2,)
        assert rest.choice(2, "v2") == "v1"

    def test_check_profile_reports_all_problems(self, g1):
        bad = Profile({1: {"v2": "v1", "v1": "v9"}, 3: {"v1": "v2"}})
        with pytest.raises(ProfileError) as err:
            check_profile(g1, bad)
        text = str(err.value)
        assert "v9" in text  # not an edge
        assert "v2" in text  # not player 1's vertex
        assert "3" in text  # unknown player

    @pytest.mark.parametrize("key", [pytest.param(True, id="bool"), pytest.param(1.0, id="float")])
    def test_a_key_equal_to_a_player_id_is_no_player(self, g1, key):
        # `key` equals 1 and hashes like it, but no document could name it,
        # so no profile with it exists to equal the one keyed by 1.
        with pytest.raises(ProfileError) as err:
            Profile({key: {"v1": "v3"}, 2: {"v2": "v1"}})
        assert str(err.value) == f"a player id must be an int, got {key!r}"
        check_profile(g1, Profile({1: {"v1": "v3"}, 2: {"v2": "v1"}}))

    def test_check_profile_requires_every_choice_vertex(self, g1):
        with pytest.raises(ProfileError):
            check_profile(g1, Profile({1: {"v1": "v3"}}))  # v2 unassigned

    def test_a_move_to_no_vertex_id_is_not_an_edge(self, g1):
        with pytest.raises(ProfileError) as err:
            check_profile(g1, Profile({1: {"v1": "v9"}, 2: {"v2": "v1"}}))
        assert str(err.value) == "chosen move 'v1' -> 'v9' is not an edge"
        for w in (["v3"], 3):  # refused when built, so `hash` never meets the list
            with pytest.raises(ProfileError) as err:
                hash(Profile({1: {"v1": w}, 2: {"v2": "v1"}}))
            assert str(err.value) == f"player 1 moves 'v1' -> {w!r}, yet vertex ids are strs"


class TestPlay:
    def test_g1_plays_under_the_equilibrium(self, g1, g1_hat):
        assert play(g1, g1_hat, "v1") == ("v1", "v3", None)
        assert play(g1, g1_hat, "v2") == ("v2", "v1", "v3", None)
        assert play(g1, g1_hat, "v3") == ("v3", None)

    def test_g1_cycling_profile_stops_at_first_repeat(self, g1):
        sigma = Profile({1: {"v1": "v2"}, 2: {"v2": "v1"}})
        assert play(g1, sigma, "v1") == ("v1", "v2", "v1")
        assert outcome(g1, sigma, "v1") == NEVER

    def test_g2_self_loop(self, g2):
        loop = Profile({1: {"w1": "w1"}})
        assert play(g2, loop, "w1") == ("w1", "w1")
        assert outcome(g2, loop, "w1") == NEVER
        assert play(g2, loop, "w2") == ("w2", None)
        assert outcome(g2, loop, "w2") == Outcome(0, "w2")

    @pytest.mark.parametrize("start", ["nope", 3, ["v1"], {}], ids=["str", "int", "list", "dict"])
    @pytest.mark.parametrize("walk", [play, outcome])
    def test_unknown_start_rejected(self, g1, g1_hat, walk, start):
        with pytest.raises(ValueError, match=r"^unknown start vertex "):
            walk(g1, g1_hat, start)

    def test_a_malformed_profile_is_reported_before_an_unknown_start(self, g1):
        with pytest.raises(ProfileError, match="no move fixed at 'v2'"):
            play(g1, Profile({1: {"v1": "v3"}}), "nope")

    def test_play_length_is_bounded(self, g1):
        bound = len(g1.vertices) + 1
        for sigma in [
            Profile({1: {"v1": "v2"}, 2: {"v2": "v1"}}),
            Profile({1: {"v1": "v3"}, 2: {"v2": "v1"}}),
        ]:
            for v in g1.vertices:
                assert len(play(g1, sigma, v)) <= bound


class TestOutcomeAndPayoff:
    def test_g1_outcomes(self, g1, g1_hat):
        assert outcome(g1, g1_hat, "v1") == Outcome(1, "v3")
        assert outcome(g1, g1_hat, "v2") == Outcome(2, "v3")
        assert outcome(g1, g1_hat, "v3") == Outcome(0, "v3")

    def test_outcome_repr(self):
        assert repr(NEVER) == "Never"
        assert repr(Outcome(2, "v3")) == "Hit(t=2, 'v3')"

    def test_total_payoff_signs(self, g1):
        hit = Outcome(2, "v3")
        assert total_payoff(g1, 1, hit) == POS(2)  # reacher
        assert total_payoff(g1, 2, hit) == NEG(2)  # avoider
        assert total_payoff(g1, 1, NEVER) == ZERO
        assert total_payoff(g1, 1, hit).sign == 1
        assert total_payoff(g1, 2, hit).sign == -1

    @pytest.mark.parametrize("n", [7, True, "1"])
    def test_an_unknown_player_is_a_value_error(self, g1, n):
        # The player is checked before the outcome, even one that is none.
        cases = [(turn_payoff, "v3"), *((total_payoff, o) for o in (Outcome(2, "v3"), NEVER, None))]
        for payoff, argument in cases:
            with pytest.raises(ValueError, match=f"^unknown player {n!r}$"):
                payoff(g1, n, argument)
        assert total_payoff(g1, 1, NEVER).sign == 0

    @pytest.mark.parametrize(
        "o",
        [Outcome(3, None), Outcome(2, "v1"), Outcome(None, "v3"), Outcome(-1, "v3"),
         Outcome(True, "v3"), Outcome(1.0, "v3"), Outcome(1, "nope"), Outcome(1, ["v3"])],
        ids=["time-without-vertex", "non-target", "vertex-without-time", "negative-time",
             "bool-time", "float-time", "unknown-vertex", "unhashable-vertex"],
    )
    def test_a_malformed_outcome_is_a_value_error(self, g1, o):
        # A hit needs an int time of at least 0 and a target; Never needs neither.
        for n in g1.players:
            with pytest.raises(ValueError, match="^not an outcome of this game: time "):
                total_payoff(g1, n, o)

    def test_payoff_ignores_foreign_targets(self):
        game = small_game(11)
        # a hit on a vertex outside player n's own target set is worth nothing
        for n in game.players:
            foreign = game.total_target - game.targets[n]
            for v in foreign:
                assert total_payoff(game, n, Outcome(0, v)) == ZERO

    def test_hitting_times_stay_below_vertex_count(self):
        rng = random.Random(5)
        for seed in range(60):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            for v in game.vertices:
                o = outcome(game, sigma, v)
                if o.is_hit:
                    assert o.time < len(game.vertices)


class TestValueTable:
    def test_g1_frozen_table(self, g1, g1_hat):
        assert value_table(g1, g1_hat) == {
            1: {"v1": POS(1), "v2": POS(2), "v3": POS(0)},
            2: {"v1": NEG(1), "v2": NEG(2), "v3": NEG(0)},
        }

    def test_g2_frozen_tables(self, g2):
        loop = value_table(g2, Profile({1: {"w1": "w1"}}))
        assert loop[1] == {"w1": ZERO, "w2": NEG(0)}
        assert loop[2] == {"w1": ZERO, "w2": POS(0)}
        jump = value_table(g2, Profile({1: {"w1": "w2"}}))
        assert jump[1]["w1"] == NEG(1)
        assert jump[2]["w1"] == POS(1)

    def test_matches_per_play_recomputation(self):
        """The backward pass must agree with literally playing out each start."""
        rng = random.Random(17)
        for seed in range(80):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            table = value_table(game, sigma)
            for n in game.players:
                for v in game.vertices:
                    assert table[n][v] == total_payoff(game, n, outcome(game, sigma, v))

    def test_one_step_recursion(self):
        """u(v) = step reward + discounted u(next), in exact arithmetic."""
        rng = random.Random(23)
        for seed in range(40):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            table = value_table(game, sigma)
            succ = {v: sigma.choice(game.owner[v], v) for v in game.choice_vertices}
            for n in game.players:
                for v in game.vertices:
                    here = table[n][v]
                    if v in game.total_target:
                        step = turn_payoff(game, n, v)
                        expected = ZERO if step == 0 else PayoffValue(step, 0)
                    else:
                        expected = table[n][succ[v]].discounted()
                    assert here == expected, (seed, n, v)


def _spec(edges, owner, roles, targets) -> GameSpec:
    return GameSpec(sorted(owner), edges, owner, roles, targets)


# One game per shape of play the backward pass of `_codes` must get right,
# a move per choice vertex, and every player's code per vertex, by hand.
CODE_CASES = {
    # a and b circle forever; only the targets are paid.
    "a cycle that never hits a target": (
        _spec(
            [("a", "b"), ("a", "t"), ("b", "a")],
            {"a": 1, "b": 2, "t": 1},
            {1: Role.REACHER, 2: Role.AVOIDER},
            {1: ["t"], 2: ["t"]},
        ),
        {"a": "b", "b": "a"},
        {1: {"a": 0, "b": 0, "t": 4}, 2: {"a": 0, "b": 0, "t": -4}},
    ),
    # G1's equilibrium: v3 wins for reacher 1 and loses for avoider 2,
    # and v2's play takes the longest chain, so |code| is 2 there.
    "a target shared by a reacher and an avoider": (
        _spec(
            [("v1", "v2"), ("v1", "v3"), ("v2", "v1")],
            {"v1": 1, "v2": 2, "v3": 2},
            {1: Role.REACHER, 2: Role.AVOIDER},
            {1: ["v3"], 2: ["v3"]},
        ),
        {"v1": "v3", "v2": "v1"},
        {1: {"v1": 3, "v2": 2, "v3": 4}, 2: {"v1": -3, "v2": -2, "v3": -4}},
    ),
    # x1 .. x4 each move on to the next, so x1 hits t at time 4, the
    # latest hit 5 vertices allow: code 6 - 4 = 2.
    "the longest chain": (
        _spec(
            [("x1", "x2"), ("x2", "x3"), ("x2", "x1"), ("x3", "x4"), ("x4", "t"), ("x4", "x1")],
            {"x1": 1, "x2": 2, "x3": 1, "x4": 2, "t": 1},
            {1: Role.AVOIDER, 2: Role.REACHER},
            {1: ["t"], 2: ["t"]},
        ),
        {"x1": "x2", "x2": "x3", "x3": "x4", "x4": "t"},
        {
            1: {"t": -6, "x1": -2, "x2": -3, "x3": -4, "x4": -5},
            2: {"t": 6, "x1": 2, "x2": 3, "x3": 4, "x4": 5},
        },
    ),
    # a moves into player 2's target, worth nothing to player 1, and b
    # and c both follow a there, so a has two movers.
    "a vertex that moves into another player's target": (
        _spec(
            [("a", "t1"), ("a", "t2"), ("b", "a"), ("c", "t1"), ("c", "a")],
            {"a": 1, "b": 2, "c": 2, "t1": 1, "t2": 2},
            {1: Role.REACHER, 2: Role.REACHER},
            {1: ["t1"], 2: ["t2"]},
        ),
        {"a": "t2", "b": "a", "c": "a"},
        {
            1: {"a": 0, "b": 0, "c": 0, "t1": 6, "t2": 0},
            2: {"a": 5, "b": 4, "c": 4, "t1": 0, "t2": 6},
        },
    ),
}


class TestCodes:
    @pytest.mark.parametrize("case", CODE_CASES)
    def test_codes_match_playing_each_start_out(self, case):
        """`_codes` on the case's move array, by hand and against
        `total_payoff(outcome(...))` from every start vertex."""
        spec, moves, expected = CODE_CASES[case]
        game = validate_game(spec)
        profile = Profile(
            {n: {v: w for v, w in moves.items() if game.owner[v] == n} for n in game.players}
        )
        core = game._core
        codes = valuation._codes(core, valuation._moves(core, profile))
        assert list(codes) == list(game.players)
        assert {n: dict(zip(game.vertices, codes[n])) for n in codes} == expected
        for n in game.players:
            for v, code in zip(game.vertices, codes[n]):
                assert _decode(code, core.base) == total_payoff(
                    game, n, outcome(game, profile, v)
                ), (n, v)


class TestBestResponse:
    def test_g1_reacher_side(self, g1):
        strategy, values = best_response(g1, Profile({2: {"v2": "v1"}}), 1)
        assert strategy == {"v1": "v3"}
        assert values == {"v1": POS(1), "v2": POS(2), "v3": POS(0)}

    def test_g1_avoider_side(self, g1):
        strategy, values = best_response(g1, Profile({1: {"v1": "v3"}}), 2)
        assert strategy == {"v2": "v1"}  # forced: v2 has a single edge
        assert values == {"v1": NEG(1), "v2": NEG(2), "v3": NEG(0)}

    def test_g2_avoider_prefers_the_loop(self, g2):
        strategy, values = best_response(g2, Profile({}), 1)
        assert strategy == {"w1": "w1"}
        assert values == {"w1": ZERO, "w2": NEG(0)}

    @pytest.mark.parametrize(
        "role, edges, value",
        [
            pytest.param(Role.REACHER, [("b", "t"), ("c", "t")], POS(2), id="reach-equal-distance"),
            pytest.param(Role.AVOIDER, [("b", "t"), ("c", "t")], NEG(2), id="doomed-equal-delay"),
            pytest.param(Role.AVOIDER, [("a", "t"), ("b", "b"), ("c", "c")], ZERO, id="two-ways-out"),
        ],
    )
    def test_ties_break_toward_the_smallest_successor(self, role, edges, value):
        # Player 1 owns everything and has a choice only at a, where b and c
        # are worth the same to them; t is their target.
        game = validate_game(
            GameSpec(
                ["a", "b", "c", "t"],
                [("a", "b"), ("a", "c"), *edges],
                dict.fromkeys("abct", 1),
                {1: role},
                {1: ["t"]},
            )
        )
        strategy, values = best_response(game, Profile({}), 1)
        assert strategy["a"] == "b"
        assert values["a"] == values["b"].discounted() == values["c"].discounted() == value

    def test_response_achieves_its_stated_values(self):
        rng = random.Random(31)
        for seed in range(60):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            n = rng.choice(game.players)
            strategy, values = best_response(game, sigma.replace(n, {}), n)
            combined = sigma.replace(n, strategy)
            assert value_table(game, combined)[n] == values, (seed, n)

    def test_agrees_with_brute_force(self):
        """Fast route and exhaustive route give the same value at every start."""
        rng = random.Random(47)
        for seed in range(80):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            n = rng.choice(game.players)
            opponents = sigma.replace(n, {})
            _, fast = best_response(game, opponents, n)
            _, slow = best_response_enum(game, opponents, n)
            assert fast == slow, (seed, n)

    def test_ignores_gamma(self):
        """Choices and symbolic values cannot depend on the discount factor."""
        rng = random.Random(53)
        for seed in range(25):
            base = small_game(seed)
            spec = GameSpec(
                vertices=list(base.vertices),
                edges=list(base.edges),
                owner=dict(base.owner),
                roles=dict(base.roles),
                targets={n: sorted(ts) for n, ts in base.targets.items()},
                gamma=Fraction(9, 10),
            )
            other = validate_game(spec)
            sigma = random_profile(base, rng)
            n = rng.choice(base.players)
            assert best_response(base, sigma.replace(n, {}), n) == best_response(
                other, sigma.replace(n, {}), n
            )

    @pytest.mark.parametrize("respond", [best_response, best_response_enum])
    @pytest.mark.parametrize("n", [True, 3])
    def test_unknown_player_rejected(self, g1, respond, n):
        # True equals 1 but is no player id.
        with pytest.raises(ValueError, match=f"^unknown player {n}$"):
            respond(g1, Profile({2: {"v2": "v1"}}), n)

    def test_enum_guard_trips(self, g1):
        with pytest.raises(TooLargeError):
            best_response_enum(g1, Profile({2: {"v2": "v1"}}), 1, guard=1)


def g1_with_roles(reacher: int):
    """G1 built afresh, with `reacher` reaching v3 and the other avoiding it."""
    return validate_game(
        GameSpec(
            vertices=["v1", "v2", "v3"],
            edges=[("v1", "v2"), ("v1", "v3"), ("v2", "v1")],
            owner={"v1": 1, "v2": 2, "v3": 2},
            roles={n: Role.REACHER if n == reacher else Role.AVOIDER for n in (1, 2)},
            targets={1: ["v3"], 2: ["v3"]},
        )
    )


def dynamics_results():
    """Games of the ensemble with a converged dynamics result on each,
    from a drawn start; the last call on each game is the dynamics."""
    rng = random.Random(2018)
    for seed in range(60):
        game = small_game(seed)
        found = solve_br_dynamics(game, random_profile(game, rng))
        if found is not None:
            yield game, found


@pytest.fixture
def responses(monkeypatch):
    """The players whose response `best_response` computes, in call order."""
    called = []
    respond = valuation._respond

    def counted(core, nxt, n):
        called.append(n)
        return respond(core, nxt, n)

    monkeypatch.setattr(valuation, "_respond", counted)
    return called


@pytest.fixture
def built(monkeypatch):
    """The move arrays whose payoff codes `_codes` builds, in call order."""
    called = []
    codes = valuation._codes

    def counted(core, nxt):
        called.append(list(nxt))
        return codes(core, nxt)

    monkeypatch.setattr(valuation, "_codes", counted)
    return called


class TestJudgedProfile:
    """Each game remembers the last profile it judged, with its payoff codes
    and responses once a call has read them, so the verdicts on one profile
    object check it and build its codes once, only `is_nash` and
    `is_nash_qualitative` solve responses, and on a dynamics result they
    reuse the dynamics' last responses."""

    def test_both_verdicts_build_one_hit_table(self, g1, g1_hat, built):
        assert is_nash(g1, g1_hat).is_ne
        assert check_certificate(g1, g1_hat).is_ne
        assert built == [[2, 0, -1]]

    def test_only_valuing_a_profile_evicts_the_judged_one(self, g1, g1_hat, built):
        """A check, a play, a best response, a DOT graph or a document on
        another profile leaves the judged profile and its codes be."""
        cycle = Profile({1: {"v1": "v2"}, 2: {"v2": "v1"}})
        assert is_nash(g1, g1_hat).is_ne
        check_profile(g1, cycle)
        assert play(g1, cycle, "v1") == ("v1", "v2", "v1")
        assert outcome(g1, cycle, "v2") == NEVER
        assert best_response(g1, cycle, 2)[1]["v1"] == ZERO
        assert "royalblue" in export_dot(g1, cycle)
        assert parse_document(emit_game(g1, {"cycle": cycle})).profiles == {"cycle": cycle}
        assert check_certificate(g1, g1_hat).is_ne
        assert built == [[2, 0, -1]]

    def test_a_best_response_to_another_profile_ignores_the_judged_one(self, g1, g1_hat):
        cycle = Profile({1: {"v1": "v2"}, 2: {"v2": "v1"}})
        responders = (best_response, best_response_enum)
        expected = [respond(g1, cycle, 2) for respond in responders]
        assert expected[0][1]["v1"] == ZERO  # against g1_hat, v1 hits v3 at once
        value_table(g1, g1_hat)
        assert [respond(g1, cycle, 2) for respond in responders] == expected
        rng = random.Random(19)
        for seed in range(40):
            game = small_game(seed)
            p, q = random_profile(game, rng), random_profile(game, rng)
            fresh = [best_response(game, q, n) for n in game.players]
            for judge in (is_nash, solve_br_dynamics):
                judge(game, p)
                assert [best_response(game, q, n) for n in game.players] == fresh, seed

    def test_a_check_that_skips_a_player_is_not_remembered(self, g1):
        opponents = Profile({2: {"v2": "v1"}})
        with pytest.raises(ProfileError) as fresh:
            check_profile(g1, Profile(opponents.as_dict()))
        best_response(g1, opponents, 1)
        best_response_enum(g1, opponents, 1)
        for judge in (check_profile, value_table):
            with pytest.raises(ProfileError) as again:
                judge(g1, opponents)
            assert str(again.value) == str(fresh.value)

    def test_each_game_judges_the_profile_itself(self, g1, g1_hat, g2):
        assert is_nash(g1, g1_hat).is_ne
        table = value_table(g1, g1_hat)
        # An equal game built separately gives the same verdicts.
        same = g1_with_roles(reacher=1)
        assert same == g1 and same._core is not g1._core
        assert is_nash(same, g1_hat).is_ne and check_certificate(same, g1_hat).is_ne
        assert value_table(same, g1_hat) == table
        # With the roles swapped player 1 avoids v3 by moving to v2.
        swapped = g1_with_roles(reacher=2)
        assert not is_nash(swapped, g1_hat).is_ne
        assert not check_certificate(swapped, g1_hat).is_ne
        assert value_table(swapped, g1_hat)[1]["v1"] == NEG(1)
        # On G2 the profile is illegal, also right after G1 judged it.
        with pytest.raises(ProfileError) as fresh:
            check_profile(g2, Profile(g1_hat.as_dict()))
        for judge in (check_profile, value_table, is_nash, check_certificate):
            assert is_nash(g1, g1_hat).is_ne
            with pytest.raises(ProfileError) as raised:
                judge(g2, g1_hat)
            assert str(raised.value) == str(fresh.value)

    def test_is_nash_on_a_dynamics_result_solves_no_response(self, responses):
        for game, found in dynamics_results():
            assert is_nash(game, found).is_ne
            assert responses == []
            assert is_nash(game, Profile(found.as_dict())).is_ne
            assert responses == list(game.players)
            responses.clear()

    def test_recorded_responses_are_the_best_responses(self):
        for game, found in dynamics_results():
            fresh = Profile(found.as_dict())
            for n in game.players:
                assert best_response(game, found, n) == best_response(game, fresh, n)

    def test_an_equal_profile_and_brute_force_solve_afresh(self, responses, built):
        for game, found in dynamics_results():
            equal = Profile(found.as_dict())
            for n in game.players:
                best_response(game, equal, n)
                assert responses == [n]
                responses.clear()
                _, values = best_response_enum(game, found, n)
                assert built and responses == []
                built.clear()
                assert values == best_response(game, found, n)[1]

    def test_returned_maps_are_the_callers_own(self):
        """Every call decodes fresh value maps, on the dynamics result and
        on an equal profile alike: writing into a returned map changes no
        later result."""
        for game, found in dynamics_results():
            fresh = Profile(found.as_dict())
            expected = (
                value_table(game, fresh),
                [best_response(game, fresh, n) for n in game.players],
                [best_response_enum(game, fresh, n) for n in game.players],
            )
            garbage = PayoffValue(-1, len(game.vertices) + 5)
            for profile in (found, fresh):
                for _ in range(2):
                    tables = list(value_table(game, profile).values())
                    tables += [best_response(game, profile, n)[1] for n in game.players]
                    tables += [best_response_enum(game, profile, n)[1] for n in game.players]
                    for table in tables:
                        for v in table:
                            table[v] = garbage
                    assert value_table(game, profile) == expected[0]
                    assert [best_response(game, profile, n) for n in game.players] == expected[1]
                    enum = [best_response_enum(game, profile, n) for n in game.players]
                    assert enum == expected[2]
                    assert is_nash(game, profile).is_ne

    def test_every_call_decodes_maps_of_its_own(self):
        """On the judged profile, two tables and every player's best
        response hand out equal maps, no two of them the same object, and
        none of them the game's shared all-zero map."""
        for game, found in dynamics_results():
            assert is_nash(game, found).is_ne
            first, second = value_table(game, found), value_table(game, found)
            assert first == second
            responses = [best_response(game, found, n)[1] for n in game.players]
            assert responses == [first[n] for n in game.players]
            maps = [*first.values(), *second.values(), *responses]
            assert len({id(m) for m in maps}) == len(maps)
            assert all(m is not game._core.zeros for m in maps)
            assert game._core.zeros == dict.fromkeys(game.vertices, ZERO)

    def test_responses_survive_the_codes_being_filled_in(self, responses):
        verdicts = (is_nash, check_certificate, is_nash_qualitative)
        for game, found in dynamics_results():
            reports = [verdict(game, found) for verdict in verdicts]
            assert responses == []
            fresh = Profile(found.as_dict())
            assert [verdict(game, fresh) for verdict in verdicts] == reports
            assert responses == list(game.players)
            responses.clear()

    def test_the_code_readers_solve_no_response(self, responses, built):
        """`value_table` and `check_certificate` on a fresh profile build its
        codes once and solve no response; `best_response` on it then
        solves the asked player's response alone, as on an equal profile."""
        rng = random.Random(27)
        for seed in range(40):
            game = small_game(seed)
            profile = random_profile(game, rng)
            table, report = value_table(game, profile), check_certificate(game, profile)
            assert value_table(game, profile) == table
            assert check_certificate(game, profile) == report
            assert responses == [] and len(built) == 1, seed
            equal = Profile(profile.as_dict())
            for n in game.players:
                assert best_response(game, profile, n) == best_response(game, equal, n)
                assert responses == [n, n]
                responses.clear()
            built.clear()

    def test_a_verdict_after_the_code_readers_solves_each_response_once(self, responses, built):
        rng = random.Random(28)
        for seed in range(40):
            game = small_game(seed)
            profile = random_profile(game, rng)
            value_table(game, profile)
            check_certificate(game, profile)
            reports = [is_nash(game, profile), is_nash_qualitative(game, profile)]
            for n in game.players:
                best_response(game, profile, n)
            assert responses == list(game.players) and len(built) == 1, seed
            equal = Profile(profile.as_dict())
            assert [is_nash(game, equal), is_nash_qualitative(game, equal)] == reports
            responses.clear()
            built.clear()

    def test_nothing_on_a_dynamics_result_solves_a_response(self, responses, built):
        for game, found in dynamics_results():
            table = value_table(game, found)
            assert check_certificate(game, found).is_ne and is_nash(game, found).is_ne
            for n in game.players:
                assert best_response(game, found, n)[1] == table[n]
            assert responses == [] and len(built) == 1
            built.clear()
