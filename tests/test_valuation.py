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
        "strategies",
        [{1: {"a": "b"}, "2": {"c": "d"}}, {1: {"a": "b", 2: "c"}}],
        ids=["player-ids", "vertex-ids"],
    )
    def test_keys_of_mixed_types_are_a_profile_error(self, strategies):
        with pytest.raises(ProfileError, match="mixed types cannot be ordered"):
            Profile(strategies)

    @pytest.mark.parametrize("strategies", [None, 5, "ab", [1]], ids=["none", "int", "str", "seq"])
    def test_a_profile_that_is_no_mapping_is_a_profile_error(self, strategies):
        message = f"a profile maps player ids to strategies, got {strategies!r}"
        with pytest.raises(ProfileError) as err:
            Profile(strategies)
        assert str(err.value) == message

    @pytest.mark.parametrize("strategy", [[("a", "b")], "ab", 7], ids=["pairs", "string", "int"])
    def test_a_strategy_that_is_no_mapping_is_a_profile_error(self, strategy):
        with pytest.raises(ProfileError, match="strategy of player 2 must map vertices"):
            Profile({0: [], 1: {"a": "b"}, 2: strategy})

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

    def test_check_profile_requires_every_choice_vertex(self, g1):
        with pytest.raises(ProfileError):
            check_profile(g1, Profile({1: {"v1": "v3"}}))  # v2 unassigned

    def test_a_move_to_no_vertex_id_is_not_an_edge(self, g1):
        for w in ("v9", ["v3"], 3):
            with pytest.raises(ProfileError) as err:
                check_profile(g1, Profile({1: {"v1": w}, 2: {"v2": "v1"}}))
            assert str(err.value) == f"chosen move 'v1' -> {w!r} is not an edge"


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

    def test_total_payoff_signs(self, g1):
        hit = Outcome(2, "v3")
        assert total_payoff(g1, 1, hit) == POS(2)  # reacher
        assert total_payoff(g1, 2, hit) == NEG(2)  # avoider
        assert total_payoff(g1, 1, NEVER) == ZERO
        assert total_payoff(g1, 1, hit).sign == 1
        assert total_payoff(g1, 2, hit).sign == -1

    @pytest.mark.parametrize("n", [7, True, "1"])
    def test_an_unknown_player_is_a_value_error(self, g1, n):
        cases = [(turn_payoff, "v3"), (total_payoff, Outcome(2, "v3")), (total_payoff, NEVER)]
        for payoff, argument in cases:
            with pytest.raises(ValueError, match=f"^unknown player {n!r}$"):
                payoff(g1, n, argument)
        assert total_payoff(g1, 1, NEVER).sign == 0

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
        """The memoized walk must agree with literally playing out each start."""
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


class TestJudgedProfile:
    """Each game remembers the last profile it checked in full, so both
    verdicts on one profile object check it and build its hit table once,
    and on a dynamics result reuse the dynamics' last responses."""

    def test_both_verdicts_build_one_hit_table(self, g1, g1_hat, monkeypatch):
        built = []
        hits = valuation._hits

        def counted(core, nxt):
            built.append(list(nxt))
            return hits(core, nxt)

        monkeypatch.setattr(valuation, "_hits", counted)
        assert is_nash(g1, g1_hat).is_ne
        assert check_certificate(g1, g1_hat).is_ne
        assert built == [[2, 0, -1]]

    def test_only_valuing_a_profile_evicts_the_judged_one(self, g1, g1_hat, monkeypatch):
        """A check, a play, a best response, a DOT graph or a document on
        another profile leaves the judged profile and its hit table be."""
        built = []
        hits = valuation._hits

        def counted(core, nxt):
            built.append(list(nxt))
            return hits(core, nxt)

        monkeypatch.setattr(valuation, "_hits", counted)
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

    def test_an_equal_profile_and_brute_force_solve_afresh(self, responses, monkeypatch):
        built = []
        hits = valuation._hits

        def counted(core, nxt):
            built.append(list(nxt))
            return hits(core, nxt)

        monkeypatch.setattr(valuation, "_hits", counted)
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
        """Value maps are decoded once per profile and handed out as
        copies, also to a best response whose codes match the table's:
        writing into a returned map changes no later result."""
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

    def test_responses_survive_the_codes_being_filled_in(self, responses):
        verdicts = (is_nash, check_certificate, is_nash_qualitative)
        for game, found in dynamics_results():
            reports = [verdict(game, found) for verdict in verdicts]
            assert responses == []
            fresh = Profile(found.as_dict())
            assert [verdict(game, fresh) for verdict in verdicts] == reports
            assert responses == list(game.players) * 2
            responses.clear()


# Every solver that takes a profile, called with the profile alone.
PROFILE_TAKERS = {
    "check_profile": check_profile,
    "value_table": value_table,
    "is_nash": is_nash,
    "is_nash_qualitative": is_nash_qualitative,
    "check_certificate": check_certificate,
    "best_response": lambda g, p: best_response(g, p, 1),
    "best_response_enum": lambda g, p: best_response_enum(g, p, 1),
    "solve_br_dynamics": solve_br_dynamics,
    "play": lambda g, p: play(g, p, "v1"),
    "outcome": lambda g, p: outcome(g, p, "v1"),
    "export_dot": export_dot,
    "emit_game": lambda g, p: emit_game(g, {"p": p}),
}


@pytest.mark.parametrize("call", PROFILE_TAKERS.values(), ids=PROFILE_TAKERS.keys())
def test_anything_but_a_profile_is_a_profile_error(g1, g1_hat, call):
    """Every solver checks its profile through one door, which lets only a
    `Profile` in, also right after the equal `Profile` was judged."""
    call(g1, g1_hat)
    for wrong, kind in ((g1_hat.as_dict(), "dict"), (g1_hat._items, "tuple")):
        with pytest.raises(ProfileError) as err:
            call(g1, wrong)
        assert str(err.value) == f"expected a Profile, got {kind}"
