"""Plays, exact payoffs, value tables and best responses.

The expected numbers in here were derived by hand on the two micro-games
and are frozen; the property tests then pin the fast implementations to
slow per-play recomputation and to brute-force enumeration.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mprs import (
    NEVER,
    ZERO,
    Outcome,
    PayoffValue,
    Profile,
    ProfileError,
    TooLargeError,
    best_response,
    best_response_enum,
    check_profile,
    outcome,
    play,
    qualitative_payoff,
    total_payoff,
    turn_payoff,
    value_table,
)
from mprs.valuation import _decode, _discount, _encode

from conftest import random_profile, small_game

POS = PayoffValue.pos
NEG = PayoffValue.neg

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
        for a in values:
            code = _encode(a, base)
            assert _decode(code, base) == a
            assert _decode(_discount(code), base) == a.discounted()
            for b in values:
                assert (code < _encode(b, base)) == (a < b), (a, b)
                assert (code == _encode(b, base)) == (a == b), (a, b)

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
        assert Profile({1: {"w1": "w1"}, 2: {}}).players == (1,)

    def test_choice_and_replace(self):
        sigma = Profile({1: {"v1": "v3"}})
        assert sigma.choice(1, "v1") == "v3"
        with pytest.raises(ProfileError):
            sigma.choice(1, "v9")
        with pytest.raises(ProfileError):
            sigma.choice(2, "v1")
        tweaked = sigma.replace(1, {"v1": "v2"})
        assert tweaked.choice(1, "v1") == "v2"
        assert sigma.choice(1, "v1") == "v3"  # original untouched

    def test_without(self, g1_hat):
        rest = g1_hat.without(1)
        assert rest.players == (2,)
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
        assert outcome(g2, loop, "w2") == Outcome.hit(0, "w2")

    def test_unknown_start_rejected(self, g1, g1_hat):
        with pytest.raises(ValueError):
            play(g1, g1_hat, "nope")

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
        assert outcome(g1, g1_hat, "v1") == Outcome.hit(1, "v3")
        assert outcome(g1, g1_hat, "v2") == Outcome.hit(2, "v3")
        assert outcome(g1, g1_hat, "v3") == Outcome.hit(0, "v3")

    def test_total_payoff_signs(self, g1):
        hit = Outcome.hit(2, "v3")
        assert total_payoff(g1, 1, hit) == POS(2)  # reacher
        assert total_payoff(g1, 2, hit) == NEG(2)  # avoider
        assert total_payoff(g1, 1, NEVER) == ZERO
        assert qualitative_payoff(g1, 1, hit) == 1
        assert qualitative_payoff(g1, 2, hit) == -1
        assert qualitative_payoff(g1, 1, NEVER) == 0

    def test_payoff_ignores_foreign_targets(self):
        game = small_game(11)
        # a hit on a vertex outside player n's own target set is worth nothing
        for n in game.players:
            foreign = game.total_target - game.targets[n]
            for v in foreign:
                assert total_payoff(game, n, Outcome.hit(0, v)) == ZERO

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

    def test_response_achieves_its_stated_values(self):
        rng = random.Random(31)
        for seed in range(60):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            n = rng.choice(game.players)
            strategy, values = best_response(game, sigma.without(n), n)
            combined = sigma.replace(n, strategy)
            assert value_table(game, combined)[n] == values, (seed, n)

    def test_agrees_with_brute_force(self):
        """Fast route and exhaustive route give the same value at every start."""
        rng = random.Random(47)
        for seed in range(80):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            n = rng.choice(game.players)
            opponents = sigma.without(n)
            _, fast = best_response(game, opponents, n)
            _, slow = best_response_enum(game, opponents, n)
            assert fast == slow, (seed, n)

    def test_ignores_gamma(self):
        """Choices and symbolic values cannot depend on the discount factor."""
        from mprs import GameSpec, validate_game

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
            assert best_response(base, sigma.without(n), n) == best_response(
                other, sigma.without(n), n
            )

    def test_enum_guard_trips(self, g1):
        with pytest.raises(TooLargeError):
            best_response_enum(g1, Profile({2: {"v2": "v1"}}), 1, guard=1)
