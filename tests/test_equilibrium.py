"""Certificate checks, deviation search, enumeration and response dynamics."""

from __future__ import annotations

import random

import pytest

from mprs import (
    TERMINAL,
    ZERO,
    GameSpec,
    PayoffValue,
    Profile,
    Role,
    State,
    TooLargeError,
    all_profiles,
    check_certificate,
    enumerate_ne,
    is_nash,
    is_nash_qualitative,
    profile_space,
    solve_br_dynamics,
    validate_game,
)

from conftest import random_profile, small_game

POS = PayoffValue.pos
NEG = PayoffValue.neg


@pytest.fixture
def g1_cycle():
    """The other G1 profile: both players chase each other around the cycle."""
    return Profile({1: {"v1": "v2"}, 2: {"v2": "v1"}})


@pytest.fixture
def detour_game():
    """One reacher, two routes to the target, one strictly slower."""
    return validate_game(
        GameSpec(
            vertices=["t", "v1", "v2"],
            edges=[("v1", "v2"), ("v1", "t"), ("v2", "t")],
            owner={"v1": 1, "v2": 1, "t": 1},
            roles={1: Role.REACHER},
            targets={1: ["t"]},
        )
    )


class TestCertificate:
    def test_g1_equilibrium_passes(self, g1, g1_hat):
        report = check_certificate(g1, g1_hat)
        assert report.is_ne
        assert report.violations == ()

    def test_g1_cycle_is_flagged_at_v1(self, g1, g1_cycle):
        report = check_certificate(g1, g1_cycle)
        assert not report.is_ne
        (dev,) = report.violations
        assert dev.player == 1
        assert dev.state == State.at("v1")
        assert dev.better_action == "v3"
        assert dev.achieved == ZERO
        assert dev.available == POS(1)

    def test_g2_loop_passes(self, g2):
        assert check_certificate(g2, Profile({1: {"w1": "w1"}})).is_ne

    def test_g2_jump_is_flagged(self, g2):
        report = check_certificate(g2, Profile({1: {"w1": "w2"}}))
        assert not report.is_ne
        (dev,) = report.violations
        assert dev.player == 1
        assert dev.state == State.at("w1")
        assert dev.better_action == "w1"
        # running into w2 costs -gamma now; the loop would secure zero
        assert dev.achieved == NEG(1)
        assert dev.available == ZERO


class TestIsNash:
    def test_g1(self, g1, g1_hat, g1_cycle):
        assert is_nash(g1, g1_hat).is_ne
        report = is_nash(g1, g1_cycle)
        assert not report.is_ne
        by_state = {d.state: d for d in report.violations}
        assert set(by_state) == {State.at("v1"), State.at("v2")}
        dev = by_state[State.at("v1")]
        assert (dev.player, dev.better_action) == (1, "v3")
        assert (dev.achieved, dev.available) == (ZERO, POS(1))
        # v2 belongs to player 2, so the gain there names no move
        assert by_state[State.at("v2")].better_action is None
        assert by_state[State.at("v2")].available == POS(2)

    def test_matches_certificate_verdict(self):
        """Local one-step optimality and global deviation search must agree."""
        for seed in range(40):
            game = small_game(seed)
            for profile in all_profiles(game, guard=200):
                assert check_certificate(game, profile).is_ne == is_nash(game, profile).is_ne, (
                    seed,
                    profile,
                )

    def test_quantitative_implies_qualitative(self):
        rng = random.Random(7)
        for seed in range(60):
            game = small_game(seed)
            sigma = random_profile(game, rng)
            if is_nash(game, sigma).is_ne:
                assert is_nash_qualitative(game, sigma).is_ne

    def test_qualitative_does_not_imply_quantitative(self, detour_game):
        slow = Profile({1: {"v1": "v2", "v2": "t"}})
        assert is_nash_qualitative(detour_game, slow).is_ne
        report = is_nash(detour_game, slow)
        assert not report.is_ne
        (dev,) = report.violations
        assert dev.state == State.at("v1")
        assert (dev.achieved, dev.available) == (POS(2), POS(1))

    def test_qualitative_deviations_carry_signs(self, g1, g1_cycle):
        report = is_nash_qualitative(g1, g1_cycle)
        assert not report.is_ne
        for dev in report.violations:
            assert (dev.achieved, dev.available) == (0, 1)


class TestEnumeration:
    def test_profile_space_counts(self, g1, g2):
        assert profile_space(g1) == 2
        assert profile_space(g2) == 2

    def test_all_profiles_order_g1(self, g1, g1_hat, g1_cycle):
        assert list(all_profiles(g1)) == [g1_cycle, g1_hat]

    def test_all_profiles_order_g2(self, g2):
        assert list(all_profiles(g2)) == [
            Profile({1: {"w1": "w1"}}),
            Profile({1: {"w1": "w2"}}),
        ]

    def test_space_matches_yield_count(self):
        for seed in range(20):
            game = small_game(seed)
            space = profile_space(game)
            if space <= 512:
                assert sum(1 for _ in all_profiles(game)) == space

    def test_enumerate_g1(self, g1, g1_hat):
        assert enumerate_ne(g1) == [g1_hat]

    def test_enumerate_g2(self, g2):
        assert enumerate_ne(g2) == [Profile({1: {"w1": "w1"}})]

    def test_enumerate_never_comes_back_empty(self):
        for seed in range(30):
            game = small_game(seed)
            assert enumerate_ne(game, guard=10**5), seed

    def test_limit_is_a_prefix(self):
        game = small_game(3)
        full = enumerate_ne(game)
        assert enumerate_ne(game, limit=1) == full[:1]

    def test_guard_env_override(self, g1, monkeypatch):
        monkeypatch.setenv("MPRS_ENUM_GUARD", "1")
        with pytest.raises(TooLargeError):
            enumerate_ne(g1)
        # an explicit guard wins over the environment
        assert enumerate_ne(g1, guard=10)

    def test_guard_env_must_be_an_integer(self, g1, monkeypatch):
        monkeypatch.setenv("MPRS_ENUM_GUARD", "lots")
        with pytest.raises(ValueError):
            enumerate_ne(g1)


class TestBestResponseDynamics:
    def test_g1_converges_to_the_equilibrium(self, g1, g1_hat, g1_cycle):
        assert solve_br_dynamics(g1, g1_cycle) == g1_hat

    def test_g2_converges_to_the_loop(self, g2):
        assert solve_br_dynamics(g2, Profile({1: {"w1": "w2"}})) == Profile({1: {"w1": "w1"}})

    def test_fixed_point_stays_put(self, g1, g1_hat):
        assert solve_br_dynamics(g1, g1_hat) == g1_hat

    def test_result_is_always_an_equilibrium(self):
        rng = random.Random(13)
        converged = 0
        for seed in range(40):
            game = small_game(seed)
            result = solve_br_dynamics(game, random_profile(game, rng))
            if result is not None:
                converged += 1
                assert is_nash(game, result).is_ne, seed
        assert converged > 0  # the dynamics must settle at least sometimes
