"""Acceptance gate: one test per promised behavior, sized as stated.

Every test prints a single PASS line with its measured numbers; the
pytest status line per test is the pass/fail record. Nothing in here may
be weakened to accommodate an implementation bug.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mprs import (
    ZERO,
    GeneratorParams,
    PayoffValue,
    Profile,
    all_profiles,
    best_response,
    best_response_enum,
    check_certificate,
    cross_check_two_player,
    enumerate_ne,
    is_nash,
    is_nash_qualitative,
    random_game,
    value_table,
)

from conftest import random_arena, random_profile, small_game

ENSEMBLE_SIZE = 500


@pytest.fixture(scope="module")
def ensemble():
    # 2..3 players, 3..6 vertices, mixed densities, roles drawn per seed
    return [small_game(seed) for seed in range(ENSEMBLE_SIZE)]


@pytest.fixture(scope="module")
def found_equilibria(ensemble):
    t0 = time.monotonic()
    per_game = [enumerate_ne(game) for game in ensemble]
    return per_game, time.monotonic() - t0


def test_criterion_1_every_game_has_an_equilibrium(ensemble, found_equilibria):
    per_game, elapsed = found_equilibria
    assert len(ensemble) >= 500
    empty = [i for i, eqs in enumerate(per_game) if not eqs]
    assert not empty, f"games without any equilibrium: {empty}"
    assert elapsed < 120, f"enumeration took {elapsed:.1f}s, budget is 2 minutes"
    total = sum(len(eqs) for eqs in per_game)
    print(
        f"PASS criterion 1: {len(ensemble)}/{len(ensemble)} games have an"
        f" equilibrium ({total} found, {elapsed:.1f}s)"
    )


def test_criterion_2_certificate_agrees_with_deviation_search(ensemble):
    checked = 0
    for i, game in enumerate(ensemble):
        for profile in all_profiles(game):
            checked += 1
            local = check_certificate(game, profile).is_ne
            global_ = is_nash(game, profile).is_ne
            assert local == global_, (i, profile)
    print(f"PASS criterion 2: certificate and deviation search agree on {checked} profiles")


def test_criterion_3_exact_equilibria_survive_the_sign_game(ensemble, found_equilibria):
    per_game, _ = found_equilibria
    checked = 0
    for game, eqs in zip(ensemble, per_game):
        for sigma in eqs:
            checked += 1
            assert is_nash_qualitative(game, sigma).is_ne, sigma
    print(f"PASS criterion 3: all {checked} exact equilibria pass the qualitative check")


def test_criterion_4_equilibria_do_not_depend_on_the_discount():
    games = 0
    for seed in range(100):
        shared = dict(
            num_players=2 + seed % 2,
            num_vertices=3 + seed % 4,
            edge_density=(0.3, 0.45, 0.6, 0.75)[seed % 4],
            targets_per_player=1 + seed % 2,
            seed=seed,
        )
        low = random_game(GeneratorParams(gamma=Fraction(3, 10), **shared))
        high = random_game(GeneratorParams(gamma=Fraction(9, 10), **shared))
        eq_low = enumerate_ne(low)
        eq_high = enumerate_ne(high)
        assert set(eq_low) == set(eq_high), seed
        assert eq_low == eq_high, seed  # same order, too
        games += 1
    print(f"PASS criterion 4: identical equilibrium sets at gamma=3/10 and 9/10 on {games} games")


def test_criterion_5_fast_and_brute_force_responses_agree(ensemble):
    rng = random.Random(2026)
    triples = 0
    while triples < 500:
        game = ensemble[triples % len(ensemble)]
        sigma = random_profile(game, rng)
        n = rng.choice(game.players)
        opponents = sigma.without(n)
        _, fast = best_response(game, opponents, n)
        _, slow = best_response_enum(game, opponents, n)
        assert fast == slow, (triples, n)
        triples += 1
    print(f"PASS criterion 5: best-response values match brute force on {triples} triples")


def test_criterion_6_attractor_matches_equilibrium_outcomes():
    arenas = 200
    equilibria = 0
    for seed in range(arenas):
        report = cross_check_two_player(random_arena(seed))
        assert report.ok, (seed, report.mismatches)
        equilibria += len(report.equilibria)
    print(
        f"PASS criterion 6: zero mismatches across {arenas} arenas"
        f" ({equilibria} equilibria checked)"
    )


def test_criterion_7_worked_micro_games(g1, g1_hat, g2):
    assert enumerate_ne(g1) == [g1_hat]
    table = value_table(g1, g1_hat)
    assert table[1]["v1"] == PayoffValue.pos(1)
    assert table[2]["v1"] == PayoffValue.neg(1)

    loop = Profile({1: {"w1": "w1"}})
    assert enumerate_ne(g2) == [loop]
    table2 = value_table(g2, loop)
    assert table2[1]["w1"] == ZERO
    assert table2[2]["w1"] == ZERO
    print("PASS criterion 7: both micro-games have their unique documented equilibrium")


def _run(argv: list[str], hashseed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "mprs", *argv], capture_output=True, env=env
    )


def test_criterion_8_solve_and_gen_are_byte_deterministic(tmp_path):
    gen_argv = ["gen", "--seed", "11", "--vertices", "8", "--players", "2"]
    first = _run(gen_argv, "0")
    second = _run(gen_argv, "4242")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    doc = tmp_path / "game.json"
    doc.write_bytes(first.stdout)
    solve_argv = ["solve", str(doc), "--all"]
    first = _run(solve_argv, "0")
    second = _run(solve_argv, "4242")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    print("PASS criterion 8: gen and solve emit byte-identical output across runs")
