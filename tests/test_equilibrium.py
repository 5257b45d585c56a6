"""Certificate checks, deviation search, enumeration and response dynamics."""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from collections import Counter

import pytest

from mprs import (
    ZERO,
    Deviation,
    GameSpec,
    GeneratorParams,
    InvalidGameError,
    NEReport,
    PayoffValue,
    Profile,
    ProfileError,
    Role,
    TooLargeError,
    all_profiles,
    best_response,
    best_response_enum,
    check_certificate,
    check_profile,
    emit_game,
    enumerate_ne,
    export_dot,
    is_nash,
    is_nash_qualitative,
    profile_space,
    random_game,
    solve_br_dynamics,
    validate_game,
    value_table,
)
from mprs import equilibrium, valuation
from mprs.cli import main
from mprs.limits import GuardError

from conftest import random_profile, small_game

POS = functools.partial(PayoffValue, 1)
NEG = functools.partial(PayoffValue, -1)


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


# Malformed profiles of G1 (v1 is player 1's, v2 player 2's, v3 the target).
MALFORMED = {
    "undeclared player": {1: {"v1": "v3"}, 3: {"v2": "v1"}},
    "unknown vertex": {1: {"v9": "v1"}, 2: {"v2": "v1"}},
    "stranger's vertex": {1: {"v1": "v3", "v2": "v1"}},
    "target vertex": {1: {"v1": "v3"}, 2: {"v3": "v1"}},
    "non-edge": {1: {"v1": "v1"}, 2: {"v2": "v1"}},
    "missing move": {1: {"v1": "v3"}},
    # Complete and legal but for one entry, so only the entry count is off.
    "illegal extra entry": {1: {"v1": "v3"}, 2: {"v2": "v1", "v1": "v2"}},
}


@pytest.mark.parametrize("strategies", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize(
    "solver",
    [
        value_table,
        check_certificate,
        is_nash,
        solve_br_dynamics,
        best_response,
        best_response_enum,
        export_dot,
    ],
)
def test_solvers_reject_a_malformed_profile_like_check_profile(g1, g1_hat, solver, strategies):
    profile = Profile(strategies)
    checked = profile
    if solver in (best_response, best_response_enum):
        # Respond as a player whose own entries are legal, so the fault lies
        # with the opponents. The responder's own moves are never asked for,
        # so the message is the one of the profile with them filled in.
        legal = g1_hat.as_dict()
        n = next(n for n in g1.players if strategies.get(n, {}) in ({}, legal.get(n, {})))
        checked = profile.replace(n, legal.get(n, {}))
        solver = functools.partial(solver, n=n)
    with pytest.raises(ProfileError) as expected:
        check_profile(g1, checked)
    with pytest.raises(ProfileError) as raised:
        solver(g1, profile)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("strategies", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_profile_fails_the_same_way_every_time(g1, g1_hat, strategies):
    # A failed check is never remembered, not even after a legal profile
    # was judged on the same game.
    profile = Profile(strategies)
    with pytest.raises(ProfileError) as first:
        check_profile(g1, profile)
    for judge in (value_table, is_nash, check_certificate, check_profile):
        assert check_certificate(g1, g1_hat).is_ne
        for _ in range(2):
            with pytest.raises(ProfileError) as again:
                judge(g1, profile)
            assert str(again.value) == str(first.value)


# Stray entries next to a complete set of opponent moves, which a best
# response must not pass over.
STRAY = {
    "undeclared player": {3: {"zz": "v1"}},
    "unknown vertex": {2: {"v9": "v1"}},
    "target vertex": {2: {"v3": "v1"}},
}


@pytest.mark.parametrize("stray", STRAY.values(), ids=STRAY.keys())
@pytest.mark.parametrize("solver", [best_response, best_response_enum])
def test_best_responses_reject_stray_opponent_entries(g1, g1_hat, solver, stray):
    strategies = g1_hat.as_dict()
    for m, moves in stray.items():
        strategies.setdefault(m, {}).update(moves)
    profile = Profile(strategies)
    with pytest.raises(ProfileError) as expected:
        check_profile(g1, profile)
    with pytest.raises(ProfileError) as raised:
        solver(g1, profile, 1)
    assert str(raised.value) == str(expected.value)


def one_player_game(role, edges, target="t", others=None):
    """Player 1 owns every vertex and plays `role` toward `target`; each
    name in `others` becomes a target of a reacher player 2 as well."""
    vertices = sorted({v for edge in edges for v in edge})
    players = {1: role} | ({2: Role.REACHER} if others else {})
    targets = {1: [target]} | ({2: others} if others else {})
    return validate_game(GameSpec(vertices, edges, dict.fromkeys(vertices, 1), players, targets))


def reacher_chain(size):
    """Vertices c0001 -> c0002 -> ... -> z, each with an edge straight to
    the target z as well, and the profile that walks the whole chain."""
    chain = [f"c{i:04d}" for i in range(1, size)]
    edges = list(zip(chain, chain[1:] + ["z"])) + [(v, "z") for v in chain]
    game = one_player_game(Role.REACHER, edges, target="z")
    return game, Profile({1: dict(zip(chain, chain[1:] + ["z"]))})


# One certificate case per way the switched move's value is found: player 1
# gains by switching v to w, and each case ends in (w, achieved, available).
SWITCHES = {
    # w is a target: v hits it one step after the switch.
    "w is a target": (
        Role.REACHER,
        [("v", "a"), ("v", "t"), ("a", "t")],
        {"v": "a", "a": "t"},
        None,
        ("t", POS(2), POS(1)),
    ),
    # w's play hits player 2's target, which is worth 0 to player 1.
    "w hits another player's target": (
        Role.AVOIDER,
        [("v", "a"), ("v", "t"), ("a", "u")],
        {"v": "t", "a": "u"},
        ["u"],
        ("a", NEG(1), ZERO),
    ),
    # w loses later than v does now, but only by running back into v,
    # so switching closes a cycle and secures 0.
    "w loses through v": (
        Role.AVOIDER,
        [("v", "a"), ("v", "t"), ("a", "v")],
        {"v": "t", "a": "v"},
        None,
        ("a", NEG(1), ZERO),
    ),
    # w loses later and away from v: v loses one step after w.
    "w loses away from v": (
        Role.AVOIDER,
        [("v", "a"), ("v", "t"), ("a", "b"), ("b", "t")],
        {"v": "t", "a": "b", "b": "t"},
        None,
        ("a", NEG(1), NEG(3)),
    ),
}


class TestCertificate:
    @pytest.mark.parametrize("case", SWITCHES.values(), ids=SWITCHES.keys())
    def test_switched_move_value(self, case):
        role, edges, moves, others, (better, achieved, available) = case
        game = one_player_game(role, edges, others=others)
        report = check_certificate(game, Profile({1: moves}))
        assert report.violations == (Deviation(1, "v", better, achieved, available),)

    def test_one_hit_table_per_check_whatever_the_violations(self, g1, g1_cycle, monkeypatch):
        built = []
        codes = valuation._codes

        def counted(core, nxt):
            built.append(len(nxt))
            return codes(core, nxt)

        monkeypatch.setattr(valuation, "_codes", counted)
        monkeypatch.setattr(equilibrium, "_codes", counted, raising=False)
        chain, along = reacher_chain(4000)
        for game, profile, flagged in ((g1, g1_cycle, 1), (chain, along, 3998)):
            built.clear()
            report = check_certificate(game, profile)
            assert len(report.violations) == flagged
            assert built == [len(game.vertices)]
        # Every chain vertex but the last could jump straight to z.
        assert report.violations[0] == Deviation(1, "c0001", "z", POS(3999), POS(1))
        assert report.violations[-1] == Deviation(1, "c3998", "z", POS(2), POS(1))

    def test_a_corrupted_code_table_fails_the_self_check(self, g1, g1_hat):
        """One code off the one-step recursion is named by vertex and player."""
        core = g1._core
        nxt, codes, _ = valuation._judged(core, g1_hat)
        equilibrium._assert_consistent(core, nxt, codes)
        v = core.names.index("v2")  # no vertex moves to v2, so only v2 breaks
        wrong = {**codes, 2: codes[2][:v] + (codes[2][v] + 1,) + codes[2][v + 1 :]}
        message = "value table breaks the one-step recursion at 'v2' for player 2"
        with pytest.raises(AssertionError) as err:
            equilibrium._assert_consistent(core, nxt, wrong)
        assert str(err.value) == message

    def test_g1_equilibrium_passes(self, g1, g1_hat):
        report = check_certificate(g1, g1_hat)
        assert report.is_ne
        assert report.violations == ()

    def test_g1_cycle_is_flagged_at_v1(self, g1, g1_cycle):
        report = check_certificate(g1, g1_cycle)
        assert not report.is_ne
        (dev,) = report.violations
        assert dev.player == 1
        assert dev.vertex == "v1"
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
        assert dev.vertex == "w1"
        assert dev.better_action == "w1"
        # running into w2 costs -gamma now; the loop would secure zero
        assert dev.achieved == NEG(1)
        assert dev.available == ZERO


class TestIsNash:
    def test_g1(self, g1, g1_hat, g1_cycle):
        assert is_nash(g1, g1_hat).is_ne
        report = is_nash(g1, g1_cycle)
        assert not report.is_ne
        by_vertex = {d.vertex: d for d in report.violations}
        assert set(by_vertex) == {"v1", "v2"}
        dev = by_vertex["v1"]
        assert (dev.player, dev.better_action) == (1, "v3")
        assert (dev.achieved, dev.available) == (ZERO, POS(1))
        # v2 belongs to player 2, so the gain there names no move
        assert by_vertex["v2"].better_action is None
        assert by_vertex["v2"].available == POS(2)

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
        assert dev.vertex == "v1"
        assert (dev.achieved, dev.available) == (POS(2), POS(1))

    def test_qualitative_deviations_carry_signs(self, g1, g1_cycle):
        report = is_nash_qualitative(g1, g1_cycle)
        assert not report.is_ne
        for dev in report.violations:
            assert (dev.achieved, dev.available) == (0, 1)


def _scan_cost(game, stop=None):
    """The `_respond` calls of the scan through the first `stop` profiles
    of `all_profiles` (all by default), from `is_nash` reports: the last
    mover p's response once per head assignment, the choice of every move
    before p's trailing block, and at each profile where p has no gain the
    other players' in order, up to the first who gains."""
    choice = game.choice_vertices
    p = game.owner[choice[-1]] if choice else 1
    tail = itertools.takewhile(lambda v: game.owner[v] == p, reversed(choice))
    block = math.prod(len(game.successors(v)) for v in tail)
    calls = 0
    for k, profile in enumerate(itertools.islice(all_profiles(game), stop)):
        gainers = [d.player for d in is_nash(game, profile).violations]
        calls += k % block == 0
        if p not in gainers:
            last = gainers[0] if gainers else len(game.players)
            calls += sum(m != p for m in game.players if m <= last)
    return calls


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

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_rejected(self, g1, limit):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            enumerate_ne(g1, limit=limit)

    def test_enumeration_is_the_filter_of_all_profiles(self):
        """The oracle any faster search must match: the equilibria are the
        profiles either verdict accepts, in `all_profiles` order, and a
        limit keeps a prefix."""
        for seed in range(500):
            game = small_game(seed)
            full = enumerate_ne(game)
            profiles = list(all_profiles(game))
            assert full == [p for p in profiles if is_nash(game, p).is_ne], seed
            assert full == [p for p in profiles if check_certificate(game, p).is_ne], seed
            for k in (1, 2):
                assert enumerate_ne(game, limit=k) == full[:k], (seed, k)

    def test_the_scan_builds_no_report(self, g1, g1_cycle, tmp_path, capsys, monkeypatch):
        """The scan settles each profile on payoff codes alone: with both
        sources of a failing profile's report broken, `enumerate_ne` and
        `mprs enumerate` still give the equilibria `is_nash` gives."""
        games = [small_game(seed) for seed in range(20)]
        expected = [[p for p in all_profiles(g) if is_nash(g, p).is_ne] for g in games]
        # A document whose profiles are not all equilibria.
        k = next(k for k, g in enumerate(games) if len(expected[k]) < profile_space(g))
        path = tmp_path / "game.json"
        path.write_text(emit_game(games[k]), encoding="utf-8")

        def broken(*args):
            raise AssertionError("a report was built")

        monkeypatch.setattr(equilibrium, "value_table", broken)
        monkeypatch.setattr(equilibrium, "best_response", broken)
        with pytest.raises(AssertionError, match="a report was built"):
            is_nash(g1, g1_cycle)
        assert [enumerate_ne(g) for g in games] == expected
        assert main(["enumerate", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        flags = [json.loads(line)["is_ne"] for line in lines]
        assert flags == [p in expected[k] for p in all_profiles(games[k])]

    def test_the_scan_checks_and_records_no_profile(self, monkeypatch):
        """`enumerate_ne` judges the move arrays it builds itself: in full
        and to its first equilibrium it checks no profile through `_moves`
        and leaves the game's judged profile as it found it, on a fresh
        game and after a verdict."""
        checked = []
        moves = valuation._moves

        def counted(*args, **kwargs):
            checked.append(args)
            return moves(*args, **kwargs)

        monkeypatch.setattr(valuation, "_moves", counted)
        monkeypatch.setattr(equilibrium, "_moves", counted)
        rng = random.Random(23)
        for seed in range(40):
            game = small_game(seed)
            for _ in range(2):
                judged = game._core.judged
                full = enumerate_ne(game)
                assert enumerate_ne(game, limit=1) == full[:1]
                assert checked == [] and game._core.judged is judged, seed
                is_nash(game, random_profile(game, rng))
                checked.clear()

    @pytest.fixture
    def responders(self, monkeypatch):
        """The player of every `_respond` call the scan makes, in order."""
        calls = []
        respond = equilibrium._respond

        def counted(core, nxt, n):
            calls.append(n)
            return respond(core, nxt, n)

        monkeypatch.setattr(equilibrium, "_respond", counted)
        return calls

    def test_the_scan_solves_the_last_movers_response_once_per_head(self, responders):
        # Player 2 owns the last choice vertex, after two of player 1's, so
        # the scan solves 2's response once per choice of 1's moves and, at
        # each profile where 2 has no gain, the others' responses up to the
        # first player `is_nash` flags.
        game = random_game(GeneratorParams(num_players=3, num_vertices=6, edge_density=0.6, seed=1))
        assert [game.owner[v] for v in game.choice_vertices] == [1, 1, 2]
        found = enumerate_ne(game)
        assert len(responders) == _scan_cost(game) == 78
        assert responders.count(2) == 20 == profile_space(game) // len(game.successors("v6"))
        assert found == [p for p in all_profiles(game) if is_nash(game, p).is_ne]

    @pytest.mark.parametrize(
        "seed, owners, mover, solved, calls",
        [(1, [], 1, 1, 3), (55, [1, 1, 1], 1, 1, 17), (34, [2, 1, 2], 2, 16, 65)],
        ids=["no-choice-vertex", "one-owner-of-every-choice", "last-owner-also-in-the-head"],
    )
    def test_the_scan_cost_follows_the_reuse_rule(
        self, responders, seed, owners, mover, solved, calls
    ):
        # With no choice vertex the one profile costs every response; with
        # one owner of every choice the scan solves that one's response once,
        # and the others', who never gain, at each equilibrium; a last
        # owner with head vertices is solved again whenever the head moves,
        # here once per pair of moves at the two 4-way head vertices.
        game = small_game(seed)
        assert [game.owner[v] for v in game.choice_vertices] == owners
        found = enumerate_ne(game)
        assert len(responders) == _scan_cost(game) == calls
        assert responders.count(mover) == solved
        assert found == [p for p in all_profiles(game) if is_nash(game, p).is_ne]

    def test_a_limit_inside_a_trailing_block_stops_there(self, responders):
        game = random_game(GeneratorParams(num_players=3, num_vertices=6, edge_density=0.6, seed=1))
        full = enumerate_ne(game)
        responders.clear()
        block = len(game.successors("v6"))  # player 2's trailing block is v6 alone
        stop = list(all_profiles(game)).index(full[4]) + 1
        assert stop % block  # the fifth equilibrium is not the last of its block
        assert enumerate_ne(game, limit=5) == full[:5]
        assert len(responders) == _scan_cost(game, stop)

    def test_named_profiles_share_each_players_vertex_tuple(self):
        """Consecutive `all_profiles` profiles, the equilibria and the
        dynamics result all hold the same vertex tuple object per player."""
        for seed in range(40):
            game = small_game(seed)
            profiles = list(all_profiles(game, guard=10**5))
            found = solve_br_dynamics(game, profiles[0])
            named = [*profiles, *enumerate_ne(game)] + [found] * (found is not None)
            for p, q in zip(named, named[1:]):
                assert len(p._items) == len(q._items), seed
                for (n, vertices, _), (m, shared, _) in zip(p._items, q._items):
                    assert n == m and vertices is shared, seed

    @pytest.mark.parametrize("seed", [2, 34])
    def test_equal_strategy_triples_of_the_equilibria_are_one_object(self, seed):
        """On games with dozens of equilibria each distinct per-player
        triple is held once, and the list is still `is_nash`'s."""
        game = small_game(seed)
        found = enumerate_ne(game)
        assert found == [p for p in all_profiles(game) if is_nash(game, p).is_ne]
        first: dict[tuple, tuple] = {}
        items = [item for p in found for item in p._items]
        for item in items:
            assert first.setdefault(item, item) is item, seed
        assert len(found) > 30 and len(first) < len(items) / 3

    def test_explicit_guard_below_one_is_rejected(self, g1):
        with pytest.raises(GuardError) as err:
            enumerate_ne(g1, guard=0)
        assert str(err.value) == "enumeration guard must be a positive int, got 0"

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

    def test_only_a_round_without_switches_ends_the_dynamics(self, g1, g1_hat, g1_cycle):
        # Player 1 switches in the first round, so a second round must
        # confirm that nobody else wants to move.
        assert solve_br_dynamics(g1, g1_cycle, max_rounds=1) is None
        assert solve_br_dynamics(g1, g1_cycle, max_rounds=2) == g1_hat

    def test_responses_that_cannot_change_are_skipped(self, g1, g1_hat, g1_cycle, monkeypatch):
        # From the cycle player 1 switches and player 2 confirms, so no
        # response of the second round could change anything.
        responders = []
        respond = equilibrium._respond

        def counted(core, nxt, n):
            responders.append(n)
            return respond(core, nxt, n)

        monkeypatch.setattr(equilibrium, "_respond", counted)
        assert solve_br_dynamics(g1, g1_cycle) == g1_hat
        assert responders == [1, 2]
        responders.clear()
        assert solve_br_dynamics(g1, g1_hat) == g1_hat
        assert responders == [1, 2]
        assert solve_br_dynamics(g1, g1_cycle, max_rounds=1) is None

    @pytest.mark.parametrize("max_rounds", [0, -1])
    def test_round_budget_below_one_is_rejected(self, g1, g1_cycle, max_rounds):
        with pytest.raises(ValueError, match="max_rounds must be at least 1"):
            solve_br_dynamics(g1, g1_cycle, max_rounds=max_rounds)

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

    def test_matches_a_loop_over_the_public_api(self):
        # The same dynamics written with `best_response`, `value_table` and
        # `Profile.replace` only, as they ran before they moved onto move
        # arrays; both must stop at the same profile or both give up once
        # `max_rounds` rounds have not settled.
        def reference(game, current, max_rounds):
            for _ in range(max_rounds):
                changed = False
                for n in game.players:
                    strategy, better = best_response(game, current, n)
                    now = value_table(game, current)[n]
                    if any(better[v] > now[v] for v in game.vertices):
                        current = current.replace(n, strategy)
                        changed = True
                if not changed:
                    return current
            return None

        rng = random.Random(6)
        gave_up = Counter()
        for seed in range(500):
            game = small_game(seed)
            for _ in range(3):
                start = random_profile(game, rng)
                for max_rounds in (1, 2, 100):
                    found = solve_br_dynamics(game, start, max_rounds)
                    assert found == reference(game, start, max_rounds), (seed, start, max_rounds)
                    gave_up[max_rounds] += found is None
        # Short budgets both run out and suffice, so each way out is compared.
        assert 0 < gave_up[1] < 1500 and gave_up[2] > 0

    def test_census_of_two_vertex_games(self):
        # Every raw spec with two players on vertices a and b: owners,
        # roles, nonempty target sets and edge subsets. Against every
        # profile both best responses agree on every player's values, which
        # the fast response's strategy earns. From every start the dynamics
        # settle within the default budget on a profile both verdicts pass,
        # and the qualitative report is a sign search over the public value
        # maps: the gains are where the best response's sign beats the
        # profile's, in player and then vertex order. The scan finds
        # exactly the profiles `is_nash` passes, and with `limit=1` the
        # first of them.
        vertices = ("a", "b")
        edges = list(itertools.product(vertices, repeat=2))
        nonempty = [("a",), ("b",), ("a", "b")]
        valid = 0
        for owners, roles, targets, mask in itertools.product(
            itertools.product((1, 2), repeat=2),
            itertools.product(Role, repeat=2),
            itertools.product(nonempty, repeat=2),
            itertools.product((0, 1), repeat=len(edges)),
        ):
            spec = GameSpec(vertices, list(itertools.compress(edges, mask)),
                            dict(zip(vertices, owners)), dict(zip((1, 2), roles)),
                            dict(zip((1, 2), targets)))
            try:
                game = validate_game(spec)
            except InvalidGameError:
                continue
            valid += 1
            profiles = list(all_profiles(game))
            for start in profiles:
                table = value_table(game, start)
                signs = []
                for n in game.players:
                    strategy, values = best_response(game, start, n)
                    assert best_response_enum(game, start, n)[1] == values, (spec, start, n)
                    assert value_table(game, start.replace(n, strategy))[n] == values
                    signs += [
                        Deviation(n, v, strategy.get(v), table[n][v].sign, values[v].sign)
                        for v in game.vertices
                        if values[v].sign > table[n][v].sign
                    ]
                found = solve_br_dynamics(game, start)
                assert found is not None, (spec, start)
                assert is_nash(game, found).is_ne and check_certificate(game, found).is_ne
                want = NEReport(not signs, tuple(signs))
                assert is_nash_qualitative(game, start) == want, (spec, start)
            passed = [p for p in profiles if is_nash(game, p).is_ne]
            assert enumerate_ne(game) == passed, spec
            assert enumerate_ne(game, limit=1) == passed[:1], spec
        assert valid == 2176


class TestCountArguments:
    """A count or guard is an int that is not a bool, like a player id;
    anything else is refused like a value below 1."""

    @pytest.fixture
    def game(self):
        return random_game(GeneratorParams(2, 4, seed=3))

    @pytest.fixture
    def start(self, game):
        return random_profile(game, random.Random(3))

    @pytest.mark.parametrize("max_rounds", [2.5, "3", True, None])
    def test_max_rounds(self, game, start, max_rounds):
        with pytest.raises(ValueError, match="max_rounds must be at least 1"):
            solve_br_dynamics(game, start, max_rounds=max_rounds)

    @pytest.mark.parametrize("limit", ["2", True, 1.5])
    def test_limit(self, game, limit):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            enumerate_ne(game, limit=limit)

    @pytest.mark.parametrize("guard", ["5", True, 1.5])
    def test_guard(self, game, start, guard):
        for search in (
            lambda: enumerate_ne(game, guard=guard),
            lambda: list(all_profiles(game, guard=guard)),
            lambda: best_response_enum(game, start, 1, guard=guard),
        ):
            with pytest.raises(GuardError) as err:
                search()
            assert str(err.value) == f"enumeration guard must be a positive int, got {guard!r}"

    def test_none_keeps_its_meaning(self, game, start):
        assert enumerate_ne(game, limit=None, guard=None) == enumerate_ne(game)
        assert best_response_enum(game, start, 1, guard=None)[1] == best_response(game, start, 1)[1]
