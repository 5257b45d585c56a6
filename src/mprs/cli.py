"""Command-line front end.

Thin wrappers over the library: validate, simulate, check, solve,
enumerate, gen, export-dot and cross-check. Commands raise; `main` reports.
Exit codes: 0 on success (or equilibrium found), 1 when a check fails, on
any library error and on output the terminal cannot encode, 2 on usage
errors and a malformed enumeration guard (`GuardError`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classic import TwoPlayerArena, cross_check_two_player
from .equilibrium import all_profiles, enumerate_ne, is_nash, is_nash_qualitative, solve_br_dynamics
from .game import InvalidGameError, Role
from .gamefile import (
    GameDocument,
    ParseError,
    emit_game,
    export_dot,
    parse_document,
    profile_to_json,
)
from .generator import GeneratorParams, random_game
from .limits import GuardError, TooLargeError
from .valuation import Profile, ProfileError, outcome, play, total_payoff, value_table


def _load(path: str) -> GameDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_document(text)


def _named_profile(doc: GameDocument, name: str) -> Profile:
    if name not in doc.profiles:
        known = ", ".join(sorted(doc.profiles)) or "none"
        raise ProfileError(f"document has no profile named {name!r} (known: {known})")
    return doc.profiles[name]


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _profiles_json(profiles: list[Profile], method: str) -> str:
    doc = {
        "count": len(profiles),
        "equilibria": [profile_to_json(p) for p in profiles],
        "method": method,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_validate(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    game = doc.game
    print(
        f"valid: {len(game.vertices)} vertices, {len(game.edges)} edges,"
        f" {len(game.players)} players, gamma={game.gamma}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    profile = _named_profile(doc, args.profile)
    game = doc.game
    trace = play(game, profile, args.start)
    print("play: " + " -> ".join("<terminal>" if v is None else v for v in trace))
    o = outcome(game, profile, args.start)
    if o.is_hit:
        print(f"outcome: target {o.vertex} hit at t={o.time}")
    else:
        print("outcome: no target is ever hit")
    payoffs = " ".join(
        f"P{n}={total_payoff(game, n, o)}" for n in game.players
    )
    print(f"payoffs: {payoffs}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    profile = _named_profile(doc, args.profile)
    checker = is_nash_qualitative if args.qualitative else is_nash
    report = checker(doc.game, profile)
    kind = "qualitative equilibrium" if args.qualitative else "equilibrium"
    if report.is_ne:
        print(f"{kind}: yes")
        return 0
    print(f"{kind}: no")
    for dev in report.violations:
        print(
            f"  player {dev.player} improves from {dev.vertex}:"
            f" {dev.achieved} -> {dev.available}"
            + (f" via Move({dev.better_action!r})" if dev.better_action is not None else "")
        )
    return 1


def cmd_solve(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    game = doc.game
    if args.method == "brd":
        strategies: dict[int, dict[str, str]] = {}
        for v in game.choice_vertices:
            strategies.setdefault(game.owner[v], {})[v] = game.successors(v)[0]
        seed = Profile(strategies)
        found = solve_br_dynamics(game, seed, max_rounds=args.max_rounds)
        if found is not None:
            print(_profiles_json([found], "brd"), end="")
            return 0
        method = "brd+enum"
    else:
        method = "enum"
    limit = None if args.all else args.limit
    profiles = enumerate_ne(game, limit=limit)
    print(_profiles_json(profiles, method), end="")
    return 0 if profiles else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    # The scan runs first, so a game over the guard prints nothing.
    equilibria = set(enumerate_ne(doc.game))
    for profile in all_profiles(doc.game):
        line = {"is_ne": profile in equilibria, "profile": profile_to_json(profile)}
        print(json.dumps(line, sort_keys=True))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    params = GeneratorParams(
        num_players=args.players,
        num_vertices=args.vertices,
        edge_density=args.density,
        targets_per_player=args.targets_per_player,
        seed=args.seed,
    )
    game = random_game(params)
    _write_output(emit_game(game), args.output)
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    profile = _named_profile(doc, args.profile) if args.profile else None
    values = None
    if args.values:
        if profile is None:
            print("error: --values needs --profile", file=sys.stderr)
            return 2
        values = value_table(doc.game, profile)
    _write_output(export_dot(doc.game, profile, values), args.output)
    return 0


def cmd_cross_check(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    game = doc.game
    if game.players != (1, 2):
        raise ValueError("cross-check needs exactly two players")
    by_role = {game.roles[1]: 1, game.roles[2]: 2}
    if len(by_role) != 2:
        raise ValueError("cross-check needs one reacher and one avoider")
    if game.targets[1] != game.targets[2]:
        raise ValueError("cross-check needs a single shared target set")
    reacher = by_role[Role.REACHER]
    arena = TwoPlayerArena(
        vertices=game.vertices,
        edges=game.edges,
        reacher_owned=[v for v in game.vertices if game.owner[v] == reacher],
        avoider_owned=[v for v in game.vertices if game.owner[v] != reacher],
        target=game.targets[1],
    )
    report = cross_check_two_player(arena)
    print(f"attractor: {sorted(report.attractor)}")
    print(f"equilibria checked: {len(report.equilibria)}")
    if report.ok:
        print("cross-check: ok")
        return 0
    for m in report.mismatches:
        print(
            f"mismatch at {m.vertex}: equilibrium says win={m.reacher_wins},"
            f" attractor says {m.in_attractor}"
        )
    return 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mprs",
        description="Exact solver for multi-player reachability/safety games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a game document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="unroll a play under a named profile")
    p.add_argument("file")
    p.add_argument("--profile", required=True, help="profile name from the document")
    p.add_argument("--start", required=True, help="start vertex")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="test whether a named profile is an equilibrium")
    p.add_argument("file")
    p.add_argument("--profile", required=True)
    p.add_argument(
        "--qualitative", action="store_true", help="compare win/lose/draw signs only"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="find equilibria")
    p.add_argument("file")
    p.add_argument("--method", choices=("enum", "brd"), default="enum")
    p.add_argument("--all", action="store_true", help="report every equilibrium")
    p.add_argument("--limit", type=_positive_int, default=1, help="stop after this many")
    p.add_argument("--max-rounds", type=_positive_int, default=100, help="best-response rounds")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("enumerate", help="list every profile with its equilibrium flag")
    p.add_argument("file")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("gen", help="generate a random game document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--targets-per-player", type=int, default=1)
    p.add_argument("-o", "--output", default=None, help="output file, stdout if omitted")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-dot", help="render the game graph as DOT")
    p.add_argument("file")
    p.add_argument("--profile", default=None, help="highlight this profile's moves")
    p.add_argument(
        "--values", action="store_true", help="annotate vertices with exact payoffs"
    )
    p.add_argument("-o", "--output", default=None, help="output file, stdout if omitted")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser(
        "cross-check",
        help="compare attractor and equilibrium outcomes on a two-player game",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_cross_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidGameError as exc:
        print("invalid game:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    except (OSError, ValueError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
