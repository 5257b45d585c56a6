"""Mutation harness: each listed mutant of the package must fail the tests.

A mutant is one exact substitution in one file under `src/`, and its text
must occur there exactly once. The harness copies `src/`, `tests/` and
`pyproject.toml` into a temporary directory, checks that the unmutated
copy passes every listed test file, then applies one mutant at a time and
runs ``pytest -x -q`` on that mutant's test files. A mutant is killed when
pytest reports a failing test (exit status 1).

Run it with the test extra installed:

    python tools/mutants.py

It prints one line per mutant and then ``killed k of m``. The exit status
is 0 only when every mutant is killed. A surviving mutant calls for a new
test, never for dropping the mutant. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


RESPONSE_TESTS = ("tests/test_valuation.py", "tests/test_equilibrium.py", "tests/test_properties.py")

MUTANTS = [
    Mutant(
        "an avoider joins at its first successor",
        "src/mprs/valuation.py",
        "elif s < 0:",
        "elif False:",
        RESPONSE_TESTS,
    ),
    Mutant(
        "opponents join through any successor",
        "src/mprs/valuation.py",
        "if nxt[v] != w:",
        "if False:",
        RESPONSE_TESTS,
    ),
    Mutant(
        "a reacher counts down like an avoider",
        "src/mprs/valuation.py",
        "elif s < 0:",
        "elif True:",
        RESPONSE_TESTS,
    ),
    Mutant(
        "ties break toward the largest successor",
        "src/mprs/valuation.py",
        "for w in succ[v]:",
        "for w in reversed(succ[v]):",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "dynamics stop after one round",
        "src/mprs/equilibrium.py",
        "if not changed:",
        "if True:",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "the dynamics give up a round early",
        "src/mprs/equilibrium.py",
        "for _ in range(max_rounds):",
        "for _ in range(max_rounds - 1):",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "a core that keeps target successors",
        "src/mprs/valuation.py",
        "succ[v] = ()",
        "succ[v] = succ[v]",
        RESPONSE_TESTS,
    ),
    Mutant(
        "validation without the per-vertex successor sort",
        "src/mprs/game.py",
        "out[i] = sorted(set(out[i]))",
        "out[i] = list(dict.fromkeys(out[i]))",
        ("tests/test_game.py",),
    ),
    Mutant(
        "the GC is never re-enabled after a game is built",
        "src/mprs/game.py",
        "gc.enable()",
        "pass",
        ("tests/test_gamefile.py",),
    ),
    Mutant(
        "dynamics that never skip a response",
        "src/mprs/equilibrium.py",
        "if n in current:",
        "if False:",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "a switch that does not reset the skipped players",
        "src/mprs/equilibrium.py",
        "current = {n}",
        "current.add(n)",
        RESPONSE_TESTS,
    ),
    Mutant(
        "a certificate that scores ties as gains",
        "src/mprs/equilibrium.py",
        "if mine[w] > best_score:",
        "if mine[w] >= best_score and w != nxt[v]:",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "a losing continuation is never walked back to v",
        "src/mprs/equilibrium.py",
        "while best_score < 0 and u >= 0 and u != v:",
        "while False:",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "a switched move is not discounted",
        "src/mprs/equilibrium.py",
        "available = 0 if u == v else best_score - (best_score > 0) + (best_score < 0)",
        "available = 0 if u == v else best_score",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "a brute-force response that keeps the minimum",
        "src/mprs/valuation.py",
        "map(max, a, b)",
        "map(min, a, b)",
        RESPONSE_TESTS,
    ),
    Mutant(
        "a mere check records the profile it checked",
        "src/mprs/valuation.py",
        "_moves(game._core, profile)",
        "_judged(game._core, profile)",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "the verdicts reuse whichever profile was judged",
        "src/mprs/valuation.py",
        "if last is not profile:",
        "if last is None:",
        ("tests/test_valuation.py", "tests/test_equilibrium.py"),
    ),
    Mutant(
        "the one door lets anything in",
        "src/mprs/valuation.py",
        "if not isinstance(profile, Profile):",
        "if False:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "a document is written with its profiles unchecked",
        "src/mprs/gamefile.py",
        "for profile in profiles.values():",
        "for profile in ():",
        ("tests/test_gamefile.py",),
    ),
    Mutant(
        "recorded responses are read for any judged profile",
        "src/mprs/valuation.py",
        "judged[0] is opponents",
        "judged[0] is not None",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "the dynamics record each player's first response",
        "src/mprs/equilibrium.py",
        "moves, code = responses[n] = _respond(core, nxt, n)",
        "moves, code = _respond(core, nxt, n); responses.setdefault(n, (moves, code))",
        RESPONSE_TESTS,
    ),
    Mutant(
        "decoding writes into the game's zero map",
        "src/mprs/valuation.py",
        "values = core.zeros.copy()",
        "values = core.zeros",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        # Killed by tests/test_valuation.py::TestCodes, "a vertex that moves
        # into another player's target", whose vertex a has two movers.
        "a chain keeps only its first mover",
        "src/mprs/valuation.py",
        "v = then[v]",
        "v = -1",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        # Killed by tests/test_valuation.py::TestCodes, every case but the cycle.
        "a layer's code is not stepped toward 0",
        "src/mprs/valuation.py",
        "layer, c = movers, c - s",
        "layer = movers",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        # Killed by tests/test_valuation.py::TestCodes, "a vertex that moves
        # into another player's target".
        "a player's pass starts from every target, not only their own",
        "src/mprs/valuation.py",
        "layer = core.own[n]",
        "layer = [w for own in core.own.values() for w in own]",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        # Killed by tests/test_equilibrium.py::TestEnumeration::
        # test_equal_strategy_triples_of_the_equilibria_are_one_object.
        "the scan's triples are not shared",
        "src/mprs/equilibrium.py",
        "tuple(map(shared.setdefault, items, items))",
        "items",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "emitted vertex ids are quoted without escaping",
        "src/mprs/gamefile.py",
        "list(map(encode_basestring, game.vertices))",
        "[f'\"{v}\"' for v in game.vertices]",
        ("tests/test_properties.py",),
    ),
    Mutant(
        "the players and profiles sections are not indented one level",
        "src/mprs/gamefile.py",
        '.replace("\\n", "\\n  ")',
        "",
        ("tests/test_properties.py",),
    ),
    Mutant(
        "a fresh game records None as its judged profile",
        "src/mprs/valuation.py",
        "self.judged = (_UNJUDGED, (), None, None)",
        "self.judged = (None, (), None, None)",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "profiles compare by their vertices alone",
        "src/mprs/valuation.py",
        "self._items == other._items",
        "[i[:2] for i in self._items] == [i[:2] for i in other._items]",
        ("tests/test_properties.py",),
    ),
    Mutant(
        "the verdict's code test counts a tie as a gain",
        "src/mprs/equilibrium.py",
        "map(gt, theirs, mine)",
        "map(lambda a, b: a >= b, theirs, mine)",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "the verdict's code test skips the last player",
        "src/mprs/equilibrium.py",
        "for n, mine in codes.items():",
        "for n, mine in list(codes.items())[:-1]:",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "the verdict's equal-codes shortcut skips a player who gains only at the first vertex",
        "src/mprs/equilibrium.py",
        "if theirs == mine:",
        "if theirs[1:] == mine[1:]:",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "a verdict solves again the responses the dynamics recorded",
        "src/mprs/valuation.py",
        "if respond and responses is None:",
        "if respond:",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "the game door lets anything in",
        "src/mprs/game.py",
        "if not isinstance(game, Game):",
        "if False:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "a turn payoff reads any unknown vertex as worth 0",
        "src/mprs/game.py",
        "if not isinstance(v, str) or v not in game.owner:",
        "if False:",
        ("tests/test_game.py",),
    ),
    Mutant(
        "a DOT graph takes a value table of any shape",
        "src/mprs/gamefile.py",
        "_check_values(game, values)",
        "pass",
        ("tests/test_gamefile.py",),
    ),
    Mutant(
        "a falsy strategy is dropped unchecked",
        "src/mprs/valuation.py",
        "_require_strategy(n, strategy)\n            if strategy:",
        "if strategy:\n                _require_strategy(n, strategy)",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "a choice reads the move at the vertex's sorted place, whatever sits there",
        "src/mprs/valuation.py",
        "if k < len(vertices) and vertices[k] == v:",
        "if k < len(vertices):",
        ("tests/test_properties.py",),
    ),
    Mutant(
        "a payoff compares with anything",
        "src/mprs/valuation.py",
        "if not isinstance(other, PayoffValue):",
        "if False:",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "a total payoff takes anything as its outcome",
        "src/mprs/valuation.py",
        "if not isinstance(o, Outcome):",
        "if False:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "a total payoff takes a hit on any vertex",
        "src/mprs/valuation.py",
        "o.vertex in game.total_target",
        "o.vertex in game.owner",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "the arena door lets anything in",
        "src/mprs/classic.py",
        "if not isinstance(arena, TwoPlayerArena):",
        "if False:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "validation takes anything as its spec",
        "src/mprs/game.py",
        "if not isinstance(spec, GameSpec):",
        "if False:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "the generator takes anything as its parameters",
        "src/mprs/generator.py",
        "if not isinstance(params, GeneratorParams):",
        "if False:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "the generator takes roles of any type",
        "src/mprs/generator.py",
        "if not isinstance(params.roles, (tuple, list, type(None))):",
        "if False:",
        ("tests/test_generator.py",),
    ),
    Mutant(
        "the generator takes a seed of any type",
        "src/mprs/generator.py",
        '"targets_per_player", "seed")',
        '"targets_per_player")',
        ("tests/test_generator.py",),
    ),
    Mutant(
        "the generator takes any role value",
        "src/mprs/generator.py",
        "Role(role)",
        "role",
        ("tests/test_generator.py",),
    ),
    Mutant(
        "the generator takes any discount",
        "src/mprs/generator.py",
        "if _discount(params.gamma) is None:",
        "if False:",
        ("tests/test_generator.py",),
    ),
    Mutant(
        "the scan accepts a profile that only its last player gains from",
        "src/mprs/equilibrium.py",
        "n == p or _respond",
        "n in (p, max(core.sign)) or _respond",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "the scan settles profiles on the qualitative code test",
        "src/mprs/equilibrium.py",
        "_respond(core, nxt, n)[1] == mine",
        "tuple((c > 0) - (c < 0) for c in _respond(core, nxt, n)[1])"
        " == tuple((c > 0) - (c < 0) for c in mine)",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "the scan judges only the first player",
        "src/mprs/equilibrium.py",
        "== mine for n, mine in codes.items()",
        "== mine for n, mine in itertools.islice(codes.items(), 1)",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "the lazy test skips the player after one without gains",
        "src/mprs/equilibrium.py",
        "== mine for n, mine in codes.items()",
        "== mine for n, mine in itertools.islice(codes.items(), 0, None, 2)",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        # A response is never below the profile, so with the equal-codes
        # shortcut in place a tie is a gain only in reports; without it,
        # every tie of an equilibrium fails the verdict too.
        "the code test counts a tie as a gain and checks every player in full",
        "src/mprs/equilibrium.py",
        "if theirs == mine:  # no gain anywhere, as at every equilibrium\n"
        "            continue\n"
        "        gains += zip(itertools.repeat(n), itertools.compress(core.names, map(gt, theirs, mine)))",
        "gains += zip(itertools.repeat(n), itertools.compress(core.names, map(lambda a, b: a >= b, theirs, mine)))",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "the scan never rewrites the last choice vertex",
        "src/mprs/valuation.py",
        "for v, w in zip(vertices, picks):",
        "for v, w in zip(vertices[:-1], picks):",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "the last mover's response survives a head change",
        "src/mprs/equilibrium.py",
        "best = _respond(core, nxt, p)[1]",
        "best = locals().get(\"best\") or _respond(core, nxt, p)[1]",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "the trailing block takes in one vertex of another player",
        "src/mprs/equilibrium.py",
        "head, tail = choice[:k], choice[k:]",
        "head, tail = choice[: k - 1], choice[k - 1 :]",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        # The gain test then meets the last mover in player order, so only
        # the count of responses solved shows the missing test.
        "the scan skips the last mover's test",
        "src/mprs/equilibrium.py",
        "codes[p] == best and all(\n                n == p or _respond(",
        "all(\n                _respond(",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "a named profile pairs one player's vertices with another's moves",
        "src/mprs/valuation.py",
        "for n, vs, mine in core.named]",
        "for (n, vs, _), (_, _, mine) in zip(core.named, core.named[1:] + core.named[:1])]",
        ("tests/test_equilibrium.py", "tests/test_properties.py"),
    ),
    Mutant(
        "the judged record forgets the responses it holds",
        "src/mprs/valuation.py",
        "last, nxt, codes, responses = core.judged",
        "last, nxt, codes, responses = (*core.judged[:3], None)",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "a named profile shares its vertex tuples with no other",
        "src/mprs/valuation.py",
        "(n, vs, tuple(map(names, map(moves, mine))))",
        "(n, tuple(list(vs)), tuple(map(names, map(moves, mine))))",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "the scan records each profile it judges",
        "src/mprs/equilibrium.py",
        "for nxt in _rewrite(core, nxt, tail):",
        "for nxt in (list(_judged(core, _name(core, a))[0]) for a in _rewrite(core, nxt, tail)):",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "a document takes profile names of any type",
        "src/mprs/gamefile.py",
        "if not isinstance(name, str):",
        "if False:",
        ("tests/test_gamefile.py",),
    ),
    Mutant(
        "an arena takes an edge list that is no collection",
        "src/mprs/classic.py",
        "if not isinstance(edges, Iterable):",
        "if False:",
        ("tests/test_classic.py",),
    ),
    Mutant(
        "an arena reads a bare string as a vertex set",
        "src/mprs/game.py",
        "if not isinstance(raw, str):",
        "if True:",
        ("tests/test_classic.py",),
    ),
    Mutant(
        "a document is parsed from anything",
        "src/mprs/gamefile.py",
        "if not isinstance(text, str):",
        "if False:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "enumerate flags the profiles that are no equilibria",
        "src/mprs/cli.py",
        '"is_ne": profile in equilibria',
        '"is_ne": profile not in equilibria',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "a code-only reader fills responses",
        "src/mprs/valuation.py",
        "if respond and responses is None:",
        "if responses is None:",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "filling codes drops a dynamics record's responses",
        "src/mprs/valuation.py",
        "codes = _codes(core, nxt)",
        "codes, responses = _codes(core, nxt), None",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "best_response takes its shortcut on a record without responses",
        "src/mprs/valuation.py",
        "if judged[0] is opponents and judged[3] is not None:",
        "if judged[0] is opponents:",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "a successor list reads any unknown vertex",
        "src/mprs/game.py",
        "if not isinstance(v, str) or v not in self.owner:",
        "if False:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "a payoff is evaluated at any discount Fraction reads or refuses",
        "src/mprs/valuation.py",
        "except (ValueError, ArithmeticError):",
        "except ZeroDivisionError:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "main lets a ValueError out",
        "src/mprs/cli.py",
        "except (OSError, ValueError, TooLargeError) as exc:",
        "except (OSError, TooLargeError) as exc:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "a vertex id may hold a lone surrogate",
        "src/mprs/game.py",
        '"".join(ids).encode("utf-8")',
        '"".join(ids).encode("utf-8", "surrogatepass")',
        ("tests/test_gamefile.py", "tests/test_game.py", "tests/test_classic.py"),
    ),
    Mutant(
        "a second owner spelling overwrites the first",
        "src/mprs/game.py",
        "if owner.setdefault(v, n) != n:",
        "if owner.update({v: n}):",
        ("tests/test_game.py",),
    ),
    Mutant(
        "the core drops vertex 0's predecessors",
        "src/mprs/valuation.py",
        "pred[w].append(v)",
        "w and pred[w].append(v)",
        ("tests/test_properties.py",),
    ),
    Mutant(
        "a vertex owned by two players is not reported",
        "src/mprs/game.py",
        "bad(ViolationKind.MULTIPLY_OWNED, detail)",
        "pass",
        ("tests/test_game.py",),
    ),
    Mutant(
        "a document edge need not be a list",
        "src/mprs/gamefile.py",
        "if type(edges) is not list or not set(map(type, edges)) <= {list}:",
        "if type(edges) is not list:",
        ("tests/test_gamefile.py",),
    ),
    Mutant(
        "an out-of-order successor list is not marked",
        "src/mprs/game.py",
        "unsorted.add(i)",
        "pass",
        ("tests/test_properties.py",),
    ),
    Mutant(
        "the whole-list vertex test takes a repeated id",
        "src/mprs/gamefile.py",
        "len(owner) == len(raw)",
        "len(vertices) == len(raw)",
        ("tests/test_gamefile.py",),
    ),
    Mutant(
        "the whole-map owner test takes undeclared players",
        "src/mprs/game.py",
        "and set(owners.values()) <= role_map.keys()",
        "",
        ("tests/test_game.py",),
    ),
    Mutant(
        "the whole-map owner test takes a bool owner",
        "src/mprs/game.py",
        "issubclass(k, int) and k is not bool",
        "issubclass(k, int)",
        ("tests/test_game.py",),
    ),
    Mutant(
        "the whole-map owner test keeps str subclass keys",
        "src/mprs/game.py",
        "set(map(type, owners)) <= {str}",
        "True",
        ("tests/test_game.py",),
    ),
    Mutant(
        "the generator draws edges for any vertex count",
        "src/mprs/generator.py",
        "check_guard(params.num_vertices**2)",
        "pass",
        ("tests/test_generator.py",),
    ),
    Mutant(
        "the certificate's self-check never fires",
        "src/mprs/equilibrium.py",
        "if tuple(expected) != mine:",
        "if False:",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "a profile key is written by its own str",
        "src/mprs/gamefile.py",
        "int.__repr__(n)",
        "str(n)",
        ("tests/test_gamefile.py",),
    ),
    Mutant(
        "Profile.choice reads True as player 1",
        "src/mprs/valuation.py",
        "        _player_id(n)\n        for m, vertices, moves in self._items:",
        "        for m, vertices, moves in self._items:",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "Profile.replace reads True as player 1",
        "src/mprs/valuation.py",
        "{**self.as_dict(), _player_id(n): strategy}",
        "{**self.as_dict(), n: strategy}",
        ("tests/test_doors.py",),
    ),
    Mutant(
        "the qualitative view keeps a sign tie",
        "src/mprs/equilibrium.py",
        "if d.available.sign > d.achieved.sign",
        "if d.available.sign >= d.achieved.sign",
        ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "a profile takes a bool player key",
        "src/mprs/valuation.py",
        "sorted(map(_player_id, strategies))",
        "sorted(n if isinstance(n, bool) else _player_id(n) for n in strategies)",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "a profile takes a move that is no vertex id",
        "src/mprs/valuation.py",
        "if not (isinstance(v, str) and isinstance(w, str)):",
        "if not isinstance(v, str):",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "validation scans the player list for every target-set key",
        "src/mprs/game.py",
        "declared = set(players)",
        "declared = players",
        ("tests/test_game.py",),
    ),
]


def run_pytest(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)


def main() -> int:
    sources = {m.path: (ROOT / m.path).read_text(encoding="utf-8") for m in MUTANTS}
    for m in MUTANTS:
        count = sources[m.path].count(m.old)
        if count != 1:
            sys.exit(f"mutant {m.name!r}: {m.old!r} occurs {count} times in {m.path}, not once")

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        everything = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        baseline = run_pytest(copy, everything)
        if baseline.returncode != 0:
            sys.exit(f"the unmutated copy fails its tests:\n{baseline.stdout}{baseline.stderr}")

        killed = 0
        for m in MUTANTS:
            target = copy / m.path
            target.write_text(sources[m.path].replace(m.old, m.new), encoding="utf-8")
            status = run_pytest(copy, m.tests).returncode
            target.write_text(sources[m.path], encoding="utf-8")
            if status == 1:
                killed += 1
                print(f"killed      {m.name}")
            else:
                print(f"NOT KILLED  {m.name} (pytest exit status {status})")
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
