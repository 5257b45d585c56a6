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
        "hit times unwound forwards along the path",
        "src/mprs/valuation.py",
        "for u in reversed(path):",
        "for u in path:",
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
        "map(max, best, codes)",
        "map(min, best, codes)",
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
        "a best response takes the judged move array for any profile",
        "src/mprs/valuation.py",
        "list(judged[1]) if recorded else",
        "list(judged[1]) if judged[1] else",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "the verdicts reuse whichever profile was judged",
        "src/mprs/valuation.py",
        "if judged[0] is not profile:",
        "if judged[0] is None:",
        ("tests/test_valuation.py", "tests/test_equilibrium.py"),
    ),
    Mutant(
        "the one door lets anything in",
        "src/mprs/valuation.py",
        "if not isinstance(profile, Profile):",
        "if False:",
        ("tests/test_valuation.py",),
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
        "brute-force responses read the recorded ones",
        "src/mprs/valuation.py",
        "solve is _respond and ",
        "",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "a best response copies the recorded map whatever its codes",
        "src/mprs/valuation.py",
        " and judged[2][n] == tuple(codes)",
        "",
        RESPONSE_TESTS,
    ),
    Mutant(
        "the table hands out the recorded maps themselves",
        "src/mprs/valuation.py",
        "{n: values[n].copy() for n in game.players}",
        "{n: values[n] for n in game.players}",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "decoding writes into the game's zero map",
        "src/mprs/valuation.py",
        "values = zeros.copy()",
        "values = zeros",
        ("tests/test_valuation.py",),
    ),
    Mutant(
        "a walk credits its target with its first vertex only",
        "src/mprs/valuation.py",
        "reached[w] += path",
        "reached[w] += path[:1]",
        RESPONSE_TESTS,
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
