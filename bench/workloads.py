"""The three workloads: their set-up, their timed calls and their checks.

A workload is built once per set-up into a list of tasks. A task makes one
or more timed calls into `mprs` through a `Recorder` and checks each
result against the references recorded when the benchmark was added. A
run makes whole passes over the tasks, so every run weighs each input the
same.

Calls go through module attributes (`mprs.cli.main`, `equilibrium.is_nash`,
...) so that the traced run, which rebinds those attributes, sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import mprs.cli
from mprs import equilibrium, gamefile

import clock
import inputs

Task = Callable[["Recorder"], None]


@dataclass
class Built:
    """A workload's tasks, and the documents they read, not yet written.

    Writing the documents is the benchmark's own plumbing, not work of the
    package, so it stays out of the timed set-up.
    """

    tasks: list[Task]
    documents: dict[Path, str] = field(default_factory=dict)

    def write_documents(self) -> None:
        for path, text in self.documents.items():
            path.write_text(text, encoding="utf-8")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def profile_digest(profile) -> str:
    # Spelled out rather than through `gamefile.profile_to_json`, so the
    # checks stay out of the traced run's spans.
    moves = {str(n): strategy for n, strategy in profile.as_dict().items()}
    return digest(json.dumps(moves, sort_keys=True))


@dataclass
class Sample:
    kind: str
    intervals: list[clock.Interval]
    work: int  # profiles behind a scan, vertices behind any other call
    is_call: bool = True
    seconds: float = 0.0  # scaled (see `clock.py`), set by `Recorder.finish`

    @property
    def raw_seconds(self) -> float:
        return sum(iv.raw_seconds for iv in self.intervals)


@dataclass
class Recorder:
    """Times calls on a calibrated clock and counts the ones that fail."""

    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    calibration: clock.Calibration = field(default_factory=clock.Calibration)
    _last_ok: bool = True

    def call(self, kind: str, work: int, fn: Callable, *args, **kwargs) -> Any:
        self.attempted += 1
        self._last_ok = True
        interval = clock.Interval(self.calibration)
        try:
            result = fn(*args, **kwargs)
        finally:
            interval.stop()
        self.samples.append(Sample(kind, [interval], work))
        return result

    def derived(self, kind: str, parts: list[Sample], work: int) -> None:
        """Several calls timed as one step, for a metric; not a call itself."""
        intervals = [iv for s in parts for iv in s.intervals]
        self.samples.append(Sample(kind, intervals, work, is_call=False))

    def finish(self) -> None:
        """Scale every sample by the calibration taken around it."""
        for s in self.samples:
            s.seconds = sum(iv.scaled() for iv in s.intervals)

    def expect(self, ok: bool, what: str) -> None:
        """Mark the latest call failed unless `ok`; a call fails at most once."""
        if not ok and self._last_ok:
            self._last_ok = False
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def crashed(self, what: str) -> None:
        """The latest call raised, so it never produced a sample."""
        self._last_ok = True
        self.expect(False, what)


# ---------------------------------------------------------------- cli-small

# The CLI calls made on every small game, in this order; `{game}`,
# `{arena}` and `{start}` are filled in per game. Each call is tagged with
# the end-to-end metric it feeds, and with whether its output depends on
# the game's profile variant.
CLI_CALLS: list[tuple[str, list[str], bool]] = [
    ("other", ["validate", "{game}"], False),
    ("first", ["solve", "{game}"], False),
    ("scan", ["solve", "--all", "{game}"], False),
    ("brd", ["solve", "--method", "brd", "{game}"], False),
    ("check", ["check", "--profile", "p", "{game}"], True),
    ("check", ["check", "--profile", "p", "--qualitative", "{game}"], True),
    ("scan", ["enumerate", "{game}"], False),
    ("other", ["simulate", "--profile", "p", "--start", "{start}", "{game}"], True),
    ("other", ["export-dot", "--profile", "p", "--values", "{game}"], True),
    ("other", ["gen"], False),
    ("other", ["cross-check", "{arena}"], False),
]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process `mprs` call: its exit code and standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mprs.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_argvs(case: inputs.CliCase) -> list[tuple[str, list[str], int]]:
    """(kind, argv, work) of every call on `case`."""
    fill = {"{game}": case.game_path, "{arena}": case.arena_path, "{start}": case.start}
    calls = []
    for kind, template, _ in CLI_CALLS:
        argv = case.gen_args if template == ["gen"] else [fill.get(a, a) for a in template]
        work = case.space if kind == "scan" else case.vertices
        calls.append((kind, argv, work))
    return calls


def cli_reference(code: int, stdout: str) -> str:
    return f"{code}:{digest(stdout)}"


def cli_expected(game_refs: list, variant: int) -> list[str]:
    """A game's reference per call: profile-dependent calls hold one
    reference per variant."""
    return [ref[variant] if isinstance(ref, list) else ref for ref in game_refs]


def work_dir(root: Path) -> Path:
    """This process's work directory, so concurrent runs never share files."""
    return root / ".bench_work" / str(os.getpid())


def build_cli_small(seed: int, root: Path, refs: dict) -> Built:
    workdir = work_dir(root) / "cli-small"
    workdir.mkdir(parents=True, exist_ok=True)
    built = Built([])
    for i, variant in inputs.cli_variants(seed):
        case = inputs.cli_case(i, variant, workdir)
        built.documents.update(case.documents)
        expected = cli_expected(refs[str(i)], variant)
        for (kind, argv, work), want in zip(cli_argvs(case), expected):
            built.tasks.append(_cli_task(kind, argv, work, want, i))
    return built


def _cli_task(kind: str, argv: list[str], work: int, want: str, i: int) -> Task:
    def task(rec: Recorder) -> None:
        code, stdout = rec.call(kind, work, run_cli, argv)
        rec.expect(cli_reference(code, stdout) == want, f"cli-small game {i}: {argv[0]}")

    return task


# -------------------------------------------------------------- enum-medium


@dataclass
class MediumGame:
    seed: int
    game: Any
    space: int
    ne_ranks: list[int]
    sampled: list[tuple[Any, bool]]  # (profile, is an equilibrium)
    brd: list[tuple[Any, int]]  # (start profile, rank of the equilibrium reached)


def build_enum_medium(seed: int, root: Path, refs: dict) -> Built:
    rng = random.Random(f"enum-medium-{seed}")
    games = []
    for s in inputs.enum_set():
        game = inputs.generator.random_game(inputs.medium_params(s))
        ref = refs[str(s)]
        space = equilibrium.profile_space(game)
        ne = set(ref["ne_ranks"])
        ranks = [rng.randrange(space) for _ in range(inputs.ENUM_SAMPLED_PROFILES)]
        sampled = [(inputs.profile_at(game, r), r in ne) for r in ranks]
        brd = list(zip(inputs.brd_starts(game, s), ref["brd_ranks"]))
        games.append(MediumGame(s, game, space, ref["ne_ranks"], sampled, brd))
    rng.shuffle(games)
    return Built([_medium_task(g) for g in games])


def _medium_task(g: MediumGame) -> Task:
    n = len(g.game.vertices)
    # The dynamics calls are spread among the verdicts, so that no short
    # disturbance of the host lands on all of them.
    every = len(g.sampled) // len(g.brd)

    def first_equilibrium(rec: Recorder) -> None:
        first = rec.call("first", g.space, equilibrium.enumerate_ne, g.game, limit=1)
        rec.expect(
            [inputs.profile_rank(g.game, p) for p in first] == g.ne_ranks[:1],
            f"enum-medium game {g.seed}: first equilibrium",
        )

    def task(rec: Recorder) -> None:
        # The early-exit scan runs at both ends of the task, so that its
        # median over the games rests on two timings per game.
        first_equilibrium(rec)
        for j, (profile, is_ne) in enumerate(g.sampled):
            verdict = rec.call("check", n, equilibrium.is_nash, g.game, profile)
            rec.expect(verdict.is_ne == is_ne, f"enum-medium game {g.seed}: is_nash")
            verdict = rec.call("check", n, equilibrium.check_certificate, g.game, profile)
            rec.expect(verdict.is_ne == is_ne, f"enum-medium game {g.seed}: check_certificate")
            if j % every == 0 and j // every < len(g.brd):
                start, want = g.brd[j // every]
                found = rec.call("brd", n, equilibrium.solve_br_dynamics, g.game, start)
                rec.expect(
                    found is not None and inputs.profile_rank(g.game, found) == want,
                    f"enum-medium game {g.seed}: best-response dynamics",
                )
        found = rec.call("scan", g.space, equilibrium.enumerate_ne, g.game)
        rec.expect(
            [inputs.profile_rank(g.game, p) for p in found] == g.ne_ranks,
            f"enum-medium game {g.seed}: equilibrium list",
        )
        first_equilibrium(rec)

    return task


# ---------------------------------------------------------------- brd-large


def build_brd_large(seed: int, root: Path, refs: dict) -> Built:
    tasks = []
    for n, k in inputs.large_set():
        text = gamefile.emit_game(inputs.large_game(n, k))
        tasks.append(_large_task(n, k, text, refs[f"{n}-{k}"]))
    # Built in a fixed order, so the seed does not move peak memory.
    random.Random(f"brd-large-{seed}").shuffle(tasks)
    return Built(tasks)


def _large_task(n: int, k: int, text: str, want: str) -> Task:
    def task(rec: Recorder) -> None:
        doc = rec.call("parse", n, gamefile.parse_document, text)
        game = doc.game
        start = inputs.first_successor_profile(game)
        found = rec.call("brd", n, equilibrium.solve_br_dynamics, game, start)
        rec.derived("first", rec.samples[-2:], n)
        rec.expect(
            found is not None and profile_digest(found) == want,
            f"brd-large {n}-{k}: best-response dynamics",
        )
        if found is None:
            return
        verdict = rec.call("check", n, equilibrium.is_nash, game, found)
        rec.expect(verdict.is_ne, f"brd-large {n}-{k}: is_nash")
        verdict = rec.call("check", n, equilibrium.check_certificate, game, found)
        rec.expect(verdict.is_ne, f"brd-large {n}-{k}: check_certificate")

    return task


BUILDERS: dict[str, Callable[[int, Path, dict], Built]] = {
    "cli-small": build_cli_small,
    "enum-medium": build_enum_medium,
    "brd-large": build_brd_large,
}
