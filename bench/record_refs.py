"""Record the reference outputs every benchmark run is checked against.

    python3 bench/record_refs.py [cli-small|enum-medium|brd-large ...]

Covers every input a run can use, whatever its seed:

- cli-small: exit code and sha256 prefix of the standard output of each
  CLI call on each small game, for every profile variant of the calls
  that read the profile;
- enum-medium: the lexicographic ranks of all equilibria of each medium
  game (the first one is what `enumerate_ne(game, limit=1)` must return)
  and the rank of the best-response-dynamics result from each of the
  game's fixed start profiles;
- brd-large: the digest of the best-response-dynamics result on each
  large game, which both verdicts must accept before it is recorded.

The references were recorded at the commit that introduced the benchmark.
Re-record only when an output is meant to change, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, ROOT, WORKLOADS, import_package

import_package()

import inputs  # noqa: E402
import workloads  # noqa: E402
from mprs import equilibrium  # noqa: E402


def record_cli_small() -> dict:
    workdir = workloads.work_dir(ROOT) / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    refs = {}
    for i in range(inputs.CLI_GAMES):
        per_variant = []
        for variant in range(inputs.CLI_VARIANTS):
            case = inputs.cli_case(i, variant, workdir)
            workloads.Built([], case.documents).write_documents()
            per_variant.append([
                workloads.cli_reference(*workloads.run_cli(argv))
                for _, argv, _ in workloads.cli_argvs(case)
            ])
        refs[str(i)] = [
            [outputs[c] for outputs in per_variant] if uses_profile else per_variant[0][c]
            for c, (_, _, uses_profile) in enumerate(workloads.CLI_CALLS)
        ]
    shutil.rmtree(workloads.work_dir(ROOT))
    return refs


def record_enum_medium() -> dict:
    refs = {}
    for s in inputs.enum_set():
        game = inputs.generator.random_game(inputs.medium_params(s))
        ne = equilibrium.enumerate_ne(game)
        brd_ranks = []
        for start in inputs.brd_starts(game, s):
            found = equilibrium.solve_br_dynamics(game, start)
            if found not in ne:
                raise SystemExit(f"medium game {s}: dynamics gave no equilibrium")
            brd_ranks.append(inputs.profile_rank(game, found))
        refs[str(s)] = {
            "space": equilibrium.profile_space(game),
            "brd_ranks": brd_ranks,
            "ne_ranks": [inputs.profile_rank(game, p) for p in ne],
        }
    return refs


def record_brd_large() -> dict:
    refs = {}
    for n, k in inputs.large_set():
        game = inputs.large_game(n, k)
        found = equilibrium.solve_br_dynamics(game, inputs.first_successor_profile(game))
        if found is None or not (
            equilibrium.is_nash(game, found).is_ne
            and equilibrium.check_certificate(game, found).is_ne
        ):
            raise SystemExit(f"large game {n}-{k}: dynamics gave no verified equilibrium")
        refs[f"{n}-{k}"] = workloads.profile_digest(found)
    return refs


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        refs = globals()["record_" + name.replace("-", "_")]()
        path = BENCH / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(refs.items())]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: {len(refs)} entries")
