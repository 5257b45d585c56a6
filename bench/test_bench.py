"""Self-tests of the benchmark: its checks catch wrong outputs, its tracer
restores what it wraps.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import shutil

import pytest

from run import ROOT, import_package, run_tasks

import_package()

import mprs  # noqa: E402
import mprs.cli  # noqa: E402
from mprs import equilibrium, valuation  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _refs(name: str) -> dict:
    import json

    from run import BENCH

    return json.loads((BENCH / "refs" / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli_tasks():
    built = workloads.build_cli_small(1, ROOT, _refs("cli-small"))
    built.write_documents()
    yield built.tasks[: len(workloads.CLI_CALLS)]
    shutil.rmtree(workloads.work_dir(ROOT))


def _run(tasks) -> workloads.Recorder:
    rec = workloads.Recorder()
    run_tasks(tasks, rec, passes=1)
    return rec


def test_cli_calls_match_their_references(cli_tasks):
    rec = _run(cli_tasks)
    assert (rec.attempted, rec.failed) == (len(workloads.CLI_CALLS), 0)


def test_tampered_cli_output_counts_as_failed(cli_tasks, monkeypatch):
    real = mprs.cli.main

    def tampered(argv):
        code = real(argv)
        if argv[0] == "solve":
            print("tampered")
        return code

    monkeypatch.setattr(mprs.cli, "main", tampered)
    rec = _run(cli_tasks)
    solves = sum(argv[0] == "solve" for _, argv, _ in workloads.CLI_CALLS)
    assert rec.failed == solves
    assert all("solve" in f for f in rec.failures)


def test_a_crash_counts_as_failed(cli_tasks, monkeypatch):
    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(mprs.cli, "main", broken)
    rec = _run(cli_tasks[:2])
    assert (rec.attempted, rec.failed) == (2, 2)
    assert rec.samples == []


@pytest.fixture(scope="module")
def medium_task():
    refs = _refs("enum-medium")
    task = workloads.build_enum_medium(1, ROOT, refs).tasks[0]
    return task


def test_tampered_equilibrium_list_counts_as_failed(medium_task, monkeypatch):
    real = equilibrium.enumerate_ne

    def drops_last(game, limit=None, guard=None):
        found = real(game, limit=limit, guard=guard)
        return found if limit is not None else found[:-1]

    monkeypatch.setattr(equilibrium, "enumerate_ne", drops_last)
    rec = _run([medium_task])
    assert rec.failed == 1
    assert rec.failures == [f for f in rec.failures if "equilibrium list" in f]


def test_wrong_verdict_counts_as_failed(medium_task, monkeypatch):
    def always_yes(game, profile):
        return equilibrium.NEReport(True, ())

    monkeypatch.setattr(equilibrium, "check_certificate", always_yes)
    rec = _run([medium_task])
    assert rec.failed > 0
    assert all("check_certificate" in f for f in rec.failures)


def test_unconverged_dynamics_count_as_failed(monkeypatch):
    refs = _refs("brd-large")
    n, k = inputs.large_set()[0]
    text = mprs.gamefile.emit_game(inputs.large_game(n, k))
    task = workloads._large_task(n, k, text, refs[f"{n}-{k}"])
    assert _run([task]).failed == 0

    monkeypatch.setattr(equilibrium, "solve_br_dynamics", lambda game, seed: None)
    rec = _run([task])
    assert (rec.attempted, rec.failed) == (2, 1)


def test_profile_rank_round_trips():
    game = inputs.generator.random_game(inputs.medium_params(inputs.enum_set()[0]))
    space = equilibrium.profile_space(game)
    for rank in (0, 1, space // 3, space - 1):
        assert inputs.profile_rank(game, inputs.profile_at(game, rank)) == rank
    first = next(equilibrium.all_profiles(game))
    assert inputs.profile_rank(game, first) == 0


def test_large_recipe_is_sparse_and_valid():
    game = inputs.large_game(1000, 0)
    assert len(game.vertices) == 1000
    assert all(1 <= len(game.successors(v)) <= inputs.LARGE_DEGREE for v in game.choice_vertices)
    assert inputs.large_game(1000, 0) == game


def test_tracer_covers_every_binding_and_restores_it():
    originals = (valuation.value_table, equilibrium.value_table, mprs.value_table)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert equilibrium.value_table is valuation.value_table is mprs.value_table
        assert equilibrium.value_table is not originals[0]
        game = inputs.generator.random_game(inputs.small_params(5))
        profile = inputs.first_successor_profile(game)
        equilibrium.is_nash(game, profile)
    finally:
        tracer.remove()
    assert (valuation.value_table, equilibrium.value_table, mprs.value_table) == originals

    metrics = tracer.layer_metrics()
    assert metrics["equilibrium.is_nash.calls"] == 1
    assert metrics["valuation.value_table.calls"] == 1
    assert metrics["valuation.best_response.per_profile"] == len(game.players)
    roots = [i for i in range(len(tracer.start)) if tracer.parent[i] < 0]
    assert len(roots) == 2  # random_game, then is_nash
    total = sum(tracer.end[i] - tracer.start[i] for i in roots)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(total, rel=1e-9, abs=1e-12)
