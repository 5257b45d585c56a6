"""Spans around the public functions of each `mprs` layer, from outside.

The package imports its own functions by name (`from .valuation import
value_table`), so a wrapper must replace the name in every module that
holds it, not only in the defining one. `Tracer.install` does that for the
functions in `TRACED` and `Tracer.remove` puts the originals back.

Spans live in memory as parallel arrays (name, parent, start, end) and
self times are computed once at the end: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable

# (module, function) of every traced public function.
TRACED = [
    ("cli", "main"),
    ("gamefile", "parse_document"),
    ("gamefile", "emit_game"),
    ("gamefile", "export_dot"),
    ("gamefile", "profile_to_json"),
    ("game", "validate_game"),
    ("valuation", "value_table"),
    ("valuation", "best_response"),
    ("valuation", "check_profile"),
    ("valuation", "play"),
    ("equilibrium", "is_nash"),
    ("equilibrium", "is_nash_qualitative"),
    ("equilibrium", "check_certificate"),
    ("equilibrium", "enumerate_ne"),
    ("equilibrium", "solve_br_dynamics"),
    ("classic", "attractor"),
    ("classic", "cross_check_two_player"),
    ("generator", "random_game"),
]

CLI_COMMANDS = [
    "validate", "simulate", "check", "solve", "enumerate", "gen", "export-dot",
    "cross-check",
]

VERDICTS = ("equilibrium.is_nash", "equilibrium.is_nash_qualitative", "equilibrium.check_certificate")


def _span_name(module: str, func: str, args: tuple, kwargs: dict) -> str:
    if module == "cli":
        argv = args[0] if args else kwargs.get("argv") or []
        return f"cli.{argv[0] if argv else '?'}"
    if func == "best_response":
        game, _, n = args[:3]
        return f"valuation.best_response.{game.roles[n].value}"
    return f"{module}.{func}"


class Tracer:
    """Wraps the traced functions and keeps one span per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Per-span facts some ratios need: result size and call arguments.
        self.notes: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Callable]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, module: str, func: str, original: Callable) -> Callable:
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_of.append(self._name_id(_span_name(module, func, args, kwargs)))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._stack.pop()
            if func == "enumerate_ne":
                self.notes[span] = (kwargs.get("limit"), len(result))
            elif func == "solve_br_dynamics":
                self.notes[span] = (result is not None,)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "mprs" or name.startswith("mprs.")]
        for module, func in TRACED:
            original = getattr(sys.modules[f"mprs.{module}"], func)
            wrapper = self._wrap(module, func, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def remove(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer `calls` and `self_s`, plus the ratios, by metric name."""
        count = len(self.start)
        child_time = [0.0] * count
        children: list[Counter] = [Counter() for _ in range(count)]
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
                children[p][self.names[self.name_of[i]]] += 1
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(count):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child_time[i]

        out: dict[str, float] = {}
        for name in layer_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]

        verdicts = sum(calls[v] for v in VERDICTS)
        responses = calls["valuation.best_response.reacher"] + calls["valuation.best_response.avoider"]
        out["valuation.value_table.per_profile"] = _ratio(calls["valuation.value_table"], verdicts)
        out["valuation.best_response.per_profile"] = _ratio(responses, verdicts)
        out["valuation.check_profile.per_profile"] = _ratio(calls["valuation.check_profile"], verdicts)

        full_ne = full_scanned = first_scanned = first_calls = 0
        brd_calls = brd_converged = brd_responses = 0
        for span, note in self.notes.items():
            name = self.names[self.name_of[span]]
            kids = children[span]
            if name == "equilibrium.enumerate_ne":
                limit, found = note
                if limit is None:
                    full_ne += found
                    full_scanned += kids["equilibrium.is_nash"]
                elif limit == 1:
                    first_calls += 1
                    first_scanned += kids["equilibrium.is_nash"]
            else:
                brd_calls += 1
                brd_converged += note[0]
                brd_responses += (
                    kids["valuation.best_response.reacher"] + kids["valuation.best_response.avoider"]
                )
        out["equilibrium.enumerate_ne.ne_per_profile"] = _ratio(full_ne, full_scanned)
        out["equilibrium.enumerate_ne.profiles_to_first_ne"] = _ratio(first_scanned, first_calls)
        out["equilibrium.solve_br_dynamics.best_responses_per_solve"] = _ratio(brd_responses, brd_calls)
        out["equilibrium.solve_br_dynamics.converged_ratio"] = _ratio(brd_converged, brd_calls)
        return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_names() -> list[str]:
    """Every span name the traced run reports, in a fixed order."""
    names = [f"cli.{c}" for c in CLI_COMMANDS]
    for module, func in TRACED:
        if module == "cli":
            continue
        if func == "best_response":
            names += ["valuation.best_response.reacher", "valuation.best_response.avoider"]
        else:
            names.append(f"{module}.{func}")
    return names

