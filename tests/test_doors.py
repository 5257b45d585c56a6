"""One sweep of hostile arguments over the public API and the command line.

Each function in `mprs.__all__`, each class in `CHECKING` and each public
method of a receiver in `RECEIVERS` is read off its signature, so a new one
is swept unlisted; a new parameter name needs one entry in `VALID`. A
parameter annotated with a class in `DOORS` refuses anything else with that
door's exact message, ahead of any later error.
"""

import inspect
import json
import typing
from decimal import Decimal
from fractions import Fraction

import pytest

import mprs
from mprs import Game, GameSpec, GeneratorParams, Outcome, PayoffValue, Profile, ProfileError
from mprs import TooLargeError
from mprs import TwoPlayerArena, emit_game, make_reachability, value_table
from mprs.cli import main

from conftest import small_game

# The board whose reachability game is g1, g1 and its equilibrium, and another game.
ARENA = TwoPlayerArena(["v1", "v2", "v3"], [("v1", "v2"), ("v1", "v3"), ("v2", "v1")],
                       ["v1"], ["v2", "v3"], ["v3"])
G1, OTHER = make_reachability(ARENA), small_game(3)
HAT = Profile({1: {"v1": "v3"}, 2: {"v2": "v1"}})
TEXT = emit_game(G1, {"hat": HAT})

# Public classes whose constructors check their arguments, and so are swept,
# and those that keep what they are given: records, enums and errors.
CHECKING = {"PayoffValue", "Profile", "TwoPlayerArena"}
RECORDS = {
    "CrossCheckReport", "Deviation", "Game", "GameDocument", "GameSpec", "GeneratorParams",
    "GuardError", "InfeasibleError", "InvalidGameError", "Mismatch", "NEReport", "Outcome",
    "ParseError", "ProfileError", "Role", "TooLargeError", "Violation", "ViolationKind",
}
# The README's door of each class: "expected {door}, got {type name}".
DOORS = {Game: "a Game", Profile: "a Profile", TwoPlayerArena: "a TwoPlayerArena",
         GameSpec: "a GameSpec", GeneratorParams: "GeneratorParams", Outcome: "an Outcome"}
# One valid argument per parameter name; the game is a fresh g1 each time.
VALID = {
    "game": None, "profile": HAT, "opponents": HAT, "seed": HAT, "n": 1, "v": "v1", "start": "v1",
    "o": Outcome(1, "v3"), "guard": None, "limit": None, "max_rounds": 100, "text": TEXT,
    "spec": GameSpec(G1.vertices, G1.edges, G1.owner, G1.roles, G1.targets), "arena": ARENA,
    "params": GeneratorParams(2, 3), "profiles": {"hat": HAT}, "values": value_table(G1, HAT),
    "strategies": HAT.as_dict(), "sign": 1, "exponent": 2, **vars(ARENA),
    "gamma": Fraction(1, 2), "strategy": {"v1": "v3"},
}
# One valid receiver per public class that has public methods.
RECEIVERS = {Game: G1, PayoffValue: PayoffValue(-1, 2), Profile: HAT}


def methods(cls: type) -> list[str]:
    """The public methods `cls` itself defines."""
    return [m for m, f in vars(cls).items() if callable(f) and not m.startswith("_")]


FUNCTIONS = [n for n in mprs.__all__ if inspect.isfunction(getattr(mprs, n)) or n in CHECKING]
SWEPT = {n: getattr(mprs, n) for n in FUNCTIONS} | {
    f"{cls.__name__}.{m}": getattr(receiver, m)
    for cls, receiver in RECEIVERS.items()
    for m in methods(cls)
}
PARAMETERS = {n: inspect.signature(f, eval_str=True).parameters for n, f in SWEPT.items()}
# Nineteen hostile values, then the wrong ones the retired door tests used.
HOSTILE = [
    None, True, 0, -1, 1.5, float("nan"), "", "zz", b"x", [], {}, (), {1: None},
    {1: {"v1": None}}, object(), Fraction(1, 3), frozenset(), Profile({1: {"zz": "zz"}}),
    OTHER, OTHER._core, HAT.as_dict(), HAT._items, vars(ARENA), TEXT,
]


def door(annotation: object) -> tuple[type | None, bool]:
    """The door class `annotation` names, if any, and whether it lets None in."""
    kinds = typing.get_args(annotation) or (annotation,)
    return next((k for k in kinds if k in DOORS), None), type(None) in kinds


def attempt(name: str, judged: bool, wrong: dict) -> str | None:
    """The culprit, if `name` with `wrong` for valid arguments ends as it may not."""
    params = PARAMETERS[name]
    args = {p: VALID[p] for p in params} | wrong
    if "game" in params and "game" not in wrong:
        args["game"] = make_reachability(ARENA)
        if judged:
            value_table(args["game"], HAT)
    try:
        result = SWEPT[name](**args)
        if inspect.isgenerator(result):
            list(result)
        error = None
    except Exception as exc:
        error = exc
    if not wrong:
        ok = error is None
    else:
        first, value = next(iter(wrong.items()))
        cls, none_ok = door(params[first].annotation)
        if cls and not isinstance(value, cls) and not (none_ok and value is None):
            door_error = ProfileError if cls is Profile else TypeError
            expected = f"expected {DOORS[cls]}, got {type(value).__name__}"
            ok = type(error) is door_error and str(error) == expected
        elif error is None or isinstance(error, (ValueError, TooLargeError)):
            ok = True
        else:
            ok = type(error) is TypeError and str(error).startswith("expected")
    return None if ok else f"{name}(**{wrong!r}) -> {error!r}"


def test_every_parameter_is_known():
    unknown = [f"{n}({p})" for n in SWEPT for p in PARAMETERS[n] if p not in VALID]
    assert not unknown, f"add {unknown} to VALID"


def test_every_public_class_is_listed():
    # Before Python 3.11 `inspect.isclass` also holds for aliases such as
    # `Strategy = dict[str, str]`; `typing.get_origin` tells them apart.
    classes = {
        n
        for n in mprs.__all__
        if inspect.isclass(getattr(mprs, n)) and typing.get_origin(getattr(mprs, n)) is None
    }
    unlisted = classes - CHECKING - RECORDS
    assert not unlisted, f"add {unlisted} to CHECKING or RECORDS"
    unreceived = {n for n in classes if methods(getattr(mprs, n))} - {c.__name__ for c in RECEIVERS}
    assert not unreceived, f"add a receiver of {unreceived} to RECEIVERS"


# Method calls that once let a bare error out, each with its typed error.
LEAKS = [
    ("Game.successors", "nope", ValueError, "unknown vertex 'nope'"),
    ("Game.successors", [], ValueError, "unknown vertex []"),
    ("PayoffValue.numeric", None, TypeError, "expected a Fraction, got NoneType"),
    ("PayoffValue.numeric", b"1/2", TypeError, "expected a Fraction, got bytes"),
    ("PayoffValue.numeric", float("inf"), ValueError, "gamma must be a finite number, got inf"),
    ("PayoffValue.numeric", float("nan"), ValueError, "gamma must be a finite number, got nan"),
    ("PayoffValue.numeric", "1/0", ValueError, "gamma must be a finite number, got '1/0'"),
    ("PayoffValue.numeric", "zz", ValueError, "gamma must be a finite number, got 'zz'"),
    ("Profile.replace", [], ProfileError, "a player id must be an int, got []"),
    # `True` and `1.0` equal player 1's id, yet name no player.
    ("Profile.replace", True, ProfileError, "a player id must be an int, got True"),
    ("Profile.replace", 1.0, ProfileError, "a player id must be an int, got 1.0"),
    ("Profile.choice", True, ProfileError, "a player id must be an int, got True"),
    ("Profile.choice", 1.0, ProfileError, "a player id must be an int, got 1.0"),
    ("Profile.choice", [], ProfileError, "a player id must be an int, got []"),
]


@pytest.mark.parametrize(
    "name, value, error, message", LEAKS, ids=[f"{n}({v!r})" for n, v, *_ in LEAKS]
)
def test_a_method_raises_its_typed_error(name, value, error, message):
    first = next(iter(PARAMETERS[name]))
    with pytest.raises(Exception) as raised:
        SWEPT[name](**{p: VALID[p] for p in PARAMETERS[name]} | {first: value})
    assert type(raised.value) is error and str(raised.value) == message


def test_the_method_doors_take_what_they_took():
    assert G1.successors("v1") == ("v2", "v3") and G1.successors("v3") == ()
    gammas = (Fraction(1, 2), 0.5, "1/2", Decimal("0.5"))
    assert {PayoffValue(-1, 2).numeric(gamma) for gamma in gammas} == {Fraction(-1, 4)}
    assert PayoffValue(1, 3).numeric(True) == PayoffValue(1).numeric(2) == 1
    assert HAT.replace(2, {"v2": "v1"}) == HAT


# Each swept name on a fresh g1; those that take a game also on one that judged `HAT`.
RUNS = [(n, False) for n in SWEPT] + [(n, True) for n in SWEPT if "game" in PARAMETERS[n]]


@pytest.mark.parametrize(
    "name, judged", RUNS, ids=[f"{n}-{'judged' if j else 'fresh'}" for n, j in RUNS]
)
def test_hostile_arguments(name, judged):
    """The valid call, then each hostile value for one argument."""
    params = PARAMETERS[name]
    cases = [{}] + [{p: value} for p in params for value in HOSTILE]
    failures = list(filter(None, (attempt(name, judged, wrong) for wrong in cases)))
    assert not failures, "\n".join(failures)


# The swept names whose first parameter has a door.
GUARDED = [n for n, ps in PARAMETERS.items() if ps and door(next(iter(ps.values())).annotation)[0]]


@pytest.mark.parametrize("name", GUARDED)
def test_the_first_door_wins(name):
    """A first argument that has a door, wrong together with each hostile
    value of each later argument, meets its own door."""
    first, *later = PARAMETERS[name]
    cases = [{first: f, p: v} for f in HOSTILE for p in later for v in HOSTILE]
    failures = list(filter(None, (attempt(name, False, wrong) for wrong in cases)))
    assert not failures, "\n".join(failures)


# Each subcommand with valid options; `WORDS` replace the value of each in turn.
COMMANDS = {
    "validate": "", "enumerate": "", "cross-check": "", "simulate": "--profile=hat --start=v1",
    "check": "--profile=hat --qualitative", "solve": "--limit=1 --max-rounds=5 --method=brd",
    "export-dot": "--profile=hat --values", "gen": "--seed=1 --vertices=4 --players=2 --density=.5",
}
WORDS = ["0", "-1", "1.5", "nan", "inf", "", "zz", "v9"]
# The subcommands that read a game document: all but gen.
READERS = [c for c in COMMANDS if c != "gen"]
# Hostile JSON values, each read as a whole document and as one key's value.
BAD_JSON = [
    None, True, 0, -1, 1.5, float("nan"), "", "zz", [], {}, {"1": None}, {"1": {"v1": None}},
]


def documents(command: str, tmp_path) -> list[str]:
    """A missing file, a directory, non-UTF-8 bytes, each hostile JSON value as
    a document and `command`'s share of the documents with one key replaced,
    the shares of `READERS` reading each of those once."""
    paths = [tmp_path / "missing", tmp_path, tmp_path / "latin1"]
    paths[2].write_bytes('{"gamma": "½"}'.encode("latin-1"))
    doc = json.loads(TEXT)
    replaced = [{**doc, key: value} for key in doc for value in BAD_JSON]
    share = replaced[READERS.index(command) :: len(READERS)]
    for i, value in enumerate(BAD_JSON + share):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(value), encoding="utf-8")
    return [str(path) for path in paths]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_hostile_command_line_ends_in_an_exit_code(command, tmp_path, capsys, monkeypatch):
    """Each subcommand reads each of `documents` with valid options, and the
    valid document with each option's value replaced in turn by each of `WORDS`;
    no call fails with no word or a traceback."""
    options = COMMANDS[command].split()
    if command == "gen":
        head, argvs = [command], []
    else:
        valid = tmp_path / "valid.json"
        valid.write_text(TEXT, encoding="utf-8")
        head = [command, str(valid)]
        argvs = [[command, path, *options] for path in documents(command, tmp_path)]
    for i, option in enumerate(options):
        if "=" not in option:
            continue
        key = option.split("=")[0]
        for word in WORDS:
            argvs.append(head + options[:i] + [f"{key}={word}"] + options[i + 1 :])
    runs = [(argv, "1000") for argv in argvs]
    runs += [(head + options, guard) for guard in ("0", "abc")]
    failures = []
    for argv, guard in runs:
        monkeypatch.setenv("MPRS_ENUM_GUARD", guard)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = exc
        err = capsys.readouterr().err
        silent = code != 0 and not err
        if code not in (0, 1, 2) or "Traceback" in err or silent:
            failures.append(f"{argv} with MPRS_ENUM_GUARD={guard}: {code!r} {err!r}")
    assert not failures, "\n".join(failures)
