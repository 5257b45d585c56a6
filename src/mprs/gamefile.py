"""JSON game documents, canonical emission and DOT export.

A document is a single JSON object with these keys and no others:

    {
      "gamma": "1/2",
      "players": [{"id": 1, "role": "reacher", "targets": ["v3"]}, ...],
      "vertices": [{"id": "v1", "owner": 1}, ...],
      "edges": [["v1", "v2"], ...],
      "profiles": {"name": {"1": {"v1": "v3"}}, ...}
    }

"gamma" (default "1/2") is a rational written as a string; plain JSON
numbers are accepted and read exactly by their decimal spelling. A
player's "targets" may be omitted, which validation then rejects as an
empty target set. "profiles" is optional and names strategy profiles for
the simulate/check/export commands.

`emit_game` writes the canonical form: keys sorted, players by id,
vertices and edges and target lists in lexicographic order. Equal games
emit byte-identical text, and parsing what was emitted returns an equal
game. The text is byte for byte
`json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"` for
the document `doc` above, but the vertex and edge lists are written
directly: json's indenting encoder runs in pure Python (CPython 3.10-3.13)
and costs over ten times as much. The property
`tests/test_properties.py::test_emitted_text_is_json_dumps_of_the_document`
holds the two to the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring
from typing import AbstractSet, Any, Mapping

from .game import Game, GameSpec, Role, _gc_paused, validate_game
from .limits import _is_int
from .valuation import PayoffValue, Profile, _moves, check_profile

__all__ = [
    "GameDocument",
    "ParseError",
    "emit_game",
    "export_dot",
    "parse_document",
    "profile_to_json",
]


class ParseError(ValueError):
    """The document is not well-formed; syntax errors carry line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class GameDocument:
    """A validated game plus the named profiles shipped with it."""

    game: Game
    profiles: dict[str, Profile] = field(default_factory=dict)


_VERTEX_KEYS = frozenset({"id", "owner"})


def _require_keys(obj: Mapping[str, Any], allowed: AbstractSet[str], where: str) -> None:
    unknown = obj.keys() - allowed
    if unknown:
        raise ParseError(f"unknown key {min(unknown)!r} in {where}")


def _parse_gamma(raw: Any) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise ParseError(f"gamma must be a string or number, got {raw!r}")
    # Exact decimal reading: 0.3 means 3/10, not the nearest binary float.
    # NaN and the infinities have no rational value and fail here too.
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"gamma must be a rational like '1/2', got {raw!r}") from None


def _parse_players(raw: Any) -> tuple[dict[int, Role], dict[int, list[str]]]:
    if not isinstance(raw, list):
        raise ParseError("'players' must be a list")
    roles: dict[int, Role] = {}
    targets: dict[int, list[str]] = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise ParseError("each player must be an object")
        _require_keys(entry, {"id", "role", "targets"}, "player")
        if "id" not in entry or "role" not in entry:
            raise ParseError("each player needs 'id' and 'role'")
        pid = entry["id"]
        if not _is_int(pid):
            raise ParseError(f"player id must be an integer, got {pid!r}")
        if pid in roles:
            raise ParseError(f"duplicate player id {pid}")
        try:
            role = Role(entry["role"])
        except ValueError:
            raise ParseError(
                f"player role must be 'reacher' or 'avoider', got {entry['role']!r}"
            ) from None
        tlist = entry.get("targets", [])
        if not isinstance(tlist, list) or not all(isinstance(t, str) for t in tlist):
            raise ParseError(f"targets of player {pid} must be a list of vertex ids")
        roles[pid] = role
        targets[pid] = tlist
    return roles, targets


def _parse_vertices(raw: Any) -> tuple[list[str], dict[str, int]]:
    if not isinstance(raw, list):
        raise ParseError("'vertices' must be a list")
    vertices: list[str] = []
    owner: dict[str, int] = {}
    for entry in raw:
        # One test settles a well-formed entry; the others find the message.
        if not isinstance(entry, dict) or entry.keys() != _VERTEX_KEYS:
            if not isinstance(entry, dict):
                raise ParseError("each vertex must be an object")
            _require_keys(entry, _VERTEX_KEYS, "vertex")
            raise ParseError("each vertex needs 'id' and 'owner'")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise ParseError(f"vertex id must be a string, got {vid!r}")
        if vid in owner:
            raise ParseError(f"duplicate vertex id {vid!r}")
        pid = entry["owner"]
        # A JSON int has the exact type; `validate_game` checks the player.
        if type(pid) is not int:
            raise ParseError(f"owner of {vid!r} must be an integer player id")
        vertices.append(vid)
        owner[vid] = pid
    return vertices, owner


def _parse_edges(raw: Any) -> list[list[str]]:
    if not isinstance(raw, list):
        raise ParseError("'edges' must be a list")
    # JSON values have exact types, so `type` tests stand in for `isinstance`.
    for entry in raw:
        if not (
            type(entry) is list
            and len(entry) == 2
            and type(entry[0]) is str
            and type(entry[1]) is str
        ):
            raise ParseError(f"each edge must be a pair of vertex ids, got {entry!r}")
    return raw


def _parse_profiles(raw: Any, game: Game) -> dict[str, Profile]:
    if not isinstance(raw, dict):
        raise ParseError("'profiles' must be an object")
    profiles = {}
    for name, body in raw.items():
        if not isinstance(body, dict):
            raise ParseError(f"profile {name!r} must be an object")
        strategies: dict[int, dict[str, str]] = {}
        for key, moves in body.items():
            try:
                pid = int(key)
            except ValueError:
                pid = None
            # Only canonical spellings, so "1" and "01" cannot both name player 1.
            if pid is None or str(pid) != key:
                raise ParseError(f"profile {name!r} keys must be player ids, got {key!r}")
            if not isinstance(moves, dict) or not all(
                isinstance(v, str) and isinstance(w, str) for v, w in moves.items()
            ):
                raise ParseError(f"strategy of player {pid} in {name!r} must map vertices to vertices")
            strategies[pid] = dict(moves)
        profile = Profile(strategies)
        check_profile(game, profile)
        profiles[name] = profile
    return profiles


@_gc_paused
def parse_document(text: str) -> GameDocument:
    """Parse and validate a JSON game document.

    Raises:
        ParseError: on malformed JSON (with line and column) or on any
            shape problem such as unknown keys or wrong types.
        InvalidGameError: when the described game breaks an invariant.
        ProfileError: when a shipped profile does not fit the game.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise ParseError(f"unreadable document: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")
    _require_keys(raw, {"gamma", "players", "vertices", "edges", "profiles"}, "document")

    roles, targets = _parse_players(raw.get("players", []))
    vertices, owner = _parse_vertices(raw.get("vertices", []))
    edges = _parse_edges(raw.get("edges", []))
    gamma = _parse_gamma(raw.get("gamma", "1/2"))

    game = validate_game(GameSpec(vertices, edges, owner, roles, targets, gamma))
    profiles = _parse_profiles(raw.get("profiles", {}), game)
    return GameDocument(game, profiles)


def profile_to_json(profile: Profile) -> dict[str, dict[str, str]]:
    """JSON shape of a profile: player ids as strings, moves sorted."""
    return {
        str(n): dict(sorted(moves.items())) for n, moves in profile.as_dict().items()
    }


def _nested(section: Any) -> str:
    # JSON text holds no raw newline, so this indents every line one level.
    return json.dumps(section, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", "\n  ")


def emit_game(game: Game, profiles: Mapping[str, Profile] | None = None) -> str:
    """Canonical document text for a validated game.

    Structurally equal games yield byte-identical output regardless of the
    order their pieces were supplied in. A profile that fails
    `check_profile` is a ProfileError, as `parse_document` would raise.
    """
    # Each vertex id is escaped once. Every list entry is written with a
    # leading comma, which the first entry of its list then drops.
    ids = list(map(encode_basestring, game.vertices))
    parts = ['{\n  "edges": [']
    for u, ws in zip(ids, game._isucc):
        for j in ws:
            parts += (",\n    [\n      ", u, ",\n      ", ids[j], "\n    ]")
    if len(parts) > 1:
        parts[1] = parts[1][1:]
        parts.append("\n  ")
    players = [
        {"id": n, "role": game.roles[n].value, "targets": sorted(game.targets[n])}
        for n in game.players
    ]
    parts += ['],\n  "gamma": ', encode_basestring(str(game.gamma))]
    parts += [',\n  "players": ', _nested(players)]
    if profiles:
        for profile in profiles.values():
            check_profile(game, profile)
        named = {name: profile_to_json(profile) for name, profile in profiles.items()}
        parts += [',\n  "profiles": ', _nested(named)]
    parts.append(',\n  "vertices": [')
    first = len(parts)
    # `int.__repr__`, as json writes ints, so an int-subclass owner is a number.
    owners = map(int.__repr__, map(game.owner.__getitem__, game.vertices))
    for v, n in zip(ids, owners):
        parts += (',\n    {\n      "id": ', v, ',\n      "owner": ', n, "\n    }")
    parts[first] = parts[first][1:]
    parts.append("\n  ]\n}\n")
    return "".join(parts)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(
    game: Game,
    profile: Profile | None = None,
    values: dict[int, dict[str, PayoffValue]] | None = None,
) -> str:
    """Render the game graph in DOT.

    Vertices owned by reachers are boxes, those owned by avoiders are
    ellipses, and target vertices get a double border. When a profile is
    given its chosen edges are highlighted; when a value table is given
    each vertex is annotated with every player's exact payoff from there.
    """
    chosen: set[tuple[str, str]] = set()
    if profile is not None:
        names, nxt = game.vertices, _moves(game._core, profile)
        chosen = {(names[v], names[nxt[v]]) for v in game._core.choice}

    lines = ["digraph game {", "  rankdir=LR;"]
    for v in game.vertices:
        n = game.owner[v]
        shape = "box" if game.roles[n] is Role.REACHER else "ellipse"
        label_parts = [v, f"P{n} {game.roles[n].value}"]
        if values is not None:
            label_parts.append(" ".join(f"u{m}={values[m][v]}" for m in game.players))
        label = "\\n".join(map(_dot_escape, label_parts))
        attrs = [f'label="{label}"', f"shape={shape}"]
        if v in game.total_target:
            attrs.append("peripheries=2")
        lines.append(f'  "{_dot_escape(v)}" [{", ".join(attrs)}];')
    for u in game.vertices:
        for w in game.successors(u):
            attr = ' [penwidth=2.5, color="royalblue"]' if (u, w) in chosen else ""
            lines.append(f'  "{_dot_escape(u)}" -> "{_dot_escape(w)}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
