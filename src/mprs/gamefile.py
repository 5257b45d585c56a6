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
game.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .game import Game, GameSpec, Role, validate_game
from .valuation import PayoffValue, Profile, check_profile


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


def _require_keys(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in {where}")


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
        if isinstance(pid, bool) or not isinstance(pid, int):
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
        if not isinstance(entry, dict):
            raise ParseError("each vertex must be an object")
        _require_keys(entry, {"id", "owner"}, "vertex")
        if "id" not in entry or "owner" not in entry:
            raise ParseError("each vertex needs 'id' and 'owner'")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise ParseError(f"vertex id must be a string, got {vid!r}")
        if vid in owner:
            raise ParseError(f"duplicate vertex id {vid!r}")
        pid = entry["owner"]
        if isinstance(pid, bool) or not isinstance(pid, int):
            raise ParseError(f"owner of {vid!r} must be an integer player id")
        vertices.append(vid)
        owner[vid] = pid
    return vertices, owner


def _parse_edges(raw: Any) -> list[tuple[str, str]]:
    if not isinstance(raw, list):
        raise ParseError("'edges' must be a list")
    edges = []
    for entry in raw:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(e, str) for e in entry)
        ):
            raise ParseError(f"each edge must be a pair of vertex ids, got {entry!r}")
        edges.append((entry[0], entry[1]))
    return edges


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


def emit_game(game: Game, profiles: Mapping[str, Profile] | None = None) -> str:
    """Canonical document text for a validated game.

    Structurally equal games yield byte-identical output regardless of the
    order their pieces were supplied in.
    """
    doc: dict[str, Any] = {
        "gamma": str(game.gamma),
        "players": [
            {"id": n, "role": game.roles[n].value, "targets": sorted(game.targets[n])}
            for n in game.players
        ],
        "vertices": [{"id": v, "owner": game.owner[v]} for v in game.vertices],
        "edges": [[u, w] for u, w in game.edges],
    }
    if profiles:
        doc["profiles"] = {
            name: profile_to_json(profile) for name, profile in sorted(profiles.items())
        }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
        check_profile(game, profile)
        chosen = {
            (v, profile.choice(game.owner[v], v)) for v in game.choice_vertices
        }

    lines = ["digraph game {", "  rankdir=LR;"]
    for v in game.vertices:
        n = game.owner[v]
        shape = "box" if game.roles[n] is Role.REACHER else "ellipse"
        label_parts = [v, f"P{n} {game.roles[n].value}"]
        if values is not None:
            label_parts.append(
                " ".join(f"u{m}={values[m][v]}" for m in game.players)
            )
        label = "\\n".join(
            part.replace("\\", "\\\\").replace('"', '\\"') for part in label_parts
        )
        attrs = [f'label="{label}"', f"shape={shape}"]
        if v in game.total_target:
            attrs.append("peripheries=2")
        lines.append(f"  {_dot_quote(v)} [{', '.join(attrs)}];")
    for u, w in game.edges:
        attr = ' [penwidth=2.5, color="royalblue"]' if (u, w) in chosen else ""
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(w)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
