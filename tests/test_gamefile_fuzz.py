"""Mutation fuzzing of `parse_document`: bad input must end in a typed error.

Each example edits the worked G1 document at random paths (replacing,
deleting or inserting JSON values such as NaN, infinities, booleans, huge
integers and odd strings) and feeds the result back through the parser.
"""

from __future__ import annotations

import json
import math

import pytest

from mprs import InvalidGameError, ParseError, ProfileError, parse_document
from test_gamefile import G1_TEXT

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402

ODD_SCALARS = [
    math.nan, math.inf, -math.inf, True, False, None, 0, -1, 2, 1.5, 2**64, -(10**100),
    "", "0", "01", "+1", "1_0", " 1", "nan", "Infinity", "1/0", "0/0", "v1", "v9",
    "reacher", "avoider", "\u0000", "é",
]
VALUES = st.one_of(
    st.sampled_from(ODD_SCALARS),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.sampled_from(ODD_SCALARS), max_size=2),
    st.dictionaries(
        st.sampled_from(["1", "01", "v1", "id"]), st.sampled_from(ODD_SCALARS), max_size=2
    ),
)
NEW_KEYS = st.sampled_from(
    ["gamma", "players", "vertices", "edges", "profiles", "id", "role", "targets", "owner"]
    + ["1", "01", "v1", "x"]
)


def _mutate(data, node) -> None:
    """Replace, delete or insert one value somewhere inside `node`."""
    keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
    op = data.draw(st.sampled_from(["descend", "replace", "delete", "insert"]))
    if op == "insert" or not keys:
        if isinstance(node, dict):
            node[data.draw(NEW_KEYS)] = data.draw(VALUES)
        else:
            node.insert(data.draw(st.integers(0, len(node))), data.draw(VALUES))
        return
    key = data.draw(st.sampled_from(keys))
    if op == "descend" and isinstance(node[key], (dict, list)):
        _mutate(data, node[key])
    elif op == "delete":
        del node[key]
    else:
        node[key] = data.draw(VALUES)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_parse_document_raises_only_typed_errors(data):
    doc = json.loads(G1_TEXT)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    try:
        parse_document(json.dumps(doc))
    except (ParseError, InvalidGameError, ProfileError):
        pass
