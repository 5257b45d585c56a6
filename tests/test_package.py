"""The package namespace: what `import mprs` offers."""

from __future__ import annotations

import types

import mprs


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(mprs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(mprs.__all__) == public
    assert mprs.__all__ == sorted(mprs.__all__)
