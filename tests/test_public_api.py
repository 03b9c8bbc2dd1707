"""The package's exported names: every entry of `__all__` must exist."""

from __future__ import annotations

import lifter


def test_every_exported_name_resolves():
    missing = [name for name in lifter.__all__ if not hasattr(lifter, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from lifter import *", namespace)
    assert set(lifter.__all__) <= namespace.keys()
