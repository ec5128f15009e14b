"""The golden manifest: every quick experiment and benchmark digest.

See ``tests/golden_manifest.py`` for what each entry hashes and for the
command that rewrites ``tests/golden/manifest.json`` after a deliberate
behaviour change.
"""

from __future__ import annotations

import golden_manifest


def test_manifest_lists_every_entry():
    assert sorted(golden_manifest.load()) == sorted(golden_manifest.entry_names())


def test_every_entry_reproduces():
    expected = golden_manifest.load()
    moved = [
        f"{name}: {expected[name]} -> {actual}"
        for name in golden_manifest.entry_names()
        if (actual := golden_manifest.compute(name)) != expected.get(name)
    ]
    assert not moved, "golden manifest entries moved:\n" + "\n".join(moved)
