"""Compare experiment JSON artifacts modulo their ``run_meta`` records.

Every experiment's JSON entry carries a ``run_meta`` record (worker
count, shard plan, per-cell wall clock) that legitimately differs
between invocations; everything else is the measurement and must be
byte-identical across worker counts, shard sizes and repeated runs.

Usage::

    python tests/quick_json.py serial.json pooled.json

exits 0 when the two artifacts agree once ``run_meta`` is dropped and
exits 1 naming the files otherwise. The golden manifest
(``tests/golden_manifest.py``) hashes :func:`canonical_text` of each
quick run.
"""

from __future__ import annotations

import hashlib
import json
import sys


def canonical(doc: dict) -> dict:
    """``doc`` (``{experiment_id: data}``) without any ``run_meta``."""
    return {
        experiment_id: {key: value for key, value in data.items() if key != "run_meta"}
        for experiment_id, data in doc.items()
    }


def canonical_text(doc: dict) -> str:
    """Key-sorted JSON text of :func:`canonical`."""
    return json.dumps(canonical(doc), sort_keys=True, indent=2)


def digest(doc: dict) -> str:
    """First 16 hex digits of the sha256 of :func:`canonical_text`."""
    return hashlib.sha256(canonical_text(doc).encode()).hexdigest()[:16]


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str]) -> int:
    first, second = argv
    if canonical(load(first)) != canonical(load(second)):
        print(f"{second} diverged from {first} (run_meta aside)", file=sys.stderr)
        return 1
    print(f"{second} == {first} (run_meta aside)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
