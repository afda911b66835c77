"""Rewrite ``manifest.json`` from the fixed-seed set in ``test_golden.py``.

    python tests/golden/rewrite_manifest.py

Run it from a source checkout (the package is imported from ``src/``)
only when a change moves fixed-seed outputs on purpose, and list the
changed files with the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import MANIFEST, build_info, run_set  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = run_set(Path(tmp))
    MANIFEST.write_text(json.dumps({"build": build_info(), "sha256": hashes},
                                   indent=2, sort_keys=True) + "\n")
    print(f"{MANIFEST}: {len(hashes)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
