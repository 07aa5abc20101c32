"""Run with ``pytest benchmarks/e2e/tests`` from the repository root; the
tier-1 suite (``testpaths = ["tests"]``) does not collect this directory."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
