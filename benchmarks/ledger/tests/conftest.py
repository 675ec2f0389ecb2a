"""Self-tests of the perf ledger. Run from the repo root with
``PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q`` (outside
tier-1's ``testpaths``)."""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent.parent
REPO = LEDGER.parent.parent
for path in (REPO / "src", LEDGER):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
