"""``pytest bench/tests -q`` — not part of the tier-1 suite (pyproject's
``testpaths`` keeps ``tests/`` the default)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import harness  # noqa: E402

harness.prepare_environment()
