"""Locate the elastrip sources of the checkout this benchmark belongs to.

The benchmark always measures the package under ``<checkout>/src``, never an
installed copy, so a checkout without sources fails instead of measuring
something else.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``; exit 1 if it is missing."""
    if not (SRC / "elastrip" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no elastrip sources under {SRC}")
    sys.path.insert(0, str(SRC))
