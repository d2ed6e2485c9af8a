"""Locating the checkout's monoidkit source."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_monoidkit():
    """Import monoidkit from the checkout's `src/`, never from an installed copy.

    Exits with code 2 when the checkout holds no source, so a directory with
    only the benchmark fails instead of measuring some other build.
    """
    init = SRC / "monoidkit" / "__init__.py"
    if not init.is_file():
        _fail(f"no monoidkit source at {init.relative_to(ROOT)}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("monoidkit")
    if Path(module.__file__).resolve() != init.resolve():
        _fail(f"imported monoidkit from {module.__file__}, not from the checkout")
    return module


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)

