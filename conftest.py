"""Make the checkout's ``src`` importable when no other ``blockvd`` is.

A ``blockvd`` that ``PYTHONPATH`` (or an installed copy) provides wins,
so ``PYTHONPATH=/other/tree/src python -m pytest`` tests that tree.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("blockvd") is None:
    sys.path.append(str(Path(__file__).resolve().parent / "src"))
