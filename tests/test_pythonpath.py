"""The suite tests the ``blockvd`` that ``PYTHONPATH`` names.

The checkout's root ``conftest.py`` adds its own ``src`` only when no
other ``blockvd`` is importable, so a run of this suite with
``PYTHONPATH`` pointing at another tree tests that tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import blockvd

ROOT = Path(__file__).resolve().parents[1]


def test_pythonpath_tree_is_the_one_tested(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(
        Path(blockvd.__file__).parent,
        other / "blockvd",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    init = other / "blockvd" / "__init__.py"
    init.write_text(
        init.read_text() + '\nimport sys\nprint("blockvd from", __file__, file=sys.stderr)\n'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "--collect-only", "tests/test_oracle.py"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(other)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    found = [
        line.split(" ", 2)[2]
        for line in proc.stderr.splitlines()
        if line.startswith("blockvd from ")
    ]
    assert found, proc.stderr
    assert {Path(f).resolve() for f in found} == {init.resolve()}
