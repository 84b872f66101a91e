"""Every demo script runs to the end in a fresh interpreter.

The demos call the public API the way a reader would, so an API change that
breaks one shows here.  conftest.py puts this checkout's src on PYTHONPATH.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path):
    proc = subprocess.run([sys.executable, path], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
