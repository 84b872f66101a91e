"""Make the package importable in the interpreters that tests start.

pytest's `pythonpath` setting reaches this process only; prepending the
absolute src path to PYTHONPATH lets `python -m boolrel.cli` and other child
interpreters import boolrel from this checkout too.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
