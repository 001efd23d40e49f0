"""Child processes started by the tests import selrec from this tree, as
the tests themselves do through pytest's `pythonpath` setting."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
